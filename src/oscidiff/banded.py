"""Symmetric positive definite band matrices: band storage and Cholesky.

The implicit-Euler step matrices of the critical cell problems (periodic
stencils, numbered in folded order) and the Newton Jacobians of the 2D
macroscopic solves (Dirichlet stencils in row-major order) are narrowly
banded. LAPACK ``pbtrf`` factors them in place and ``pbtrs`` solves, also
again and again with one kept factor (the 2D chord Newton steps).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import SolverDiverged

_pbtrf, _pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty(0),))


def _check_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class Band:
    """Upper band of a symmetric sparse matrix K in LAPACK storage.

    Row and column r of K are numbered ``pos[r]``. Entry (i, j), i <= j,
    sits at ab[kd + i - j, j], where the half-width kd is what the stored
    pattern needs, so the diagonal is the last row. Only the rows of ab that hold a nonzero are
    kept: a stencil fills a few diagonals of a much wider band."""

    def __init__(self, K, pos):
        coo = K.tocoo()
        i, j = pos[coo.row], pos[coo.col]
        up = i <= j
        i, j = i[up], j[up]
        self.kd = int(np.max(j - i, initial=0))
        self.n = K.shape[0]
        ab = np.zeros((self.kd + 1, self.n))
        np.add.at(ab, (self.kd + i - j, j), coo.data[up])
        self.rows = np.flatnonzero(np.any(ab != 0.0, axis=1))
        self.values = ab[self.rows]

    @classmethod
    def from_diagonals(cls, diagonals):
        """The band of the nonzero upper diagonals of K: ``diagonals[o]``
        holds K[j - o, j] at place j (its first o places unused)."""
        self = cls.__new__(cls)
        self.kd, self.n = max(diagonals), len(diagonals[0])
        self.rows = self.kd - np.array(list(diagonals))
        self.values = np.array(list(diagonals.values()))
        return self

    def shifted(self, scale, diag):
        """The band of scale * K + diag(diag), Fortran-ordered so that
        ``pbtrf`` factors it without a copy."""
        ab = np.zeros((self.kd + 1, self.n), order="F")
        ab[self.rows] = scale * self.values
        ab[-1] += diag
        return ab


class BandCholesky:
    """Cholesky factor of a symmetric positive definite band matrix.

    ``ab`` is its upper band as ``Band`` lays it out; it is overwritten
    by the factor. Raises ValueError for non-finite entries and
    SolverDiverged when the matrix is not positive definite."""

    def __init__(self, ab):
        _check_finite(ab)
        self.factor, info = _pbtrf(ab, overwrite_ab=1)
        if info > 0:
            raise SolverDiverged(f"matrix is not positive definite: leading minor "
                                 f"{info} of {ab.shape[1]} is not positive")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal pbtrf")

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        _check_finite(b)
        x, info = _pbtrs(self.factor, b)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal pbtrs")
        return x
