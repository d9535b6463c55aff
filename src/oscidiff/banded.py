"""Symmetric band matrices, the one matrix type of every operator.

The periodic cell stencils (numbered in folded order) and the Dirichlet
stencils of the macroscopic solves (row-major order) are narrowly banded.
LAPACK ``pbtrf`` factors their implicit-Euler step matrices and Newton
Jacobians in place and ``pbtrs`` solves, also again and again with one
kept factor (the 2D chord Newton steps).
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
    """Upper band of a symmetric matrix K in LAPACK storage.

    Built from the COO triplets of K, K[rows[t], cols[t]] += vals[t], with
    row and column r of K numbered ``pos[r]``. Entry (i, j), i <= j, sits
    at ab[kd + i - j, j], where the half-width kd is what the stored pattern
    needs, so the diagonal is the last row. Only the rows of ab that hold a
    nonzero are kept: a stencil fills a few diagonals of a much wider band."""

    def __init__(self, rows, cols, vals, pos):
        up = pos[rows] <= pos[cols]
        i, j = pos[rows[up]], pos[cols[up]]
        kd = int(np.max(j - i, initial=0))
        ab = np.zeros((kd + 1, len(pos)))
        np.add.at(ab, (kd + i - j, j), vals[up])
        kept = np.flatnonzero(np.any(ab != 0.0, axis=1))
        self._set(kd, kd - kept, ab[kept])

    @classmethod
    def from_diagonals(cls, diagonals):
        """The band of the nonzero upper diagonals of K: ``diagonals[o]``
        holds K[j - o, j] at place j (its first o places unused)."""
        self = cls.__new__(cls)
        self._set(max(diagonals), np.array(list(diagonals)), np.array(list(diagonals.values())))
        return self

    def _set(self, kd, offsets, values):
        self.kd, self.n, self.rows, self.values = kd, values.shape[1], kd - offsets, values
        # matvec's terms (rows of K, entries, places of x) in a row's column
        # order: lower diagonals from the widest in, diagonal, upper outward
        n, diags = self.n, sorted(zip(offsets.tolist(), values), key=lambda t: t[0])
        self._terms = ([(slice(o, None), d[o:], slice(None, n - o)) for o, d in diags[::-1] if o]
                       + [(slice(None, n - o), d[o:], slice(o, None)) for o, d in diags])

    def matvec(self, x):
        """K x, each row summed from zero in ascending column order, as CSR sums it."""
        out = np.zeros(self.n)
        for at, d, xs in self._terms:
            out[at] += d * x[xs]
        return out

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
