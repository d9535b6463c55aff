"""Effective (homogenized) diffusion matrices.

The matrix is assembled from cell solutions, a_hom e_k = integral of
a (grad_y Phi_k + e_k) over the space-time cell, using the discrete
energy pairing so that the result inherits the symmetry and ellipticity
structure of the discrete operator. The pairing, the corrector-gradient
Gram, the corrector norms and the skew integral are each one array pass
over the cell rows of all directions, stacked with shape (N, rows,
cells). In the critical regime a_hom depends on the macroscopic solution
through |u0| only, so it is tabulated against a grid of |u0| values and
interpolated linearly in log(1 + |u0|).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from . import cellsolve as cs, workers
from .errors import (
    BoundViolated,
    ConfigError,
    DimensionMismatch,
    RegimeMismatch,
    SkewFormulaMismatch,
    SymmetryViolated,
)
from .fields import (CellGrid, PeriodicMatrixField, float_list, read_artifact, sample_grid,
                     write_artifact)

AHOM_MAGIC = "oscidiff-ahom v1"
SYMMETRY_TOL = 1e-9
# Allowed violation of the ellipticity sandwich, and the constant C of the
# skew-formula tolerance C (h_y^2 + h_s).
SANDWICH_SLACK = 1e-8
SKEW_TOL_C = 2.0
SANDWICH_PROBES = 64  # the random unit directions of ``ellipticity_report``
ORACLE_POINTS = 1024  # midpoints per axis of ``harmonic_mean_oracle_1d``


class TableClampWarning(UserWarning):
    """|u0| fell outside the tabulated hull and was clamped."""


@dataclass(frozen=True)
class EffectiveTensor:
    """Homogenized matrix, constant or tabulated against |u0|.

    ``matrices`` has shape (m, N, N); constant regimes store m = 1 and
    ``u0abs_keys`` is None. ``corrector_norms[i, k]`` is the corrector
    L2 norm integral for entry i and direction k, and ``grad_grams[i]``
    the Gram matrix of corrector gradients used by the ellipticity
    sandwich.
    """

    regime: str
    dim: int
    lam: float
    Lam: float
    matrices: np.ndarray
    corrector_norms: np.ndarray
    grad_grams: np.ndarray
    u0abs_keys: Optional[np.ndarray] = None
    p: Optional[float] = None

    @property
    def is_table(self):
        return self.u0abs_keys is not None

    @property
    def matrix(self):
        if self.is_table:
            raise RegimeMismatch("tabulated tensor has no single matrix; use entry_at()")
        return self.matrices[0]

    @cached_property
    def _segments(self):
        """The sorted log keys, the interior keys that place a value in its
        segment, the segment widths, and each segment's end matrices."""
        keys = np.log1p(self.u0abs_keys)
        return keys, keys[1:-1], keys[1:] - keys[:-1], self.matrices[:-1], self.matrices[1:]

    def _key_segment(self, u0vals):
        """The |u0| key rule: segment i and weight theta of x = log(1 + |u0|)
        clamped to the hull of the log keys, and the number of values beyond
        it by more than 1e-15."""
        keys, inner, widths, _, _ = self._segments
        x = np.log1p(np.abs(np.asarray(u0vals, dtype=float)))
        n_out = 0
        if x.size and not (keys[0] <= x.min() and x.max() <= keys[-1]):  # a NaN fails it too
            n_out = int(np.count_nonzero((x < keys[0] - 1e-15) | (x > keys[-1] + 1e-15)))
            x = np.clip(x, keys[0], keys[-1])
        i = inner.searchsorted(x, side="right")  # the last key <= x, in [0, len(keys) - 2]
        return i, (x - keys[i]) / widths[i], n_out

    def nearest_key(self, u0vals):
        """Index of the key nearest each |u0|: the nearer end of its segment,
        ties to the lower key (0 for a constant tensor)."""
        if not self.is_table:
            return np.zeros(np.shape(u0vals), dtype=np.intp)
        i, theta, _ = self._key_segment(u0vals)
        return i + (theta > 0.5)

    def entry_at(self, u0val):
        """Matrix at one |u0| value: ``entries_at`` at a single point."""
        return self.entries_at(float(u0val))

    def entries_at(self, u0vals, clamped=None):
        """Matrices at the given |u0| values, linear in log(1 + |u0|), shape
        (..., N, N). Values outside the table hull are clamped to it, with
        one TableClampWarning per call, or, given a list ``clamped``, their
        number appended to it instead."""
        if not self.is_table:
            return np.broadcast_to(self.matrices[0],
                                   np.shape(u0vals) + (self.dim, self.dim))
        i, theta, n_out = self._key_segment(u0vals)
        if n_out and clamped is not None:
            clamped.append(n_out)
        elif n_out:
            warnings.warn(f"{n_out} |u0| values clamped to the table hull",
                          TableClampWarning, stacklevel=3)
        _, _, _, lo, hi = self._segments
        theta = theta[..., None, None]
        out = (1.0 - theta) * lo.take(i, axis=0)
        out += theta * hi.take(i, axis=0)
        return out


def assemble_ahom(cells, field: PeriodicMatrixField, grid: CellGrid,
                  ops=None) -> EffectiveTensor:
    """Assemble the homogenized matrix from one cell solution per direction.

    ``ops`` is the ``cs.cell_operators`` set the cells were solved on,
    built here when not given. Row j of each cell pairs with ops[j]; the
    cells must share capacity and grid."""
    dim = field.dim
    if len(cells) != dim or sorted(c.k for c in cells) != list(range(1, dim + 1)):
        raise RegimeMismatch(f"need cell solutions for k = 1..{dim}")
    if any(c.capacity != cells[0].capacity for c in cells):
        raise RegimeMismatch("cell solutions mix capacities "
                             f"{sorted({c.capacity for c in cells})}")
    if any(c.grid != grid for c in cells):
        raise RegimeMismatch("cell solutions were computed on a different grid")
    cells = sorted(cells, key=lambda c: c.k)
    if ops is None:
        ops = cs.cell_operators(field, grid, cells[0].capacity)
    if any(len(c.phi) != len(ops) for c in cells):
        raise RegimeMismatch(f"cell solutions need one row per operator, {len(ops)}")
    m, M = len(ops), grid.M_y
    hN = 1.0 / (M**dim)
    phi = np.stack([c.phi for c in cells])  # (k, row, cell)
    b = np.array([op.b for op in ops])  # (row, j, cell)
    # B(y_j, y_k + phi_k) = pair_const[j,k] - <b_j, phi_k> h^N, given K phi_k = b_k
    A = sum(op.pair_const for op in ops) - hN * np.einsum("rjn,krn->jk", b, phi)
    # identity-coefficient energy of the forward face differences M(phi[i + e_d] - phi[i])
    cube = M * phi.reshape(dim, m, *(M,) * dim)
    gram = sum(D @ D.T for D in ((np.roll(cube, -1, axis=2 + d) - cube).reshape(dim, -1)
                                 for d in range(dim)))
    norms = np.einsum("krn,krn->k", phi, phi)
    return EffectiveTensor(
        regime=cells[0].regime, dim=dim, lam=field.lam, Lam=field.Lam,
        matrices=(A / m)[np.newaxis], corrector_norms=(hN * norms / m)[np.newaxis],
        grad_grams=(hN * gram / m)[np.newaxis],
    )


def default_u0abs_grid():
    """{0} plus 16 log-spaced values in [1e-3, 10]."""
    return np.concatenate([[0.0], np.logspace(-3, 1, 16)])


def _tabulate_critical(field, grid, p, u0abs_grid=None, keep_cells=True):
    """Critical a_hom table and its cells: (tensor, cells), where cells[i]
    holds the per-direction cell solutions of the tensor's key i.

    The slice operators are built here once; each key is one task of
    ``workers.run_tasks`` on them, and a failure raises the error of the
    first failing key, prefixed with its ``u0abs=``. With keep_cells=False
    the cells of each key are dropped once assembled and the list is
    empty; holding every key's 2D correctors would raise the table's peak
    memory by the size of all of them."""
    keys = np.asarray(default_u0abs_grid() if u0abs_grid is None else u0abs_grid, dtype=float)
    if len(keys) < 4 or np.any(np.diff(keys) <= 0) or keys[0] != 0.0:
        raise ConfigError("u0abs grid must be sorted, have >= 4 entries, and include 0")
    capacities = [cs.capacity(2.0, p, float(u0)) for u0 in keys]
    slices = cs.slice_operators(field, grid)

    def solve_key(c):
        ops = cs.cell_operators(field, grid, c, slices=slices)
        key_cells = cs.solve_cells(field, grid, c, ops=ops)
        return (assemble_ahom(key_cells, field, grid, ops=ops),
                key_cells if keep_cells else None)

    # the keys are independent tasks on the shared slice operators
    outcomes = workers.run_tasks([partial(solve_key, c) for c in capacities])
    for u0, out in zip(keys, outcomes):
        if isinstance(out, Exception):  # the first failing key, in key order
            wrapped = type(out)(f"u0abs={u0:.6g}: {out}")
            wrapped.__dict__.update(out.__dict__)  # defect, residual, ...
            raise wrapped from out
    tensors = [t for t, _ in outcomes]
    cells = [c for _, c in outcomes] if keep_cells else []
    tensor = EffectiveTensor(
        regime="critical", dim=field.dim, lam=field.lam, Lam=field.Lam,
        matrices=np.array([t.matrices[0] for t in tensors]),
        corrector_norms=np.array([t.corrector_norms[0] for t in tensors]),
        grad_grams=np.array([t.grad_grams[0] for t in tensors]),
        u0abs_keys=keys, p=p,
    )
    return tensor, cells


def tabulate_ahom_critical(field: PeriodicMatrixField, grid: CellGrid, p: float,
                           u0abs_grid=None, jobs: int = 1) -> EffectiveTensor:
    """Solve the critical cell problems per |u0| entry and tabulate a_hom.

    The M_s slice operators are built once per table and shared by every
    key, direction and assembly; each key factors its M_s step matrices
    once for all directions. The keys are solved in worker processes whose
    number follows the usable CPUs (``workers.run_tasks``), so ``jobs``
    sets nothing and must be 1."""
    if jobs != 1:
        raise ConfigError(f"jobs must be 1 (the number of table workers follows the "
                          f"usable CPUs), got {jobs}")
    return _tabulate_critical(field, grid, p, u0abs_grid, keep_cells=False)[0]


def ellipticity_report(tensor: EffectiveTensor, seed: int = 0):
    """Check the refined ellipticity sandwich on random unit directions.

    For each stored matrix M with corrector-gradient Gram G the quantity
    Q(xi) = |xi|^2 + xi.G xi must satisfy lam Q <= M xi.xi <= Lam Q up to
    SANDWICH_SLACK. Returns the minimal slack and its witness.
    """
    lam, Lam = tensor.lam, tensor.Lam
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((SANDWICH_PROBES, tensor.dim))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    min_slack = np.inf
    witness = None
    for i, (M, G) in enumerate(zip(tensor.matrices, tensor.grad_grams)):
        for xi in probes:
            Q = float(xi @ xi + xi @ G @ xi)
            val = float(xi @ M @ xi)
            lo = val - lam * Q
            hi = Lam * Q - val
            for name, s in (("lower", lo), ("upper", hi)):
                if s < min_slack:
                    min_slack, witness = s, {"entry": i, "xi": xi.copy(),
                                             "bound": name, "slack": s}
            if lo < -SANDWICH_SLACK or hi < -SANDWICH_SLACK:
                raise BoundViolated(
                    f"ellipticity sandwich violated ({witness['bound']} bound, "
                    f"slack {min(lo, hi):.3e}) at entry {i}, xi={xi}"
                )
    return {"min_slack": float(min_slack), "witness": witness,
            "n_matrices": len(tensor.matrices)}


def skew_integral(cells):
    """Discrete time-coupling integral predicting the skew part at r = 2.

    S[j,k] = c * sum over rows m of <Phi_k^m - Phi_k^{m-1}, Phi_j^m> h^N,
    with m - 1 taken mod M_s and the capacity c of the cells, which must
    lie in (0, inf); it equals (a_hom - a_hom^T)/2 up to discretization
    error.
    """
    capacity = cells[0].capacity
    if not 0.0 < capacity < np.inf:
        raise RegimeMismatch(f"skew integral needs cells at a capacity in (0, inf), "
                             f"got c={capacity:g} ({cells[0].regime!r})")
    cells = sorted(cells, key=lambda c: c.k)
    phi = np.stack([c.phi for c in cells])  # (k, row, cell)
    dF = phi - np.roll(phi, 1, axis=1)
    hN = 1.0 / phi.shape[-1]  # 1 / M_y^N
    return capacity * hN * np.einsum("jrn,krn->jk", phi, dF)


def skew_report(tensor: EffectiveTensor, cells=None):
    """Symmetry check (non-critical), or skew-formula check of one critical matrix."""
    if tensor.regime != "critical":
        worst = max(float(np.max(np.abs(M - M.T))) for M in tensor.matrices)
        if worst > SYMMETRY_TOL:
            raise SymmetryViolated(
                f"max asymmetry {worst:.3e} exceeds {SYMMETRY_TOL:.1e}")
        return {"mode": "symmetry", "max_asymmetry": worst}
    if cells is None:
        raise RegimeMismatch("critical skew check needs the cell solutions")
    M = tensor.matrix
    grid = cells[0].grid
    S = skew_integral(cells)
    skew = 0.5 * (M - M.T)
    tol = SKEW_TOL_C * (grid.h_y**2 + grid.h_s)
    mismatch = float(np.max(np.abs(skew - S)))
    if mismatch > tol:
        raise SkewFormulaMismatch(
            f"skew part differs from the time-coupling integral by "
            f"{mismatch:.3e} > tol {tol:.3e}")
    return {"mode": "skew", "skew": skew, "integral": S,
            "mismatch": mismatch, "tol": tol}


def harmonic_mean_oracle_1d(field: PeriodicMatrixField) -> float:
    """High-resolution quadrature oracle for the 1D subcritical effective
    coefficient: the integral over s of the y-harmonic mean of a(., s)
    (for an s-independent field, the classical y-harmonic mean). Uses an
    ORACLE_POINTS x ORACLE_POINTS midpoint grid (about 1e6 points),
    independent of the cell solver.
    """
    if field.dim != 1:
        raise DimensionMismatch("1D oracle needs a one-dimensional field")
    mid = (np.arange(ORACLE_POINTS) + 0.5) / ORACLE_POINTS
    if field.s_independent:
        vals = field.sample(mid[:, np.newaxis], np.zeros(ORACLE_POINTS))[..., 0, 0]
        return float(1.0 / np.mean(1.0 / vals))
    # vals[j, i] = a(y_i, s_j); the sum over s runs in s order (cumsum)
    vals = sample_grid(field, mid[:, np.newaxis], mid)[..., 0, 0]
    return float(np.cumsum(1.0 / np.mean(1.0 / vals, axis=1))[-1] / ORACLE_POINTS)


# ---------------------------------------------------------------------------
# Serialization ("oscidiff-ahom v1") and CSV export


def save_tensor(path, tensor: EffectiveTensor):
    keys = "none" if not tensor.is_table else ",".join(
        f"{k:.17g}" for k in tensor.u0abs_keys)
    meta = {"regime": tensor.regime, "N": tensor.dim,
            "p": float("nan") if tensor.p is None else tensor.p,
            "lam": tensor.lam, "Lam": tensor.Lam, "m": len(tensor.matrices), "keys": keys}
    blocks = [np.vstack([M, nrm, G]) for M, nrm, G in zip(
        tensor.matrices, tensor.corrector_norms, tensor.grad_grams)]
    write_artifact(path, AHOM_MAGIC, meta, np.vstack(blocks))


def load_tensor(path) -> EffectiveTensor:
    meta, rows = read_artifact(path, AHOM_MAGIC, {
        "regime": str, "N": int, "p": float, "lam": float, "Lam": float, "m": int,
        "keys": lambda v: None if v == "none" else float_list(v)})
    dim, m, keys = meta["N"], meta["m"], meta["keys"]
    per = 2 * dim + 1
    if rows.shape != (m * per, dim):
        raise ConfigError(f"{path}: expected {m * per} rows x {dim} cols, got {rows.shape}")
    blocks = rows.reshape(m, per, dim)
    if not (m == 1 if keys is None else m >= 2 and len(keys) == m and np.all(np.diff(keys) > 0)):
        raise ConfigError(f"{path}: keys {'none' if keys is None else keys.tolist()} do not fit "
                          f"m={m}: expected none with m=1, or m >= 2 strictly increasing keys")
    return EffectiveTensor(
        regime=meta["regime"], dim=dim, lam=meta["lam"], Lam=meta["Lam"],
        matrices=blocks[:, :dim], corrector_norms=blocks[:, dim], grad_grams=blocks[:, dim + 1:],
        u0abs_keys=keys, p=None if np.isnan(meta["p"]) else meta["p"],
    )


def export_table_csv(path, tensor: EffectiveTensor):
    """CSV with one row per table entry (or the single constant matrix)."""
    dim = tensor.dim
    cols = [f"a{i + 1}{j + 1}" for i in range(dim) for j in range(dim)]
    with open(path, "w") as fh:
        fh.write("u0abs," + ",".join(cols) + "\n")
        keys = tensor.u0abs_keys if tensor.is_table else [float("nan")]
        for key, M in zip(keys, tensor.matrices):
            fh.write(f"{key:.12g}," + ",".join(f"{v:.12g}" for v in M.ravel()) + "\n")

