"""Cell-problem solvers on the discrete periodic unit cell.

Every cell problem is one problem, driven by a unit direction e_k and
periodic in the fast time s:

    c d_s Phi = div_y(a(y,s) [grad Phi + e_k]),

at a capacity c in [0, inf] (``capacity``): c = 0 for r < 2, the
slice-elliptic problem, solved slice by slice in s; c = inf for r > 2,
its c -> inf limit, the elliptic problem for the s-average of a; and
c = (1/p)|u0|^(1-p) at the critical ratio r = 2, for the fast-diffusion
(p < 1) and the porous-medium (p > 1) branch alike (the porous-medium
form, whose unknown is c Phi and whose diffusivity is p|u0|^(p-1) = 1/c,
is the same problem rescaled). For an s-independent a every capacity
gives the elliptic problem of a.

Spatial discretization is a conservative flux form on the periodic cell
grid: diagonal coefficients live on faces (the geometric mean of the two
adjacent cell values, whose error constant on the trigonometric test
fields is markedly smaller than the arithmetic mean's), off-diagonal
couplings use centered differences, which keeps the discrete operator
symmetric. ``CellOperator`` builds the band of K and the drives b_k
straight from that face stencil with precomputed periodic neighbour
indices, with the cells numbered in folded order (``_folded_order``), in
which periodic neighbours sit within two places of each other on every
axis. Every solve factors a symmetric positive definite band matrix by
banded Cholesky. The elliptic rows factor K with one cell pinned and
project the result to zero mean. At 0 < c < inf the rows couple in s by
implicit Euler; their periodic start row, the fixed point of the period
map (one sweep of the M_s steps), is found by GMRES on that map, on the
factors of the step matrices (c/h_s) I + K.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse.linalg as spla

from .banded import Band, BandCholesky
from .errors import ConfigError, EllipticityViolation, PeriodicityNotReached, SolverDiverged
from .fields import (CellGrid, PeriodicInterpolant, PeriodicMatrixField, check_p,
                     read_artifact, sample_grid, write_artifact)

SOLVER_TOL = 1e-10
PERIODIC_TOL = 1e-10


def regime_for(r: float, p: float) -> str:
    """Regime label for the time exponent r and the nonlinearity p.

    The cell problem is elliptic for r != 2 and parabolic at r = 2, for
    both the fast-diffusion (p < 1) and the porous-medium (p > 1) branch."""
    check_p(p)
    if r < 2:
        return "subcritical"
    if r > 2:
        return "supercritical"
    if p == 1:
        raise ConfigError("critical scaling (r = 2) requires p != 1")
    return "critical"


def capacity(r: float, p: float, u0abs: float = 0.0) -> float:
    """The capacity c of the cell problem for the macroscopic data (r, p, |u0|).

    c = 0 for r < 2 and inf for r > 2. At r = 2 it is (1/p)|u0|^(1-p),
    which at |u0| = 0 is 0 for p < 1 and inf for p > 1. This is the one
    map from macroscopic data to a cell problem; ``regime_for`` checks p."""
    regime_for(r, p)
    if not u0abs >= 0:
        raise ConfigError(f"u0abs must be nonnegative, got {u0abs}")
    if r == 2 and u0abs > 0.0:
        return (1.0 / p) * u0abs ** (1.0 - p)
    return 0.0 if r < 2 or (r == 2 and p < 1) else np.inf


@dataclass(frozen=True)
class CellSolution:
    """Discrete corrector for one direction e_k at one capacity.

    ``phi`` has one row per operator of ``cell_operators`` for the
    capacity, shape (len(ops), M_y**dim): one row for the s-averaged
    problem (c = inf) and for an s-independent field, M_s rows covering one
    s-period otherwise. Row j sits at s = j h_s (``s_nodes``), solves on
    ops[j], and the rows are periodic in s. For the elliptic rows
    ``residual`` is the true relative residual max_j |K_j phi[j] - b_k| /
    |b_k| (0 for b_k = 0); rows coupled in s (0 < c < inf) have
    ``residual`` 0, and ``periodic_defect`` is c |Phi(1) - Phi(0)| of the
    final sweep from the GMRES start row (discrete L2 norm over the cell),
    which equals the norm of the period-averaged residual
    h_s sum_j (b_k - K_j phi[j]).
    """

    capacity: float
    dim: int
    grid: CellGrid
    k: int
    phi: np.ndarray
    residual: float
    periodic_defect: float = 0.0

    @property
    def regime(self):
        """The label of the capacity: subcritical at 0, supercritical at inf."""
        return {0.0: "subcritical", np.inf: "supercritical"}.get(self.capacity, "critical")

    @property
    def s_nodes(self):
        return np.arange(len(self.phi)) * self.grid.h_s

    def mean_defect(self):
        """Largest cell-average magnitude over slices (should be ~0)."""
        return float(np.max(np.abs(self.phi.mean(axis=1))))

    def grad_y(self):
        """Cell-centered gradients, shape (n_slices, n_cells, dim): centered
        differences (M/2)(phi[i + e_d] - phi[i - e_d])."""
        up, down = _neighbours(self.dim, self.grid.M_y)
        return np.stack([(self.phi[:, u] - self.phi[:, dn]) * (0.5 * self.grid.M_y)
                         for u, dn in zip(up, down)], axis=-1)

    def grad_interpolant(self):
        """Periodic multilinear interpolant of ``grad_y`` in (y, s): called
        with y of shape (..., dim) and s, it returns shape (..., dim).
        Cell values sit at y = (i + 1/2)/M_y and rows at s = j h_s; on the
        last slice interval s runs from row M_s - 1 back to row 0.
        """
        shape = (len(self.phi),) + (self.grid.M_y,) * self.dim + (self.dim,)
        return PeriodicInterpolant(self.grad_y().reshape(shape), dim=self.dim, y_offset=0.5)


# ---------------------------------------------------------------------------
# Discrete operators


@lru_cache(maxsize=None)
def _neighbours(dim, M):
    """Periodic neighbours of the flattened cells: (up, down), where
    up[d][i] is the cell i + e_d and down[d][i] the cell i - e_d."""
    idx = np.arange(M**dim).reshape((M,) * dim)
    up = tuple(np.roll(idx, -1, axis=d).ravel() for d in range(dim))
    down = tuple(np.roll(idx, 1, axis=d).ravel() for d in range(dim))
    return up, down


@lru_cache(maxsize=None)
def _folded_order(dim, M):
    """Cell numbering for banded factors: (order, pos), with x[order] the
    vector in folded order and pos[i] the folded place of cell i.

    Every axis runs 0, M-1, 1, M-2, ..., so periodic neighbours sit within
    two places of each other. The upper band of K then has half-width 2
    in 1D and 2 M in 2D (2 M + 2 with the cross term)."""
    fold = np.empty(M, dtype=np.intp)
    fold[0::2] = np.arange((M + 1) // 2)
    fold[1::2] = M - 1 - np.arange(M // 2)
    order = fold if dim == 1 else (fold[:, np.newaxis] * M + fold).ravel()
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    order.flags.writeable = pos.flags.writeable = False
    return order, pos


class CellOperator:
    """Discrete -div_y(a grad .) on the periodic cell for one time slice.

    Exposes the stiffness matrix K as its upper band in folded order,
    ``band`` (a ``banded.Band``), the drive vectors b_k = div_y(a e_k) (so
    the cell problem reads K phi = b_k), and the constant part
    ``pair_const`` of the energy pairing B(y_j, y_k). ``effmat.assemble_ahom``
    pairs the cell solutions of all rows with b and ``pair_const``.
    """

    def __init__(self, field: PeriodicMatrixField, grid: CellGrid, s: float):
        self._build(field.sample(grid.centers(field.dim), float(s)), field.dim, grid)

    @classmethod
    def from_matrix_values(cls, a, dim, grid: CellGrid):
        """Build from precomputed cell-center matrices a, shape (n, dim, dim)."""
        self = cls.__new__(cls)
        self._build(np.asarray(a), dim, grid)
        return self

    def _build(self, a, dim, grid):
        self.dim, self.M, self.n = dim, grid.M_y, grid.M_y**dim
        M, n = self.M, self.n
        diag = a[:, range(dim), range(dim)]
        if not np.all(diag > 0):
            # the geometric mean of two negative values would be positive
            i, d = np.argwhere(~(diag > 0))[0]
            raise EllipticityViolation(
                f"geometric face average needs positive cell coefficients: "
                f"a_{d + 1}{d + 1} = {diag[i, d]:.6g} at cell {i} "
                f"(y = {grid.centers(dim)[i]})")
        up, down = _neighbours(dim, M)
        cells = np.arange(n)
        # face i along d joins cell i to up[d][i]; its weight c = (M a_f) M is
        # -K on that pair and adds to both diagonals; b_k = div_y(a e_k)
        self.face_coeffs, self.b = [], []
        rows, cols, vals = [cells], [cells], [0.0]
        for d in range(dim):
            af = np.sqrt(a[:, d, d] * a[up[d], d, d])
            self.face_coeffs.append(af)
            c = (M * af) * M
            vals[0] = vals[0] + (c[down[d]] + c)
            rows += [cells, up[d]]
            cols += [up[d], cells]
            vals += [-c, -c]
            self.b.append(M * af - M * af[down[d]])
        self.cell_offdiag = None
        if dim == 2 and np.max(np.abs(a[:, 0, 1])) > 0:
            # 2 a12 d1 d2 with centered differences (M/2)(phi[up] - phi[down])
            a12 = self.cell_offdiag = a[:, 0, 1]
            q = (0.5 * M * a12) * (0.5 * M)
            for s0, i in ((1, up[0]), (-1, down[0])):
                for s1, j in ((1, up[1]), (-1, down[1])):
                    rows += [i, j]
                    cols += [j, i]
                    vals += [s0 * s1 * q] * 2
            for k, o in ((0, 1), (1, 0)):
                self.b[k] = self.b[k] - (0.5 * M * a12[down[o]] - 0.5 * M * a12[up[o]])
        self.band = Band(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                         _folded_order(dim, M)[1])
        # constant energy pairings B(y_j, y_k)
        self.pair_const = np.diag([np.mean(af) for af in self.face_coeffs])
        if self.cell_offdiag is not None:
            self.pair_const[0, 1] = self.pair_const[1, 0] = float(np.mean(self.cell_offdiag))


def _project_mean(x):
    # the pairwise sum and division of x.mean(), without its Python wrapper
    x -= x.sum() / x.size
    return x


def projected_cg(K, b):
    """CG for the singular periodic operator, re-projecting onto zero mean
    after every iteration; stops at relative residual SOLVER_TOL or after
    10 n iterations. Returns (x, relative residual). A test reference: no
    solve path calls it."""
    n = b.shape[0]
    max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0.0
    x = np.zeros(n)
    r = b - K @ x
    _project_mean(r)
    p = r.copy()
    rs = r @ r
    for _ in range(max_iter):
        if np.sqrt(rs) <= SOLVER_TOL * bnorm:
            return _project_mean(x), np.sqrt(rs) / bnorm
        Kp = K @ p
        alpha = rs / (p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        _project_mean(x)
        _project_mean(r)
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolverDiverged(
        f"CG exceeded {max_iter} iterations (relative residual {np.sqrt(rs) / bnorm:.3e})",
        residual=float(np.sqrt(rs) / bnorm),
    )


# ---------------------------------------------------------------------------
# Cell solvers


def cell_operators(field: PeriodicMatrixField, grid: CellGrid, capacity: float, slices=None):
    """The operators the cell problem at ``capacity`` is posed on, as a list ops.

    Row j of every cell solution at that capacity solves on ops[j]: the
    s-averaged operator at c = inf, else the slice at s = j h_s from
    ``slices`` (``slice_operators``, built here when not given). An
    s-independent field has one operator, its s = 0 slice, at every
    capacity: its slices are equal, so the periodic solution is the
    elliptic one. This is the one place that maps a capacity to operators;
    ``solve_cells`` and ``effmat.assemble_ahom`` take the same set."""
    if field.s_independent:
        return [CellOperator(field, grid, s=0.0)] if slices is None else slices[:1]
    if capacity == np.inf:
        return [s_averaged_operator(field, grid)]
    return slice_operators(field, grid) if slices is None else slices


def s_averaged_operator(field: PeriodicMatrixField, grid: CellGrid) -> CellOperator:
    """Operator built from the slice-average of a (rectangle rule in s,
    spectrally accurate for smooth periodic fields)."""
    a = sample_grid(field, grid.centers(field.dim), grid.slice_times())
    # summed over the slices in order: the leading axis reduces row by row
    return CellOperator.from_matrix_values(np.sum(a, axis=0) / grid.M_s, field.dim, grid)


def slice_operators(field: PeriodicMatrixField, grid: CellGrid):
    """Operators and drives at the slice times: ops[j] at s = j h_s."""
    return [CellOperator(field, grid, s=sj) for sj in grid.slice_times()]


def _solve_periodic(factors, rhs, capacity, h_s, n_cells, k):
    """Periodic implicit-Euler rows (M_s, n) and periodic defect, by GMRES on the period map.

    Row j steps (capacity/h_s)(phi^j - phi^{j-1}) + K^j phi^j = rhs[j],
    j - 1 mod M_s, on factors[j] of (capacity/h_s) I + K^j, all in folded
    order (``_step_factors``), which the zero-mean projection and the
    defect ignore. A sweep runs from a start row 0 through rows 1..M_s-1
    back to row 0. The periodic start x solves (I - P) x = g, P the sweep
    without drive and g the sweep from 0. GMRES (Saad & Schultz 1986)
    starts at x = g and takes at most n iterations, until its true residual,
    Phi(1) - Phi(0) of a sweep from x, has the periodic defect capacity
    |Phi(1) - Phi(0)| <= PERIODIC_TOL: the norm of the period-averaged
    residual h_s sum_j (rhs[j] - K^j phi^j)."""
    M_s, shift, hN_sqrt = len(factors), capacity / h_s, np.sqrt(1.0 / n_cells)
    phi, swept = np.empty((M_s, n_cells)), np.full(n_cells, np.nan)

    def sweep(start, drive=None):
        swept[:] = start
        for j in (*range(1, M_s), 0):
            step = shift * start if drive is None else shift * start + drive[j]
            start = phi[j] = factors[j].solve(step)
        return start

    g = sweep(np.zeros(n_cells), rhs)
    g_rows = phi.copy()
    period_map = spla.LinearOperator((n_cells, n_cells), lambda x: x - sweep(x), dtype=float)
    start, info = spla.gmres(period_map, g, x0=g, rtol=0.0, restart=n_cells, maxiter=1,
                             atol=PERIODIC_TOL / (capacity * hN_sqrt))
    if not np.array_equal(swept, start):  # GMRES checks its last iterate by a sweep
        sweep(start)
    phi += g_rows  # the sweep is linear: rows from start with drive = P rows + g rows
    defect = capacity * float(np.linalg.norm(phi[0] - start) * hN_sqrt)
    if info != 0:
        raise PeriodicityNotReached(
            f"direction k={k}, capacity c={capacity:.6g}: GMRES on the period map did not "
            f"converge in {n_cells} iterations (periodic defect c |Phi(1) - Phi(0)| = "
            f"{defect:.3e}, the period-averaged residual)", defect=defect)
    for row in phi:
        _project_mean(row)
    return phi, defect


def _step_factors(ops, shift):
    """Banded Cholesky factors of shift I + K for ``ops``, one at a time,
    in folded order. At shift 0 K is singular on the constants, so cell 0
    (folded place 0) is pinned by doubling K_00, a weight on K's own scale:
    for a zero-mean b the pinned x has x_0 = 1'b / K_00 ~ 0 and
    K x = b - (1'b) e_0, so x minus its mean solves K x = b. A factor that
    fails on a slice layout names its slice j (s = j h_s)."""
    for j, op in enumerate(ops):
        ab = op.band.shifted(1.0, shift)
        if shift == 0.0:
            ab[-1, 0] *= 2.0
        try:
            yield BandCholesky(ab)
        except SolverDiverged as err:
            if len(ops) == 1:
                raise
            raise SolverDiverged(f"slice {j} (s={j / len(ops):.4f}): {err}") from err


def _solve_cells(field, grid, capacity, ks, ops=None):
    """Cell solutions at ``capacity`` for every direction in ks, on ``ops``
    (from ``cell_operators``, built here when not given), every direction
    on the same ``_step_factors`` factors. The rows couple in s only when
    there are several and 0 < c < inf, and then share the M_s step factors
    of the period solves; otherwise each row is elliptic."""
    for k in ks:
        if not 1 <= k <= field.dim:
            raise ConfigError(f"direction k={k} out of range for dim={field.dim}")
    if not capacity >= 0:
        raise ConfigError(f"capacity must lie in [0, inf], got {capacity}")
    if ops is None:
        ops = cell_operators(field, grid, capacity)
    n = grid.M_y**field.dim
    order, pos = _folded_order(field.dim, grid.M_y)
    if len(ops) == 1 or capacity in (0.0, np.inf):
        phi, residual = [np.empty((len(ops), n)) for _ in ks], [0.0] * len(ks)
        for j, (op, factor) in enumerate(zip(ops, _step_factors(ops, 0.0))):
            for i, k in enumerate(ks):
                b = op.b[k - 1][order]
                x = phi[i][j] = _project_mean(factor.solve(b)[pos])
                if (bnorm := np.linalg.norm(b)) > 0.0:
                    residual[i] = max(residual[i], float(
                        np.linalg.norm(op.band.matvec(x[order]) - b) / bnorm))
        return [CellSolution(capacity=capacity, dim=field.dim, grid=grid, k=k, phi=phi[i],
                             residual=residual[i])
                for i, k in enumerate(ks)]
    factors = list(_step_factors(ops, capacity / grid.h_s))
    out = []
    for k in ks:
        phi, defect = _solve_periodic(factors, [op.b[k - 1][order] for op in ops],
                                      capacity, grid.h_s, n, k)
        out.append(CellSolution(capacity=capacity, dim=field.dim, grid=grid, k=k,
                                phi=phi[:, pos], residual=0.0, periodic_defect=defect))
    return out


def solve_classical_cell(field: PeriodicMatrixField, grid: CellGrid, k: int) -> CellSolution:
    """Elliptic cell problem for an s-independent coefficient field."""
    return _solve_cells(field, grid, 0.0, [k])[0]


def solve_subcritical_cell(field: PeriodicMatrixField, grid: CellGrid, k: int) -> CellSolution:
    """Per-slice elliptic cell problem Phi_k(y, s), slices at s = j/M_s."""
    return _solve_cells(field, grid, 0.0, [k])[0]


def solve_supercritical_cell(field: PeriodicMatrixField, grid: CellGrid, k: int) -> CellSolution:
    """Elliptic cell problem for the s-averaged coefficient."""
    return _solve_cells(field, grid, np.inf, [k])[0]


def solve_critical_cell_fde(field: PeriodicMatrixField, grid: CellGrid,
                            capacity: float, k: int) -> CellSolution:
    """The cell problem at ``capacity``; the benchmark tracer patches this name."""
    return _solve_cells(field, grid, capacity, [k])[0]


def solve_critical_cell_pme(field: PeriodicMatrixField, grid: CellGrid,
                            capacity: float, k: int) -> CellSolution:
    """The cell problem at ``capacity``; the benchmark tracer patches this name."""
    return _solve_cells(field, grid, capacity, [k])[0]


def solve_cells(field, grid, capacity, ops=None):
    """Solve the cell problem at ``capacity`` for every direction; returns
    a list per k. ``ops`` is the capacity's ``cell_operators`` set, built
    here once for all directions when not given."""
    return _solve_cells(field, grid, capacity, range(1, field.dim + 1), ops)


# ---------------------------------------------------------------------------
# Serialization ("oscidiff-cell v2")

CELL_MAGIC = "oscidiff-cell v2"


def save_cell(path, sol: CellSolution):
    """Write a cell solution as a self-describing text file: its capacity
    (``inf`` allowed), its ``nslices`` phi rows (1 or M_s) and ``psi=0``."""
    meta = {"capacity": sol.capacity, "N": sol.dim, "k": sol.k, "My": sol.grid.M_y,
            "Ms": sol.grid.M_s, "nslices": sol.phi.shape[0],
            "residual": sol.residual, "defect": sol.periodic_defect,
            "psi": 0}
    write_artifact(path, CELL_MAGIC, meta, sol.phi)


def load_cell(path) -> CellSolution:
    """Read a cell file; its ``capacity`` must lie in [0, inf], its
    ``nslices`` must fit it (1 at c = inf, 1 or M_s otherwise), its
    ``psi`` must be 0 (the phi rows only), and a ``faceavg``, which older
    files hold, must be ``geometric``, the one face mean."""
    meta, phi = read_artifact(path, CELL_MAGIC, {
        "capacity": float, "N": int, "k": int, "My": int, "Ms": int, "nslices": int,
        "residual": float, "defect": float, "psi": str})
    dim, k, capacity, n_slices = meta["N"], meta["k"], meta["capacity"], meta["nslices"]
    grid = CellGrid(meta["My"], meta["Ms"])
    if meta.get("faceavg", "geometric") != "geometric":
        raise ConfigError(f"{path}: faceavg={meta['faceavg']}: the one face mean is geometric")
    if not capacity >= 0:
        raise ConfigError(f"{path}: capacity must lie in [0, inf], got {capacity:g}")
    allowed = (1,) if capacity == np.inf else (1, grid.M_s)
    if n_slices not in allowed:
        raise ConfigError(f"{path}: a cell file at capacity={capacity:g} cannot hold "
                          f"nslices={n_slices} (allowed: {allowed})")
    if meta["psi"] != "0":
        raise ConfigError(f"{path}: header key 'psi' must be 0 (phi rows only), "
                          f"got psi={meta['psi']}")
    n = grid.M_y**dim
    if phi.shape != (n_slices, n):
        raise ConfigError(f"{path}: expected {n_slices} rows x {n} cols, got {phi.shape}")
    return CellSolution(capacity=capacity, dim=dim, grid=grid, k=k, phi=phi,
                        residual=meta["residual"], periodic_defect=meta["defect"])
