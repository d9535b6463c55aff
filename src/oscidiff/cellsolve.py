"""Cell-problem solvers on the discrete periodic unit cell.

Four problems are covered, all driven by a unit direction e_k:

* classical:      -div_y(a(y) [grad Phi + e_k]) = 0
* subcritical:    the same, slice by slice in the fast time s
* supercritical:  the same, with a replaced by its s-average
* critical:       mu d_s Phi = div_y(a(y,s) [grad Phi + e_k]), s-periodic
                  (fast-diffusion form), and the porous-medium variant
                  d_s Psi = div_y(a [kappa grad Psi + e_k]) with
                  Phi = kappa Psi.

Spatial discretization is a conservative flux form on the periodic cell
grid: diagonal coefficients live on faces (averaged from the two
adjacent cell values per the grid's face convention), off-diagonal
couplings use centered differences,
which keeps the discrete operator symmetric. The elliptic solves use
conjugate gradients with an explicit zero-mean projection every
iteration; the parabolic problems march an implicit-Euler period map to
its fixed point. Each step matrix (capacity/h_s) I + kappa K is
symmetric positive definite and is factored by banded Cholesky with the
cells numbered in folded order (``_folded_order``), in which periodic
neighbours sit within two places of each other on every axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .banded import Band, BandCholesky
from .errors import ConfigError, EllipticityViolation, PeriodicityNotReached, SolverDiverged
from .fields import (CellGrid, PeriodicInterpolant, PeriodicMatrixField, read_artifact,
                     write_artifact)

SOLVER_TOL = 1e-10
PERIODIC_TOL = 1e-10
MAX_SWEEPS = 500

REGIMES = ("classical", "subcritical", "critical_fde", "critical_pme", "supercritical")


def regime_for(r: float, p: float) -> str:
    """Cell-problem branch for the time exponent r and the nonlinearity p.

    The cell problem is elliptic for r != 2; at r = 2 it is parabolic,
    in fast-diffusion form for p < 1 and porous-medium form for p > 1."""
    if not 0 < p < 2:
        raise ConfigError(f"p must lie in (0,2), got {p}")
    if r < 2:
        return "subcritical"
    if r > 2:
        return "supercritical"
    if p == 1:
        raise ConfigError("critical scaling (r = 2) requires p != 1")
    return "critical_fde" if p < 1 else "critical_pme"


@dataclass(frozen=True)
class CellParameter:
    """Macroscopic data entering the critical cell problems.

    The fast-diffusion capacity coefficient is mu = (1/p) |u0|^(1-p)
    (requires 0 < p < 1) and the porous-medium diffusivity scale is
    kappa = p |u0|^(p-1) (requires 1 < p < 2).
    """

    p: float
    u0abs: float

    def __post_init__(self):
        if self.u0abs < 0:
            raise ConfigError("u0abs must be nonnegative")
        regime_for(2.0, self.p)  # raises unless p is in (0,2) with p != 1

    @property
    def mu_fde(self):
        if not self.p < 1:
            raise ConfigError("mu_fde only defined for 0 < p < 1")
        if self.u0abs == 0.0:
            return 0.0
        return (1.0 / self.p) * self.u0abs ** (1.0 - self.p)

    @property
    def kappa_pme(self):
        if not self.p > 1:
            raise ConfigError("kappa_pme only defined for 1 < p < 2")
        return self.p * self.u0abs ** (self.p - 1.0)


@dataclass(frozen=True)
class CellSolution:
    """Discrete corrector for one direction e_k.

    ``phi`` has shape (n_slices, M_y**dim). For the slice-elliptic regimes
    the slices sit at s = j/M_s, j = 0..M_s-1 (a single slice for the
    s-independent regimes); for the critical regimes they sit at
    s = j/M_s, j = 0..M_s, with phi[0] and phi[-1] matching to within
    ``periodic_defect``.
    """

    regime: str
    dim: int
    grid: CellGrid
    k: int
    phi: np.ndarray
    s_nodes: np.ndarray
    residual: float
    periodic_defect: float = 0.0
    psi: Optional[np.ndarray] = None
    param: Optional[CellParameter] = None

    @property
    def n_cells(self):
        return self.grid.M_y ** self.dim

    def mean_defect(self):
        """Largest cell-average magnitude over slices (should be ~0)."""
        return float(np.max(np.abs(self.phi.mean(axis=1))))

    def grad_y(self):
        """Cell-centered gradients, shape (n_slices, n_cells, dim)."""
        return np.stack(
            [_centered_diff(self.phi, self.dim, self.grid.M_y, d) for d in range(self.dim)],
            axis=-1,
        )

    def grad_interpolant(self):
        """Periodic multilinear interpolant of ``grad_y`` in (y, s): called
        with y of shape (..., dim) and s, it returns shape (..., dim).
        Cell values sit at y = (i + 1/2)/M_y; the critical layout already
        carries both ends of the s-period, the others wrap in s.
        """
        shape = (len(self.s_nodes),) + (self.grid.M_y,) * self.dim + (self.dim,)
        h_s = self.s_nodes[1] - self.s_nodes[0] if len(self.s_nodes) > 1 else 1.0
        return PeriodicInterpolant(
            self.grad_y().reshape(shape), dim=self.dim, h_s=h_s, y_offset=0.5,
            s_periodic=self.regime not in ("critical_fde", "critical_pme"))


# ---------------------------------------------------------------------------
# Discrete operators


def _centered_diff(vals, dim, M, d):
    """Centered difference along grid direction d of flattened cell data."""
    shape = vals.shape[:-1] + (M,) * dim
    v = vals.reshape(shape)
    ax = len(vals.shape) - 1 + d
    out = (np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)) * (0.5 * M)
    return out.reshape(vals.shape)


def _face_difference_matrix(dim, M, d):
    """Sparse D_d: cell values -> face differences / h along direction d.

    Face f(i) separates cell i from cell i + e_d (periodic wrap)."""
    n = M**dim
    idx = np.arange(n).reshape((M,) * dim)
    nb = np.roll(idx, -1, axis=d)
    rows = np.arange(n)
    data = np.concatenate([np.full(n, -M, dtype=float), np.full(n, M, dtype=float)])
    cols = np.concatenate([idx.ravel(), nb.ravel()])
    return sp.csr_matrix((data, (np.concatenate([rows, rows]), cols)), shape=(n, n))


def _centered_matrix(dim, M, d):
    """Sparse centered difference G_d (antisymmetric on the periodic grid)."""
    n = M**dim
    idx = np.arange(n).reshape((M,) * dim)
    up = np.roll(idx, -1, axis=d)
    dn = np.roll(idx, 1, axis=d)
    rows = np.arange(n)
    data = np.concatenate([np.full(n, 0.5 * M), np.full(n, -0.5 * M)])
    cols = np.concatenate([up.ravel(), dn.ravel()])
    return sp.csr_matrix((data, (np.concatenate([rows, rows]), cols)), shape=(n, n))


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

    Exposes the stiffness matrix K, the drive vectors b_k = div_y(a e_k)
    (so the cell problem reads K phi = b_k), and the constant part of the
    energy pairing B(y_j, y_k) used for tensor assembly.
    """

    def __init__(self, field: PeriodicMatrixField, grid: CellGrid, s: float):
        dim, M = field.dim, grid.M_y
        self.dim, self.M = dim, M
        self.n = M**dim
        centers = grid.centers(dim)
        a = field.sample(centers, np.full(self.n, float(s)))
        self._build(a, dim, M, grid)

    @classmethod
    def from_matrix_values(cls, a, dim, grid: CellGrid):
        """Build from precomputed cell-center matrices a, shape (n, dim, dim)."""
        self = cls.__new__(cls)
        self.dim, self.M = dim, grid.M_y
        self.n = grid.M_y**dim
        self._build(np.asarray(a), dim, grid.M_y, grid)
        return self

    def _build(self, a, dim, M, grid):
        n = self.n
        K = sp.csr_matrix((n, n))
        self.face_coeffs = []
        self.cell_offdiag = None
        mode = getattr(grid, "face_avg", "geometric")
        diag = a[:, range(dim), range(dim)]
        if mode != "arithmetic" and not np.all(diag > 0):
            # the geometric and harmonic means are only defined for positive
            # values; the arithmetic mean builds any operator, and a
            # non-positive one fails later in its factorization
            i, d = np.argwhere(~(diag > 0))[0]
            raise EllipticityViolation(
                f"{mode} face average needs positive cell coefficients: "
                f"a_{d + 1}{d + 1} = {diag[i, d]:.6g} at cell {i} "
                f"(y = {grid.centers(dim)[i]})")
        self._D = [_face_difference_matrix(dim, M, d) for d in range(dim)]
        for d, D in enumerate(self._D):
            add = a[:, d, d].reshape((M,) * dim)
            nbr = np.roll(add, -1, axis=d)
            if mode == "geometric":
                af = np.sqrt(add * nbr)
            elif mode == "harmonic":
                af = 2.0 * add * nbr / (add + nbr)
            else:
                af = 0.5 * (add + nbr)
            self.face_coeffs.append(af.ravel())
            K = K + D.T @ sp.diags(af.ravel()) @ D
        if dim == 2 and np.max(np.abs(a[:, 0, 1])) > 0:
            a12 = a[:, 0, 1]
            self.cell_offdiag = a12
            G0 = _centered_matrix(dim, M, 0)
            G1 = _centered_matrix(dim, M, 1)
            A12 = sp.diags(a12)
            K = K + G0.T @ A12 @ G1 + G1.T @ A12 @ G0
            self._G = (G0, G1)
        self.K = K.tocsr()
        # b_k = div_y(a e_k): apply the flux form to the affine slope e_k
        self.b = []
        for k in range(dim):
            bk = -(self._D[k].T @ self.face_coeffs[k])
            if self.cell_offdiag is not None:
                other = 1 - k
                bk = bk - self._G[other].T @ self.cell_offdiag
            self.b.append(bk)
        # constant energy pairings B(y_j, y_k)
        self.pair_const = np.zeros((dim, dim))
        for d in range(dim):
            self.pair_const[d, d] = np.mean(self.face_coeffs[d])
        if self.cell_offdiag is not None:
            m12 = float(np.mean(self.cell_offdiag))
            self.pair_const[0, 1] = m12
            self.pair_const[1, 0] = m12

    @cached_property
    def band(self):
        """Upper band of K in folded order (a ``banded.Band``)."""
        return Band(self.K, _folded_order(self.dim, self.M)[1])

    def flux_pairing(self, j, phi):
        """Discrete integral of a (grad phi + e_k) . e_j given K phi = b_k,
        namely B(y_j, y_k + phi) = pair_const[j,k] - <b_j, phi> h^N."""
        hN = 1.0 / self.n
        return -hN * float(self.b[j] @ phi)

    def gradient_gram(self, phis):
        """Gram matrix of face-difference gradients: G[j,k] = q(phi_j, phi_k),
        the identity-coefficient energy, used for the ellipticity sandwich."""
        m = len(phis)
        hN = 1.0 / self.n
        out = np.zeros((m, m))
        dphis = [[D @ p for D in self._D] for p in phis]
        for i in range(m):
            for j in range(i, m):
                v = hN * sum(float(dphis[i][d] @ dphis[j][d]) for d in range(self.dim))
                out[i, j] = out[j, i] = v
        return out


def _project_mean(x):
    x -= x.mean()
    return x


def projected_cg(K, b):
    """CG for the singular periodic operator, re-projecting onto zero mean
    after every iteration; stops at relative residual SOLVER_TOL or after
    10 n iterations. Returns (x, relative residual)."""
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
# Regime solvers


def _check_k(field, k):
    if not 1 <= k <= field.dim:
        raise ConfigError(f"direction k={k} out of range for dim={field.dim}")


def solve_classical_cell(field: PeriodicMatrixField, grid: CellGrid, k: int) -> CellSolution:
    """Elliptic cell problem for an s-independent coefficient field."""
    _check_k(field, k)
    if not field.s_independent:
        raise ConfigError("classical cell problem requires an s-independent field")
    op = CellOperator(field, grid, s=0.0)
    phi, res = projected_cg(op.K, op.b[k - 1])
    return CellSolution(
        regime="classical", dim=field.dim, grid=grid, k=k,
        phi=phi[np.newaxis, :], s_nodes=np.array([0.0]), residual=res,
    )


def solve_subcritical_cell(field: PeriodicMatrixField, grid: CellGrid, k: int) -> CellSolution:
    """Per-slice elliptic cell problem Phi_k(y, s), slices at s = j/M_s."""
    _check_k(field, k)
    s_nodes = grid.slice_times()
    phi, worst = _solve_slices((CellOperator(field, grid, s=sj) for sj in s_nodes),
                               s_nodes, k)
    return CellSolution(
        regime="subcritical", dim=field.dim, grid=grid, k=k,
        phi=phi, s_nodes=s_nodes, residual=worst,
    )


def _solve_slices(ops, s_nodes, k):
    """Elliptic solve for direction k on each slice operator in turn.
    Returns (phi of shape (len(s_nodes), n), worst relative residual)."""
    phis = []
    worst = 0.0
    for j, (sj, op) in enumerate(zip(s_nodes, ops)):
        try:
            phi, res = projected_cg(op.K, op.b[k - 1])
        except SolverDiverged as err:
            raise SolverDiverged(f"slice {j} (s={sj:.4f}): {err}", residual=err.residual) from err
        phis.append(phi)
        worst = max(worst, res)
    return np.array(phis), worst


def s_averaged_operator(field: PeriodicMatrixField, grid: CellGrid) -> CellOperator:
    """Operator built from the slice-average of a (rectangle rule in s,
    spectrally accurate for smooth periodic fields)."""
    centers = grid.centers(field.dim)
    acc = np.zeros((len(centers), field.dim, field.dim))
    for sj in grid.slice_times():
        acc += field.sample(centers, np.full(len(centers), sj))
    acc /= grid.M_s
    return CellOperator.from_matrix_values(acc, field.dim, grid)


def solve_supercritical_cell(field: PeriodicMatrixField, grid: CellGrid, k: int) -> CellSolution:
    """Elliptic cell problem for the s-averaged coefficient."""
    _check_k(field, k)
    op = s_averaged_operator(field, grid)
    phi, res = projected_cg(op.K, op.b[k - 1])
    return CellSolution(
        regime="supercritical", dim=field.dim, grid=grid, k=k,
        phi=phi[np.newaxis, :], s_nodes=np.array([0.0]), residual=res,
    )


def _march_periodic(factors, rhs, capacity, h_s, n_cells):
    """Implicit-Euler period map iterated to its fixed point: at most
    MAX_SWEEPS sweeps, until the periodic defect is at most PERIODIC_TOL.

    factors[j], rhs[j] (j = 0..M_s-1) describe the step towards slice j+1:
    (capacity/h_s) (phi^{j+1} - phi^j) + K^{j+1} phi^{j+1} = b^{j+1},
    with factors[j] the banded Cholesky factor of (capacity/h_s) I + K^{j+1}
    in folded order (``_step_factors``); rhs and the trajectory are in the
    same order, which the zero-mean projection and the defect ignore.
    Returns (trajectory of shape (M_s+1, n), periodic defect)."""
    M_s = len(factors)
    hN_sqrt = np.sqrt(1.0 / n_cells)
    phi0 = np.zeros(n_cells)
    traj = np.empty((M_s + 1, n_cells))
    defect = np.inf
    for _ in range(MAX_SWEEPS):
        traj[0] = phi0
        cur = phi0
        for j in range(M_s):
            cur = factors[j].solve((capacity / h_s) * cur + rhs[j])
            traj[j + 1] = cur
        defect = float(np.linalg.norm(traj[-1] - traj[0]) * hN_sqrt)
        if defect <= PERIODIC_TOL:
            for row in traj:
                _project_mean(row)
            return traj, defect
        phi0 = _project_mean(traj[-1].copy())
    raise PeriodicityNotReached(
        f"period map not converged after {MAX_SWEEPS} sweeps (defect {defect:.3e})",
        defect=defect,
    )


def _slice_operators(field, grid):
    """Operators and drives at the step targets s = (j+1)/M_s, wrapped.

    The slice at s = j/M_s is therefore ops[j - 1]."""
    M_s = grid.M_s
    ops = []
    for j in range(M_s):
        sj = ((j + 1) % M_s) * grid.h_s
        ops.append(CellOperator(field, grid, s=sj))
    return ops


def _step_factors(ops, shift, kappa):
    """Banded Cholesky factors of shift I + kappa K for every operator of
    ``_slice_operators``, in folded order. A factor that fails names its
    slice."""
    factors = []
    for j, op in enumerate(ops):
        try:
            factors.append(BandCholesky(op.band.shifted(kappa, shift)))
        except SolverDiverged as err:
            s = ((j + 1) % len(ops)) / len(ops)
            raise SolverDiverged(f"slice {j} (s={s:.4f}): {err}") from err
    return factors


def _solve_critical(field, grid, regime, param, ks, ops=None):
    """Critical cell solutions for every direction in ks.

    The M_s step matrices are factored once and every direction marches
    on the same factors; ``ops`` is the set from ``_slice_operators``,
    built here when not given."""
    for k in ks:
        _check_k(field, k)
    if regime != regime_for(2.0, param.p):
        raise ConfigError(f"{regime} cell problem does not apply at p={param.p}")
    fde = regime == "critical_fde"
    n = grid.M_y**field.dim
    s_nodes = np.arange(grid.M_s + 1) * grid.h_s
    if not fde and param.u0abs == 0.0:
        zeros = np.zeros((grid.M_s + 1, n))
        return [CellSolution(
            regime=regime, dim=field.dim, grid=grid, k=k,
            phi=zeros, s_nodes=s_nodes, residual=0.0, psi=zeros, param=param,
        ) for k in ks]
    if ops is None:
        ops = _slice_operators(field, grid)
    capacity, kappa = (param.mu_fde, 1.0) if fde else (1.0, param.kappa_pme)
    if capacity == 0.0:  # FDE at u0 = 0: the slice-elliptic problem
        slices, times = [ops[j - 1] for j in range(grid.M_s)], grid.slice_times()
        out = []
        for k in ks:
            phi, res = _solve_slices(slices, times, k)
            out.append(CellSolution(
                regime=regime, dim=field.dim, grid=grid, k=k, phi=phi,
                s_nodes=times, residual=res, param=param,
            ))
        return out
    factors = _step_factors(ops, capacity / grid.h_s, kappa)
    order, pos = _folded_order(field.dim, grid.M_y)
    out = []
    for k in ks:
        traj, defect = _march_periodic(factors, [op.b[k - 1][order] for op in ops],
                                       capacity, grid.h_s, n)
        traj = traj[:, pos]
        out.append(CellSolution(
            regime=regime, dim=field.dim, grid=grid, k=k,
            phi=traj if fde else kappa * traj, s_nodes=s_nodes,
            residual=0.0, periodic_defect=defect,
            psi=None if fde else traj, param=param,
        ))
    return out


def solve_critical_cell_fde(field: PeriodicMatrixField, grid: CellGrid,
                            param: CellParameter, k: int) -> CellSolution:
    """Time-periodic parabolic cell problem, fast-diffusion form.

    mu d_s Phi = div_y(a [grad Phi + e_k]) with mu = (1/p)|u0|^(1-p);
    at u0 = 0 the problem degenerates to the slice-elliptic one."""
    return _solve_critical(field, grid, "critical_fde", param, [k])[0]


def solve_critical_cell_pme(field: PeriodicMatrixField, grid: CellGrid,
                            param: CellParameter, k: int) -> CellSolution:
    """Time-periodic parabolic cell problem, porous-medium form.

    d_s Psi = div_y(a [kappa grad Psi + e_k]) with kappa = p|u0|^(p-1)
    and Phi = kappa Psi; at u0 = 0 the corrector vanishes identically."""
    return _solve_critical(field, grid, "critical_pme", param, [k])[0]


def solve_cells(field, grid, regime, param=None, ops=None):
    """Solve the cell problem for every direction; returns a list per k.

    The critical regimes use ``ops`` (prebuilt ``_slice_operators``) when
    given, and factor their step matrices once for all directions."""
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}")
    ks = range(1, field.dim + 1)
    solver = {
        "classical": solve_classical_cell,
        "subcritical": solve_subcritical_cell,
        "supercritical": solve_supercritical_cell,
    }.get(regime)
    if solver is not None:
        return [solver(field, grid, k) for k in ks]
    if param is None:
        raise ConfigError("critical regimes need a CellParameter")
    return _solve_critical(field, grid, regime, param, ks, ops)


# ---------------------------------------------------------------------------
# Serialization ("oscidiff-cell v1")

CELL_MAGIC = "oscidiff-cell v1"


def save_cell(path, sol: CellSolution):
    """Write a cell solution as a self-describing text file."""
    p = sol.param.p if sol.param is not None else float("nan")
    u0 = sol.param.u0abs if sol.param is not None else float("nan")
    meta = {"regime": sol.regime, "N": sol.dim, "k": sol.k, "My": sol.grid.M_y,
            "Ms": sol.grid.M_s, "nslices": sol.phi.shape[0], "p": p, "u0abs": u0,
            "residual": sol.residual, "defect": sol.periodic_defect,
            "psi": int(sol.psi is not None), "faceavg": sol.grid.face_avg}
    write_artifact(path, CELL_MAGIC, meta,
                   sol.phi if sol.psi is None else np.vstack([sol.phi, sol.psi]))


def load_cell(path) -> CellSolution:
    meta, raw = read_artifact(path, CELL_MAGIC, ("regime", "N", "k", "My", "Ms", "nslices",
                                                "p", "u0abs", "residual", "defect", "psi"))
    dim, k = int(meta["N"]), int(meta["k"])
    grid = CellGrid(int(meta["My"]), int(meta["Ms"]), face_avg=meta.get("faceavg", "geometric"))
    n_slices = int(meta["nslices"])
    regime = meta["regime"]
    has_psi = bool(int(meta["psi"]))
    n = grid.M_y**dim
    want = n_slices * (2 if has_psi else 1)
    if raw.shape != (want, n):
        raise ConfigError(f"{path}: expected {want} rows x {n} cols, got {raw.shape}")
    phi = raw[:n_slices]
    psi = raw[n_slices:] if has_psi else None
    p, u0 = float(meta["p"]), float(meta["u0abs"])
    param = None if np.isnan(p) else CellParameter(p=p, u0abs=u0)
    if regime in ("critical_fde", "critical_pme") and n_slices == grid.M_s + 1:
        s_nodes = np.arange(grid.M_s + 1) * grid.h_s
    elif n_slices == 1:
        s_nodes = np.array([0.0])
    else:
        s_nodes = np.arange(n_slices) / n_slices
    return CellSolution(
        regime=regime, dim=dim, grid=grid, k=k, phi=phi, s_nodes=s_nodes,
        residual=float(meta["residual"]), periodic_defect=float(meta["defect"]),
        psi=psi, param=param,
    )
