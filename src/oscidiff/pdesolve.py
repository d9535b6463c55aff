"""Macroscopic PDE solvers.

The microscopic problem d_t u = div(a(x/eps, t/eps^r) grad v) + f with
u = sign(v)|v|^(1/p) is solved in the transformed unknown v = |u|^(p-1)u,
for which the elliptic operator is linear and the Dirichlet condition is
v = 0. Time stepping is backward Euler with the coefficient frozen at the
step target time; each step is a damped Newton solve in v with the
derivative of the inverse transform regularized away from v = 0; its
residual is one pass over u(w) and the dt-scaled operator. A 1D step
solves a fresh tridiagonal Jacobian every iteration; a 2D step is a chord
Newton, reusing one banded Jacobian factor while its steps halve the
residual. The homogenized problem uses the same machinery with the
effective matrix, which at the critical scaling is looked up from the
|u0| table and frozen per step.

Newton starts each step from v plus the last accepted increment made at
the same phase key: the fast phase s of an s-dependent micro field, one
key for everything else (linear extrapolation). A key not seen yet starts
from v. A step whose predicted start ends in StepRejected or NewtonStalled
is redone from v, the unpredicted path, and counted as
``predictor_restarts`` in the run stats.

Oscillating coefficients are resolved by internal substepping: output is
stored on the coarse step grid while the marching step stays below a
fraction of the fast period eps^r.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .banded import Band, BandCholesky
from .effmat import EffectiveTensor, TableClampWarning
from .errors import ConfigError, NewtonStalled, SolverDiverged, StepRejected
from .fields import MacroGrid, PeriodicMatrixField, read_artifact, write_artifact

NEWTON_TOL = 1e-9
DELTA_REG = 1e-10
MAX_NEWTON = 60
MAX_BACKTRACK = 20
CHORD_RATE = 0.5  # a slower chord step ends the reuse (rsham of Kelley's nsold)
# Micro operators, and Newton increments, kept per solve, keyed by fast
# phase. Dyadic eps and substeps visit 8 phases under the eps^r/8 rule;
# each store is cleared when full, so phases that never repeat cost one
# build per substep and start Newton from the previous step.
MICRO_OPERATOR_CACHE = 32

# LAPACK dgtsv, the routine solve_banded uses for (1, 1) bands
_gtsv, = sla.get_lapack_funcs(("gtsv",), (np.empty(0),))


def is_dyadic(eps):
    """True for eps = 1/2^m with m >= 1; False for any other value,
    non-finite and non-positive ones included."""
    if not 0.0 < eps <= 0.5:
        return False
    m = math.log2(1.0 / eps)
    return abs(m - round(m)) < 1e-12


@dataclass(frozen=True)
class SpaceTimeField:
    """Trajectory of the transformed unknown v on the macroscopic grid.

    ``values[n]`` holds v at interior nodes after step n (``values[0]`` is
    the initial datum); the boundary trace of v is identically zero and is
    not stored. ``dissipation[n]`` is the cumulative discrete integral of
    a grad v . grad v up to t^n.
    """

    grid: MacroGrid
    p: float
    values: np.ndarray
    dissipation: np.ndarray
    stats: dict = dc_field(default_factory=dict)

    def u_values(self):
        """Recover u = sign(v) |v|^(1/p) at every stored step."""
        return _u_of(self.values, self.p)


@dataclass(frozen=True)
class MicroProblem:
    field: PeriodicMatrixField
    eps: float
    r: float
    p: float
    f: Callable
    u0: Callable
    grid: MacroGrid
    substeps: Optional[int] = None

    def __post_init__(self):
        if not is_dyadic(self.eps):
            raise ConfigError(f"eps must be 1/2^m, got {self.eps}")
        if not (0 < self.p < 2):
            raise ConfigError(f"p must lie in (0,2), got {self.p}")
        if self.field.dim != self.grid.dim:
            raise ConfigError("field and grid dimensions differ")

    def auto_substeps(self):
        """Substeps per output step so the marching step resolves the fast
        period (<= eps^r / 8); 1 for s-independent coefficients."""
        if self.substeps is not None:
            return self.substeps
        if self.field.s_independent:
            return 1
        dt = self.grid.dt
        return max(1, int(math.ceil(dt / (self.eps**self.r / 8.0))))


@dataclass(frozen=True)
class HomogenizedProblem:
    tensor: EffectiveTensor
    p: float
    f: Callable
    u0: Callable
    grid: MacroGrid
    mode: str = "constant"  # "constant" | "critical_table"
    substeps: int = 1

    def __post_init__(self):
        if self.mode not in ("constant", "critical_table"):
            raise ConfigError(f"unknown coupling mode {self.mode!r}")
        if (self.mode == "critical_table") != self.tensor.is_table:
            raise ConfigError(f"{self.mode} mode needs a "
                              f"{'constant' if self.tensor.is_table else 'tabulated'} tensor")
        if self.tensor.dim != self.grid.dim:
            raise ConfigError("tensor and grid dimensions differ")


# ---------------------------------------------------------------------------
# Discrete elliptic operators (homogeneous Dirichlet)


def _tridiag_matvec(diag, off, v):
    """Symmetric tridiagonal product with bands ``diag`` and ``off``."""
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


class Operator1D:
    """Tridiagonal -d/dx(a(x) d/dx .) with face coefficients a: ``diag`` and
    the symmetric off-diagonal ``off``."""

    def __init__(self, aface, h):
        self.n = len(aface) - 1
        h2 = h * h
        aface = np.asarray(aface, dtype=float)
        al, ar = aface[:-1], aface[1:]
        self.diag = (al + ar) / h2
        self.off = -ar[:-1] / h2  # coupling i <-> i+1
        self._scaled = (None, None, None)  # (dt, dt * diag, dt * off)

    def matvec(self, v):
        return _tridiag_matvec(self.diag, self.off, v)

    def _scaled_bands(self, dt):
        """(dt * diag, dt * off) for the last dt; ValueError if not finite."""
        dt_cached, dt_diag, dt_off = self._scaled
        if dt_cached != dt:
            dt_diag, dt_off = dt * self.diag, dt * self.off
            if not (np.isfinite(dt_diag).all() and np.isfinite(dt_off).all()):
                raise ValueError("array must not contain infs or NaNs")
            self._scaled = (dt, dt_diag, dt_off)
        return dt_diag, dt_off

    def dt_matvec(self, dt, v):
        """dt * L v from the scaled bands that shifted solves share."""
        return _tridiag_matvec(*self._scaled_bands(dt), v)

    def solve_shifted(self, extra_diag, dt, rhs):
        """Solve (diag(extra_diag) + dt * L) x = rhs with LAPACK gtsv.

        Raises ValueError for non-finite input and LinAlgError when the
        shifted matrix is singular."""
        dt_diag, dt_off = self._scaled_bands(dt)
        d = extra_diag + dt_diag
        b = np.asarray(rhs, dtype=float)
        if not (np.isfinite(d).all() and np.isfinite(b).all()):
            raise ValueError("array must not contain infs or NaNs")
        _, _, _, x, info = _gtsv(dt_off, d, dt_off, b, overwrite_d=1)
        if info > 0:
            raise sla.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
        return x


class Operator2D:
    """Sparse 5-point (plus optional constant cross term) Dirichlet operator
    on the n_x x n_x interior grid. In its row-major order the matrix has
    half-width n_x (n_x + 1 with the cross term), so shifted solves factor
    it by banded Cholesky. The factor is kept for chord Newton steps."""

    def __init__(self, a1face, a2face, h, a12=0.0):
        # a1face: (n_x+1, n_x) coefficients on x1-faces; a2face: (n_x, n_x+1)
        n = self.n = a1face.shape[1]
        h2 = h * h
        # diagonal o of K in row-major order: K[j - o, j] at place j
        upper = {o: np.zeros((n, n)) for o in (0, 1, n) + ((n - 1, n + 1) if a12 else ())}
        upper[0][:] = (a1face[:-1] + a1face[1:] + a2face[:, :-1] + a2face[:, 1:]) / h2
        upper[1][:, 1:] = -a2face[:, 1:-1] / h2
        upper[n][1:] = -a1face[1:-1] / h2
        if a12:
            # -2 a12 d1 d2 with centered differences, zero past the boundary
            c = 2.0 * a12 / (4.0 * h2)
            upper[n + 1][1:, 1:] -= c
            upper[n - 1][1:, :-1] += c
        self.band = Band.from_diagonals({o: d.ravel() for o, d in upper.items()})
        offsets = list(upper) + [-o for o in upper if o]
        self.K = sp.diags([upper[abs(o)].ravel()[abs(o):] for o in offsets], offsets,
                          shape=(n * n, n * n), format="csr")
        self.factor = None

    def matvec(self, v):
        return self.K @ v

    def dt_matvec(self, dt, v):
        return dt * (self.K @ v)

    def solve_shifted(self, extra_diag, dt, rhs):
        """Solve (diag(extra_diag) + dt * K) x = rhs by banded Cholesky,
        keeping the factor as ``factor``; extra_diag None solves with it
        again. Raises ValueError for non-finite input and SolverDiverged
        when the shifted matrix is not positive definite."""
        if extra_diag is not None:
            self.factor = BandCholesky(self.band.shifted(dt, extra_diag))
        return self.factor.solve(rhs)


def _operator(grid, faces, a12=0.0):
    """Dirichlet operator from per-axis face coefficients ``faces[d]`` of
    ``grid.face_shape(d)``: tridiagonal in 1D, banded in 2D."""
    if grid.dim == 1:
        return Operator1D(faces[0], grid.h)
    return Operator2D(*faces, grid.h, a12=a12)


def _micro_operator(field, grid, eps, r, t):
    """Operator with a sampled at face midpoints at time t."""
    s = (t / eps**r) % 1.0
    faces = []
    for d in range(grid.dim):
        x = grid.face_points(d)
        a = field.sample(x / eps, np.full(len(x), s))
        if np.any(a[:, ~np.eye(grid.dim, dtype=bool)]):
            raise ConfigError("2D micro solves support diagonal coefficient fields only")
        faces.append(a[:, d, d].reshape(grid.face_shape(d)))
    return _operator(grid, faces)


def _constant_operator(matrix, grid):
    matrix = np.atleast_2d(matrix)
    faces = [np.full(grid.face_shape(d), matrix[d, d]) for d in range(grid.dim)]
    # symmetric part of the off-diagonal entries; 0 in 1D, which has none
    a12 = 0.5 * matrix[~np.eye(grid.dim, dtype=bool)].sum()
    return _operator(grid, faces, a12)


def _table_operator(tensor, grid, v_nodes, p):
    """Operator with the tabulated matrix looked up from |u| at each face
    (u interpolated from the adjacent nodes, boundary value 0)."""
    u = _u_of(v_nodes, p)
    return _operator(grid, [tensor.entries_at(np.abs(grid.face_average(u, d)))[..., d, d]
                            for d in range(grid.dim)])


# ---------------------------------------------------------------------------
# Implicit Euler step (damped Newton in v)


def _u_of(v, p):
    return np.copysign(np.abs(v) ** (1.0 / p), v)


def _uprime_of(v, p):
    av = np.maximum(np.abs(v), DELTA_REG)
    return (1.0 / p) * av ** (1.0 / p - 1.0)


def _newton_step(op, un, fval, dt, p, v_init, tol_abs, step_id):
    """Solve u(w) + dt L w = un + dt f for w by damped Newton.

    A trial residual F = u(w) + dt L w - target is one pass: u(w), dt L w
    from the operator's scaled bands, F in place and its norm as one dot.
    On an ``Operator2D``, which keeps its factor, Newton takes chord steps
    (in 1D a gtsv solve costs what a factor does): the Jacobian
    diag(u'(w)) + dt L factored at an earlier iterate is reused while the
    full step passes the Armijo test and the step before shrank the
    residual by ``CHORD_RATE``; a chord step that fails the test is
    dropped and the Jacobian refactored at the current iterate.
    Returns w with its u(w) and dt L w, the iterations, the halvings and
    the factorizations."""
    target = un + dt * fval

    def residual(w):
        u = _u_of(w, p)
        dtLw = op.dt_matvec(dt, w)
        F = u + dtLw
        F -= target
        return u, dtLw, F, math.sqrt(F @ F)

    w = v_init.copy()
    u, dtLw, F, res = residual(w)
    backtracks, factorizations, chord = 0, 0, False
    for iters in range(MAX_NEWTON):
        if res <= tol_abs:
            if isinstance(op, Operator2D):  # a cached operator keeps no factor
                op.factor = None
            return w, u, dtLw, iters, backtracks, factorizations
        if chord:
            w_try = w + op.solve_shifted(None, dt, -F)
            u_try, dtLw_try, F_try, res_try = residual(w_try)
            if res_try <= (1.0 - 1e-4) * res:
                chord = res_try <= CHORD_RATE * res
                w, u, dtLw, F, res = w_try, u_try, dtLw_try, F_try, res_try
                continue
        d = op.solve_shifted(_uprime_of(w, p), dt, -F)
        factorizations += 1
        chord = isinstance(op, Operator2D)
        alpha = 1.0
        for _ in range(MAX_BACKTRACK):
            w_try = w + alpha * d
            u_try, dtLw_try, F_try, res_try = residual(w_try)
            if res_try <= (1.0 - 1e-4 * alpha) * res:
                w, u, dtLw, F, res = w_try, u_try, dtLw_try, F_try, res_try
                break
            alpha *= 0.5
            backtracks += 1
        else:
            raise StepRejected(
                f"step {step_id}: line search failed {MAX_BACKTRACK} times "
                f"(residual {res:.3e})")
    raise NewtonStalled(f"step {step_id}: residual {res:.3e} > tol {tol_abs:.3e}",
                        step=step_id, residual=float(res))


def _march(grid, p, f, u0, op_at, substeps):
    """Shared implicit-Euler driver. op_at(t, v) yields the elliptic operator
    for the step targeting time t, given v of the previous step (from which
    the table mode lags its coefficient), and its phase key, which picks
    the Newton start (module docstring); the iterations of a discarded
    predicted start are not counted. The dissipation increment
    h^N v . (dt L v) reuses the accepted residual's dt L v."""
    x = grid.interior_nodes()
    un = np.asarray(u0(x), dtype=float).ravel()
    v = np.copysign(np.abs(un) ** p, un)
    values = np.empty((grid.n_t + 1, len(v)))
    values[0] = v
    dissipation = np.zeros(grid.n_t + 1)
    dt_sub = grid.dt / substeps
    tol_abs = NEWTON_TOL * max(float(np.linalg.norm(un)), 1.0)
    newton_counts, backtracks, factorizations, restarts = [], 0, 0, 0
    increments = {}  # phase -> last accepted v_new - v_old at that phase
    diss = 0.0
    for n in range(grid.n_t):
        for m in range(substeps):
            t_next = (n * substeps + m + 1) * dt_sub
            op, phase = op_at(t_next, v)
            fval = np.asarray(f(x, t_next), dtype=float).ravel()
            delta = increments.get(phase)
            try:
                out = _newton_step(op, un, fval, dt_sub, p,
                                   v if delta is None else v + delta, tol_abs, (n, m))
            except (StepRejected, NewtonStalled):
                if delta is None:
                    raise
                restarts += 1
                out = _newton_step(op, un, fval, dt_sub, p, v, tol_abs, (n, m))
            w, un, dtLv, iters, halvings, factors = out
            if phase not in increments and len(increments) >= MICRO_OPERATOR_CACHE:
                increments.clear()
            increments[phase] = w - v
            v = w
            newton_counts.append(iters)
            backtracks += halvings
            factorizations += factors
            diss += grid.h**grid.dim * float(v @ dtLv)
        values[n + 1] = v
        dissipation[n + 1] = diss
    return values, dissipation, {
        "substeps": substeps, "newton_mean": float(np.mean(newton_counts)),
        "newton_max": int(np.max(newton_counts)), "newton_backtracks": backtracks,
        "factorizations": factorizations, "predictor_restarts": restarts}


def solve_micro(prob: MicroProblem) -> SpaceTimeField:
    """Backward-Euler / damped-Newton solve of the oscillating problem.

    The coefficient depends on t only through the fast phase
    s = t/eps^r mod 1, so operators are cached by s for the solve and s is
    the phase key of the Newton start; an s-independent field has one
    operator and one key (None)."""
    substeps = prob.auto_substeps()
    cache = {}
    builds = 0

    def op_at(t, _v):
        nonlocal builds
        s = None if prob.field.s_independent else (t / prob.eps**prob.r) % 1.0
        op = cache.get(s)
        if op is None:
            if len(cache) >= MICRO_OPERATOR_CACHE:
                cache.clear()
            op = cache[s] = _micro_operator(prob.field, prob.grid, prob.eps, prob.r, t)
            builds += 1
        return op, s

    values, diss, stats = _march(prob.grid, prob.p, prob.f, prob.u0, op_at, substeps)
    stats.update(eps=prob.eps, r=prob.r, operator_builds=builds)
    return SpaceTimeField(grid=prob.grid, p=prob.p, values=values,
                          dissipation=diss, stats=stats)


def solve_homogenized(prob: HomogenizedProblem) -> SpaceTimeField:
    """Solve the effective problem; at the critical scaling the matrix is
    looked up from the |u0| table, frozen per step (lagged coefficient)."""
    clamp_count = 0
    if prob.mode == "constant":
        op_const = _constant_operator(prob.tensor.matrix, prob.grid)

        def op_at(t, _v):
            return op_const, None
    else:
        def op_at(t, v):
            nonlocal clamp_count
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TableClampWarning)
                op = _table_operator(prob.tensor, prob.grid, v, prob.p)
            clamp_count += sum(1 for w in caught
                               if issubclass(w.category, TableClampWarning))
            return op, None

    values, diss, stats = _march(prob.grid, prob.p, prob.f, prob.u0, op_at, prob.substeps)
    stats.update(mode=prob.mode, clamp_warnings=clamp_count)
    return SpaceTimeField(grid=prob.grid, p=prob.p, values=values,
                          dissipation=diss, stats=stats)


# ---------------------------------------------------------------------------
# Norms and energies


@lru_cache(maxsize=8)
def _laplacian_solve(grid):
    """Solver of -Laplace(phi) = w, zero on the boundary: gtsv or a kept factor."""
    op, zeros = _constant_operator(np.eye(grid.dim), grid), np.zeros(grid.n_x**grid.dim)
    if grid.dim == 2:
        return BandCholesky(op.band.shifted(1.0, zeros)).solve
    return lambda w: op.solve_shifted(zeros, 1.0, w)


def hminus1_norm(w, grid: MacroGrid) -> float:
    """Dual norm: solve -Laplace(phi) = w with zero boundary values and
    return the energy norm of phi, i.e. sqrt(h^N w . phi)."""
    w = np.asarray(w, dtype=float).ravel()
    val = grid.h**grid.dim * float(w @ _laplacian_solve(grid)(w))
    if val < -1e-12:
        raise SolverDiverged(f"indefinite H^-1 energy {val:.3e}")
    return math.sqrt(max(val, 0.0))


def lp_norm(w, grid: MacroGrid, q: float) -> float:
    """Discrete L^q(Omega) norm of interior node values."""
    w = np.asarray(w, dtype=float).ravel()
    return float((grid.h**grid.dim * np.sum(np.abs(w) ** q)) ** (1.0 / q))


def grad_sq_integral(v, grid: MacroGrid) -> float:
    """Discrete integral of |grad v|^2 over Omega (zero boundary)."""
    return grid.h**grid.dim * sum(float(np.sum(grid.face_difference(v, d)**2))
                                  for d in range(grid.dim))


def energy_functionals(traj: SpaceTimeField, p: float = None):
    """E(t) = (1/(p+1)) ||u(t)||_{L^{p+1}}^{p+1} per step, plus the
    cumulative dissipation integral recorded during the solve."""
    p = traj.p if p is None else p
    u = traj.u_values()
    hN = traj.grid.h**traj.grid.dim
    E = hN * np.sum(np.abs(u) ** (p + 1.0), axis=1) / (p + 1.0)
    return {"energy": E, "dissipation": traj.dissipation.copy(),
            "times": traj.grid.times()}


def contraction_constant(field: PeriodicMatrixField, eps: float, r: float,
                         T: float, n_s: int = 64) -> float:
    """Stability constant for the initial-datum contraction estimate:
    (Lam/lam) * exp((1/(lam eps^r)) integral of ||d_s a||_inf over (0,T)).
    The integral reduces to T times the s-average of the sup norm."""
    svals = (np.arange(n_s) + 0.5) / n_s
    mean_ds = float(np.mean([field.sup_ds_inf(s) for s in svals]))
    return (field.Lam / field.lam) * math.exp(T * mean_ds / (field.lam * eps**r))


# ---------------------------------------------------------------------------
# Trajectory serialization ("oscidiff-traj v1")

TRAJ_MAGIC = "oscidiff-traj v1"


def save_traj(path, traj: SpaceTimeField):
    g = traj.grid
    diss = ",".join(f"{v:.17g}" for v in traj.dissipation)
    write_artifact(path, TRAJ_MAGIC, {"N": g.dim, "nx": g.n_x, "nt": g.n_t, "T": g.T,
                                      "p": traj.p, "diss": diss}, traj.values)


def load_traj(path) -> SpaceTimeField:
    meta, values = read_artifact(path, TRAJ_MAGIC, ("N", "nx", "nt", "T", "p", "diss"))
    grid = MacroGrid(dim=int(meta["N"]), n_x=int(meta["nx"]),
                     n_t=int(meta["nt"]), T=float(meta["T"]))
    if values.shape[0] != grid.n_t + 1:
        raise ConfigError(f"{path}: expected {grid.n_t + 1} steps, got {values.shape[0]}")
    dissipation = np.array([float(v) for v in meta["diss"].split(",")])
    return SpaceTimeField(grid=grid, p=float(meta["p"]), values=values,
                          dissipation=dissipation)
