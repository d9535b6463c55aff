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
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .banded import Band, BandCholesky
from .effmat import EffectiveTensor
from .errors import ConfigError, NewtonStalled, SolverDiverged, StepRejected
from .fields import MacroGrid, PeriodicMatrixField, finite_number, read_artifact, write_artifact

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


def _positive_substeps(n):
    """n if it is a positive integer by the ``finite_number`` rule, else ConfigError."""
    if (k := finite_number("substeps", n, int)) < 1:
        raise ConfigError(f"substeps={n!r}: expected a positive integer")
    return k


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
        if self.substeps is not None:
            object.__setattr__(self, "substeps", _positive_substeps(self.substeps))

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
    mode: Optional[str] = None  # "constant" | "critical_table"; None: from tensor.is_table
    substeps: int = 1

    def __post_init__(self):
        if self.mode is None:
            object.__setattr__(self, "mode",
                               "critical_table" if self.tensor.is_table else "constant")
        if self.mode not in ("constant", "critical_table"):
            raise ConfigError(f"unknown coupling mode {self.mode!r}")
        if (self.mode == "critical_table") != self.tensor.is_table:
            raise ConfigError(f"{self.mode} mode needs a "
                              f"{'constant' if self.tensor.is_table else 'tabulated'} tensor")
        if self.tensor.dim != self.grid.dim:
            raise ConfigError("tensor and grid dimensions differ")
        object.__setattr__(self, "substeps", _positive_substeps(self.substeps))


# ---------------------------------------------------------------------------
# Discrete elliptic operators (homogeneous Dirichlet)


class Operator1D:
    """Tridiagonal dt * (-d/dx(a(x) d/dx .)) with face coefficients a, built
    for the step dt it serves: the diagonal ``diag`` and the symmetric
    off-diagonal ``off`` of dt L, checked finite once (ValueError)."""

    def __init__(self, aface, h, dt):
        h2 = h * h
        aface = np.asarray(aface, dtype=float)
        al, ar = aface[:-1], aface[1:]
        self.diag = dt * ((al + ar) / h2)
        self.off = dt * (ar[:-1] / -h2)  # coupling i <-> i+1
        if not (np.isfinite(self.diag).all() and np.isfinite(self.off).all()):
            raise ValueError("array must not contain infs or NaNs")

    def matvec(self, v):
        """dt L v."""
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out

    def solve_shifted(self, extra_diag, rhs, overwrite_rhs=False):
        """Solve (diag(extra_diag) + dt L) x = rhs with LAPACK gtsv.

        Raises ValueError for non-finite input and LinAlgError when the
        shifted matrix is singular. ``overwrite_rhs`` hands over a rhs shown
        finite (by a finite norm): gtsv solves in it without a check."""
        d = extra_diag + self.diag
        b = np.asarray(rhs, dtype=float)
        if not (np.isfinite(d).all() and (overwrite_rhs or np.isfinite(b).all())):
            raise ValueError("array must not contain infs or NaNs")
        off = self.off
        _, _, _, x, info = _gtsv(off, d, off, b, overwrite_d=1, overwrite_b=overwrite_rhs)
        if info > 0:
            raise sla.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
        return x


class Operator2D:
    """5-point (plus optional constant cross term) Dirichlet operator L on
    the n_x x n_x interior grid, for the step dt it serves. In its row-major
    order L has half-width n_x (n_x + 1 with the cross term); it is kept as
    a ``banded.Band``, and shifted solves factor diag + dt L by banded
    Cholesky. The factor is kept for chord Newton steps."""

    def __init__(self, a1face, a2face, h, dt, a12=0.0):
        # a1face: (n_x+1, n_x) coefficients on x1-faces; a2face: (n_x, n_x+1)
        n = a1face.shape[1]
        h2 = h * h
        # diagonal o of L in row-major order: L[j - o, j] at place j
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
        self.dt, self.factor = dt, None

    def matvec(self, v):
        """dt L v."""
        return self.dt * self.band.matvec(v)

    def solve_shifted(self, extra_diag, rhs):
        """Solve (diag(extra_diag) + dt L) x = rhs by banded Cholesky,
        keeping the factor as ``factor``; extra_diag None solves with it
        again. Raises ValueError for non-finite input and SolverDiverged
        when the shifted matrix is not positive definite."""
        if extra_diag is not None:
            self.factor = BandCholesky(self.band.shifted(self.dt, extra_diag))
        return self.factor.solve(rhs)


def _operator(grid, faces, dt, a12=0.0):
    """Dirichlet operator for the step dt from per-axis face coefficients
    ``faces[d]`` of ``grid.face_shape(d)``: tridiagonal in 1D, banded in 2D."""
    if grid.dim == 1:
        return Operator1D(faces[0], grid.h, dt)
    return Operator2D(*faces, grid.h, dt, a12=a12)


def _fast_phase(t, eps, r):
    """Fast phase t/eps^r mod 1, rounded to a multiple of 2^-40 so that a phase
    revisited by substeps that are not dyadic fractions of eps^r is one key."""
    return round((t / eps**r) % 1.0 * 2**40) / 2**40 % 1.0


def _micro_operator(field, grid, eps, s, dt):
    """Operator for the step dt with a sampled at face midpoints at fast phase s."""
    faces = []
    for d in range(grid.dim):
        x = grid.face_points(d)
        a = field.sample(x / eps, np.full(len(x), s))
        if np.any(a[:, ~np.eye(grid.dim, dtype=bool)]):
            raise ConfigError("2D micro solves support diagonal coefficient fields only")
        faces.append(a[:, d, d].reshape(grid.face_shape(d)))
    return _operator(grid, faces, dt)


def _constant_operator(matrix, grid, dt):
    matrix = np.atleast_2d(matrix)
    faces = [np.full(grid.face_shape(d), matrix[d, d]) for d in range(grid.dim)]
    # symmetric part of the off-diagonal entries; 0 in 1D, which has none
    a12 = 0.5 * matrix[~np.eye(grid.dim, dtype=bool)].sum()
    return _operator(grid, faces, dt, a12)


def _table_operator(tensor, grid, v_nodes, p, dt, clamped=None):
    """Operator for the step dt with the tabulated matrix looked up at |u|
    on each face (u interpolated from the adjacent nodes, boundary value 0):
    one ``entries_at`` per axis, which takes |u| itself and gets ``clamped``."""
    u = _u_of(v_nodes, p)
    return _operator(grid, [tensor.entries_at(grid.face_average(u, d), clamped)[..., d, d]
                            for d in range(grid.dim)], dt)


# ---------------------------------------------------------------------------
# Implicit Euler step (damped Newton in v)


def _u_of(v, p):
    return np.copysign(np.abs(v) ** (1.0 / p), v)


def _newton_step(op, un, fval, dt, p, v_init, tol_abs, step_id):
    """Solve u(w) + dt L w = un + dt f for w by damped Newton, on an
    operator built for this dt.

    A trial residual F = u(w) + dt L w - target is one pass: |w| and u(w),
    dt L w from the operator, F in place and its norm as one
    dot. The Jacobian J = diag(u'(w)) + dt L takes u' = (1/p)|w|^(1/p-1),
    regularized at w = 0, from that |w|; the step is w - J^-1 F. A finite
    norm shows F finite, so the 1D solve (gtsv) works in F unchecked; a
    non-finite F is checked (ValueError). On an ``Operator2D``, which keeps
    its factor, Newton takes chord steps (in 1D a gtsv solve costs what a
    factor does): J factored at an earlier iterate is reused while the full
    step passes the Armijo test and the step before shrank the residual by
    ``CHORD_RATE``; a chord step that fails the test is dropped and J
    refactored at the current iterate. Returns w with its u(w) and dt L w,
    the iterations, the halvings and the factorizations."""
    target = un + dt * fval
    kept = isinstance(op, Operator2D)

    def residual(w):
        aw = np.abs(w)
        u = np.copysign(aw ** (1.0 / p), w)
        dtLw = op.matvec(w)
        F = u + dtLw
        F -= target
        return w, aw, u, dtLw, F, math.sqrt(F.dot(F))

    it = residual(v_init)
    backtracks, factorizations, chord = 0, 0, False
    for iters in range(MAX_NEWTON):
        w, aw, u, dtLw, F, res = it
        if res <= tol_abs:
            if kept:  # a cached operator keeps no factor
                op.factor = None
            return w, u, dtLw, iters, backtracks, factorizations
        if chord:
            trial = residual(w - op.solve_shifted(None, F))
            if trial[-1] <= (1.0 - 1e-4) * res:
                chord = trial[-1] <= CHORD_RATE * res
                it = trial
                continue
        uprime = (1.0 / p) * np.maximum(aw, DELTA_REG) ** (1.0 / p - 1.0)
        d = (op.solve_shifted(uprime, F) if kept else
             op.solve_shifted(uprime, F, overwrite_rhs=math.isfinite(res)))
        factorizations += 1
        chord = kept
        alpha = 1.0
        for _ in range(MAX_BACKTRACK):
            trial = residual(w - d if alpha == 1.0 else w - alpha * d)
            if trial[-1] <= (1.0 - 1e-4 * alpha) * res:
                it = trial
                break
            alpha *= 0.5
            backtracks += 1
        else:
            raise StepRejected(
                f"step {step_id}: line search failed {MAX_BACKTRACK} times "
                f"(residual {res:.3e})")
    raise NewtonStalled(f"step {step_id}: residual {it[-1]:.3e} > tol {tol_abs:.3e}",
                        step=step_id, residual=float(it[-1]))


def _march(grid, p, f, u0, op_at, substeps):
    """Shared implicit-Euler driver. op_at(t, v) yields the elliptic operator
    for the step targeting time t, built for the substep grid.dt / substeps,
    given v of the previous step (from which the table mode lags its
    coefficient), and its phase key, which picks the Newton start (module
    docstring); the iterations of a discarded predicted start are not
    counted. A source f marked ``t_independent`` is sampled once per solve.
    The dissipation increment h^N v . (dt L v) reuses the accepted
    residual's dt L v."""
    x = grid.interior_nodes()
    un = np.asarray(u0(x), dtype=float).ravel()
    v = np.copysign(np.abs(un) ** p, un)
    values = np.empty((grid.n_t + 1, len(v)))
    values[0] = v
    dissipation = np.zeros(grid.n_t + 1)
    dt_sub, hN = grid.dt / substeps, grid.h**grid.dim
    sample = lambda t: np.asarray(f(x, t), dtype=float).ravel()
    f_fixed = sample(dt_sub) if getattr(f, "t_independent", False) else None
    tol_abs = NEWTON_TOL * max(float(np.linalg.norm(un)), 1.0)
    newton_counts, backtracks, factorizations, restarts = [], 0, 0, 0
    increments = {}  # phase -> last accepted v_new - v_old at that phase
    diss = 0.0
    for n in range(grid.n_t):
        for m in range(substeps):
            t_next = (n * substeps + m + 1) * dt_sub
            op, phase = op_at(t_next, v)
            fval = sample(t_next) if f_fixed is None else f_fixed
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
            diss += hN * float(v.dot(dtLv))
        values[n + 1] = v
        dissipation[n + 1] = diss
    return values, dissipation, {
        "substeps": substeps, "newton_mean": float(np.mean(newton_counts)),
        "newton_max": int(np.max(newton_counts)), "newton_backtracks": backtracks,
        "factorizations": factorizations, "predictor_restarts": restarts}


def solve_micro(prob: MicroProblem) -> SpaceTimeField:
    """Backward-Euler / damped-Newton solve of the oscillating problem.

    The coefficient depends on t only through the fast phase s
    (``_fast_phase``), so operators are built at and cached by s for the
    solve and s is the phase key of the Newton start; an s-independent
    field has one operator and one key (None)."""
    substeps = prob.auto_substeps()
    dt = prob.grid.dt / substeps
    cache = {}
    builds = 0

    def op_at(t, _v):
        nonlocal builds
        s = None if prob.field.s_independent else _fast_phase(t, prob.eps, prob.r)
        op = cache.get(s)
        if op is None:
            if len(cache) >= MICRO_OPERATOR_CACHE:
                cache.clear()
            op = cache[s] = _micro_operator(prob.field, prob.grid, prob.eps, s or 0.0, dt)
            builds += 1
        return op, s

    values, diss, stats = _march(prob.grid, prob.p, prob.f, prob.u0, op_at, substeps)
    stats.update(eps=prob.eps, r=prob.r, operator_builds=builds)
    return SpaceTimeField(grid=prob.grid, p=prob.p, values=values,
                          dissipation=diss, stats=stats)


def solve_homogenized(prob: HomogenizedProblem) -> SpaceTimeField:
    """Solve the effective problem; at the critical scaling the matrix is
    looked up from the |u0| table, frozen per step (lagged coefficient)."""
    clamped = []  # one count per look-up that clamped
    dt = prob.grid.dt / prob.substeps
    if not prob.tensor.is_table:
        op_const = _constant_operator(prob.tensor.matrix, prob.grid, dt)

        def op_at(t, _v):
            return op_const, None
    else:
        def op_at(t, v):
            return _table_operator(prob.tensor, prob.grid, v, prob.p, dt, clamped), None

    values, diss, stats = _march(prob.grid, prob.p, prob.f, prob.u0, op_at, prob.substeps)
    stats.update(mode=prob.mode, clamp_warnings=len(clamped))
    return SpaceTimeField(grid=prob.grid, p=prob.p, values=values,
                          dissipation=diss, stats=stats)


# ---------------------------------------------------------------------------
# Norms and energies


@lru_cache(maxsize=8)
def _laplacian_solve(grid):
    """Solver of -Laplace(phi) = w, zero on the boundary: gtsv or a kept factor."""
    op, zeros = _constant_operator(np.eye(grid.dim), grid, 1.0), np.zeros(grid.n_x**grid.dim)
    if grid.dim == 2:
        return BandCholesky(op.band.shifted(1.0, zeros)).solve
    return lambda w: op.solve_shifted(zeros, w)


def hminus1_norm(w, grid: MacroGrid):
    """Dual norm per node vector of w (..., n_x**dim), a float for one: solve
    -Laplace(phi) = w, zero on the boundary, for all w in one multi-RHS call
    and return the energy norm of phi, sqrt(h^N w . phi)."""
    rows = np.ascontiguousarray(w, dtype=float).reshape(-1, np.shape(w)[-1])
    phi = _laplacian_solve(grid)(rows.T).T
    # one dot per row, as for a single vector; a batched reduction rounds differently
    val = grid.h**grid.dim * np.array([row @ phi_row for row, phi_row in zip(rows, phi)])
    if np.any(val < -1e-12):
        raise SolverDiverged(f"indefinite H^-1 energy {np.min(val):.3e}")
    norm = np.sqrt(np.maximum(val, 0.0)).reshape(np.shape(w)[:-1])
    return float(norm) if np.ndim(w) == 1 else norm


def lp_norm(w, grid: MacroGrid, q: float):
    """Discrete L^q(Omega) norm per node vector of w (..., n_x**dim), a float for one."""
    # float_power is libm pow, as for a scalar; np.power's SIMD loop rounds differently
    norm = np.float_power(grid.h**grid.dim * np.sum(np.abs(w) ** q, axis=-1), 1.0 / q)
    return float(norm) if np.ndim(w) == 1 else norm


def grad_sq_integral(v, grid: MacroGrid):
    """Discrete integral of |grad v|^2 over Omega (zero boundary) per node
    vector of v (..., n_x**dim), a float for one."""
    out = grid.h**grid.dim * sum(
        np.sum(grid.face_difference(v, d).reshape(np.shape(v)[:-1] + (-1,)) ** 2, axis=-1)
        for d in range(grid.dim))
    return float(out) if np.ndim(v) == 1 else out


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
    mean_ds = float(np.mean(field.sup_ds_inf(svals)))
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
    dissipation = np.array([float(v) for v in meta["diss"].split(",")])
    steps, nodes = grid.n_t + 1, grid.n_x**grid.dim
    if values.shape != (steps, nodes) or len(dissipation) != steps:
        raise ConfigError(f"{path}: expected {steps} steps x {nodes} nodes and {steps} diss "
                          f"values, got {values.shape} and {len(dissipation)}")
    return SpaceTimeField(grid=grid, p=float(meta["p"]), values=values,
                          dissipation=dissipation)
