import functools
import math
import re
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _entries_at_reference, band_csr
from oscidiff import cellsolve as cs, effmat as em, harness as hz, pdesolve as pde
from oscidiff.errors import ConfigError, SolverDiverged
from oscidiff.fields import CellGrid, MacroGrid, make_field, sample_grid

IDENTITY_1D = make_field("constant", matrix=np.eye(1))


def _uprime(v, p):
    """u'(v) = (1/p)|v|^(1/p - 1), regularized at v = 0, as the reference steppers take it."""
    return (1.0 / p) * np.maximum(np.abs(v), pde.DELTA_REG) ** (1.0 / p - 1.0)


def heat_error(n_x, n_t, T=0.1):
    """Max-in-time L2 error against u = exp(-pi^2 t) sin(pi x)."""
    grid = MacroGrid(dim=1, n_x=n_x, n_t=n_t, T=T)
    prob = pde.MicroProblem(field=IDENTITY_1D, eps=0.5, r=1.0, p=1.0,
                            f=lambda x, t: np.zeros(len(x)),
                            u0=lambda x: np.sin(np.pi * x[:, 0]), grid=grid)
    traj = pde.solve_micro(prob)
    x = grid.interior_nodes()[:, 0]
    errs = [pde.lp_norm(traj.values[n] - np.exp(-np.pi**2 * t)
                        * np.sin(np.pi * x), grid, 2.0)
            for n, t in enumerate(grid.times())]
    return max(errs)


def test_zero_data_zero_trajectory():
    grid = MacroGrid(dim=1, n_x=32, n_t=8, T=0.25)
    zero = lambda x: np.zeros(len(x))
    prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=2.0,
                            p=0.5, f=lambda x, t: np.zeros(len(x)), u0=zero,
                            grid=grid)
    traj = pde.solve_micro(prob)
    assert np.max(np.abs(traj.values)) == 0.0


def test_heat_equation_oracle():
    err = heat_error(64, 64)
    assert err < 5e-3
    # one refinement halving both dt and h: first-order in dt dominates
    # here, so the error at least halves
    assert heat_error(129, 128) < 0.6 * err


def test_micro_equals_homogenized_for_constant_coefficients():
    A = np.array([[0.6]])
    field = make_field("constant", matrix=A)
    grid = MacroGrid(dim=1, n_x=48, n_t=12, T=0.25)
    u0 = lambda x: np.sin(np.pi * x[:, 0])
    f = lambda x, t: np.ones(len(x))
    micro = pde.solve_micro(pde.MicroProblem(
        field=field, eps=0.125, r=1.0, p=0.5, f=f, u0=u0, grid=grid))
    cells = cs.solve_cells(field, CellGrid(M_y=8, M_s=4), 0.0)
    tensor = em.assemble_ahom(cells, field, CellGrid(M_y=8, M_s=4))
    homog = pde.solve_homogenized(pde.HomogenizedProblem(
        tensor=tensor, p=0.5, f=f, u0=u0, grid=grid))
    assert np.max(np.abs(micro.values - homog.values)) < 10 * pde.NEWTON_TOL


def test_energy_nonincreasing_without_source():
    grid = MacroGrid(dim=1, n_x=64, n_t=16, T=0.25)
    prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=2.0,
                            p=1.5, f=lambda x, t: np.zeros(len(x)),
                            u0=lambda x: np.sin(np.pi * x[:, 0]), grid=grid)
    traj = pde.solve_micro(prob)
    rep = pde.energy_functionals(traj, p=1.5)
    E = rep["energy"]
    assert all(b <= a + 1e-14 for a, b in zip(E, E[1:]))


def test_energy_matches_heat_decay():
    grid = MacroGrid(dim=1, n_x=128, n_t=128, T=0.1)
    prob = pde.MicroProblem(field=IDENTITY_1D, eps=0.5, r=1.0, p=1.0,
                            f=lambda x, t: np.zeros(len(x)),
                            u0=lambda x: np.sin(np.pi * x[:, 0]), grid=grid)
    rep = pde.energy_functionals(pde.solve_micro(prob), p=1.0)
    for n, t in enumerate(grid.times()):
        exact = 0.25 * np.exp(-2 * np.pi**2 * t)  # (1/2)||u||_2^2, ||sin||^2=1/2
        assert abs(rep["energy"][n] - exact) < 5e-3


def test_hminus1_norm_oracles():
    grid = MacroGrid(dim=1, n_x=256, n_t=4, T=1.0)
    x = grid.interior_nodes()[:, 0]
    assert pde.hminus1_norm(np.zeros(grid.n_x), grid) == 0.0
    w = np.sin(np.pi * x)
    val = pde.hminus1_norm(w, grid)
    assert val == pytest.approx(1.0 / (np.pi * np.sqrt(2.0)), abs=1e-4)
    assert pde.hminus1_norm(2 * w, grid) == pytest.approx(2 * val, rel=1e-12)


def test_contraction_in_initial_data():
    field = make_field("trig1d_st")
    grid = MacroGrid(dim=1, n_x=64, n_t=16, T=0.25)
    eps, r, p = 0.125, 1.0, 0.5
    f = lambda x, t: np.ones(len(x))
    u0_a = lambda x: np.sin(np.pi * x[:, 0])
    u0_b = lambda x: 0.5 * np.sin(np.pi * x[:, 0])
    ta = pde.solve_micro(pde.MicroProblem(field=field, eps=eps, r=r, p=p,
                                          f=f, u0=u0_a, grid=grid))
    tb = pde.solve_micro(pde.MicroProblem(field=field, eps=eps, r=r, p=p,
                                          f=f, u0=u0_b, grid=grid))
    C_T = pde.contraction_constant(field, eps, r, grid.T)
    d0 = pde.hminus1_norm(ta.u_values()[0] - tb.u_values()[0], grid) ** 2
    dmax = max(pde.hminus1_norm(ua - ub, grid) ** 2
               for ua, ub in zip(ta.u_values(), tb.u_values()))
    assert C_T >= 1.0
    assert dmax <= 1.05 * C_T * d0


def test_richardson_temporal_self_convergence():
    # no closed form for nonlinear diffusion; successive dt-halvings must
    # shrink the solution change at first order in dt
    grid_of = lambda n_t: MacroGrid(dim=1, n_x=64, n_t=n_t, T=0.25)
    u0 = lambda x: np.sin(np.pi * x[:, 0])
    f = lambda x, t: np.zeros(len(x))
    sols = {}
    for n_t in (8, 16, 32):
        prob = pde.MicroProblem(field=IDENTITY_1D, eps=0.5, r=1.0, p=1.5,
                                f=f, u0=u0, grid=grid_of(n_t))
        sols[n_t] = pde.solve_micro(prob).values[-1]
    d1 = np.linalg.norm(sols[8] - sols[16])
    d2 = np.linalg.norm(sols[16] - sols[32])
    order = np.log2(d1 / d2)
    assert order >= 0.9


def test_newton_quadratic_tail():
    # replicate one implicit step and track the residual history
    grid = MacroGrid(dim=1, n_x=64, n_t=8, T=0.25)
    x = grid.interior_nodes()
    un = np.sin(np.pi * x[:, 0])
    op = pde._constant_operator(np.array([[0.5]]), grid, grid.dt)
    p = 1.5
    w = np.sign(un) * np.abs(un) ** p
    target = un
    res_hist = []
    for _ in range(12):
        F = pde._u_of(w, p) + op.matvec(w) - target
        res_hist.append(np.linalg.norm(F))
        if res_hist[-1] < 1e-13:
            break
        w = w + op.solve_shifted(_uprime(w, p), -F)
    tail = [r for r in res_hist if r > 1e-13][-2:]
    assert tail[1] / tail[0] <= 0.3


def _constant_tensor(matrix):
    """A constant effective tensor with the given matrix."""
    dim = len(matrix)
    return em.EffectiveTensor(regime="subcritical", dim=dim, lam=1.0, Lam=1.0,
                              matrices=np.asarray(matrix, dtype=float)[None],
                              corrector_norms=np.zeros((1, dim)),
                              grad_grams=np.zeros((1, dim, dim)))


@pytest.mark.parametrize("dim", [1, 2])
def test_dissipation_is_the_face_gradient_quadrature(dim):
    # with the identity tensor h^N v . L v is the face-layer quadrature of
    # |grad v|^2; the quadrature, not the operator, is the oracle
    grid = MacroGrid(dim=dim, n_x=31 if dim == 1 else 12, n_t=8, T=0.25)
    traj = pde.solve_homogenized(pde.HomogenizedProblem(
        tensor=_constant_tensor(np.eye(dim)), p=0.5, f=lambda x, t: np.ones(len(x)),
        u0=lambda x: np.prod(np.sin(np.pi * x), axis=1), grid=grid, substeps=1))
    increments = [grid.dt * pde.grad_sq_integral(v, grid) for v in traj.values[1:]]
    expected = np.concatenate([[0.0], np.cumsum(increments)])
    assert expected[-1] > 0.0
    assert np.allclose(traj.dissipation, expected, rtol=1e-12, atol=0.0)


def _three_pass_march(grid, p, f, u0, op_at, substeps, full_newton=False, predict=True):
    """Reference stepper: each residual in three passes (u(w), dt L w, the
    norm), dissipation h^N v . (dt L v). ``op_at(t, v)`` gives the operator,
    built for the substep dt, and its phase key; unless ``predict`` is
    false, Newton starts from v
    plus the last increment made at the same phase (from v at a new phase;
    a new phase clears a store of ``MICRO_OPERATOR_CACHE`` phases).
    On an ``Operator2D`` it takes chord steps on the last factor while the
    full step passes the Armijo test and the one before shrank the residual
    by ``CHORD_RATE``, unless ``full_newton``. Returns the stored values,
    the dissipation and the line-search halvings."""
    x = grid.interior_nodes()
    un = np.asarray(u0(x), dtype=float).ravel()
    v = np.sign(un) * np.abs(un) ** p
    dt = grid.dt / substeps
    tol = pde.NEWTON_TOL * max(float(np.linalg.norm(un)), 1.0)
    values, diss, halvings, increments = [v], [0.0], 0, {}
    for k in range(grid.n_t * substeps):
        t = (k + 1) * dt
        op, phase = op_at(t, v)
        target = un + dt * np.asarray(f(x, t), dtype=float).ravel()

        def residual(w):
            return pde._u_of(w, p) + op.matvec(w) - target

        v_old = v
        if predict and phase in increments:
            v = v + increments[phase]
        F = residual(v)
        chord = False
        while np.linalg.norm(F) > tol:
            if chord:
                w = v + op.solve_shifted(None, -F)
                res, res_w = np.linalg.norm(F), np.linalg.norm(residual(w))
                if res_w <= (1.0 - 1e-4) * res:
                    chord = res_w <= pde.CHORD_RATE * res
                    v = w
                    F = residual(v)
                    continue
            d = op.solve_shifted(_uprime(v, p), -F)
            chord = isinstance(op, pde.Operator2D) and not full_newton
            alpha = 1.0
            while np.linalg.norm(residual(v + alpha * d)) > (1.0 - 1e-4 * alpha) * np.linalg.norm(F):
                alpha *= 0.5
                halvings += 1
            v = v + alpha * d
            F = residual(v)
        if phase not in increments and len(increments) >= pde.MICRO_OPERATOR_CACHE:
            increments.clear()
        increments[phase] = v - v_old
        un = pde._u_of(v, p)
        diss.append(diss[-1] + grid.h**grid.dim * float(v @ op.matvec(v)))
        if (k + 1) % substeps == 0:
            values.append(v)
    return np.array(values), np.array(diss[::substeps]), halvings


def _micro_op_at(prob):
    """A micro operator built afresh for every substep, with its fast phase."""
    dt = prob.grid.dt / prob.auto_substeps()

    def op_at(t, _v):
        s = pde._fast_phase(t, prob.eps, prob.r)
        return pde._micro_operator(prob.field, prob.grid, prob.eps, s, dt), s
    return op_at


def _face_means(u, grid, d):
    """Means of the two node values of u (zero boundary values) adjacent to
    each face normal to d, shape ``grid.face_shape(d)``."""
    nodes = u.reshape((grid.n_x,) * grid.dim)
    padded = np.moveaxis(np.pad(nodes, [(int(i == d),) * 2 for i in range(grid.dim)]), d, 0)
    return np.moveaxis(0.5 * (padded[:-1] + padded[1:]), 0, d)


def _face_u0(v, grid, p, d):
    """The face |u0| rule: u of the mean of v on the faces normal to d."""
    return pde._u_of(_face_means(v, grid, d), p)


def _table_operator_reference(tensor, grid, v, p, dt):
    """The table-mode operator for the substep dt from the test's own
    look-up: entry (d, d) of ``_entries_at_reference`` at |u0| = |u of the
    face mean of v| on the faces normal to d."""
    return pde._operator(grid, [
        _entries_at_reference(tensor, np.abs(_face_u0(v, grid, p, d)))[..., d, d]
        for d in range(grid.dim)], dt)


def _fused_and_reference(case, T=0.25):
    """One solve through the package and the same problem through the
    reference stepper."""
    sine = lambda x: np.prod(np.sin(np.pi * x), axis=1)
    one = lambda x, t: np.ones(len(x))
    if case == "micro":
        prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=2.0, p=0.5,
                                f=one, u0=sine, grid=MacroGrid(dim=1, n_x=32, n_t=8, T=T))
        return pde.solve_micro(prob), _three_pass_march(
            prob.grid, prob.p, one, sine, _micro_op_at(prob), prob.auto_substeps())
    if case in ("benchmark_fde", "benchmark_pme"):
        # the benchmark's micro substep (n_x = 256, r = 3, eps = 1/16, the
        # builtin f = 1 sampled once) over 64 substeps of eps^r / 8
        f = hz.DEFAULTS["f"]["one"]
        prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.0625, r=3.0,
                                p=0.5 if case == "benchmark_fde" else 1.5, f=f, u0=sine,
                                grid=MacroGrid(dim=1, n_x=256, n_t=4, T=2.0**-9))
        return pde.solve_micro(prob), _three_pass_march(
            prob.grid, prob.p, f, sine, _micro_op_at(prob), prob.auto_substeps())
    if case == "backtracking":
        # porous-medium data of size 1e-2 and dt = 1/2 make the line search halve
        small = lambda x: 0.01 * np.sign(x[:, 0] - 0.5) * np.abs(np.sin(3 * np.pi * x[:, 0]))
        prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=1.0, p=1.5,
                                f=one, u0=small, grid=MacroGrid(dim=1, n_x=32, n_t=4, T=2.0),
                                substeps=1)
        return pde.solve_micro(prob), _three_pass_march(prob.grid, prob.p, one, small,
                                                        _micro_op_at(prob), 1)
    if case == "table":
        tensor = em.tabulate_ahom_critical(make_field("trig1d_st"), CellGrid(M_y=8, M_s=4),
                                           p=0.5, u0abs_grid=[0.0, 0.5, 1.0, 2.0])
        grid = MacroGrid(dim=1, n_x=32, n_t=8, T=T)
        op_at = lambda _t, v: (_table_operator_reference(tensor, grid, v, 0.5, grid.dt / 2), None)
        prob = pde.HomogenizedProblem(tensor=tensor, p=0.5, f=one, u0=sine, grid=grid,
                                      mode="critical_table", substeps=2)
        return pde.solve_homogenized(prob), _three_pass_march(grid, 0.5, one, sine, op_at, 2)
    if case == "benchmark_table":
        # the critical study's table (17 keys on a 64 x 64 cell grid, p = 0.5)
        # and its homogenized substep: n_x = 256, 64 substeps of 2^-13 per step
        tensor = em.tabulate_ahom_critical(make_field("trig1d_st"), CellGrid(M_y=64, M_s=64),
                                           p=0.5)
        grid, f = MacroGrid(dim=1, n_x=256, n_t=4, T=2.0**-5), hz.DEFAULTS["f"]["one"]
        op_at = lambda _t, v: (_table_operator_reference(tensor, grid, v, 0.5, grid.dt / 64),
                               None)
        prob = pde.HomogenizedProblem(tensor=tensor, p=0.5, f=f, u0=sine, grid=grid,
                                      mode="critical_table", substeps=64)
        return pde.solve_homogenized(prob), _three_pass_march(grid, 0.5, f, sine, op_at, 64)
    prob, op_at = _problem_2d(case, T)
    return pde.solve_homogenized(prob), _three_pass_march(prob.grid, prob.p, prob.f,
                                                          prob.u0, op_at, 1)


def _problem_2d(case, T=0.25):
    """A 2D homogenized problem and its operator for the step to time t
    from v, built for the step dt: a constant full matrix or a critical |u0|
    table. ``stiff_2d``
    has porous-medium data of size 1e-3 and dt = 1/4, where chord steps
    that only pass the Armijo test stall short of the tolerance."""
    sine = lambda x: np.prod(np.sin(np.pi * x), axis=1)
    one = lambda x, t: np.ones(len(x))
    if case in ("constant_2d", "stiff_2d"):
        matrix = np.array([[0.6, 0.1], [0.1, 0.4]])
        stiff = case == "stiff_2d"
        u0 = (lambda x: 1e-3 * np.sign(x[:, 0] - 0.5) * np.abs(np.sin(3 * np.pi * x[:, 0]))
              * np.sin(np.pi * x[:, 1])) if stiff else sine
        grid = MacroGrid(dim=2, n_x=10, n_t=4 if stiff else 8, T=1.0 if stiff else T)
        op = pde._constant_operator(matrix, grid, grid.dt)
        return pde.HomogenizedProblem(tensor=_constant_tensor(matrix), p=1.5, f=one,
                                      u0=u0, grid=grid), lambda _t, _v: (op, None)
    tensor = em.tabulate_ahom_critical(make_field("trig2d_st"), CellGrid(M_y=8, M_s=4),
                                       p=1.5, u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    grid = MacroGrid(dim=2, n_x=12, n_t=8, T=T)
    return (pde.HomogenizedProblem(tensor=tensor, p=1.5, f=one, u0=sine, grid=grid,
                                   mode="critical_table"),
            lambda _t, v: (_table_operator_reference(tensor, grid, v, 1.5, grid.dt), None))


@pytest.mark.parametrize("case", ["micro", "backtracking", "table", "constant_2d",
                                  "stiff_2d", "benchmark_fde", "benchmark_pme",
                                  "benchmark_table"])
def test_fused_march_matches_three_pass_reference(case):
    # both take dt L w from the same operator, built for the substep dt
    traj, (values, diss, halvings) = _fused_and_reference(case)
    assert np.array_equal(traj.values, values)
    assert np.allclose(traj.dissipation, diss, rtol=1e-12, atol=0.0)
    assert traj.stats["newton_backtracks"] == halvings
    assert (halvings > 0) == (case == "backtracking")


@pytest.mark.parametrize("dim", [1, 2])
def test_table_clamp_count_is_the_number_of_clamped_lookups(dim):
    # |u| starts at 2.5 above the last key 2 and decays through it; in 2D the
    # data is narrower along x1, so the face means of the two axes differ
    name, p, T = ("trig1d_st", 0.5, 0.2) if dim == 1 else ("trig2d_st", 1.5, 0.05)
    keys = [0.0, 0.5, 1.0, 2.0]
    tensor = em.tabulate_ahom_critical(make_field(name), CellGrid(M_y=8, M_s=4), p=p,
                                       u0abs_grid=keys)
    grid = MacroGrid(dim=dim, n_x=11, n_t=8, T=T)
    u0 = lambda x: 2.5 * np.sin(np.pi * x[:, 0]) ** 4 * np.prod(np.sin(np.pi * x[:, 1:]), axis=1)
    prob = pde.HomogenizedProblem(tensor=tensor, p=p, f=lambda x, t: np.zeros(len(x)), u0=u0,
                                  grid=grid, mode="critical_table")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = pde.solve_homogenized(prob)
    # one look-up per axis and step (one substep each), from v of the step before
    top = math.log1p(keys[-1]) + 1e-15
    count = sum(bool(np.any(np.log1p(np.abs(_face_u0(v, grid, p, d))) > top))
                for v in traj.values[:-1] for d in range(dim))
    assert 0 < count < dim * grid.n_t
    assert traj.stats["clamp_warnings"] == count


@pytest.mark.parametrize("dim", [1, 2])
def test_table_operator_looks_a_hom_up_at_u_of_the_face_mean_of_v(dim):
    # a v of both signs, where u of the face mean of v and the face mean of u differ
    name, p = ("trig1d_st", 0.5) if dim == 1 else ("trig2d_st", 1.5)
    tensor = em.tabulate_ahom_critical(make_field(name), CellGrid(M_y=8, M_s=4), p=p,
                                       u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    grid, dt = MacroGrid(dim=dim, n_x=9, n_t=4, T=0.1), 0.25
    v = np.random.default_rng(0).uniform(-1.0, 1.0, grid.n_x**dim)
    faces = [tensor.entries_at(_face_u0(v, grid, p, d))[..., d, d] for d in range(dim)]
    ref = pde._operator(grid, faces, dt)
    op = pde._table_operator(tensor, grid, v, p, dt)
    if dim == 1:
        assert np.array_equal(op.diag, ref.diag) and np.array_equal(op.off, ref.off)
    else:
        assert np.array_equal(op.band.rows, ref.band.rows)
        assert np.array_equal(op.band.values, ref.band.values)
    for d in range(dim):
        u0, a = pde.face_ahom(tensor, grid, v, p, d)
        assert np.array_equal(u0, _face_u0(v, grid, p, d))
        assert np.array_equal(a, faces[d])
    # the face mean of u would have looked up other coefficients
    u = pde._u_of(v, p)
    assert not np.array_equal(
        pde._operator(grid, [tensor.entries_at(_face_means(u, grid, d))[..., d, d]
                             for d in range(dim)], dt).matvec(v), op.matvec(v))


@pytest.mark.parametrize("case", ["constant_2d", "table_2d", "stiff_2d"])
def test_chord_march_meets_tolerance_and_full_newton(case):
    prob, op_at = _problem_2d(case)
    grid, p = prob.grid, prob.p
    traj = pde.solve_homogenized(prob)
    x = grid.interior_nodes()
    tol = pde.NEWTON_TOL * max(float(np.linalg.norm(prob.u0(x))), 1.0)
    for n in range(1, grid.n_t + 1):
        t = n * grid.dt
        v_prev, v = traj.values[n - 1], traj.values[n]
        F = (pde._u_of(v, p) + op_at(t, v_prev)[0].matvec(v)
             - pde._u_of(v_prev, p) - grid.dt * prob.f(x, t))
        assert np.linalg.norm(F) <= tol
    full, _, _ = _three_pass_march(grid, p, prob.f, prob.u0, op_at, 1, full_newton=True)
    assert np.max(np.abs(traj.values - full)) <= 1e-7 * np.max(np.abs(full))
    iterations = traj.stats["newton_mean"] * grid.n_t
    assert grid.n_t <= traj.stats["factorizations"] < iterations


@pytest.mark.parametrize("kind", ["micro", "homogenized"])
@pytest.mark.parametrize("name", ["one", "zero", "decaying"])
def test_builtin_source_is_sampled_once_unless_it_varies_with_t(name, kind):
    builtin, times = hz.DEFAULTS["f"][name], []

    @functools.wraps(builtin)  # keeps the builtin's t_independent mark
    def counted(x, t):
        times.append(t)
        return builtin(x, t)

    sine = lambda x: np.sin(np.pi * x[:, 0])
    grid = MacroGrid(dim=1, n_x=32, n_t=4, T=0.25)
    if kind == "micro":
        prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=2.0, p=0.5,
                                f=counted, u0=sine, grid=grid)
        traj, substeps, op_at = pde.solve_micro(prob), prob.auto_substeps(), _micro_op_at(prob)
    else:
        matrix = np.array([[0.6]])
        op = pde._constant_operator(matrix, grid, grid.dt / 2)
        traj = pde.solve_homogenized(pde.HomogenizedProblem(
            tensor=_constant_tensor(matrix), p=0.5, f=counted, u0=sine, grid=grid, substeps=2))
        substeps, op_at = 2, lambda _t, _v: (op, None)
    assert len(times) == (substeps * grid.n_t if name == "decaying" else 1)
    values, diss, _ = _three_pass_march(grid, 0.5, builtin, sine, op_at, substeps)
    assert np.array_equal(traj.values, values)
    assert np.allclose(traj.dissipation, diss, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("where", ["u0", "f"])
def test_non_finite_data_raises_value_error_from_the_march(where, dim):
    # a 1D Newton solve skips the finiteness check of a residual whose norm
    # is finite; a NaN in u0 or f makes the norm NaN, and the solve raises
    def nan_at_node_3(a):
        a = a.copy()
        a[3] = np.nan
        return a

    sine = lambda x: np.prod(np.sin(np.pi * x), axis=1)
    u0 = (lambda x: nan_at_node_3(sine(x))) if where == "u0" else sine
    f = ((lambda x, t: nan_at_node_3(np.ones(len(x)))) if where == "f"
         else hz.DEFAULTS["f"]["one"])
    prob = pde.HomogenizedProblem(tensor=_constant_tensor(np.eye(dim)), p=0.5, f=f, u0=u0,
                                  grid=MacroGrid(dim=dim, n_x=16 if dim == 1 else 8,
                                                 n_t=4, T=0.25))
    with pytest.raises(ValueError, match="infs or NaNs"):
        pde.solve_homogenized(prob)


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_shifted_negation_commutes_and_solves_in_place(dim):
    # the Newton step w - J^-1 F equals w + J^-1 (-F) bit for bit
    rng = np.random.default_rng(11)
    n = 17 if dim == 1 else 36
    op = (pde.Operator1D(rng.uniform(0.1, 2.0, n + 1), 1.0 / (n + 1), 0.01) if dim == 1
          else _operator_2d(6, 0.01))
    extra, rhs = rng.uniform(0.0, 3.0, n), rng.standard_normal(n)
    x = op.solve_shifted(extra, rhs)
    assert np.array_equal(op.solve_shifted(extra, -rhs), -x)
    if dim == 1:
        work = rhs.copy()
        assert np.array_equal(op.solve_shifted(extra, work, overwrite_rhs=True), x)
        assert np.array_equal(work, x)


def test_chord_step_failing_armijo_is_dropped():
    # a kept factor whose chord direction points uphill: every chord step
    # fails the Armijo test and is dropped, so the march is full Newton
    class Uphill(pde.Operator2D):
        def solve_shifted(self, extra_diag, rhs):
            x = super().solve_shifted(extra_diag, rhs)
            return x if extra_diag is not None else -x

    prob, _ = _problem_2d("constant_2d")
    matrix, grid = prob.tensor.matrix, prob.grid
    uphill = Uphill(*[np.full(grid.face_shape(d), matrix[d, d]) for d in range(2)], grid.h,
                    grid.dt, a12=matrix[0, 1])
    values, _, stats = pde._march(grid, prob.p, prob.f, prob.u0,
                                  lambda _t, _v: (uphill, None), 1)
    full, _, _ = _three_pass_march(grid, prob.p, prob.f, prob.u0,
                                   lambda _t, _v: (pde._constant_operator(matrix, grid, grid.dt),
                                                   None),
                                   1, full_newton=True)
    assert np.array_equal(values, full)
    assert stats["factorizations"] == round(stats["newton_mean"] * grid.n_t)


def test_newton_step_drops_the_kept_factor():
    # a cached micro operator would otherwise hold a factor between steps
    grid = MacroGrid(dim=2, n_x=10, n_t=4, T=0.25)
    op = pde._constant_operator(np.eye(2), grid, grid.dt)
    un = np.prod(np.sin(np.pi * grid.interior_nodes()), axis=1)
    out = pde._newton_step(op, un, np.ones(len(un)), grid.dt, 1.5,
                           np.copysign(np.abs(un) ** 1.5, un), 1e-9, step_id=(0, 0))
    assert out[-1] >= 1
    assert op.factor is None


def test_one_dimensional_march_factors_every_iteration():
    traj, _ = _fused_and_reference("micro")
    steps = traj.stats["substeps"] * traj.grid.n_t
    assert traj.stats["factorizations"] == round(traj.stats["newton_mean"] * steps)


def test_hminus1_norm_factors_once_per_grid(monkeypatch):
    factors = []
    cholesky = pde.BandCholesky

    def counting(ab):
        factors.append(1)
        return cholesky(ab)

    monkeypatch.setattr(pde, "BandCholesky", counting)
    pde._laplacian_solve.cache_clear()
    grid = MacroGrid(dim=2, n_x=12, n_t=4, T=1.0)
    rng = np.random.default_rng(5)
    for w in rng.standard_normal((3, grid.n_x**2)):
        op = pde._constant_operator(np.eye(2), grid, 1.0)
        phi = op.solve_shifted(np.zeros(len(w)), w)
        fresh = np.sqrt(grid.h**2 * float(w @ phi))
        assert pde.hminus1_norm(w, grid) == fresh
    assert len(factors) == 3 + 1


def test_fused_march_near_three_pass_reference_for_non_dyadic_dt():
    traj, (values, diss, halvings) = _fused_and_reference("micro", T=0.3)
    assert np.max(np.abs(traj.values - values)) <= 1e-12 * np.max(np.abs(values))
    assert np.allclose(traj.dissipation, diss, rtol=1e-12, atol=0.0)


def test_operator1d_is_built_for_its_dt_and_checks_its_bands():
    # matvec is dt L v; bands that are not finite fail the build
    rng = np.random.default_rng(3)
    aface = rng.uniform(0.5, 2.0, 9)
    v = rng.standard_normal(8)
    assert np.array_equal(pde.Operator1D(aface, 0.125, 0.25).matvec(v),
                          0.25 * pde.Operator1D(aface, 0.125, 1.0).matvec(v))
    with pytest.raises(ValueError):
        pde.Operator1D(aface, 0.125, np.inf)
    for bad in (0, 4, 8):  # an end face reaches the diagonal only
        aface = np.ones(9)
        aface[bad] = np.nan
        with pytest.raises(ValueError):
            pde.Operator1D(aface, 0.125, 1.0)


def _banded_reference(aface, h, extra_diag, dt):
    """The (1, 1) band of diag(extra_diag) + dt L for solve_banded."""
    h2 = h * h
    al, ar = aface[:-1], aface[1:]
    ab = np.zeros((3, len(aface) - 1))
    ab[1] = extra_diag + dt * ((al + ar) / h2)
    ab[0, 1:] = ab[2, :-1] = dt * (ar[:-1] / -h2)
    return ab


@pytest.mark.parametrize("n", [2, 3, 17, 256])
def test_solve_shifted_matches_solve_banded(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        aface, h = rng.uniform(0.1, 2.0, n + 1), 1.0 / (n + 1)
        extra, dt = rng.uniform(0.0, 3.0, n), rng.uniform(1e-4, 1.0)
        op = pde.Operator1D(aface, h, dt)
        rhs = rng.standard_normal(n)
        rhs_in = rhs.copy()
        expected = sla.solve_banded((1, 1), _banded_reference(aface, h, extra, dt), rhs)
        assert np.array_equal(op.solve_shifted(extra, rhs), expected)
        assert np.array_equal(rhs, rhs_in)
        # a second call leaves the bands as they were
        assert np.array_equal(op.solve_shifted(extra, rhs), expected)


def test_solve_shifted_checks_like_solve_banded():
    op = pde.Operator1D(np.ones(5), 0.25, 1.0)
    rhs = np.ones(4)
    rhs[1] = np.nan
    with pytest.raises(ValueError):
        op.solve_shifted(np.zeros(4), rhs)
    with pytest.raises(ValueError):
        op.solve_shifted(np.full(4, np.inf), np.ones(4))
    # [[1, -1], [-1, 1]]: exactly singular, and solve_banded says so too
    op = pde.Operator1D(np.ones(3), 1.0, 1.0)
    extra = np.array([-1.0, -1.0])
    with pytest.raises(sla.LinAlgError):
        sla.solve_banded((1, 1), _banded_reference(np.ones(3), 1.0, extra, 1.0), np.ones(2))
    with pytest.raises(sla.LinAlgError):
        op.solve_shifted(extra, np.ones(2))


def test_phase_key_repeats_for_non_dyadic_substeps():
    # 160 substeps of phase step 0.12: 25 distinct phases, which the float
    # t / eps^r mod 1 missed (110 builds, 2.62 Newton iterations per substep)
    grid = MacroGrid(dim=1, n_x=32, n_t=8, T=0.3)
    prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=2.0, p=0.5,
                            f=lambda x, t: np.ones(len(x)),
                            u0=lambda x: np.sin(np.pi * x[:, 0]), grid=grid)
    traj = pde.solve_micro(prob)
    assert traj.stats["operator_builds"] == 25
    assert traj.stats["newton_mean"] <= 2.3
    assert pde._fast_phase(0.1, 1.0, 1.0) == round(0.1 * 2**40) / 2**40
    assert pde._fast_phase(1.0 - 2.0**-45, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("name", ["trig1d_st", "trig2d_st"])
def test_contraction_constant_samples_once(monkeypatch, name):
    field = make_field(name)
    svals = (np.arange(64) + 0.5) / 64
    # the per-s loop: one sampling call per s
    y, h = CellGrid(M_y=64, M_s=4).centers(field.dim), 1e-6
    sups = []
    for s in svals:
        a = sample_grid(field, y, [float(s) + h, float(s) - h])
        sups.append(float(np.max(np.sum(np.abs((a[0] - a[1]) / (2.0 * h)), axis=-1))))
    mean_ds = float(np.mean(sups))
    per_s = (field.Lam / field.lam) * math.exp(0.25 * mean_ds / (field.lam * 0.125))
    calls = []
    sample = type(field).sample
    monkeypatch.setattr(type(field), "sample",
                        lambda self, *a: calls.append(1) or sample(self, *a))
    assert pde.contraction_constant(field, 0.125, 1.0, 0.25) == per_s
    assert len(calls) == 1


@pytest.mark.parametrize("r, n_t, substeps, builds", [
    (3.0, 8, None, 8),     # 128 substeps per step, phases k/8
    (2.0, 8, None, 8),     # 16 substeps per step, phases k/8
    (2.0, 25, 3, 75),      # 75 substeps, phases 16k/75: none repeats
])
def test_micro_phase_cache_is_exact(monkeypatch, r, n_t, substeps, builds):
    grid = MacroGrid(dim=1, n_x=32, n_t=n_t, T=0.25)
    prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=r,
                            p=0.5, f=lambda x, t: np.ones(len(x)),
                            u0=lambda x: np.sin(np.pi * x[:, 0]), grid=grid,
                            substeps=substeps)
    build = pde._micro_operator
    values, diss, _ = pde._march(grid, prob.p, prob.f, prob.u0, _micro_op_at(prob),
                                 prob.auto_substeps())
    live, peak = [], [0]

    def counted(*args):
        peak[0] = max(peak[0], sum(ref() is not None for ref in live))
        op = build(*args)
        live.append(weakref.ref(op))
        return op

    monkeypatch.setattr(pde, "_micro_operator", counted)
    traj = pde.solve_micro(prob)
    assert np.array_equal(traj.values, values)
    assert np.array_equal(traj.dissipation, diss)
    assert traj.stats["operator_builds"] == len(live) == builds
    assert peak[0] <= pde.MICRO_OPERATOR_CACHE


@pytest.mark.parametrize("dim", [1, 2])
def test_s_independent_micro_is_one_operator_and_the_homogenized_solve(dim):
    # one phase key: one build, and the Newton starts of the constant-tensor
    # homogenized solve, so the two trajectories are equal bit for bit
    matrix = np.diag([0.6, 0.3][:dim])
    grid = MacroGrid(dim=dim, n_x=32 if dim == 1 else 10, n_t=16, T=0.25)
    sine = lambda x: np.prod(np.sin(np.pi * x), axis=1)
    one = lambda x, t: np.ones(len(x))
    micro = pde.solve_micro(pde.MicroProblem(field=make_field("constant", matrix=matrix),
                                             eps=0.125, r=1.0, p=0.5, f=one, u0=sine,
                                             grid=grid))
    homog = pde.solve_homogenized(pde.HomogenizedProblem(
        tensor=_constant_tensor(matrix), p=0.5, f=one, u0=sine, grid=grid))
    assert micro.stats["operator_builds"] == 1
    assert np.array_equal(micro.values, homog.values)
    assert np.array_equal(micro.dissipation, homog.dissipation)


def test_phase_keyed_start_takes_one_newton_iteration_per_substep():
    # dt = eps^r / 8 exactly, so every substep is a stored step and the
    # march visits the 8 fast phases 512 times
    grid = MacroGrid(dim=1, n_x=32, n_t=1024, T=0.25)
    prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=3.0, p=0.5,
                            f=lambda x, t: np.ones(len(x)),
                            u0=lambda x: np.sin(np.pi * x[:, 0]), grid=grid)
    assert prob.auto_substeps() == 1
    traj = pde.solve_micro(prob)
    assert traj.stats["newton_mean"] <= 1.3
    assert traj.stats["predictor_restarts"] == 0
    x = grid.interior_nodes()
    tol = pde.NEWTON_TOL * max(float(np.linalg.norm(prob.u0(x))), 1.0)
    for n in range(1, grid.n_t + 1):
        t = n * grid.dt
        s = pde._fast_phase(t, prob.eps, prob.r)
        op = pde._micro_operator(prob.field, grid, prob.eps, s, grid.dt)
        v_prev, v = traj.values[n - 1], traj.values[n]
        F = (pde._u_of(v, prob.p) + op.matvec(v)
             - pde._u_of(v_prev, prob.p) - grid.dt * prob.f(x, t))
        assert np.linalg.norm(F) <= tol
    from_v, _, _ = _three_pass_march(grid, prob.p, prob.f, prob.u0, _micro_op_at(prob), 1,
                                     predict=False)
    assert np.max(np.abs(traj.values - from_v)) <= 1e-7 * np.max(np.abs(from_v))


@pytest.mark.parametrize("failure", [pde.StepRejected, pde.NewtonStalled])
def test_failed_predicted_start_is_redone_from_v(monkeypatch, failure):
    matrix, p = np.array([[0.5]]), 0.5
    prob = pde.HomogenizedProblem(tensor=_constant_tensor(matrix), p=p,
                                  f=lambda x, t: np.ones(len(x)),
                                  u0=lambda x: np.sin(np.pi * x[:, 0]),
                                  grid=MacroGrid(dim=1, n_x=32, n_t=4, T=0.25))
    newton, starts = pde._newton_step, []

    def predicted_start_fails(op, un, fval, dt, p, v_init, tol_abs, step_id):
        # step 1 is the first with an increment to extrapolate from
        starts.append((step_id, v_init.copy()))
        if step_id == (1, 0) and len(starts) == 2:
            raise failure("predicted start fails")
        return newton(op, un, fval, dt, p, v_init, tol_abs, step_id)

    monkeypatch.setattr(pde, "_newton_step", predicted_start_fails)
    traj = pde.solve_homogenized(prob)
    assert traj.stats["predictor_restarts"] == 1
    v1 = traj.values[1]
    assert [step for step, _ in starts] == [(0, 0), (1, 0), (1, 0), (2, 0), (3, 0)]
    assert not np.array_equal(starts[1][1], v1) and np.array_equal(starts[2][1], v1)
    x, dt = prob.grid.interior_nodes(), prob.grid.dt
    tol = pde.NEWTON_TOL * max(float(np.linalg.norm(prob.u0(x))), 1.0)
    from_v = newton(pde._constant_operator(matrix, prob.grid, dt), pde._u_of(v1, p),
                    prob.f(x, 2 * dt), dt, p, v1, tol, (1, 0))[0]
    assert np.array_equal(traj.values[2], from_v)


def _operator_2d(n, dt, a12=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return pde.Operator2D(rng.uniform(0.5, 2.0, (n + 1, n)),
                          rng.uniform(0.5, 2.0, (n, n + 1)), 1.0 / (n + 1), dt, a12=a12)


@pytest.mark.parametrize("a12", [0.0, 0.3])
@pytest.mark.parametrize("n", [8, 13, 48])
def test_operator2d_solve_shifted_matches_spsolve(n, a12):
    rng = np.random.default_rng(n + 1)
    for dt in (1e-3, 0.05):
        op = _operator_2d(n, dt, a12, seed=n)
        assert op.band.kd == n + (1 if a12 else 0)
        extra = rng.uniform(0.1, 3.0, n * n)
        rhs = rng.standard_normal(n * n)
        rhs_in = rhs.copy()
        J = (sp.diags(extra) + dt * band_csr(op.band)).tocsc()
        x = op.solve_shifted(extra, rhs)
        assert np.array_equal(rhs, rhs_in)
        assert np.linalg.norm(J @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        ref = spla.spsolve(J, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_operator2d_solve_shifted_failures_are_typed():
    op = _operator_2d(6, 0.1)
    rhs = np.ones(36)
    rhs[3] = np.nan
    with pytest.raises(ValueError):
        op.solve_shifted(np.ones(36), rhs)
    with pytest.raises(ValueError):
        op.solve_shifted(np.full(36, np.inf), np.ones(36))
    with pytest.raises(SolverDiverged, match="leading minor"):
        op.solve_shifted(np.full(36, -1e4), np.ones(36))


@pytest.mark.parametrize("dim", [1, 2])
def test_face_layer_matches_loops(dim):
    grid = MacroGrid(dim=dim, n_x=9, n_t=4, T=0.1)
    n, h = grid.n_x, grid.h
    v = np.random.default_rng(dim).standard_normal(n**dim)
    padded = np.zeros((n + 2,) * dim)
    padded[(slice(1, -1),) * dim] = v.reshape((n,) * dim)
    for d in range(dim):
        shape = grid.face_shape(d)
        assert shape == tuple(n + 1 if i == d else n for i in range(dim))
        points = grid.face_points(d).reshape(shape + (dim,))
        average, difference = grid.face_average(v, d), grid.face_difference(v, d)
        assert average.shape == difference.shape == shape
        for idx in np.ndindex(*shape):
            # face idx separates the padded nodes lo and lo + e_d
            lo = tuple(i if a == d else i + 1 for a, i in enumerate(idx))
            hi = tuple(i + 1 for i in idx)
            want = [(i + 0.5) * h if a == d else (i + 1) * h for a, i in enumerate(idx)]
            assert np.allclose(points[idx], want, rtol=0, atol=1e-15)
            assert average[idx] == 0.5 * (padded[lo] + padded[hi])
            assert difference[idx] == (padded[hi] - padded[lo]) / h


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_face_layer_and_norms_equal_per_vector_calls(dim):
    # a (steps, nodes) stack gives each row's single-vector result, bit for bit
    grid = MacroGrid(dim=dim, n_x=9 if dim == 1 else 12, n_t=4, T=0.1)
    stack = np.random.default_rng(dim).standard_normal((2, 3, grid.n_x**dim))
    rows = stack.reshape(-1, grid.n_x**dim)
    for d in range(dim):
        for layer in (grid.face_average, grid.face_difference):
            stacked = layer(stack, d)
            assert stacked.shape == (2, 3) + grid.face_shape(d)
            assert np.array_equal(stacked.reshape((-1,) + grid.face_shape(d)),
                                  [layer(row, d) for row in rows])
    for norm in (pde.grad_sq_integral, pde.hminus1_norm,
                 lambda w, g: pde.lp_norm(w, g, 1.5), lambda w, g: pde.lp_norm(w, g, 2.5)):
        per_row = [norm(row, grid) for row in rows]
        assert all(type(val) is float for val in per_row)
        stacked = norm(stack, grid)
        assert stacked.shape == (2, 3)
        assert np.array_equal(stacked.ravel(), per_row)


def _dense(op, N):
    return np.column_stack([op.matvec(e) for e in np.eye(N)])


@pytest.mark.parametrize("dim", [1, 2])
def test_operator_from_face_points_matches_loop_stencil(dim):
    # coefficients sampled at face_points(d) and reshaped to face_shape(d)
    # must land on the faces the operator couples them to
    grid = MacroGrid(dim=dim, n_x=8, n_t=4, T=0.1)
    n, h = grid.n_x, grid.h
    coef = [lambda x: 1.0 + x[..., 0] + 2.0 * x[..., -1] ** 2,
            lambda x: 2.0 + np.sin(3.0 * x[..., 0]) * x[..., 1]]
    op = pde._operator(grid, [coef[d](grid.face_points(d)).reshape(grid.face_shape(d))
                              for d in range(dim)], 1.0)
    nodes = list(np.ndindex(*(n,) * dim))
    K = np.zeros((n**dim, n**dim))
    for row, node in enumerate(nodes):
        x = (np.array(node) + 1.0) * h
        for d in range(dim):
            e = np.eye(dim)[d]
            for side in (-1, 1):
                a_face = coef[d](x + side * 0.5 * h * e) / h**2
                K[row, row] += a_face
                nbr = tuple(np.array(node) + side * e.astype(int))
                if all(0 <= i < n for i in nbr):
                    K[row, nodes.index(nbr)] -= a_face
    assert np.allclose(_dense(op, n**dim), K, rtol=1e-13, atol=0)


def test_constant_operator_cross_term_matches_hand_built():
    grid = MacroGrid(dim=2, n_x=8, n_t=4, T=0.1)
    n, h2 = grid.n_x, grid.h**2
    a11, a12, a22 = 0.7, 0.2, 1.3
    op = pde._constant_operator(np.array([[a11, a12], [a12, a22]]), grid, 1.0)
    K = np.zeros((n * n, n * n))
    for p in range(n):
        for q in range(n):
            row = p * n + q
            K[row, row] = (2 * a11 + 2 * a22) / h2
            # -a11 d11 - a22 d22 - 2 a12 d12, centered differences
            for dp, dq, c in [(1, 0, -a11), (-1, 0, -a11), (0, 1, -a22), (0, -1, -a22),
                              (1, 1, -a12 / 2), (-1, -1, -a12 / 2),
                              (1, -1, a12 / 2), (-1, 1, a12 / 2)]:
                if 0 <= p + dp < n and 0 <= q + dq < n:
                    K[row, (p + dp) * n + q + dq] = c / h2
    assert np.allclose(_dense(op, n * n), K, rtol=1e-14, atol=0)


def test_micro_operator_2d_samples_once_per_face_set(monkeypatch):
    grid = MacroGrid(dim=2, n_x=8, n_t=4, T=0.1)
    field = make_field("laminate2d")
    calls = []
    sample = type(field).sample
    monkeypatch.setattr(type(field), "sample",
                        lambda self, *a: calls.append(1) or sample(self, *a))
    op = pde._micro_operator(field, grid, 0.125, 0.64, grid.dt)
    assert len(calls) == 2 and op.band.n == 64
    full = make_field("constant", matrix=np.array([[1.0, 0.2], [0.2, 1.0]]))
    with pytest.raises(ConfigError, match="diagonal"):
        pde._micro_operator(full, grid, 0.125, 0.64, grid.dt)


def test_dyadic_validation():
    grid = MacroGrid(dim=1, n_x=16, n_t=4, T=0.25)
    kw = dict(field=make_field("trig1d_st"), r=1.0, p=0.5,
              f=lambda x, t: np.zeros(len(x)),
              u0=lambda x: np.zeros(len(x)), grid=grid)
    with pytest.raises(ConfigError):
        pde.MicroProblem(eps=1 / 3, **kw)
    with pytest.raises(ConfigError):
        pde.MicroProblem(eps=0.125, **{**kw, "p": 2.0})
    pde.MicroProblem(eps=0.125, **kw)  # valid


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_substeps_must_be_a_positive_integer(bad):
    grid = MacroGrid(dim=1, n_x=16, n_t=4, T=0.25)
    kw = dict(p=0.5, f=lambda x, t: np.zeros(len(x)), u0=lambda x: np.zeros(len(x)),
              grid=grid, substeps=bad)
    with pytest.raises(ConfigError, match=re.escape(f"substeps={bad!r}")):
        pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=1.0, **kw)
    with pytest.raises(ConfigError, match=re.escape(f"substeps={bad!r}")):
        pde.HomogenizedProblem(tensor=_constant_tensor(np.eye(1)), **kw)


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, 2.0, 2.5])
def test_p_outside_zero_two_is_config_error(bad):
    # one rule for both problems and the cell problems (fields.check_p); a
    # homogenized problem at p = 0 divided by zero, at p = -0.5 rejected a
    # step, at NaN failed in a solve and at 2.5 ran
    kw = dict(p=bad, f=lambda x, t: np.ones(len(x)), u0=lambda x: np.sin(np.pi * x[:, 0]),
              grid=MacroGrid(dim=1, n_x=16, n_t=4, T=0.25))
    message = re.escape(f"p must lie in (0,2), got {bad}")
    with pytest.raises(ConfigError, match=message):
        pde.MicroProblem(field=IDENTITY_1D, eps=0.5, r=1.0, **kw)
    with pytest.raises(ConfigError, match=message):
        pde.HomogenizedProblem(tensor=_constant_tensor(np.eye(1)), **kw)
    with pytest.raises(ConfigError, match=message):
        cs.regime_for(1.0, bad)


def test_integral_substeps_are_kept_as_int():
    grid = MacroGrid(dim=1, n_x=16, n_t=4, T=0.25)
    kw = dict(p=0.5, f=lambda x, t: np.zeros(len(x)), u0=lambda x: np.sin(np.pi * x[:, 0]),
              grid=grid, substeps=2.0)
    micro = pde.MicroProblem(field=IDENTITY_1D, eps=0.5, r=1.0, **kw)
    homog = pde.HomogenizedProblem(tensor=_constant_tensor(np.eye(1)), **kw)
    assert type(micro.substeps) is int and type(homog.substeps) is int
    assert np.array_equal(pde.solve_micro(micro).values, pde.solve_homogenized(homog).values)


def test_substep_resolution_of_fast_period():
    grid = MacroGrid(dim=1, n_x=16, n_t=4, T=0.25)
    prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=2.0,
                            p=0.5, f=lambda x, t: np.zeros(len(x)),
                            u0=lambda x: np.zeros(len(x)), grid=grid)
    sub = prob.auto_substeps()
    assert grid.dt / sub <= prob.eps**prob.r / 8.0
    const = pde.MicroProblem(field=IDENTITY_1D, eps=0.125, r=2.0, p=0.5,
                             f=prob.f, u0=prob.u0, grid=grid)
    assert const.auto_substeps() == 1


def test_traj_roundtrip(tmp_path):
    grid = MacroGrid(dim=1, n_x=32, n_t=8, T=0.25)
    prob = pde.MicroProblem(field=make_field("trig1d_st"), eps=0.125, r=1.0,
                            p=0.5, f=lambda x, t: np.ones(len(x)),
                            u0=lambda x: np.sin(np.pi * x[:, 0]), grid=grid)
    traj = pde.solve_micro(prob)
    path = tmp_path / "traj.txt"
    pde.save_traj(path, traj)
    loaded = pde.load_traj(path)
    assert loaded.p == traj.p
    assert np.allclose(loaded.values, traj.values, atol=1e-15)
    assert np.allclose(loaded.dissipation, traj.dissipation, atol=1e-15)


def test_critical_table_mode_requires_table():
    field = make_field("trig1d")
    grid_c = CellGrid(M_y=8, M_s=4)
    cells = cs.solve_cells(field, grid_c, 0.0)
    tensor = em.assemble_ahom(cells, field, grid_c)
    with pytest.raises(ConfigError, match="critical_table mode needs a tabulated tensor"):
        pde.HomogenizedProblem(tensor=tensor, p=0.5,
                               f=lambda x, t: np.zeros(len(x)),
                               u0=lambda x: np.zeros(len(x)),
                               grid=MacroGrid(dim=1, n_x=8, n_t=4, T=0.1),
                               mode="critical_table")
    # without a mode, the mode is read from the tensor
    assert pde.HomogenizedProblem(tensor=tensor, p=0.5, f=lambda x, t: np.zeros(len(x)),
                                  u0=lambda x: np.zeros(len(x)),
                                  grid=MacroGrid(dim=1, n_x=8, n_t=4, T=0.1)).mode == "constant"


def test_constant_mode_rejects_table():
    # a table in constant mode would solve with a(|u0| = 0)
    table = em.tabulate_ahom_critical(make_field("trig1d_st"), CellGrid(M_y=8, M_s=4),
                                      p=1.5, u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    with pytest.raises(ConfigError, match="constant mode needs a constant tensor"):
        pde.HomogenizedProblem(tensor=table, p=1.5,
                               f=lambda x, t: np.zeros(len(x)),
                               u0=lambda x: np.zeros(len(x)),
                               grid=MacroGrid(dim=1, n_x=8, n_t=4, T=0.1),
                               mode="constant")
    table_prob = pde.HomogenizedProblem(tensor=table, p=1.5, f=lambda x, t: np.zeros(len(x)),
                                        u0=lambda x: np.zeros(len(x)),
                                        grid=MacroGrid(dim=1, n_x=8, n_t=4, T=0.1))
    assert table_prob.mode == "critical_table"


def test_table_mode_rejects_a_table_of_another_p(tmp_path):
    # the |u0| keys of a table mean a capacity only at the p it was built
    # for; a loaded table read at another p would solve the wrong equation
    table = em.tabulate_ahom_critical(make_field("trig1d_st"), CellGrid(M_y=8, M_s=4),
                                      p=1.5, u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    em.save_tensor(tmp_path / "ahom.txt", table)
    kw = dict(f=lambda x, t: np.zeros(len(x)), u0=lambda x: np.zeros(len(x)),
              grid=MacroGrid(dim=1, n_x=8, n_t=4, T=0.1))
    for tensor in (table, em.load_tensor(tmp_path / "ahom.txt")):
        for p in (0.5, 1.25, np.nextafter(1.5, 2.0)):
            with pytest.raises(ConfigError, match=rf"built for p=1\.5, the problem has p={p}"):
                pde.HomogenizedProblem(tensor=tensor, p=p, **kw)
        assert pde.HomogenizedProblem(tensor=tensor, p=1.5, **kw).mode == "critical_table"
    # a constant tensor holds no p, and serves every p
    assert pde.HomogenizedProblem(tensor=_constant_tensor(np.eye(1)), p=0.5, **kw).p == 0.5


@given(st.floats(0.3, 1.9), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_u_v_transform_roundtrip(p, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(16)
    u = pde._u_of(v, p)
    v_back = np.sign(u) * np.abs(u) ** p
    assert np.allclose(v_back, v, atol=1e-12)


def test_is_dyadic():
    assert pde.is_dyadic(0.5) and pde.is_dyadic(1 / 32)
    assert not pde.is_dyadic(1 / 3)
    assert not pde.is_dyadic(0.75)
    for eps in (0.0, -0.125, float("nan"), float("inf"), -float("inf")):
        assert not pde.is_dyadic(eps)
