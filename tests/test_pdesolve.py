import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from oscidiff import cellsolve as cs, effmat as em, pdesolve as pde
from oscidiff.banded import Band
from oscidiff.errors import ConfigError, SolverDiverged
from oscidiff.fields import CellGrid, MacroGrid, make_field

IDENTITY_1D = make_field("constant", matrix=np.eye(1))


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
    cells = cs.solve_cells(field, CellGrid(M_y=8, M_s=4), "subcritical")
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
    op = pde._constant_operator(np.array([[0.5]]), grid)
    p, dt = 1.5, grid.dt
    w = np.sign(un) * np.abs(un) ** p
    target = un
    res_hist = []
    for _ in range(12):
        F = pde._u_of(w, p) + dt * op.matvec(w) - target
        res_hist.append(np.linalg.norm(F))
        if res_hist[-1] < 1e-13:
            break
        w = w + op.solve_shifted(pde._uprime_of(w, p), dt, -F)
    tail = [r for r in res_hist if r > 1e-13][-2:]
    assert tail[1] / tail[0] <= 0.3


def _banded_reference(op, extra_diag, dt):
    ab = np.zeros((3, op.n))
    ab[1] = extra_diag + dt * op.diag
    ab[0, 1:] = dt * op.off
    ab[2, :-1] = dt * op.off
    return ab


@pytest.mark.parametrize("n", [2, 3, 17, 256])
def test_solve_shifted_matches_solve_banded(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        op = pde.Operator1D(rng.uniform(0.1, 2.0, n + 1), 1.0 / (n + 1))
        extra, dt = rng.uniform(0.0, 3.0, n), rng.uniform(1e-4, 1.0)
        rhs = rng.standard_normal(n)
        rhs_in = rhs.copy()
        expected = sla.solve_banded((1, 1), _banded_reference(op, extra, dt), rhs)
        assert np.array_equal(op.solve_shifted(extra, dt, rhs), expected)
        assert np.array_equal(rhs, rhs_in)
        # second call at the same dt reuses the scaled bands
        assert np.array_equal(op.solve_shifted(extra, dt, rhs), expected)


def test_solve_shifted_checks_like_solve_banded():
    op = pde.Operator1D(np.ones(5), 0.25)
    rhs = np.ones(4)
    rhs[1] = np.nan
    with pytest.raises(ValueError):
        op.solve_shifted(np.zeros(4), 1.0, rhs)
    with pytest.raises(ValueError):
        op.solve_shifted(np.full(4, np.inf), 1.0, np.ones(4))
    # [[1, -1], [-1, 1]]: exactly singular, and solve_banded says so too
    op = pde.Operator1D(np.ones(3), 1.0)
    extra = np.array([-1.0, -1.0])
    with pytest.raises(sla.LinAlgError):
        sla.solve_banded((1, 1), _banded_reference(op, extra, 1.0), np.ones(2))
    with pytest.raises(sla.LinAlgError):
        op.solve_shifted(extra, 1.0, np.ones(2))


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
    values, diss, _ = pde._march(
        grid, prob.p, prob.f, prob.u0,
        lambda t, _v: build(prob.field, grid, prob.eps, r, t), prob.auto_substeps())
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


def _operator_2d(n, a12=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return pde.Operator2D(rng.uniform(0.5, 2.0, (n + 1, n)),
                          rng.uniform(0.5, 2.0, (n, n + 1)), 1.0 / (n + 1), a12=a12)


@pytest.mark.parametrize("a12", [0.0, 0.3])
@pytest.mark.parametrize("n", [8, 13, 48])
def test_operator2d_solve_shifted_matches_spsolve(n, a12):
    op = _operator_2d(n, a12, seed=n)
    assert Band(op.K).kd == n + (1 if a12 else 0)
    rng = np.random.default_rng(n + 1)
    for dt in (1e-3, 0.05):
        extra = rng.uniform(0.1, 3.0, n * n)
        rhs = rng.standard_normal(n * n)
        rhs_in = rhs.copy()
        J = (sp.diags(extra) + dt * op.K).tocsc()
        x = op.solve_shifted(extra, dt, rhs)
        assert np.array_equal(rhs, rhs_in)
        assert np.linalg.norm(J @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        ref = spla.spsolve(J, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_operator2d_solve_shifted_failures_are_typed():
    op = _operator_2d(6)
    rhs = np.ones(36)
    rhs[3] = np.nan
    with pytest.raises(ValueError):
        op.solve_shifted(np.ones(36), 0.1, rhs)
    with pytest.raises(ValueError):
        op.solve_shifted(np.full(36, np.inf), 0.1, np.ones(36))
    with pytest.raises(SolverDiverged, match="leading minor"):
        op.solve_shifted(np.full(36, -1e4), 0.1, np.ones(36))


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
                              for d in range(dim)])
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
    op = pde._constant_operator(np.array([[a11, a12], [a12, a22]]), grid)
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
    op = pde._micro_operator(field, grid, 0.125, 2.0, 0.01)
    assert len(calls) == 2 and op.K.shape == (64, 64)
    full = make_field("constant", matrix=np.array([[1.0, 0.2], [0.2, 1.0]]))
    with pytest.raises(ConfigError, match="diagonal"):
        pde._micro_operator(full, grid, 0.125, 2.0, 0.01)


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
    cells = cs.solve_cells(field, grid_c, "subcritical")
    tensor = em.assemble_ahom(cells, field, grid_c)
    with pytest.raises(ConfigError):
        pde.HomogenizedProblem(tensor=tensor, p=0.5,
                               f=lambda x, t: np.zeros(len(x)),
                               u0=lambda x: np.zeros(len(x)),
                               grid=MacroGrid(dim=1, n_x=8, n_t=2, T=0.1),
                               mode="critical_table")


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
