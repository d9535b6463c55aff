import json
import os

import numpy as np
import pytest

from oscidiff import cellsolve as cs, effmat as em, harness as hz, pdesolve as pde
from oscidiff.errors import ConfigError, RegimeMismatch
from oscidiff.fields import CellGrid, MacroGrid, make_field

# keeps >= 8 macro grid points per fast period at the finest eps used here
SMALL_DATA = dict(n_x=128, n_t=8, T=0.25)
SMALL_GRID = CellGrid(M_y=32, M_s=32)


def small_data():
    return {"u0": lambda x: np.sin(np.pi * x[:, 0]),
            "f": lambda x, t: np.ones(len(x)), **SMALL_DATA}


def test_fit_rate_recovers_power_law():
    eps = [1 / 8, 1 / 16, 1 / 32]
    errs = [0.3 * e**2 for e in eps]
    assert hz.fit_rate(eps, errs) == pytest.approx(2.0, abs=1e-10)
    assert hz.fit_rate(eps, [0.0, 0.0, 0.0]) is None


def test_constant_coefficients_study_is_flat():
    field = make_field("constant", matrix=np.array([[0.5]]))
    report = hz.run_convergence_study(field, 0.5, 1.0, [1 / 8, 1 / 16],
                                      data=small_data(), cell_grid=SMALL_GRID)
    assert max(report.sol_err) <= 10 * pde.NEWTON_TOL
    assert report.rates["sol_err"] is None  # flagged, not fitted


def test_subcritical_study_monotone():
    field = make_field("trig1d_st")
    report = hz.run_convergence_study(field, 0.5, 1.0, [1 / 8, 1 / 16],
                                      data=small_data(), cell_grid=SMALL_GRID)
    assert not report.partial
    for name in ("sol_err", "grad_corr_err", "flux_corr_err",
                 "dtime_corr_err"):
        assert report.monotone[name], name


def test_corrector_gradient_zero_gradient():
    field, grid = make_field("trig1d_st"), CellGrid(M_y=16, M_s=8)
    cells = cs.solve_cells(field, grid, "subcritical")
    corrector = hz.corrector_gradient(em.assemble_ahom(cells, field, grid), [cells])
    y, s = np.array([[0.3], [0.8]]), np.array([0.7, 0.1])
    assert np.array_equal(corrector(np.ones(2), np.zeros((2, 1)), y, s), np.zeros((2, 1)))


def test_corrector_gradient_unit_gradient_reproduces_cell_gradient():
    field, grid = make_field("trig1d_st"), CellGrid(M_y=32, M_s=32)
    cells = cs.solve_cells(field, grid, "subcritical")
    corrector = hz.corrector_gradient(em.assemble_ahom(cells, field, grid), [cells])
    y, s = np.array([[0.0], [0.25], [0.8]]), np.array([0.0, 0.5, 0.9])
    assert np.array_equal(corrector(np.zeros(3), np.ones((3, 1)), y, s),
                          cells[0].grad_interpolant()(y, s))
    # at a cell center and a slice node the interpolant is the nodal gradient
    node = corrector(np.zeros(1), np.ones((1, 1)), np.array([[3.5 / 32]]), np.array([5 / 32]))
    assert node[0, 0] == cells[0].grad_y()[5, 3, 0]


def test_corrector_gradient_uses_nearest_key():
    field, grid = make_field("trig2d_st"), CellGrid(M_y=8, M_s=4)
    keys = (0.1, 1.0)
    cells = [cs.solve_cells(field, grid, "critical_pme", param=cs.CellParameter(p=1.5, u0abs=key))
             for key in keys]
    # only the keys place a |u0|; the matrices play no part in the corrector
    tensor = em.EffectiveTensor(
        regime="critical", dim=2, lam=field.lam, Lam=field.Lam,
        matrices=np.stack([np.eye(2)] * 2), corrector_norms=np.zeros((2, 2)),
        grad_grams=np.zeros((2, 2, 2)), u0abs_keys=np.array(keys), p=1.5)
    corrector = hz.corrector_gradient(tensor, cells)
    # log1p(0.1) and log1p(1) are nearest for |u0| below and above 0.483
    u0 = np.array([0.05, -0.3, 0.6, -4.0])
    rng = np.random.default_rng(3)
    grad_v0, y, s = rng.standard_normal((4, 2)), rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, 4)
    out = corrector(u0, grad_v0, y, s)

    def expected(key, i):
        return sum(grad_v0[i, k] * cell.grad_interpolant()(y[i], s[i])
                   for k, cell in enumerate(cells[keys.index(key)]))

    for i, (key, other) in enumerate([(0.1, 1.0), (0.1, 1.0), (1.0, 0.1), (1.0, 0.1)]):
        assert np.allclose(out[i], expected(key, i), rtol=1e-14, atol=1e-14)
        assert not np.allclose(out[i], expected(other, i))


def test_solution_error_rho_robust():
    # monotone decrease persists when the time exponent rho = 2 in
    # L^rho(0,T;L^{p+1}) is replaced by rho = 1
    field = make_field("trig1d_st")
    p, r = 0.5, 1.0
    data = small_data()
    grid = MacroGrid(dim=1, n_x=data["n_x"], n_t=data["n_t"], T=data["T"])
    tensor, _ = hz.prepare_effective(field, p, r, cell_grid=SMALL_GRID)
    homog = pde.solve_homogenized(pde.HomogenizedProblem(
        tensor=tensor, p=p, f=data["f"], u0=data["u0"], grid=grid,
        substeps=4))
    errs = []
    for eps in (1 / 8, 1 / 16):
        prob = pde.MicroProblem(field=field, eps=eps, r=r, p=p, f=data["f"],
                                u0=data["u0"], grid=grid, substeps=4)
        micro = pde.solve_micro(prob)
        du = micro.u_values() - homog.u_values()
        errs.append(sum(grid.dt * pde.lp_norm(du[n], grid, p + 1.0)
                        for n in range(1, grid.n_t + 1)))
    assert errs[0] > errs[1]


def test_audit_zero_data_passes():
    grid = MacroGrid(dim=1, n_x=16, n_t=4, T=0.25)
    field = make_field("trig1d_st")
    prob = pde.MicroProblem(field=field, eps=0.125, r=1.0, p=0.5,
                            f=lambda x, t: np.zeros(len(x)),
                            u0=lambda x: np.zeros(len(x)), grid=grid)
    traj = pde.solve_micro(prob)
    rep = hz.audit_uniform_estimates([traj], 0.5, data={"lam": field.lam})
    assert rep["passed"]
    assert all(item["lhs"] == 0.0 for item in rep["items"])


def test_audit_default_study_and_uniformity_proxy():
    field = make_field("trig1d_st")
    data = small_data()
    grid = MacroGrid(dim=1, n_x=data["n_x"], n_t=data["n_t"], T=data["T"])
    trajs = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        prob = pde.MicroProblem(field=field, eps=eps, r=1.0, p=0.5,
                                f=data["f"], u0=data["u0"], grid=grid)
        trajs.append(pde.solve_micro(prob))
    rep = hz.audit_uniform_estimates(trajs, 0.5,
                                     data={"lam": field.lam, "f": data["f"]})
    assert rep["passed"]
    sups = [max(pde.lp_norm(un, grid, 1.5) for un in t.u_values())
            for t in trajs]
    assert max(sups) <= 1.1 * sups[-1]


def test_audit_requires_lambda():
    with pytest.raises(ConfigError):
        hz.audit_uniform_estimates([], 0.5, data={})


def test_report_csv_format_and_partials():
    report = hz.ConvergenceReport(eps_list=[1 / 8, 1 / 16], p=0.5, r=1.0)
    report.sol_err = [0.1]  # second eps missing: partial
    report.partial, report.cause = True, "solver error at eps=1/16"
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == hz.CSV_HEADER
    assert lines[2].split(",")[1] == "nan"
    doc = json.loads(report.to_json())
    assert doc["partial"] and "solver error" in doc["cause"]
    assert "rates are informational" in doc["note"] or "note" in doc


def test_write_report_emits_files(tmp_path):
    field = make_field("trig1d_st")
    report = hz.run_convergence_study(field, 0.5, 1.0, [1 / 8, 1 / 16],
                                      data=small_data(), cell_grid=SMALL_GRID)
    hz.write_report(report, tmp_path, stem="study")
    assert (tmp_path / "study.csv").read_text().startswith(hz.CSV_HEADER)
    assert (tmp_path / "study.json").exists()
    dat = (tmp_path / "study_sol_err.dat").read_text().strip().splitlines()
    assert len(dat) == 2  # one line per eps
    assert len(dat[0].split()) == 2


def test_fixture_floor_still_respected():
    # the plain gradient error of a fresh default-resolution run must stay
    # above the committed doubled-resolution floor (non-convergence witness)
    from conftest import FIXTURE_DIR
    path = os.path.join(FIXTURE_DIR, "study_p0.5_r1.json")
    with open(path) as fh:
        fix = json.load(fh)
    field = make_field("trig1d_st")
    report = hz.run_convergence_study(field, 0.5, 1.0, [1 / 8, 1 / 16],
                                      data=small_data(), cell_grid=SMALL_GRID)
    assert min(report.grad_plain_err) > fix["grad_plain_floor"]


@pytest.mark.parametrize("r,slice_builds,averages", [(1.0, 4, 0), (3.0, 0, 1)])
def test_prepare_effective_builds_operators_once(operator_builds, r, slice_builds, averages):
    # the solve and the assembly share one operator set
    hz.prepare_effective(make_field("trig2d_st"), 0.5, r, cell_grid=CellGrid(M_y=8, M_s=4))
    assert operator_builds == {"slice": slice_builds, "average": averages}


def _study_inputs(p, r, eps_list):
    """What ``run_convergence_study`` hands ``_study_errors`` for each eps, on
    a small 1D study whose step is not a power of 2."""
    field, grid = make_field("trig1d_st"), MacroGrid(dim=1, n_x=32, n_t=8, T=0.3)
    data = small_data()
    tensor, cells = hz.prepare_effective(field, p, r, cell_grid=CellGrid(M_y=16, M_s=8))
    corrector = hz.corrector_gradient(tensor, cells)
    micro = [pde.MicroProblem(field=field, eps=eps, r=r, p=p, f=data["f"],
                              u0=data["u0"], grid=grid) for eps in eps_list]
    homog = pde.solve_homogenized(pde.HomogenizedProblem(
        tensor=tensor, p=p, f=data["f"], u0=data["u0"], grid=grid,
        substeps=micro[-1].auto_substeps()))
    return [(pde.solve_micro(prob), homog, corrector, tensor, field, p, r, prob.eps)
            for prob in micro]


def test_prepare_effective_cells_are_indexed_like_the_keys():
    field, grid = make_field("trig1d_st"), CellGrid(M_y=8, M_s=4)
    tensor, cells = hz.prepare_effective(field, 1.5, 2.0, cell_grid=grid)
    assert [key_cells[0].param.u0abs for key_cells in cells] == list(tensor.u0abs_keys)
    assert hz.prepare_effective(field, 1.5, 2.0, cell_grid=grid, keep_cells=False)[1] == []
    tensor, cells = hz.prepare_effective(field, 1.5, 1.0, cell_grid=grid)
    assert len(cells) == 1 and [c.k for c in cells[0]] == [1]
    with pytest.raises(RegimeMismatch, match="cells of each of the 1 keys"):
        hz.corrector_gradient(tensor, [])


@pytest.mark.parametrize("p, r", [(0.5, 1.0), (1.5, 1.0), (0.5, 3.0), (1.5, 3.0),
                                  (0.5, 2.0), (1.5, 2.0)])
def test_study_errors_equal_the_per_step_loop(p, r):
    # one array pass over (steps, faces), summed in step order: the same bits
    from conftest import study_errors_reference
    for args in _study_inputs(p, r, [1 / 4, 1 / 8]):
        assert hz._study_errors(*args) == study_errors_reference(*args)


@pytest.mark.parametrize("dim", [1, 2])
def test_audit_matches_the_per_step_loop(dim):
    from conftest import audit_reference
    field = make_field("trig1d_st" if dim == 1 else "trig2d_st")
    grid = MacroGrid(dim=dim, n_x=32 if dim == 1 else 10, n_t=8, T=0.25)
    sine = lambda x: np.prod(np.sin(np.pi * x), axis=1)
    data = {"lam": field.lam, "f": lambda x, t: np.exp(-t) * np.ones(len(x))}
    trajs = [pde.solve_micro(pde.MicroProblem(field=field, eps=eps, r=1.0, p=p,
                                              f=data["f"], u0=sine, grid=grid))
             for eps, p in ((1 / 4, 0.5), (1 / 8, 1.5))]
    for p in (0.5, 1.5):
        for traj in trajs:
            for f in (data["f"], None):
                got = hz.audit_uniform_estimates([traj], p, data={**data, "f": f})
                want = audit_reference([traj], p, data={**data, "f": f})
                assert got["passed"] == want["passed"]
                for a, b in zip(got["items"], want["items"], strict=True):
                    assert (a["bound"], a["step"], a["passed"]) == \
                        (b["bound"], b["step"], b["passed"])
                    for key in ("lhs", "rhs"):
                        assert a[key] == pytest.approx(b[key], rel=1e-14, abs=0.0)
