"""End-to-end acceptance battery.

Each test prints one CRITERION n: PASS/FAIL line (visible with -s or in
the captured output) and asserts the same condition.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import FIXTURE_DIR, l2_cell_time, monolithic_critical_solve
from oscidiff import cellsolve as cs, effmat as em, harness as hz, pdesolve as pde
from oscidiff.fields import CellGrid, MacroGrid, make_field, mean_ys

STUDY_PARAMS = [(0.5, 1.0), (1.5, 1.0), (0.5, 2.0), (1.5, 2.0), (0.5, 3.0)]
EPS_LIST = [1 / 8, 1 / 16, 1 / 32]


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def studies():
    """The five default 1D convergence studies, computed once."""
    field = make_field("trig1d_st")
    out = {}
    for p, r in STUDY_PARAMS:
        out[(p, r)] = hz.run_convergence_study(field, p, r, EPS_LIST)
    return out


@pytest.fixture(scope="module")
def battery():
    """Every effective tensor assembled for this battery, with the cells
    that produced it (for the skew checks)."""
    tensors = []
    grid1 = CellGrid(M_y=64, M_s=64)
    for name, regime in [("trig1d", "classical"), ("trig1d_st", "subcritical"),
                         ("trig1d_st", "supercritical")]:
        field = make_field(name)
        cells = cs.solve_cells(field, grid1, regime)
        tensors.append((em.assemble_ahom(cells, field, grid1), cells, None))
    field2 = make_field("trig2d_st")
    grid2 = CellGrid(M_y=24, M_s=32)
    cells = cs.solve_cells(field2, grid2, "subcritical")
    tensors.append((em.assemble_ahom(cells, field2, grid2), cells, None))
    for p in (0.5, 1.5):
        regime = "critical_fde" if p < 1 else "critical_pme"
        param = cs.CellParameter(p=p, u0abs=1.0)
        cells = cs.solve_cells(field2, grid2, regime, param=param)
        tensors.append((em.assemble_ahom(cells, field2, grid2), cells, p))
    return tensors


def test_criterion_1_classical_oracle():
    field = make_field("trig1d")
    oracle = np.sqrt(3.0) / 4.0
    grid = CellGrid(M_y=64, M_s=64)
    worst = 0.0
    for regime in ("classical", "subcritical", "supercritical"):
        cells = cs.solve_cells(field, grid, regime)
        a = em.assemble_ahom(cells, field, grid).matrix[0, 0]
        worst = max(worst, abs(a - oracle))
    errs = []
    Ms = [16, 32, 64]
    for M in Ms:
        g = CellGrid(M_y=M, M_s=8)
        a = em.assemble_ahom(cs.solve_cells(field, g, "classical"),
                             field, g).matrix[0, 0]
        errs.append(abs(a - oracle))
    order = -np.polyfit(np.log(Ms), np.log(errs), 1)[0]
    report(1, worst < 1e-4 and order >= 1.9,
           f"max |a_hom - sqrt(3)/4| = {worst:.2e} (tol 1e-4), "
           f"refinement order {order:.2f} (need >= 1.9)")


def test_criterion_2_s_averaging():
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=64, M_s=64)
    a_sup = em.assemble_ahom(cs.solve_cells(field, grid, "supercritical"),
                             field, grid).matrix[0, 0]
    a_sub = em.assemble_ahom(cs.solve_cells(field, grid, "subcritical"),
                             field, grid).matrix[0, 0]
    oracle = em.harmonic_mean_oracle_1d(field, grid, "subcritical")
    report(2, abs(a_sup - 0.5) < 1e-8 and abs(a_sub - oracle) < 1e-4,
           f"supercritical |a_hom - 1/2| = {abs(a_sup - 0.5):.2e} (tol 1e-8), "
           f"subcritical |a_hom - oracle| = {abs(a_sub - oracle):.2e} (tol 1e-4)")


def test_criterion_3_monolithic_oracle():
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=16, M_s=16)
    devs, rels = [], []
    for p in (0.5, 1.5):
        param = cs.CellParameter(p=p, u0abs=1.0)
        if p < 1:
            sol = cs.solve_critical_cell_fde(field, grid, param, k=1)
        else:
            sol = cs.solve_critical_cell_pme(field, grid, param, k=1)
        oracle = monolithic_critical_solve(field, grid, p, 1.0, k=1)
        devs.append(l2_cell_time(sol.phi - oracle, grid, field.dim))
        rels.append(devs[-1] / l2_cell_time(oracle, grid, field.dim))
    report(3, max(devs) <= 1e-8 and max(rels) <= 1e-8,
           f"FDE dev {devs[0]:.2e}, PME dev {devs[1]:.2e} (tol 1e-8); relative to "
           f"|oracle|: FDE {rels[0]:.2e}, PME {rels[1]:.2e} (tol 1e-8)")


def test_criterion_4_regime_degenerations():
    field = make_field("trig1d")
    grid = CellGrid(M_y=32, M_s=16)
    sols, mats = [], []
    for regime, param in [("classical", None), ("subcritical", None),
                          ("supercritical", None),
                          ("critical_fde", cs.CellParameter(p=0.5, u0abs=1.0)),
                          ("critical_pme", cs.CellParameter(p=1.5, u0abs=1.0))]:
        cells = cs.solve_cells(field, grid, regime, param=param)
        sols.append(cells[0].phi)
        mats.append(em.assemble_ahom(cells, field, grid).matrices[0])
    dev_a = max(max(np.max(np.abs(s - sols[0][0])) for s in sols[1:]),
                max(np.max(np.abs(m - mats[0])) for m in mats[1:]))

    field_st = make_field("trig1d_st")
    grid_st = CellGrid(M_y=32, M_s=32)
    pme0 = em.assemble_ahom(
        cs.solve_cells(field_st, grid_st, "critical_pme",
                       param=cs.CellParameter(p=1.5, u0abs=0.0)),
        field_st, grid_st)
    dev_b = float(np.max(np.abs(pme0.matrices[0]
                                - mean_ys(field_st, grid_st))))
    fde0 = em.assemble_ahom(
        cs.solve_cells(field_st, grid_st, "critical_fde",
                       param=cs.CellParameter(p=0.5, u0abs=0.0)),
        field_st, grid_st)
    sub = em.assemble_ahom(cs.solve_cells(field_st, grid_st, "subcritical"),
                           field_st, grid_st)
    dev_c = float(np.max(np.abs(fde0.matrices[0] - sub.matrices[0])))
    report(4, dev_a < 1e-8 and dev_b < 1e-10 and dev_c < 1e-8,
           f"s-independent agreement {dev_a:.2e} (tol 1e-8), "
           f"PME zero-datum vs mean {dev_b:.2e} (tol 1e-10), "
           f"FDE zero-datum vs subcritical {dev_c:.2e} (tol 1e-8)")


def test_criterion_5_ellipticity_and_symmetry(battery):
    min_slack = np.inf
    for tensor, _, _ in battery:
        rep = em.ellipticity_report(tensor, n_probes=64, seed=0)
        min_slack = min(min_slack, rep["min_slack"])
    sub2d = next(t for t, _, p in battery
                 if t.dim == 2 and t.regime == "subcritical")
    asym = em.skew_report(sub2d)["max_asymmetry"]
    worst_skew = 0.0
    for tensor, cells, p in battery:
        if p is None:
            continue
        rep = em.skew_report(tensor, cells=cells)
        worst_skew = max(worst_skew, rep["mismatch"] / rep["tol"])
    report(5, min_slack >= -1e-8 and asym <= 1e-9 and worst_skew <= 1.0,
           f"sandwich min slack {min_slack:.2e} (need >= -1e-8), "
           f"2D asymmetry {asym:.2e} (tol 1e-9), "
           f"skew mismatch/tol {worst_skew:.2f} (need <= 1)")


def test_criterion_6_convergence_studies(studies):
    details, ok = [], True
    for (p, r), rep in studies.items():
        mono = rep.monotone["sol_err"] and not rep.partial
        ratio = rep.sol_err[0] / rep.sol_err[-1] if rep.sol_err[-1] > 0 else 0
        ok = ok and mono and ratio >= 2.0
        details.append(f"(p={p:g},r={r:g}) ratio {ratio:.2f} "
                       f"{'monotone' if mono else 'NOT monotone'}")
    report(6, ok, "; ".join(details))


def test_criterion_7_corrector_witnesses(studies):
    details, ok = [], True
    for (p, r), rep in studies.items():
        mono = all(rep.monotone[n] for n in ("grad_corr_err", "flux_corr_err",
                                             "dtime_corr_err"))
        fix_path = os.path.join(FIXTURE_DIR, f"study_p{p:g}_r{r:g}.json")
        with open(fix_path) as fh:
            floor = json.load(fh)["grad_plain_floor"]
        above = min(rep.grad_plain_err) > floor > 0
        ok = ok and mono and above
        details.append(
            f"(p={p:g},r={r:g}) correctors "
            f"{'decrease' if mono else 'DO NOT decrease'}, plain gradient "
            f"min {min(rep.grad_plain_err):.2e} vs floor {floor:.2e}")
    report(7, ok, "; ".join(details))


def test_criterion_8_wellposedness_contracts():
    field = make_field("trig1d_st")
    grid = MacroGrid(dim=1, n_x=128, n_t=16, T=0.25)
    p, r = 0.5, 1.0
    f = lambda x, t: np.ones(len(x))
    u0_a = lambda x: np.sin(np.pi * x[:, 0])
    u0_b = lambda x: 0.5 * np.sin(np.pi * x[:, 0])
    eps0 = EPS_LIST[0]
    ta = pde.solve_micro(pde.MicroProblem(field=field, eps=eps0, r=r, p=p,
                                          f=f, u0=u0_a, grid=grid))
    tb = pde.solve_micro(pde.MicroProblem(field=field, eps=eps0, r=r, p=p,
                                          f=f, u0=u0_b, grid=grid))
    C_T = pde.contraction_constant(field, eps0, r, grid.T)
    d0 = pde.hminus1_norm(ta.u_values()[0] - tb.u_values()[0], grid) ** 2
    dmax = max(pde.hminus1_norm(ua - ub, grid) ** 2
               for ua, ub in zip(ta.u_values(), tb.u_values()))
    contraction_ok = dmax <= 1.05 * C_T * d0

    free = pde.solve_micro(pde.MicroProblem(
        field=field, eps=eps0, r=r, p=p,
        f=lambda x, t: np.zeros(len(x)), u0=u0_a, grid=grid))
    E = pde.energy_functionals(free, p=p)["energy"]
    energy_ok = all(b <= a + 1e-14 for a, b in zip(E, E[1:]))

    trajs = [pde.solve_micro(pde.MicroProblem(field=field, eps=e, r=r, p=p,
                                              f=f, u0=u0_a, grid=grid))
             for e in EPS_LIST]
    audit = hz.audit_uniform_estimates(trajs, p,
                                       data={"lam": field.lam, "f": f},
                                       slack=0.10)
    report(8, contraction_ok and energy_ok and audit["passed"],
           f"contraction sup {dmax:.2e} <= 1.05 C_T d0 {1.05 * C_T * d0:.2e}: "
           f"{contraction_ok}; source-free energy non-increasing: {energy_ok}; "
           f"uniform-estimate audit: {audit['passed']}")


def test_criterion_9_heat_equation_sanity():
    field = make_field("constant", matrix=np.eye(1))

    def heat_err(n_x, n_t, T=0.1):
        grid = MacroGrid(dim=1, n_x=n_x, n_t=n_t, T=T)
        prob = pde.MicroProblem(field=field, eps=0.5, r=1.0, p=1.0,
                                f=lambda x, t: np.zeros(len(x)),
                                u0=lambda x: np.sin(np.pi * x[:, 0]),
                                grid=grid)
        traj = pde.solve_micro(prob)
        x = grid.interior_nodes()[:, 0]
        return max(pde.lp_norm(
            traj.values[n] - np.exp(-np.pi**2 * t) * np.sin(np.pi * x),
            grid, 2.0) for n, t in enumerate(grid.times())), grid

    e1, g1 = heat_err(12, 1024)
    e2, g2 = heat_err(25, 2048)
    bound1 = g1.dt + g1.h**2
    bound2 = g2.dt + g2.h**2
    ratio = e1 / e2
    report(9, e1 <= bound1 and e2 <= bound2 and ratio >= 3.0,
           f"errors {e1:.2e} <= dt+h^2 = {bound1:.2e} and {e2:.2e} <= "
           f"{bound2:.2e}; refinement ratio {ratio:.2f} (need >= 3)")


def test_criterion_10_determinism(tmp_path):
    cfg = {"field": {"name": "trig1d_st"}, "p": 0.5, "r": 1.0,
           "eps": [0.125, 0.0625],
           "grids": {"M_y": 32, "M_s": 32, "n_x": 128, "n_t": 8, "T": 0.25}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("a", "b"):
        res = subprocess.run(
            [sys.executable, "-m", "oscidiff.cli", "converge",
             "--config", str(cfg_path), "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append((tmp_path / sub / "converge.csv").read_bytes())
    report(10, outs[0] == outs[1],
           f"two cmd_converge runs: CSV byte-identical = {outs[0] == outs[1]}")
