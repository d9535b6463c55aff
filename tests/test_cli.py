import json
import os

import numpy as np
import pytest

from conftest import indefinite_operator
from oscidiff import cellsolve as cs, cli, effmat as em, harness as hz, pdesolve as pde

BASE = {
    "field": {"name": "trig1d_st"},
    "p": 0.5,
    "r": 1.0,
    "eps": [0.125, 0.0625],
    "grids": {"M_y": 32, "M_s": 32, "n_x": 128, "n_t": 8, "T": 0.25},
}


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {**BASE, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(cmd, cfg_path, out, *extra):
    return cli.main([cmd, "--config", cfg_path, "--out", str(out), *extra])


def test_cell_identity_field_zero_corrector(tmp_path, capsys):
    cfg = write_config(tmp_path, field={"name": "constant"})
    assert run("cell", cfg, tmp_path / "out") == 0
    table = capsys.readouterr().out
    row = table.strip().splitlines()[1].split()
    assert float(row[1]) <= 1e-10  # max |Phi|


def test_cell_solves_at_large_critical_capacity(tmp_path):
    # p = 1.9, |u0| = 1e-5: capacity 1.7e4, where the period map contracts
    # by about exp(-lambda_min / c) per sweep
    cfg = write_config(tmp_path, p=1.9, r=2, u0abs=1e-5)
    assert run("cell", cfg, tmp_path / "out", "--json") == cli.EXIT_OK
    with open(tmp_path / "out" / "cell_summary.json") as fh:
        (cell,) = json.load(fh)["cells"]
    assert 0.0 < cell["periodic_defect"] <= cs.PERIODIC_TOL


def test_cell_at_infinite_capacity_writes_supercritical_cells(tmp_path):
    # p = 1.5, |u0| = 0: c = inf, the supercritical problem, one row per file
    cfg = write_config(tmp_path, p=1.5, r=2, u0abs=0.0)
    assert run("cell", cfg, tmp_path / "out", "--json") == cli.EXIT_OK
    sol = cs.load_cell(tmp_path / "out" / "cell_k1.txt")
    assert (sol.regime, len(sol.phi), sol.capacity) == ("supercritical", 1, np.inf)
    with open(tmp_path / "out" / "cell_summary.json") as fh:
        doc = json.load(fh)
    assert (doc["regime"], doc["capacity"]) == ("critical", np.inf)


def test_nondyadic_eps_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, eps=[1 / 3])
    assert run("converge", cfg, tmp_path / "out") == 1
    assert "not of the form 1/2^m" in capsys.readouterr().err


def test_critical_with_p_one_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, p=1.0, r=2.0)
    assert run("cell", cfg, tmp_path / "out") == 1
    assert "p != 1" in capsys.readouterr().err


def test_unknown_data_builtin_is_config_error(tmp_path):
    cfg = write_config(tmp_path, data={"u0": "gaussian"})
    assert run("cell", cfg, tmp_path / "out") == 1


def test_missing_config_file_is_config_error(tmp_path):
    assert run("cell", str(tmp_path / "nope.json"), tmp_path / "out") == 1


def test_regime_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, regime="supercritical")
    assert run("ahom", cfg, tmp_path / "out") == 1
    assert "'regime'" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ({"field": {"name": "trig1d_st", "bse": 2.0}}, "'bse'"),
    ({"field": {"file": "field.txt", "name": "trig1d"}}, "'field.name'"),
    ({"grids": {"My": 8}}, "'grids.My'"),
    ({"dat": {"u0": "sine"}}, "'dat'"),
    ({"data": {"u0": "sine", "g": "one"}}, "'data.g'"),
    # the cell operator has one face mean, the geometric one
    ({"grids": {"face_avg": "geometric"}}, "'grids.face_avg'"),
])
def test_unknown_config_key_is_config_error(tmp_path, capsys, override, key):
    cfg = write_config(tmp_path, **override)
    assert run("ahom", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("doc, key", [
    ('{"p": "abc"}', "'p'"),
    ('{"eps": 0.125}', "'eps'"),
    ('{"eps": []}', "'eps'"),
    ('{"eps": [0]}', "'eps'"),
    ('{"eps": [-0.125]}', "'eps'"),
    ('{"grids": 3}', "'grids'"),
    ('{"grids": {"M_y": "x"}}', "'grids.M_y'"),
    ('{"u0abs": NaN, "r": 2, "p": 0.5}', "'u0abs'"),
    ('{"field": {"name": "trig1d_st", "base": "x"}}', "base='x'"),
    ('{"data": {"u0": ["sine"]}}', "'data.u0'"),
    ('{"field": {"file": 3}}', "'field.file'"),
    ('{"field": {"file": "no-such-field.txt"}}', "'field.file'"),
    # builtin parameters are checked by kind before the field is built
    ('{"field": {"name": "checkerboard2d", "sharpness": "x"}}', "sharpness='x'"),
    ('{"field": {"name": "checkerboard2d", "sharpness": Infinity}}', "sharpness=inf"),
    ('{"field": {"name": "trig2d_st", "s_dependent": "no"}}', "s_dependent='no'"),
    ('{"field": {"name": "laminate2d", "s_dependent": 1}}', "s_dependent=1"),
    ('{"field": {"name": "trig1d", "base": true}}', "base=True"),
    ('{"field": {"name": "constant", "dim": 1.5}}', "dim=1.5"),
    # scalars are JSON numbers, integral where an integer is read
    ('{"seed": 1.5}', "'seed'"),
    ('{"grids": {"n_t": 32.9}}', "'grids.n_t'"),
    ('{"p": "0.5"}', "'p'"),
    ('{"grids": {"M_y": "64"}}', "'grids.M_y'"),
    ('{"p": true, "r": 1}', "'p'"),
])
def test_malformed_config_value_is_config_error(tmp_path, capsys, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    assert run("cell", str(path), tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and "Traceback" not in err


@pytest.mark.parametrize("matrix", ["[[true]]", '[["1"]]', "[[Infinity]]", "[1.0]",
                                    "[[1.0, 0.0]]"])
def test_malformed_constant_matrix_is_config_error(tmp_path, capsys, recwarn, matrix):
    path = tmp_path / "cfg.json"
    path.write_text('{"field": {"name": "constant", "matrix": %s}}' % matrix)
    assert run("cell", str(path), tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "matrix" in err and "Traceback" not in err
    assert "Warning" not in err and len(recwarn) == 0


def test_integral_numbers_are_accepted_where_integers_are_read():
    cfg = cli.parse_config({"grids": {"M_y": 16.0, "M_s": 8, "n_x": 32, "n_t": 8.0},
                            "p": 1, "seed": 3.0,
                            "field": {"name": "constant", "dim": 2.0}})
    assert (cfg.cell_grid.M_y, cfg.macro_grid.n_t, cfg.seed) == (16, 8, 3)
    assert all(type(v) is int for v in (cfg.cell_grid.M_y, cfg.macro_grid.n_t, cfg.seed))
    assert type(cfg.p) is float and cfg.field.dim == 2


def test_readme_example_config_parses():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = cli.parse_config(json.loads(block))
    assert cfg.raw == json.loads(block) and cfg.field.name == cfg.raw["field"]["name"]


def test_malformed_field_file_is_config_error(tmp_path, capsys):
    golden = os.path.join(os.path.dirname(__file__), "fixtures", "artifacts", "field.txt")
    with open(golden) as fh:
        text = fh.read()
    bad = tmp_path / "field.txt"
    bad.write_text(text.replace("My=", "My", 1))
    cfg = write_config(tmp_path, field={"file": str(bad)})
    assert run("cell", cfg, tmp_path / "out") == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("token, bad", [pytest.param("N=1", "N=one", id="header"),
                                        pytest.param("\n0.5\n", "\nabc\n", id="body")])
def test_malformed_field_number_is_config_error(tmp_path, capsys, token, bad):
    # a header value or a body entry that is not a number
    golden = os.path.join(os.path.dirname(__file__), "fixtures", "artifacts", "field.txt")
    with open(golden) as fh:
        text = fh.read()
    assert token in text
    bad_file = tmp_path / "field.txt"
    bad_file.write_text(text.replace(token, bad, 1))
    cfg = write_config(tmp_path, field={"file": str(bad_file)})
    assert run("cell", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(bad_file) in err and "Traceback" not in err


def test_not_positive_definite_is_solver_error(tmp_path, capsys, monkeypatch):
    # the banded factors raise SolverDiverged, not a bare RuntimeError
    indefinite = indefinite_operator()
    with monkeypatch.context() as m:
        m.setattr(cs, "slice_operators", lambda field, grid: [indefinite] * grid.M_s)
        cfg = write_config(tmp_path, p=1.5, r=2.0, field={"name": "trig2d_st"},
                           grids={"M_y": 8, "M_s": 4, "n_x": 8, "n_t": 4, "T": 0.1})
        assert run("ahom", cfg, tmp_path / "cell") == cli.EXIT_SOLVER
    assert "slice 0" in capsys.readouterr().err
    flipped = em.EffectiveTensor(
        regime="subcritical", dim=2, lam=1.0, Lam=1.0, matrices=-np.eye(2)[np.newaxis],
        corrector_norms=np.zeros((1, 2)), grad_grams=np.zeros((1, 2, 2)))
    monkeypatch.setattr(cli, "_tensor", lambda cfg: flipped)
    cfg = write_config(tmp_path, field={"name": "laminate2d"},
                       grids={"M_y": 8, "M_s": 4, "n_x": 8, "n_t": 4, "T": 0.1})
    assert run("homog", cfg, tmp_path / "macro") == cli.EXIT_SOLVER
    assert "SolverDiverged" in capsys.readouterr().err


def test_regime_auto_derivation(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, r=3.0))
    assert cfg.regime == "supercritical"
    cfg = cli.load_config(write_config(tmp_path, r=2.0))
    assert cfg.regime == "critical"
    cfg = cli.load_config(write_config(tmp_path, r=1.0))
    assert cfg.regime == "subcritical"


def test_converge_deterministic_and_checked(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run("converge", cfg, tmp_path / "a") == 0
    assert run("converge", cfg, tmp_path / "b") == 0
    a = (tmp_path / "a" / "converge.csv").read_bytes()
    b = (tmp_path / "b" / "converge.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "plot.gp").exists()
    assert (tmp_path / "a" / "converge_sol_err.dat").exists()


def test_ahom_json_mirror(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run("ahom", cfg, tmp_path / "out", "--json") == 0
    doc = json.loads((tmp_path / "out" / "ahom_summary.json").read_text())
    assert doc["regime"] == "subcritical"
    assert abs(doc["matrices"][0][0][0] - 0.4671) < 1e-3
    assert doc["checks"]["max_asymmetry"] <= 1e-9


def test_micro_homog_write_loadable_trajectories(tmp_path, capsys):
    cfg = write_config(tmp_path, eps=[0.125])
    assert run("micro", cfg, tmp_path / "m") == 0
    assert run("homog", cfg, tmp_path / "h") == 0
    micro = pde.load_traj(str(tmp_path / "m" / "micro_eps2e3.txt"))
    homog = pde.load_traj(str(tmp_path / "h" / "homog.txt"))
    assert micro.values.shape == homog.values.shape
    assert np.max(np.abs(micro.values[-1] - homog.values[-1])) < 0.05


def test_micro_json_records_operator_builds(tmp_path, capsys):
    # r = 1, eps = 1/8: substeps of eps/8 visit the 8 fast phases k/8
    cfg = write_config(tmp_path, eps=[0.125])
    summary = tmp_path / "m" / "micro_summary.json"
    assert run("micro", cfg, tmp_path / "m", "--json") == 0
    first = summary.read_bytes()
    (run_stats,) = json.loads(first)["runs"]
    assert run_stats["operator_builds"] == 8
    assert run("micro", cfg, tmp_path / "m", "--json") == 0
    assert summary.read_bytes() == first  # counts only, no timings


def test_json_summaries_count_newton_backtracks(tmp_path, capsys):
    cfg = write_config(tmp_path, eps=[0.125])
    assert run("micro", cfg, tmp_path / "m", "--json") == 0
    assert run("homog", cfg, tmp_path / "h", "--json") == 0
    (micro,) = json.loads((tmp_path / "m" / "micro_summary.json").read_text())["runs"]
    homog = json.loads((tmp_path / "h" / "homog_summary.json").read_text())
    for stats in (micro, homog):
        assert isinstance(stats["newton_backtracks"], int)
        assert stats["newton_backtracks"] >= 0
        assert stats["newton_max"] >= 1
        assert stats["predictor_restarts"] == 0


def test_audit_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, eps=[0.125])
    assert run("audit", cfg, tmp_path / "out", "--json") == 0
    doc = json.loads((tmp_path / "out" / "audit_summary.json").read_text())
    assert doc["uniform"]["passed"]
    assert doc["contraction"]["passed"]


def test_config_echo_reruns_identically(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run("converge", cfg, tmp_path / "a") == 0
    echo = str(tmp_path / "a" / "config_echo.json")
    assert run("converge", echo, tmp_path / "b") == 0
    assert ((tmp_path / "a" / "converge.csv").read_bytes()
            == (tmp_path / "b" / "converge.csv").read_bytes())


def test_fixture_floor_enforced_via_env(tmp_path, capsys, monkeypatch):
    from conftest import FIXTURE_DIR
    monkeypatch.setenv("OSCIDIFF_FIXTURES", FIXTURE_DIR)
    cfg = write_config(tmp_path)
    assert run("converge", cfg, tmp_path / "out") == 0


@pytest.mark.parametrize("r,slice_builds,averages", [(1.0, 4, 0), (3.0, 0, 1)])
def test_ahom_builds_operators_once(tmp_path, operator_builds, r, slice_builds, averages):
    # the solve and the assembly share one operator set
    cfg = write_config(tmp_path, field={"name": "trig2d_st"}, r=r,
                       grids={"M_y": 8, "M_s": 4, "n_x": 8, "n_t": 4, "T": 0.1})
    assert run("ahom", cfg, tmp_path / "out") == 0
    assert operator_builds == {"slice": slice_builds, "average": averages}


def slow_report(field, p, r, eps_list, **_kw):
    """A complete, strictly decreasing study whose fitted rates are 0.15."""
    errs = [0.01 * 0.9**i for i in range(len(eps_list))]
    curves = {name: list(errs) for name in hz.ConvergenceReport._CURVES}
    return hz.ConvergenceReport(eps_list=list(eps_list), p=p, r=r, **curves).finalize()


@pytest.mark.parametrize("cmd", ["converge", "corrector"])
def test_strict_rates_fails_a_slow_study(tmp_path, capsys, monkeypatch, cmd):
    monkeypatch.setattr(hz, "run_convergence_study", slow_report)
    monkeypatch.delenv("OSCIDIFF_FIXTURES", raising=False)
    cfg = write_config(tmp_path)
    assert run(cmd, cfg, tmp_path / "lax") == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().err
    assert run(cmd, cfg, tmp_path / "strict", "--strict-rates") == cli.EXIT_ASSERT
    assert "fitted rate" in capsys.readouterr().err
    assert (tmp_path / "strict" / f"{cmd}.csv").exists()


@pytest.mark.parametrize("cmd", ["converge", "corrector"])
def test_one_eps_study_fails_its_check(tmp_path, capsys, monkeypatch, cmd):
    # one eps has no decrease to check: the files are written and the run fails
    monkeypatch.delenv("OSCIDIFF_FIXTURES", raising=False)
    cfg = write_config(tmp_path, eps=[0.125])
    assert run(cmd, cfg, tmp_path / "out") == cli.EXIT_ASSERT
    err = capsys.readouterr().err
    assert "FAIL: one eps: no decrease checked" in err
    assert "strictly decreasing" not in err
    assert (tmp_path / "out" / f"{cmd}.csv").exists()
