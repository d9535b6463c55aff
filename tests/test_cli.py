import json
import os

import numpy as np
import pytest

from oscidiff import cellsolve as cs, cli, effmat as em, pdesolve as pde
from oscidiff.fields import CellGrid

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
])
def test_unknown_config_key_is_config_error(tmp_path, capsys, override, key):
    cfg = write_config(tmp_path, **override)
    assert run("ahom", cfg, tmp_path / "out") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_malformed_field_file_is_config_error(tmp_path, capsys):
    golden = os.path.join(os.path.dirname(__file__), "fixtures", "artifacts", "field.txt")
    with open(golden) as fh:
        text = fh.read()
    bad = tmp_path / "field.txt"
    bad.write_text(text.replace("My=", "My", 1))
    cfg = write_config(tmp_path, field={"file": str(bad)})
    assert run("cell", cfg, tmp_path / "out") == 1
    assert "config error" in capsys.readouterr().err


def test_not_positive_definite_is_solver_error(tmp_path, capsys, monkeypatch):
    # the banded factors raise SolverDiverged, not a bare RuntimeError
    negative = cs.CellOperator.from_matrix_values(
        -np.ones((32, 1, 1)), 1, CellGrid(M_y=32, M_s=32, face_avg="arithmetic"))
    with monkeypatch.context() as m:
        m.setattr(cs, "_slice_operators", lambda field, grid: [negative] * grid.M_s)
        cfg = write_config(tmp_path, p=1.5, r=2.0)
        assert run("ahom", cfg, tmp_path / "cell") == cli.EXIT_SOLVER
    assert "slice 0" in capsys.readouterr().err
    flipped = em.EffectiveTensor(
        regime="classical", dim=2, lam=1.0, Lam=1.0, matrices=-np.eye(2)[np.newaxis],
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
    assert cfg.regime == "critical_fde"
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
