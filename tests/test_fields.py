import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_band
from oscidiff import cellsolve as cs
from oscidiff.errors import ConfigError, EllipticityViolation
from oscidiff.fields import (CellGrid, MacroGrid, PeriodicMatrixField, load_gridded,
                             make_field, mean_ys, save_gridded, validate_ellipticity)

FIELD_NAMES = ["constant", "trig1d", "trig1d_st", "laminate2d", "trig2d_st",
               "checkerboard2d"]


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_builtin_fields_pass_ellipticity(name):
    field = make_field(name)
    validate_ellipticity(field, n_samples=128, seed=1)


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_builtin_fields_symmetric(name):
    field = make_field(name)
    rng = np.random.default_rng(2)
    y = rng.random((40, field.dim))
    s = rng.random(40)
    a = field.sample(y, s)
    assert np.max(np.abs(a - np.swapaxes(a, -1, -2))) == 0.0


def test_mean_ys_constant_is_exact():
    field = make_field("constant", matrix=np.array([[0.7]]))
    grid = CellGrid(M_y=8, M_s=8)
    assert mean_ys(field, grid)[0, 0] == pytest.approx(0.7, abs=1e-15)


def test_mean_ys_trig_fields():
    # sin and cos integrate to zero over full periods, so the mean is 1/2
    grid = CellGrid(M_y=64, M_s=64)
    m_st = mean_ys(make_field("trig1d_st"), grid)
    m_s = mean_ys(make_field("trig1d"), grid)
    assert abs(m_st[0, 0] - 0.5) < 1e-12
    assert abs(m_s[0, 0] - 0.5) < 1e-12


def test_mean_ys_symmetric_2d():
    grid = CellGrid(M_y=32, M_s=16)
    m = mean_ys(make_field("trig2d_st"), grid)
    assert np.allclose(m, m.T, atol=0)


def test_oscillating_periodicity_space_and_time():
    field = make_field("trig1d_st")
    eps, r = 1 / 8, 2.0
    x = np.array([[0.3]])
    t = 0.1
    def oscillating(x, t):  # a(x/eps, t/eps^r)
        return field.sample(x / eps, t / eps**r)

    a0 = oscillating(x, t)
    for k in (1, -2, 5):
        assert np.allclose(oscillating(x + k * eps, t), a0, atol=1e-14)
    assert np.allclose(oscillating(x, t + 3 * eps**r), a0, atol=1e-12)


def test_validate_ellipticity_rejects_bad_constants():
    field = make_field("trig1d_st")
    bad = type(field)(dim=field.dim, entries=field.entries, lam=0.5,
                      Lam=field.Lam, s_independent=False,
                      smoothness=field.smoothness, name="bad")
    with pytest.raises(EllipticityViolation):
        validate_ellipticity(bad, n_samples=256, seed=0)


def test_validate_ellipticity_leaves_scipy_stats_unimported():
    script = ("import sys\n"
              "from oscidiff.fields import make_field, validate_ellipticity\n"
              "validate_ellipticity(make_field('trig2d_st'))\n"
              "print('scipy.stats' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out == "False\n"


def test_unknown_builtin_raises():
    with pytest.raises(ConfigError):
        make_field("does_not_exist")


@pytest.mark.parametrize("params", [{"base": 1e300, "scale": 1e10}, {"scale": -1.0}])
def test_builtin_bounds_must_be_positive_and_finite(params):
    # finite parameters can still overflow lambda and Lambda to inf
    with pytest.raises(ConfigError, match="lambda"):
        make_field("trig1d", **params)


@given(y=st.floats(0, 1, allow_nan=False), s=st.floats(0, 1, allow_nan=False),
       ky=st.integers(-3, 3), ks=st.integers(-3, 3))
@settings(max_examples=50, deadline=None)
def test_field_evaluator_periodic_wrap(y, s, ky, ks):
    field = make_field("trig1d_st")
    a0 = field.sample(np.array([[y]]), np.array([s]))
    a1 = field.sample(np.array([[y + ky]]), np.array([s + ks]))
    assert np.allclose(a0, a1, atol=1e-12)


@given(st.sampled_from(FIELD_NAMES), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_rayleigh_quotient_within_bounds(name, seed):
    field = make_field(name)
    rng = np.random.default_rng(seed)
    y = rng.random((20, field.dim))
    s = rng.random(20)
    xi = rng.standard_normal((20, field.dim))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    a = field.sample(y, s)
    q = np.einsum("ni,nij,nj->n", xi, a, xi)
    assert np.all(q >= field.lam - 1e-12)
    assert np.all(q <= field.Lam + 1e-12)


def test_gridded_roundtrip_1d(tmp_path):
    field = make_field("trig1d_st")
    path = tmp_path / "field.txt"
    save_gridded(path, field, CellGrid(M_y=64, M_s=64))
    with pytest.warns(UserWarning, match="tagged continuous"):
        loaded = load_gridded(path)
    rng = np.random.default_rng(3)
    y = rng.random((30, 1))
    s = rng.random(30)
    # linear interpolation of a smooth field on a 64-point grid
    assert np.max(np.abs(loaded.sample(y, s) - field.sample(y, s))) < 5e-3
    assert loaded.dim == 1


def test_gridded_roundtrip_2d_exact_at_nodes(tmp_path):
    field = make_field("laminate2d")
    grid = CellGrid(M_y=16, M_s=8)
    path = tmp_path / "field2d.txt"
    save_gridded(path, field, grid)
    with pytest.warns(UserWarning, match="tagged continuous"):
        loaded = load_gridded(path)
    y = np.stack(np.meshgrid(np.arange(16) / 16, np.arange(16) / 16),
                 axis=-1).reshape(-1, 2)
    s = np.zeros(len(y))
    assert np.max(np.abs(loaded.sample(y, s) - field.sample(y, s))) < 1e-12


def test_macro_grid_spacing():
    g = MacroGrid(dim=1, n_x=9, n_t=4, T=1.0)
    assert g.h == pytest.approx(0.1)
    assert g.dt == pytest.approx(0.25)
    assert g.interior_nodes().shape == (9, 1)
    assert len(g.times()) == 5


def test_cell_grid_rejects_bad_face_average():
    with pytest.raises(ConfigError):
        CellGrid(M_y=8, M_s=8, face_avg="median")


# The builtins' docstring formulas, evaluated here as an independent oracle:
# name -> (defaults, diagonal entries at (y, s), (lambda, Lambda), s_independent).
TAU = 2.0 * np.pi


def _trig_bounds(p):
    return p["scale"] * (p["base"] - abs(p["amp"])), p["scale"] * (p["base"] + abs(p["amp"]))


def _checker_alpha(p, y):
    mid, half = (p["low"] + p["high"]) / 2, (p["high"] - p["low"]) / 2
    return mid + half * np.tanh(p["sharpness"] * np.sin(TAU * y[:, 0]) * np.sin(TAU * y[:, 1]))


TRIG = {"base": 2.0, "amp": 1.0, "scale": 0.25}
CLOSED_FORMS = {
    "trig1d": (TRIG, lambda p, y, s: [p["scale"] * (p["base"] + p["amp"] * np.sin(TAU * y[:, 0]))],
               _trig_bounds, lambda p: True),
    "trig1d_st": (TRIG, lambda p, y, s: [
        p["scale"] * (p["base"] + p["amp"] * np.sin(TAU * y[:, 0]) * np.cos(TAU * s))],
        _trig_bounds, lambda p: False),
    "laminate2d": ({**TRIG, "s_dependent": False}, lambda p, y, s: 2 * [
        p["scale"] * (p["base"] + p["amp"] * np.sin(TAU * y[:, 0])
                      * (np.cos(TAU * s) if p["s_dependent"] else 1.0))],
        _trig_bounds, lambda p: not p["s_dependent"]),
    "trig2d_st": ({**TRIG, "s_dependent": True}, lambda p, y, s: [
        p["scale"] * (p["base"] + p["amp"] * np.sin(TAU * y[:, 0]) * np.cos(TAU * y[:, 1])
                      * (np.cos(TAU * s) if p["s_dependent"] else 1.0)),
        p["scale"] * (p["base"] + p["amp"] * np.cos(TAU * y[:, 0]) * np.sin(TAU * y[:, 1])
                      * (np.cos(TAU * (s + 0.25)) if p["s_dependent"] else 1.0))],
        _trig_bounds, lambda p: not p["s_dependent"]),
    "checkerboard2d": ({"low": 0.25, "high": 0.75, "sharpness": 4.0},
                       lambda p, y, s: 2 * [_checker_alpha(p, y)],
                       lambda p: (p["low"], p["high"]), lambda p: True),
}
PERTURBED = {"base": 3.0, "amp": -1.7, "scale": 0.6}
CLOSED_FORM_CASES = [
    ("trig1d", {}), ("trig1d", PERTURBED), ("trig1d_st", {}), ("trig1d_st", PERTURBED),
    *[(name, {**params, "s_dependent": flag}) for name in ("laminate2d", "trig2d_st")
      for params in ({}, PERTURBED) for flag in (False, True)],
    ("checkerboard2d", {}), ("checkerboard2d", {"low": 0.1, "high": 2.0, "sharpness": 7.5}),
]


@pytest.mark.parametrize("name,params", CLOSED_FORM_CASES)
def test_builtin_matches_its_closed_form(name, params):
    defaults, diagonal, bounds, s_independent = CLOSED_FORMS[name]
    p = {**defaults, **params}
    field = make_field(name, **params)
    rng = np.random.default_rng(5)
    y, s = rng.random((500, field.dim)), rng.random(500)
    want = np.zeros((500, field.dim, field.dim))
    for d, entry in enumerate(diagonal(p, y, s)):
        want[:, d, d] = entry
    got = field.sample(y, s)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.abs(want).max(axis=(1, 2))[:, None, None]) <= 1e-15
    assert np.allclose([field.lam, field.Lam], bounds(p), rtol=1e-15, atol=0)
    assert field.s_independent is s_independent(p)
    assert field.name == name and field.params == p


def test_constant_builtin_is_its_matrix():
    matrix = [[1.0, 0.2], [0.2, 0.7]]
    field = make_field("constant", matrix=matrix)
    a = field.sample(np.random.default_rng(6).random((20, 2)), 0.3)
    assert np.array_equal(a, np.broadcast_to(matrix, (20, 2, 2)))
    assert np.allclose([field.lam, field.Lam], np.linalg.eigvalsh(matrix), rtol=1e-15, atol=0)
    assert field.s_independent and np.array_equal(make_field("constant", dim=2).sample(
        [[0.1, 0.2]], 0.0)[0], np.eye(2))


def _s_ramp_field():
    # a 1D field whose mean over y moves with s, so the order in which the
    # slice means are summed shows in the last bits
    def entries(y, s):
        return (1.0 + 0.4 * np.sin(TAU * s) * (1.0 + y[..., 0]))[..., None, None]
    return PeriodicMatrixField(dim=1, entries=entries, lam=0.2, Lam=1.8, name="s_ramp")


@pytest.mark.parametrize("name,M_y,M_s", [("trig1d_st", 64, 64), ("trig2d_st", 24, 32),
                                          ("trig2d_st", 48, 64), ("laminate2d", 8, 5),
                                          ("s_ramp", 64, 64)])
def test_s_averages_match_per_slice_loops(name, M_y, M_s):
    # s_averaged_operator and mean_ys sample all slices in one call; their
    # sums must be the per-slice loops' sums bit for bit
    field = _s_ramp_field() if name == "s_ramp" else make_field(name)
    grid = CellGrid(M_y=M_y, M_s=M_s)
    y = grid.centers(field.dim)
    acc, mean = np.zeros((len(y), field.dim, field.dim)), np.zeros((field.dim, field.dim))
    for j in range(M_s):
        acc += field.sample(y, np.full(len(y), j * grid.h_s))
        mean += np.mean(field.sample(y, np.full(len(y), (j + 0.5) * grid.h_s)), axis=0)
    op = cs.s_averaged_operator(field, grid)
    ref = cs.CellOperator.from_matrix_values(acc / M_s, field.dim, grid)
    assert all(np.array_equal(u, v) for u, v in zip(op.face_coeffs + op.b,
                                                   ref.face_coeffs + ref.b))
    assert same_band(op.band, ref.band)
    assert np.array_equal(mean_ys(field, grid), mean / M_s)


@pytest.mark.parametrize("name", ["trig1d_st", "trig2d_st"])
def test_save_gridded_matches_per_node_loop(tmp_path, name):
    field, grid = make_field(name), CellGrid(M_y=6, M_s=5)
    nodes = np.arange(grid.M_y) / grid.M_y
    rows = []
    for idx in np.ndindex(*[grid.M_y] * field.dim):
        for sj in np.arange(grid.M_s) / grid.M_s:
            a = field.sample(nodes[list(idx)], sj)
            rows.append([a[i, j] for i in range(field.dim) for j in range(i + 1)])
    save_gridded(tmp_path / "batched.txt", field, grid)
    body = np.loadtxt(tmp_path / "batched.txt", skiprows=1, ndmin=2)
    assert np.array_equal(body, np.array(rows))
