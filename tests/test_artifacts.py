"""Golden bytes and header errors of the four text artifact formats.

The files in ``tests/fixtures/artifacts/`` were written once by calling
``build(kind, path)`` below for each of the four kinds, with the writers
(``save_gridded``, ``save_cell``, ``save_tensor``, ``save_traj``) as they
stood before the formats shared one header writer and reader. They are
never regenerated: a writer that changes a byte on disk fails here.
The one deliberate change since is cell.txt: once the cell writer kept
only the phi rows, one row per slice operator, with ``psi=0``, the golden
file was rewritten in that layout with the numbers it held (its end row,
at s = 1, first), and the reader stopped reading the older layouts.

Resaving a loaded golden file is the writer check and is byte-exact for
every kind. Rebuilding from the inputs is byte-exact for ``field`` only.
``cell`` and ``ahom`` come out of the critical cell solver, whose
factorization rounds in its own order, so they are compared number by
number within REBUILT_RTOL[kind] relative and REBUILT_ATOL absolute. A
rebuilt ``cell`` is compared within ``cs.PERIODIC_TOL`` relative, the
scale at which the period solve stops: GMRES on the period map lands on
another point inside that tolerance than the period-map iteration that
wrote the golden file (values move by up to 1.9e-11 relative, 1.5e-13
absolute), so its ``defect`` header is checked against the tolerance,
not by value. A rebuilt ``traj`` is compared within ``pde.NEWTON_TOL``
relative, the scale at which Newton stops: each step now starts Newton
from the increment made at the same phase one period earlier, so the
solver lands on another point inside its tolerance (values move by up
to 1.1e-11, the dissipation by 4.6e-12 relative).
"""

import os

import numpy as np
import pytest

from oscidiff import cellsolve as cs, effmat as em, fields, pdesolve as pde
from oscidiff.errors import ConfigError

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "artifacts")
GRID = fields.CellGrid(8, 4)
FILES = {"field": "field.txt", "cell": "cell.txt", "ahom": "ahom.txt", "traj": "traj.txt"}
SOLVER_ROUNDED = {"cell": cs.CELL_MAGIC, "ahom": em.AHOM_MAGIC, "traj": pde.TRAJ_MAGIC}
REBUILT_RTOL = {"cell": cs.PERIODIC_TOL, "ahom": 1e-12, "traj": pde.NEWTON_TOL}
# header numbers a rebuild checks against a bound instead of by value
REBUILT_BOUND = {"cell": {"defect": cs.PERIODIC_TOL}}
REBUILT_ATOL = 1e-14


def build(kind, path):
    """Write the tiny artifact of one format from fixed inputs."""
    field = fields.make_field("trig1d_st")
    if kind == "field":
        fields.save_gridded(path, field, GRID)
    elif kind == "cell":
        cs.save_cell(path, cs.solve_critical_cell_pme(
            field, GRID, cs.CellParameter(p=1.5, u0abs=1.0), k=1))
    elif kind == "ahom":
        em.save_tensor(path, em.tabulate_ahom_critical(
            field, GRID, 1.5, u0abs_grid=[0.0, 0.1, 1.0, 10.0]))
    else:
        prob = pde.MicroProblem(field=field, eps=0.125, r=1.0, p=0.5,
                                f=lambda x, t: np.ones(len(x)),
                                u0=lambda x: np.sin(np.pi * x[:, 0]),
                                grid=fields.MacroGrid(dim=1, n_x=8, n_t=4, T=0.25))
        pde.save_traj(path, pde.solve_micro(prob))


def resave(kind, loaded, path):
    """Write a loaded artifact back with its own writer."""
    if kind == "field":
        fields.save_gridded(path, loaded, GRID)
    elif kind == "cell":
        cs.save_cell(path, loaded)
    elif kind == "ahom":
        em.save_tensor(path, loaded)
    else:
        pde.save_traj(path, loaded)


LOADERS = {"field": fields.load_gridded, "cell": cs.load_cell,
           "ahom": em.load_tensor, "traj": pde.load_traj}


def _numbers(text):
    """A header value as an array of numbers (one, or a comma list such as
    ``diss``), or None when it is not numeric."""
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError:
        return None


def _close(got, want, rtol):
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= REBUILT_ATOL + rtol * np.abs(want)))


def assert_same_artifact(path, golden, magic, rtol, bounds):
    """Same magic and keys, equal non-numeric header values, the header
    numbers named in ``bounds`` within [0, bound], and every other number
    within REBUILT_ATOL + rtol * |golden|."""
    meta, body = fields.read_artifact(path, magic, ())
    want_meta, want_body = fields.read_artifact(golden, magic, ())
    assert list(meta) == list(want_meta)
    for key, want in want_meta.items():
        got, ref = _numbers(meta[key]), _numbers(want)
        if key in bounds:
            assert 0.0 <= float(meta[key]) <= bounds[key], key
        elif ref is None:
            assert meta[key] == want, key
        else:
            assert got is not None and _close(got, ref, rtol), key
    assert _close(body, want_body, rtol)


@pytest.mark.parametrize("kind", sorted(FILES))
def test_golden_bytes_and_roundtrip(kind, tmp_path):
    golden = os.path.join(ARTIFACT_DIR, FILES[kind])
    with open(golden, "rb") as fh:
        want = fh.read()
    build(kind, tmp_path / "rebuilt.txt")
    if kind in SOLVER_ROUNDED:
        assert_same_artifact(tmp_path / "rebuilt.txt", golden, SOLVER_ROUNDED[kind],
                             REBUILT_RTOL[kind], REBUILT_BOUND.get(kind, {}))
    else:
        assert (tmp_path / "rebuilt.txt").read_bytes() == want
    if kind == "field":  # a gridded field is only tagged continuous
        with pytest.warns(UserWarning, match="tagged continuous"):
            loaded = LOADERS[kind](golden)
    else:
        loaded = LOADERS[kind](golden)
    resave(kind, loaded, tmp_path / "resaved.txt")
    assert (tmp_path / "resaved.txt").read_bytes() == want


def _with_header(kind, tmp_path, edit):
    """Copy a golden file with its first key=value token edited."""
    with open(os.path.join(ARTIFACT_DIR, FILES[kind])) as fh:
        header, body = fh.readline().split(), fh.read()
    token = header[2]
    header[2:3] = edit(token)
    path = tmp_path / FILES[kind]
    path.write_text(" ".join(header) + "\n" + body)
    return str(path), token


@pytest.mark.parametrize("defect", ["no_equals", "missing_key"])
@pytest.mark.parametrize("kind", sorted(FILES))
def test_malformed_header_is_config_error(kind, defect, tmp_path):
    if defect == "no_equals":
        path, token = _with_header(kind, tmp_path, lambda t: [t.replace("=", "")])
        named = token.replace("=", "")
    else:
        path, token = _with_header(kind, tmp_path, lambda t: [])
        named = token.split("=")[0]
    with pytest.raises(ConfigError) as info:
        LOADERS[kind](path)
    assert path in str(info.value)
    assert repr(named) in str(info.value)


GOLDEN_KEYS = "keys=0,0.10000000000000001,1,10"


@pytest.mark.parametrize("keys", ["keys=0,0.10000000000000001,1",
                                  "keys=0,1,0.10000000000000001,10", "keys=none"])
def test_table_keys_must_fit_its_matrices(keys, tmp_path):
    # the golden table holds m=4 matrices: three keys leave the last one out
    # of reach, unsorted keys interpolate across the wrong segments, and
    # keys=none is a constant tensor, which holds one matrix
    with open(os.path.join(ARTIFACT_DIR, FILES["ahom"])) as fh:
        header, body = fh.readline(), fh.read()
    assert " m=4 " in header and header.rstrip().endswith(GOLDEN_KEYS)
    path = tmp_path / FILES["ahom"]
    path.write_text(header.replace(GOLDEN_KEYS, keys) + body)
    with pytest.raises(ConfigError, match="do not fit m=4") as info:
        em.load_tensor(str(path))
    assert str(path) in str(info.value)


def test_traj_body_and_diss_must_fit_the_grid(tmp_path):
    # the golden trajectory has nx=8, nt=4: a body of 5 steps x 8 nodes and
    # 5 diss values; one node fewer per step, or one diss value fewer, is
    # refused on load rather than by a reshape in a later functional
    with open(os.path.join(ARTIFACT_DIR, FILES["traj"])) as fh:
        header, rows = fh.readline(), fh.read().splitlines()
    assert " nx=8 nt=4 " in header and len(rows) == 5
    assert all(len(row.split()) == 8 for row in rows)
    diss = header.rstrip().split(" ")[-1]
    assert diss.startswith("diss=") and len(diss.split(",")) == 5
    short_rows = tmp_path / "short_rows.txt"
    short_rows.write_text(header + "".join(" ".join(row.split()[:7]) + "\n" for row in rows))
    short_diss = tmp_path / "short_diss.txt"
    short_diss.write_text(header.replace(diss, diss.rsplit(",", 1)[0])
                          + "".join(row + "\n" for row in rows))
    for path in (short_rows, short_diss):
        with pytest.raises(ConfigError, match="expected 5 steps x 8 nodes") as info:
            pde.load_traj(str(path))
        assert str(path) in str(info.value)
