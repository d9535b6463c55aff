import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", os.path.join(ROOT, "scripts", "compare_outputs.py"))
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


@pytest.mark.parametrize("here, there, expected", [
    # a CSV after its header row
    ("eps,a,b\n0.5,1,2\n0.25,3,4\n", "eps,a,b\n0.5,1,2\n0.25,3,4.004\n",
     "largest relative difference 0.000999 at line 3, column 3: 4.0 here, "
     "4.004 in the other checkout; largest absolute difference 0.004, 0.000999 of the "
     "largest |value| 4"),
    # rounding noise at 0 is a relative move of 1, and a tiny share of the scale
    ("1 0.5\n2 0\n", "1 0.5\n2 1e-34\n",
     "largest relative difference 1 at line 2, column 2: 0.0 here, 1e-34 in the other "
     "checkout; largest absolute difference 1e-34, 5e-35 of the largest |value| 2"),
    # an artifact after its header line, a .dat file from its first line
    ("oscidiff-traj v1 N=1 diss=0,1\n1 2\n", "oscidiff-traj v1 N=1 diss=0,2\n1 2\n",
     "the numbers are equal"),
    ("0.5 1\n0.25 nan\n", "0.5 -1\n0.25 nan\n",
     "largest relative difference 2 at line 1, column 2: 1.0 here, -1.0 in the other "
     "checkout; largest absolute difference 2, 2 of the largest |value| 1"),
    ("0.5 1\n", "0.5 nan\n",
     "largest relative difference inf at line 1, column 2: 1.0 here, nan in the other "
     "checkout; largest absolute difference inf, inf of the largest |value| 1"),
    # no numbers to compare: JSON, or numbers placed differently
    ('{\n  "p": 1\n}\n', '{\n  "p": 2\n}\n', None),
    ("1 2\n", "1 2 3\n", None),
])
def test_largest_move_says_how_far_the_numbers_moved(tmp_path, here, there, expected):
    (tmp_path / "here").write_text(here)
    (tmp_path / "there").write_text(there)
    assert compare_outputs.largest_move(tmp_path / "here", tmp_path / "there") == expected
