#!/usr/bin/env python3
"""Compare the output files of the benchmark ops of two checkouts, byte for byte.

Run from anywhere, naming the other checkout (for instance a worktree of
the base commit):

    python3 scripts/compare_outputs.py OTHER_ROOT

For this checkout and for OTHER_ROOT, every op of ``perfbench/workloads.py``
(each workload, seeds 0 and 1) runs in its own interpreter. It imports that
checkout's ``src`` and ``perfbench``, reads the study fixtures from that
checkout's ``tests/fixtures`` (``OSCIDIFF_FIXTURES``), runs in the
benchmark's pinned environment (``perfbench/run.py``), and writes its files
to a temporary directory. The script then lists every file that differs or
exists on one side only, and every op that failed. It exits 1 if there is
any, else 0.

For a file that differs, it also prints how far its numbers moved when the
bodies of both sides parse as numbers (comma- or space-separated, after a
first line that does not parse, such as a CSV header or an artifact's
header line): the largest relative difference |a - b| / max(|a|, |b|), its
line and column, and the two values there, then the largest absolute
difference |a - b| as a fraction of the largest finite |value| of the two
files, which tells rounding noise near 0 from a real move.
"""

import argparse
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1)

# one op in a fresh interpreter: argv is root, workload, seed, out_dir
OP = """
import os, sys
root, name, seed, out_dir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
os.environ["OSCIDIFF_FIXTURES"] = os.path.join(root, "tests", "fixtures")
import workloads as wl
wl.OPS[wl.WORKLOADS[name]["kind"]](wl.make_config(name, seed), out_dir)
"""


def run_ops(root, out_root, names, env):
    """Run every (workload, seed) op of ``root`` into out_root/<workload>-seed<seed>;
    returns the list of failed ops with their last error line."""
    failed = []
    for name in names:
        for seed in SEEDS:
            tag = f"{name}-seed{seed}"
            proc = subprocess.run(
                [sys.executable, "-c", OP, root, name, str(seed), os.path.join(out_root, tag)],
                cwd=root, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
                failed.append(f"{tag}: {lines[-1]}")
    return failed


def numbers(path):
    """[(line number, column number, value)] of the file, without a first line
    that does not parse as numbers; None when another line does not, or when
    no number is left."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    out = []
    for i, line in enumerate(lines, start=1):
        try:
            out += [(i, j, float(t)) for j, t in enumerate(line.replace(",", " ").split(), 1)]
        except ValueError:
            if i > 1:
                return None
    return out or None


def largest_move(path, other_path):
    """How far the numbers of two differing files moved, as one line; None
    when a side does not parse or the two place their numbers differently."""
    here, there = numbers(path), numbers(other_path)
    if here is None or there is None or [t[:2] for t in here] != [t[:2] for t in there]:
        return None
    worst, at, gap = 0.0, None, 0.0
    for (i, j, a), (_, _, b) in zip(here, there):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        diff = abs(a - b)
        diff = diff if diff <= math.inf else math.inf  # a NaN or inf on one side
        rel = diff / max(abs(a), abs(b))  # a != b, so the scale is not 0
        rel = rel if rel <= math.inf else math.inf
        gap = max(gap, diff)
        if at is None or rel > worst:
            worst, at = rel, (i, j, a, b)
    if at is None:
        return "the numbers are equal"
    i, j, a, b = at
    scale = max((abs(v) for *_, v in here + there if math.isfinite(v)), default=0.0)
    share = gap / scale if scale > 0 else math.inf
    return (f"largest relative difference {worst:.3g} at line {i}, column {j}: "
            f"{a!r} here, {b!r} in the other checkout; largest absolute difference "
            f"{gap:.3g}, {share:.3g} of the largest |value| {scale:.3g}")


def files_under(top):
    return sorted(os.path.relpath(os.path.join(d, f), top)
                  for d, _, fs in os.walk(top) for f in fs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other_root", help="root of the checkout to compare against")
    other = os.path.abspath(ap.parse_args(argv).other_root)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from run import PINNED_ENV
    from workloads import WORKLOADS

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    problems = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        sides = {"this": os.path.join(tmp, "this"), "other": os.path.join(tmp, "other")}
        for side, root in (("this", ROOT), ("other", other)):
            problems += [f"op failed ({side}, {root}): {msg}"
                         for msg in run_ops(root, sides[side], sorted(WORKLOADS), env)]
        listed = {side: files_under(top) for side, top in sides.items()}
        for rel in sorted(set(listed["this"]) | set(listed["other"])):
            paths = [os.path.join(sides[side], rel) for side in ("this", "other")]
            if not all(os.path.exists(p) for p in paths):
                where = "this" if os.path.exists(paths[0]) else "other"
                problems.append(f"only in {where} checkout: {rel}")
                continue
            with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                if a.read() != b.read():
                    move = largest_move(*paths)
                    problems.append(f"differs: {rel}" + (f" ({move})" if move else ""))
        n_both = len(set(listed["this"]) & set(listed["other"]))
    for line in problems:
        print(line)
    print(f"{n_both} files on both sides, {len(problems)} problems "
          f"({ROOT} vs {other}, workloads {', '.join(sorted(WORKLOADS))}, seeds {SEEDS})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
