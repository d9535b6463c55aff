#!/usr/bin/env python3
"""Record the seed-0 reference outputs that run.py compares ops against.

Run from the root of a source checkout, on the commit whose outputs are
the reference:

    python3 perfbench/make_reference.py
"""

import os
import shutil
import sys

import run

OUTPUT = {"study": "converge.csv", "table": "ahom.csv"}


def main():
    run.load_program()
    import workloads as wl

    os.environ["OSCIDIFF_FIXTURES"] = run.FIXTURES
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for name, spec in sorted(wl.WORKLOADS.items()):
        out_dir = os.path.join(run.OUT, f"reference-{name}")
        os.makedirs(out_dir, exist_ok=True)
        wl.OPS[spec["kind"]](wl.make_config(name, 0), out_dir)
        dest = os.path.join(wl.REFERENCE_DIR, spec["reference"])
        shutil.copyfile(os.path.join(out_dir, OUTPUT[spec["kind"]]), dest)
        print(f"{name}: wrote {os.path.relpath(dest, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
