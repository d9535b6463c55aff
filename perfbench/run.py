#!/usr/bin/env python3
"""oscidiff benchmark: closed-loop ops on one workload, checked and timed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload study_critical --seed 0 --seconds 36 --trace 0

One client runs one op at a time for about ``--seconds``: a new op starts
only while it is expected to end less than half an op past that time.
Every op's outputs are checked. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
ops alternate between untraced and traced, and it holds the per-layer
metrics. A run record and the spans of traced ops are written to
``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# The benchmark's own environment, in force from interpreter start: one
# BLAS/OpenMP thread, and glibc's mmap threshold fixed at its default
# initial value. Left dynamic, the threshold makes the peak RSS of one
# table_2d op vary from 137 to 164 MB with the allocation order.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": "131072",
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import oscidiff from this checkout's src/ (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "oscidiff", "__init__.py")):
        fail(f"no oscidiff sources under {SRC}; run from a source checkout")
    if not os.path.isdir(FIXTURES):
        fail(f"no study fixtures under {FIXTURES}")
    sys.path.insert(0, SRC)
    import oscidiff
    from oscidiff import cellsolve, cli, effmat, fields, harness, pdesolve

    if not os.path.abspath(oscidiff.__file__).startswith(SRC + os.sep):
        fail(f"imported oscidiff from {oscidiff.__file__}, not from {SRC}")
    return {"fields": fields, "cellsolve": cellsolve, "effmat": effmat,
            "pdesolve": pdesolve, "harness": harness, "cli": cli}


def contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {path}: {err}")


def measure_setup(config_path):
    """Seconds from launching a fresh interpreter until it has imported
    oscidiff and parsed the config, once per probe."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, SRC, config_path],
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run_info(args):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "environment": {v: os.environ[v] for v in PINNED_ENV},
    }


def main(argv=None):
    args = parse_args(argv)
    modules = load_program()
    bench = contract()
    import workloads as wl
    from tracer import Tracer

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choices: {sorted(wl.WORKLOADS)}")
    os.environ["OSCIDIFF_FIXTURES"] = FIXTURES
    record = run_info(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    op_dir = os.path.join(OUT, tag)
    os.makedirs(op_dir, exist_ok=True)
    doc = wl.make_config(args.workload, args.seed)
    config_path = os.path.join(OUT, f"{tag}-config.json")
    with open(config_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)

    setup = [] if args.trace else measure_setup(config_path)
    tracer = Tracer(modules) if args.trace else None
    op = wl.OPS[wl.WORKLOADS[args.workload]["kind"]]
    samples, layer, failures = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        i = len(samples)
        traced = tracer is not None and i % 2 == 1
        # each op starts from a heap without the previous op's results
        result = None
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if traced:
                result = tracer.run_op(i, op, doc, op_dir)
            else:
                result = op(doc, op_dir)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            msgs = wl.check(args.workload, args.seed, op_dir, result)
            if traced and not msgs:
                layer.append(tracer.op_metrics())
        except Exception as err:  # a failing op is counted, and the run goes on
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            msgs = [f"{type(err).__name__}: {err}"]
        for msg in msgs:
            print(f"perfbench: op {i} FAILED: {msg}", file=sys.stderr)
        failures += [f"op {i}: {m}" for m in msgs]
        samples.append({"op": i, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ok": not msgs})
        print(f"perfbench: op {i} {'traced ' if traced else ''}{wall:.3f} s",
              file=sys.stderr)
        # start another op only if it is expected to end less than half an
        # op past the deadline
        typical = statistics.median(s["wall_s"] for s in samples)
        if (deadline - time.perf_counter() < 0.5 * typical
                and (tracer is None or len(samples) >= 2)):
            break

    failed = sum(not s["ok"] for s in samples)
    good = [s for s in samples if s["ok"]] or samples
    if args.trace:
        specs = bench["per_layer"]
        values = {k: statistics.median(m[k] for m in layer) for k in layer[0]} if layer else {}
        walls = {t: [s["wall_s"] for s in good if s["traced"] == t] for t in (False, True)}
        if walls[False] and walls[True]:
            values["trace.overhead_frac"] = (statistics.median(walls[True])
                                             / statistics.median(walls[False]) - 1.0)
        tracer.save(os.path.join(OUT, f"{tag}-spans.npz"))
    else:
        specs = bench["end_to_end"]
        values = {
            "wall_s": statistics.median(s["wall_s"] for s in good),
            "cpu_s": statistics.median(s["cpu_s"] for s in good),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        failures.append(f"metrics not measured: {missing}")
        failed = max(failed, 1)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in specs}
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    record.update(result, samples=samples, setup_s=setup, failures=failures,
                  config=doc, loadavg_end=list(os.getloadavg()))
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # restart in place (same process) with the pinned environment
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
