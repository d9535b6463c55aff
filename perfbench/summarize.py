#!/usr/bin/env python3
"""Summarize the run records in perfbench/out/ per workload and metric.

    python3 perfbench/summarize.py                 # print the table
    python3 perfbench/summarize.py --write FILE    # also write it as JSON

For each workload and trace mode it takes every run record (one per
seed), and reports per metric the number of runs, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median.
"""

import argparse
import glob
import json
import os
import statistics
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def summarize(records):
    table = {}
    for rec in records:
        key = f"{rec['workload']} trace={rec['trace']}"
        for name, m in rec["metrics"].items():
            table.setdefault(key, {}).setdefault(name, {"unit": m["unit"], "values": []})
            table[key][name]["values"].append(m["value"])
    for metrics in table.values():
        for m in metrics.values():
            vals = m["values"]
            m["n"] = len(vals)
            m["median"] = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                m["q1"], m["q3"] = q1, q3
                m["spread"] = (q3 - q1) / m["median"] if m["median"] else 0.0
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", help="write the summary to this JSON file")
    args = ap.parse_args(argv)
    records = []
    for path in sorted(glob.glob(os.path.join(OUT, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if "metrics" in rec:
            records.append(rec)
    table = summarize(records)
    for key, metrics in sorted(table.items()):
        seeds = sorted({r["seed"] for r in records
                        if f"{r['workload']} trace={r['trace']}" == key})
        print(f"{key}  seeds {seeds}")
        for name, m in metrics.items():
            spread = f"  spread {m['spread']:.4f}" if "spread" in m else ""
            print(f"  {name:34s} {m['median']:.6g} {m['unit']}  n={m['n']}{spread}")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
