"""The benchmark's tracer patches named attributes of the oscidiff modules
and its table workload calls ``tabulate_ahom_critical(..., jobs=1)``.
Deleting or renaming one of them would pass every other test and only
break ``perfbench/run.py``, so the entry points are checked here, and
each benchmark op runs once, traced, on a tiny config document."""

import importlib.util
import inspect
import json
import os

import pytest

from oscidiff import cellsolve, cli, effmat, fields, harness, pdesolve

ROOT = os.path.join(os.path.dirname(__file__), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")

TINY_OPS = {
    "study_critical": {
        "field": {"name": "trig1d_st"}, "p": 0.5, "r": 2.0, "eps": [1 / 2, 1 / 4],
        "grids": {"M_y": 8, "M_s": 4, "n_x": 8, "n_t": 4, "T": 0.25},
        "data": {"u0": "sine", "f": "one"}},
    "table_2d": {
        "field": {"name": "trig2d_st"}, "p": 1.5, "r": 2.0, "eps": [1 / 8],
        "grids": {"M_y": 8, "M_s": 4, "n_x": 8, "n_t": 4, "T": 0.25},
        "data": {"u0": "sine", "f": "one"}},
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("perfbench_tracer", TRACER)


def test_traced_entry_points_exist():
    tracer = _tracer()
    modules = dict(zip(tracer.LAYERS, (fields, cellsolve, effmat, pdesolve, harness, cli)))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.targets(modules)
               if attr not in owner.__dict__]
    assert not missing


def test_table_workload_call_binds():
    inspect.signature(effmat.tabulate_ahom_critical).bind(
        fields.make_field("trig1d_st"), fields.CellGrid(8, 4), 1.5, jobs=1)


@pytest.mark.parametrize("name", sorted(TINY_OPS))
def test_traced_op_yields_every_layer_metric(tmp_path, name):
    # trace.overhead_frac compares traced and untraced ops; run.py computes it
    tracer, workloads = _tracer(), _load("perfbench_workloads", WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]} - {"trace.overhead_frac"}
    modules = dict(zip(tracer.LAYERS, (fields, cellsolve, effmat, pdesolve, harness, cli)))
    tr = tracer.Tracer(modules)
    op = workloads.OPS[workloads.WORKLOADS[name]["kind"]]
    result = tr.run_op(1, op, TINY_OPS[name], str(tmp_path))
    assert not wanted - set(tr.op_metrics())
    # seed 1 skips the comparison with the recorded seed-0 outputs
    assert isinstance(workloads.check(name, 1, str(tmp_path), result), list)
