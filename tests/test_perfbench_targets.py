"""The benchmark's tracer patches named attributes of the oscidiff modules
and its table workload calls ``tabulate_ahom_critical(..., jobs=1)``.
Deleting or renaming one of them would pass every other test and only
break ``perfbench/run.py``, so the entry points are checked here."""

import importlib.util
import inspect
import os

from oscidiff import cellsolve, cli, effmat, fields, harness, pdesolve

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
