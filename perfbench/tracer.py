"""In-memory span tracer for the benchmark's per-layer metrics.

Spans are recorded from outside the program. ``Tracer.install`` replaces
public functions of the oscidiff modules, and methods of their classes,
with timing wrappers; ``uninstall`` puts the originals back. Functions
are patched as module attributes, and under every alias that another
oscidiff module made with ``from ... import``, because calls inside the
package resolve through module globals. Methods are patched on their classes; the classes
themselves are never replaced, so code that builds instances through
``cls.__new__`` keeps working.

Each span is a tuple (span id, parent span id, op id, name, start, end).
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("fields", "cellsolve", "effmat", "pdesolve", "harness", "cli")
ROOT = "op"


def _sample_points(tr, args, kwargs, out):
    out = np.asarray(out)
    tr.counts["fields.sample_points"] += out.size // (out.shape[-1] * out.shape[-2])


def _bind(names, args, kwargs):
    return {**dict(zip(names, args)), **kwargs}


def _operator_key(tr, args, kwargs, out):
    a = _bind(("self", "field", "grid", "s"), args, kwargs)
    tr.distinct.add(("slice", id(a["field"]), a["grid"], float(a["s"])))


def _matrix_key(tr, args, kwargs, out):
    a = _bind(("cls", "a", "dim", "grid"), args, kwargs)
    values = np.ascontiguousarray(a["a"], dtype=float)
    tr.distinct.add(("values", hashlib.blake2b(values.tobytes()).hexdigest(),
                     a["dim"], a["grid"]))


def _cell_solutions(tr, args, kwargs, out):
    tr.counts["cellsolve.cell_solves"] += len(out)
    for c in out:
        tr.maxima["cellsolve.max_periodic_defect"] = max(
            tr.maxima["cellsolve.max_periodic_defect"], float(c.periodic_defect))
        tr.maxima["cellsolve.max_residual"] = max(
            tr.maxima["cellsolve.max_residual"], float(c.residual))


def _trajectory(kind):
    def hook(tr, args, kwargs, out):
        total = out.stats["substeps"] * out.grid.n_t
        tr.counts[f"pdesolve.{kind}_substeps"] += total
        tr.counts["pdesolve.newton_iters"] += int(round(out.stats["newton_mean"] * total))
    return hook


def targets(modules):
    """(owner, attribute, span name, after-hook) for every traced entry point.

    ``modules`` maps a layer name to the imported oscidiff module."""
    fields, cs, em, pde, hz, cli = (modules[k] for k in LAYERS)
    return [
        (fields.PeriodicMatrixField, "sample", "fields.sample", _sample_points),
        (fields, "mean_ys", "fields.mean_ys", None),
        (cs.CellOperator, "__init__", "cellsolve.operator", _operator_key),
        (cs.CellOperator, "from_matrix_values", "cellsolve.operator", _matrix_key),
        (cs, "s_averaged_operator", "cellsolve.s_average", None),
        (cs, "projected_cg", "cellsolve.cg", None),
        (cs, "solve_cells", "cellsolve.solve_cells", _cell_solutions),
        (cs, "solve_classical_cell", "cellsolve.solve", None),
        (cs, "solve_subcritical_cell", "cellsolve.solve", None),
        (cs, "solve_supercritical_cell", "cellsolve.solve", None),
        (cs, "solve_critical_cell_fde", "cellsolve.solve", None),
        (cs, "solve_critical_cell_pme", "cellsolve.solve", None),
        (cs, "save_cell", "cli.write", None),
        (em, "assemble_ahom", "effmat.assemble", None),
        (em, "tabulate_ahom_critical", "effmat.tabulate", None),
        (em.EffectiveTensor, "entries_at", "effmat.lookup", None),
        (em.EffectiveTensor, "entry_at", "effmat.lookup", None),
        (em, "ellipticity_report", "effmat.report", None),
        (em, "skew_report", "effmat.report", None),
        (em, "save_tensor", "cli.write", None),
        (em, "export_table_csv", "cli.write", None),
        (pde, "solve_micro", "pdesolve.micro", _trajectory("micro")),
        (pde, "solve_homogenized", "pdesolve.homog", _trajectory("homog")),
        (pde.Operator1D, "__init__", "pdesolve.operator", None),
        (pde.Operator2D, "__init__", "pdesolve.operator", None),
        (pde.Operator1D, "solve_shifted", "pdesolve.linear_solve", None),
        (pde.Operator2D, "solve_shifted", "pdesolve.linear_solve", None),
        (pde, "hminus1_norm", "pdesolve.norm", None),
        (pde, "save_traj", "cli.write", None),
        (hz, "prepare_effective", "harness.prepare", None),
        (hz, "run_convergence_study", "harness.study", None),
        (hz, "write_report", "cli.write", None),
        (cli, "parse_config", "cli.parse", None),
        (cli, "_echo_config", "cli.write", None),
    ]


class Tracer:
    """Records spans and counters for the ops run while it is installed."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self._stack = [0]
        self._next_id = 1
        self.op_id = 0
        self._first = 0
        self._saved = []
        self._reset_op()

    def _reset_op(self):
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.distinct = set()

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer.op_id, name, t0, t1))
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, after in targets(self.modules):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, after))
            else:
                new = self._wrap(name, raw, after)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
            if isinstance(owner, type):
                continue
            # aliases made by ``from .module import function``
            for mod in self.modules.values():
                if mod is not owner and mod.__dict__.get(attr) is raw:
                    self._saved.append((mod, attr, raw))
                    setattr(mod, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def run_op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as one traced op and return its result."""
        self.op_id = op_id
        self._reset_op()
        self._first = len(self.spans)
        self.install()
        try:
            return self._wrap(ROOT, fn, None)(*args)
        finally:
            self.uninstall()

    def op_metrics(self):
        """Per-layer metrics of the last op from its spans and counters."""
        spans = self.spans[self._first:]
        dur = {s[0]: s[5] - s[4] for s in spans}
        child = Counter()
        for sid, parent, *_ in spans:
            child[parent] += dur[sid]
        self_s, incl_s, calls = Counter(), Counter(), Counter()
        for sid, _, _, name, _, _ in spans:
            self_s[name] += dur[sid] - child[sid]
            incl_s[name] += dur[sid]
            calls[name] += 1
        wall = incl_s[ROOT]
        c = self.counts
        m = {
            "fields.sample_calls": calls["fields.sample"],
            "fields.sample_points": c["fields.sample_points"],
            "fields.sample_s": self_s["fields.sample"] + self_s["fields.mean_ys"],
            "cellsolve.operator_builds": calls["cellsolve.operator"],
            "cellsolve.operator_distinct": len(self.distinct),
            "cellsolve.operator_useful_frac": (
                len(self.distinct) / calls["cellsolve.operator"]
                if calls["cellsolve.operator"] else 0.0),
            "cellsolve.operator_s": (self_s["cellsolve.operator"]
                                     + self_s["cellsolve.s_average"]),
            "cellsolve.cell_solves": c["cellsolve.cell_solves"],
            "cellsolve.solve_s": (self_s["cellsolve.solve_cells"]
                                  + self_s["cellsolve.solve"]),
            "cellsolve.cg_calls": calls["cellsolve.cg"],
            "cellsolve.cg_s": self_s["cellsolve.cg"],
            "cellsolve.max_periodic_defect": self.maxima["cellsolve.max_periodic_defect"],
            "cellsolve.max_residual": self.maxima["cellsolve.max_residual"],
            "effmat.assemble_calls": calls["effmat.assemble"],
            "effmat.assemble_s": self_s["effmat.assemble"] + self_s["effmat.tabulate"],
            "effmat.lookup_calls": calls["effmat.lookup"],
            "effmat.lookup_s": self_s["effmat.lookup"],
            "effmat.report_s": self_s["effmat.report"],
            "pdesolve.micro_s": incl_s["pdesolve.micro"],
            "pdesolve.micro_substeps": c["pdesolve.micro_substeps"],
            "pdesolve.homog_s": incl_s["pdesolve.homog"],
            "pdesolve.homog_substeps": c["pdesolve.homog_substeps"],
            "pdesolve.operator_builds": calls["pdesolve.operator"],
            "pdesolve.operator_s": self_s["pdesolve.operator"],
            "pdesolve.linear_solves": calls["pdesolve.linear_solve"],
            "pdesolve.linear_solve_s": self_s["pdesolve.linear_solve"],
            "pdesolve.newton_iters": c["pdesolve.newton_iters"],
            "pdesolve.norm_s": incl_s["pdesolve.norm"],
            "harness.prepare_s": incl_s["harness.prepare"],
            "harness.errors_s": self_s["harness.study"],
            "cli.parse_s": self_s["cli.parse"],
            "cli.write_s": self_s["cli.write"],
        }
        for kind in ("micro", "homog"):
            n = m[f"pdesolve.{kind}_substeps"]
            m[f"pdesolve.{kind}_substep_us"] = 1e6 * m[f"pdesolve.{kind}_s"] / n if n else 0.0
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                       if k.split(".")[0] == layer)
        m["trace.covered_frac"] = (wall - self_s[ROOT]) / wall
        return {k: float(v) for k, v in m.items()}

    def save(self, path):
        """Write every recorded span to ``path`` (a NumPy .npz archive)."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            span_id=np.array([s[0] for s in self.spans], dtype=np.int64),
            parent_id=np.array([s[1] for s in self.spans], dtype=np.int64),
            op_id=np.array([s[2] for s in self.spans], dtype=np.int64),
            name_idx=np.array([index[s[3]] for s in self.spans], dtype=np.int32),
            start=np.array([s[4] for s in self.spans]),
            end=np.array([s[5] for s in self.spans]),
            names=np.array(names),
        )
