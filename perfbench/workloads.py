"""Workload definitions: seeded configs, the op each workload runs, and
the checks each op's outputs must pass.

An op makes the public calls the ``oscidiff`` CLI makes for the
corresponding command (``converge`` for the studies, ``ahom`` followed by
``homog`` for ``table_2d``), starting from ``cli.parse_config`` on the
generated config document and ending with the artifact writers.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from oscidiff import cli, effmat as em, harness as hz, pdesolve as pde
from oscidiff.fields import make_field, validate_ellipticity

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Tolerance of the comparison against the recorded seed-0 outputs:
# |value - reference| <= ATOL + RTOL |reference|, entry by entry. See
# README.md ("Output checks") for how it follows from the solver tolerances.
RTOL = 1e-4
ATOL = 1e-10

# Seeds other than 0 scale each of base, amp and scale of the field by a
# factor drawn uniformly from [1 - PERTURB, 1 + PERTURB].
PERTURB = 0.05

BATTERY_FIELD = {"base": 2.0, "amp": 1.0, "scale": 0.25}
GRIDS_1D = {"M_y": 64, "M_s": 64, "n_x": 256, "n_t": 32, "T": 0.25}
GRIDS_2D = {"M_y": 24, "M_s": 32, "n_x": 48, "n_t": 32, "T": 0.25}

WORKLOADS = {
    "study_supercritical": {
        "kind": "study", "field": "trig1d_st", "p": 0.5, "r": 3.0,
        "eps": [1 / 8, 1 / 16], "grids": GRIDS_1D, "reference": "converge_supercritical.csv",
    },
    "study_critical": {
        "kind": "study", "field": "trig1d_st", "p": 0.5, "r": 2.0,
        "eps": [1 / 8, 1 / 16, 1 / 32], "grids": GRIDS_1D, "reference": "converge_critical.csv",
    },
    "table_2d": {
        "kind": "table", "field": "trig2d_st", "p": 1.5, "r": 2.0,
        "eps": [1 / 8], "grids": GRIDS_2D, "reference": "ahom_table_2d.csv",
    },
}


def field_params(name, seed):
    """Field parameters for a workload seed; seed 0 is the battery field."""
    if seed == 0:
        return dict(BATTERY_FIELD)
    rng = np.random.default_rng([abs(seed), int(seed < 0), sorted(WORKLOADS).index(name)])
    factors = rng.uniform(1.0 - PERTURB, 1.0 + PERTURB, size=len(BATTERY_FIELD))
    return {k: round(v * f, 6) for (k, v), f in zip(BATTERY_FIELD.items(), factors)}


def make_config(name, seed):
    """The JSON config document the program receives for (workload, seed)."""
    spec = WORKLOADS[name]
    params = field_params(name, seed)
    # the perturbed field must be one the toolkit's own validation accepts
    validate_ellipticity(make_field(spec["field"], **params))
    return {
        "field": {"name": spec["field"], **params},
        "p": spec["p"], "r": spec["r"], "eps": spec["eps"],
        "grids": dict(spec["grids"]),
        "data": {"u0": "sine", "f": "one"},
    }


# ---------------------------------------------------------------------------
# Ops


def study_op(doc, out_dir):
    """``oscidiff converge``: the eps-study and its report files."""
    cfg = cli.parse_config(doc)
    cli._echo_config(cfg, out_dir)
    report = hz.run_convergence_study(cfg.field, cfg.p, cfg.r, cfg.eps_list,
                                      data=cfg.data(), cell_grid=cfg.cell_grid)
    hz.write_report(report, out_dir, stem="converge", json_mirror=False)
    return cfg, report


def table_op(doc, out_dir):
    """``oscidiff ahom`` then ``oscidiff homog`` on one |u0| table."""
    cfg = cli.parse_config(doc)
    cli._echo_config(cfg, out_dir)
    tensor = em.tabulate_ahom_critical(cfg.field, cfg.cell_grid, cfg.p, jobs=1)
    em.ellipticity_report(tensor, seed=cfg.seed)
    em.save_tensor(os.path.join(out_dir, "ahom.txt"), tensor)
    em.export_table_csv(os.path.join(out_dir, "ahom.csv"), tensor)
    prob = pde.HomogenizedProblem(tensor=tensor, p=cfg.p, f=cfg.f, u0=cfg.u0,
                                  grid=cfg.macro_grid, mode="critical_table")
    traj = pde.solve_homogenized(prob)
    pde.save_traj(os.path.join(out_dir, "homog.txt"), traj)
    return cfg, traj


OPS = {"study": study_op, "table": table_op}


# ---------------------------------------------------------------------------
# Checks (each returns a list of failure messages)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def compare_csv(path, reference):
    """Entry-wise comparison of a written CSV with a recorded reference."""
    head, got = read_csv(path)
    ref_head, want = read_csv(os.path.join(REFERENCE_DIR, reference))
    if head != ref_head or got.shape != want.shape:
        return [f"{os.path.basename(path)}: layout {head} {got.shape} differs "
                f"from reference {ref_head} {want.shape}"]
    bad = np.abs(got - want) > ATOL + RTOL * np.abs(want)
    if not bad.any():
        return []
    i, j = np.argwhere(bad)[0]
    return [f"{os.path.basename(path)}: {int(bad.sum())} entries differ from the "
            f"reference beyond rtol {RTOL:g}; first at row {i + 1}, column "
            f"{head[j]}: {float(got[i, j])!r} vs {float(want[i, j])!r}"]


def check(name, seed, out_dir, result):
    spec = WORKLOADS[name]
    cfg, out = result
    failures = []
    if spec["kind"] == "study":
        if out.partial:
            failures.append(f"partial report: {out.cause}")
        # the monotonicity and fixture-floor checks of ``oscidiff converge``
        failures += cli._converge_checks(out)
        path = os.path.join(out_dir, "converge.csv")
    else:
        audit = hz.audit_uniform_estimates([out], cfg.p,
                                           data={"lam": cfg.field.lam, "f": cfg.f})
        failures += [f"a priori {it['bound']} bound violated: lhs {it['lhs']:.6e} "
                     f"> rhs {it['rhs']:.6e}" for it in audit["items"] if not it["passed"]]
        path = os.path.join(out_dir, "ahom.csv")
    if seed == 0:
        failures += compare_csv(path, spec["reference"])
    return failures
