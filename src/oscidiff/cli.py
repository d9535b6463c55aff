"""Command-line front end.

A single JSON document configures an experiment; subcommands dispatch to
the cell solvers, tensor assembly, PDE solvers, and the convergence
harness, and emit tables, serialized artifacts, and plot data.

Exit codes: 0 all checks passed, 1 configuration error, 2 solver error,
3 assertion (property check) failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import cellsolve as cs, effmat as em, harness as hz, pdesolve as pde
from .errors import ConfigError, OscidiffError
from .fields import CellGrid, MacroGrid, finite_number, load_gridded, make_field

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_ASSERT = 3

CONFIG_KEYS = ("field", "p", "r", "eps", "grids", "data", "u0abs", "seed")


@dataclass
class ExperimentConfig:
    """Validated experiment description (parsed from a JSON document)."""

    field: object
    p: float
    r: float
    regime: str
    eps_list: list
    cell_grid: CellGrid
    macro_grid: MacroGrid
    u0_name: str
    f_name: str
    u0abs: float
    seed: int
    raw: dict = dc_field(default_factory=dict)

    @property
    def u0(self):
        return hz.DEFAULTS["u0"][self.u0_name][self.field.dim]

    @property
    def f(self):
        return hz.DEFAULTS["f"][self.f_name]

    def data(self):
        return {"u0": self.u0, "f": self.f, "n_x": self.macro_grid.n_x,
                "n_t": self.macro_grid.n_t, "T": self.macro_grid.T}


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config: {err}") from err
    return parse_config(doc)


def _check_keys(where, section, allowed):
    """Reject a key of the config section that nothing reads."""
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"config field '{where}{unknown[0]}': unknown key; "
                          f"choices: {sorted(allowed)}")


def _section(doc, key, default):
    """The config section ``key`` (``default`` when absent), a JSON object."""
    section = doc.get(key, default)
    if not isinstance(section, dict):
        raise ConfigError(f"config field '{key}': expected a JSON object, got {section!r}")
    return section


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if "regime" in doc:
        raise ConfigError("config field 'regime': not accepted; the regime follows "
                          "from r (and from p at r = 2)")
    _check_keys("", doc, CONFIG_KEYS)
    fspec = _section(doc, "field", {"name": "trig1d_st"})
    if "file" in fspec:
        _check_keys("field.", fspec, ("file",))
        path = fspec["file"]
        if not isinstance(path, str):
            raise ConfigError(f"config field 'field.file': expected a path, got {path!r}")
        try:
            field = load_gridded(path)
        except OSError as err:
            raise ConfigError(f"config field 'field.file': cannot read {path!r}: {err}") from None
    elif "name" in fspec:
        params = {k: v for k, v in fspec.items() if k != "name"}
        field = make_field(fspec["name"], **params)
    else:
        raise ConfigError("field spec needs 'name' (builtin) or 'file' (gridded)")

    p = finite_number("config field 'p'", doc.get("p", 1.0))
    r = finite_number("config field 'r'", doc.get("r", 1.0))
    regime = cs.regime_for(r, p)

    eps = doc.get("eps", [1 / 8, 1 / 16, 1 / 32])
    if not isinstance(eps, list) or not eps:
        raise ConfigError(f"config field 'eps': expected a non-empty list, got {eps!r}")
    eps_list = [finite_number("config field 'eps'", e) for e in eps]
    for e in eps_list:
        if not pde.is_dyadic(e):
            raise ConfigError(f"config field 'eps': {e} is not of the form 1/2^m")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("config field 'eps': must be strictly decreasing")

    grids = _section(doc, "grids", {})
    _check_keys("grids.", grids, hz.DEFAULTS["grids"][field.dim])
    g = {**hz.DEFAULTS["grids"][field.dim], **grids}
    cell_grid = CellGrid(M_y=finite_number("config field 'grids.M_y'", g["M_y"], int),
                         M_s=finite_number("config field 'grids.M_s'", g["M_s"], int))
    macro_grid = MacroGrid(dim=field.dim,
                           n_x=finite_number("config field 'grids.n_x'", g["n_x"], int),
                           n_t=finite_number("config field 'grids.n_t'", g["n_t"], int),
                           T=finite_number("config field 'grids.T'", g["T"]))

    d = _section(doc, "data", {})
    _check_keys("data.", d, ("u0", "f"))
    u0_name = d.get("u0", "sine")
    f_name = d.get("f", "one")
    for key, name in (("u0", u0_name), ("f", f_name)):
        if not isinstance(name, str) or name not in hz.DEFAULTS[key]:
            raise ConfigError(f"config field 'data.{key}': unknown builtin {name!r}; "
                              f"choices: {sorted(hz.DEFAULTS[key])}")

    return ExperimentConfig(
        field=field, p=p, r=r, regime=regime, eps_list=eps_list,
        cell_grid=cell_grid, macro_grid=macro_grid,
        u0_name=u0_name, f_name=f_name,
        u0abs=finite_number("config field 'u0abs'", doc.get("u0abs", 1.0)),
        seed=finite_number("config field 'seed'", doc.get("seed", 0), int),
        raw=doc,
    )


def _echo_config(cfg: ExperimentConfig, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_echo.json"), "w") as fh:
        json.dump(cfg.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve_micro(cfg, eps, u0=None):
    """The config's micro solve at eps, from u0 (the config's by default)."""
    return pde.solve_micro(pde.MicroProblem(field=cfg.field, eps=eps, r=cfg.r, p=cfg.p, f=cfg.f,
                                            u0=u0 or cfg.u0, grid=cfg.macro_grid))


def _tensor(cfg):
    """Effective tensor of the config: the |u0| table at r = 2, else one
    matrix. The critical cells are not kept."""
    return hz.prepare_effective(cfg.field, cfg.p, cfg.r, cfg.cell_grid, keep_cells=False)[0]


def _table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    out = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        out.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_cell(cfg: ExperimentConfig, out_dir, as_json=False, **_kw):
    capacity = cs.capacity(cfg.r, cfg.p, cfg.u0abs)
    cells = cs.solve_cells(cfg.field, cfg.cell_grid, capacity)
    _echo_config(cfg, out_dir)
    summary = []
    for c in cells:
        path = os.path.join(out_dir, f"cell_k{c.k}.txt")
        cs.save_cell(path, c)
        summary.append({"k": c.k, "max_phi": float(np.max(np.abs(c.phi))),
                        "mean_defect": c.mean_defect(),
                        "periodic_defect": c.periodic_defect,
                        "residual": c.residual, "path": path})
    columns = ("max_phi", "mean_defect", "periodic_defect", "residual")
    rows = [[c["k"], *(f"{c[k]:.3e}" for k in columns), c["path"]] for c in summary]
    print(_table(rows, ["k", "max|Phi|", "mean defect", "periodic defect",
                        "residual", "file"]))
    if as_json:
        _dump_json(out_dir, "cell_summary.json",
                   {"regime": cfg.regime, "capacity": capacity, "cells": summary})
    return EXIT_OK


def cmd_ahom(cfg: ExperimentConfig, out_dir, as_json=False, **_kw):
    _echo_config(cfg, out_dir)
    tensor = _tensor(cfg)
    ell = em.ellipticity_report(tensor, seed=cfg.seed)
    checks = {"ellipticity_min_slack": ell["min_slack"]}
    if not tensor.is_table:
        sym = em.skew_report(tensor)
        checks["max_asymmetry"] = sym["max_asymmetry"]
    em.save_tensor(os.path.join(out_dir, "ahom.txt"), tensor)
    em.export_table_csv(os.path.join(out_dir, "ahom.csv"), tensor)
    print(f"regime: {tensor.regime}")
    for key, M in zip(tensor.u0abs_keys if tensor.is_table else [None],
                      tensor.matrices):
        label = "a_hom" if key is None else f"a_hom(|u0|={key:g})"
        print(f"{label} =\n{M}")
        if tensor.is_table and key > 0.02:
            break  # keep stdout short; full table is in the CSV
    print(f"checks: {checks}")
    if as_json:
        _dump_json(out_dir, "ahom_summary.json",
                   {"regime": tensor.regime, "checks": checks,
                    "matrices": tensor.matrices.tolist()})
    return EXIT_OK


def cmd_micro(cfg: ExperimentConfig, out_dir, as_json=False, **_kw):
    _echo_config(cfg, out_dir)
    rows, summary = [], []
    for eps in cfg.eps_list:
        traj = _solve_micro(cfg, eps)
        m = int(round(math.log2(1.0 / eps)))
        path = os.path.join(out_dir, f"micro_eps2e{m}.txt")
        pde.save_traj(path, traj)
        rows.append([f"{eps:g}", traj.stats["substeps"],
                     f"{traj.stats['newton_mean']:.2f}",
                     f"{np.max(np.abs(traj.values[-1])):.6f}", path])
        summary.append({"eps": eps, **traj.stats, "path": path})
    print(_table(rows, ["eps", "substeps", "newton mean", "max|v(T)|", "file"]))
    if as_json:
        _dump_json(out_dir, "micro_summary.json", {"runs": summary})
    return EXIT_OK


def cmd_homog(cfg: ExperimentConfig, out_dir, as_json=False, **_kw):
    _echo_config(cfg, out_dir)
    tensor = _tensor(cfg)
    prob = pde.HomogenizedProblem(tensor=tensor, p=cfg.p, f=cfg.f, u0=cfg.u0,
                                  grid=cfg.macro_grid)
    traj = pde.solve_homogenized(prob)
    path = os.path.join(out_dir, "homog.txt")
    pde.save_traj(path, traj)
    print(f"mode: {prob.mode}, newton mean {traj.stats['newton_mean']:.2f}, "
          f"max|v(T)| = {np.max(np.abs(traj.values[-1])):.6f}")
    print(f"trajectory written to {path}")
    if as_json:
        _dump_json(out_dir, "homog_summary.json", {"mode": prob.mode, **traj.stats})
    return EXIT_OK


_PLOT_SCRIPT = """\
# gnuplot script for the convergence curves
set logscale xy
set xlabel "eps"
set ylabel "error"
set key left top
plot "converge_sol_err.dat" w lp t "solution", \\
     "converge_grad_corr_err.dat" w lp t "gradient corrector", \\
     "converge_flux_corr_err.dat" w lp t "flux corrector", \\
     "converge_dtime_corr_err.dat" w lp t "time-derivative corrector", \\
     "converge_grad_plain_err.dat" w lp t "plain gradient", \\
     "converge_flux_plain_err.dat" w lp t "plain flux"
"""


def _converge_checks(report, strict_rates=False):
    """Monotonicity (and optional rate) assertions; returns failure strings."""
    if len(report.eps_list) < 2:
        failures = ["one eps: no decrease checked"]
    else:
        failures = [f"{name} is not strictly decreasing in eps "
                    "(homogenization/corrector convergence check)"
                    for name in ("sol_err", "grad_corr_err", "flux_corr_err", "dtime_corr_err")
                    if not report.monotone.get(name)]
    if len(report.sol_err) == len(report.eps_list) >= 3:
        if report.sol_err[-1] > 0 and report.sol_err[0] / report.sol_err[-1] < 2.0:
            failures.append("solution error decreased by less than a factor 2 "
                            "from the coarsest to the finest eps")
    if strict_rates:
        for name in ("sol_err", "grad_corr_err", "flux_corr_err", "dtime_corr_err"):
            rate = report.rates.get(name)
            if rate is None or rate < 0.5:
                failures.append(f"{name}: fitted rate {rate} < 0.5 (strict mode)")
    fixdir = os.environ.get("OSCIDIFF_FIXTURES")
    if fixdir:
        fix = _find_fixture(fixdir, report)
        if fix is not None:
            floor = 0.5 * fix["grad_plain_err"][-1]
            if any(v < floor for v in report.grad_plain_err):
                failures.append(
                    f"plain gradient error fell below the fixture floor {floor:.3e} "
                    "(it should stagnate while the corrector-augmented error decays)")
    return failures


def _study_exit(report, strict_rates):
    """Exit code of a study command: EXIT_SOLVER for a partial report,
    else EXIT_ASSERT when a ``_converge_checks`` check fails."""
    if report.partial:
        print(f"partial report: {report.cause}", file=sys.stderr)
        return EXIT_SOLVER
    failures = _converge_checks(report, strict_rates)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return EXIT_ASSERT if failures else EXIT_OK


def _find_fixture(fixdir, report):
    name = f"study_p{report.p:g}_r{report.r:g}.json".replace("/", "_")
    path = os.path.join(fixdir, name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _study(cfg: ExperimentConfig, out_dir, as_json, stem):
    """Echo the config, run its convergence study and write the report
    under ``stem``; returns the report."""
    _echo_config(cfg, out_dir)
    report = hz.run_convergence_study(cfg.field, cfg.p, cfg.r, cfg.eps_list,
                                      data=cfg.data(), cell_grid=cfg.cell_grid)
    hz.write_report(report, out_dir, stem=stem, json_mirror=as_json)
    return report


def cmd_converge(cfg: ExperimentConfig, out_dir, as_json=False,
                 strict_rates=False, **_kw):
    report = _study(cfg, out_dir, as_json, "converge")
    with open(os.path.join(out_dir, "plot.gp"), "w") as fh:
        fh.write(_PLOT_SCRIPT)
    sys.stdout.write(report.to_csv())
    return _study_exit(report, strict_rates)


def cmd_corrector(cfg: ExperimentConfig, out_dir, as_json=False,
                  strict_rates=False, **_kw):
    """Corrector-error table; recomputes cells and trajectories."""
    report = _study(cfg, out_dir, as_json, "corrector")
    rows = [[f"{eps:g}", *(f"{v:.6e}" for v in errs)] for eps, *errs in zip(
        report.eps_list, report.grad_corr_err, report.flux_corr_err,
        report.dtime_corr_err, report.grad_plain_err)]
    print(_table(rows, ["eps", "grad corr", "flux corr", "dtime corr", "grad plain"]))
    return _study_exit(report, strict_rates)


def cmd_audit(cfg: ExperimentConfig, out_dir, as_json=False, **_kw):
    """Uniform-estimate audit plus the initial-datum contraction check."""
    _echo_config(cfg, out_dir)
    trajs = [_solve_micro(cfg, eps) for eps in cfg.eps_list]
    audit = hz.audit_uniform_estimates(
        trajs, cfg.p, data={"lam": cfg.field.lam, "f": cfg.f})
    rows = [[it["bound"], f"{it['lhs']:.6e}", f"{it['rhs']:.6e}",
             "pass" if it["passed"] else "FAIL"] for it in audit["items"]]
    print(_table(rows, ["bound", "lhs", "rhs", "status"]))

    # contraction in H^-1 between two initial data, largest eps
    eps = cfg.eps_list[0]
    traj_b = _solve_micro(cfg, eps, lambda x: 0.5 * cfg.u0(x))
    C_T = pde.contraction_constant(cfg.field, eps, cfg.r, cfg.macro_grid.T)
    dist = pde.hminus1_norm(trajs[0].u_values() - traj_b.u_values(), cfg.macro_grid) ** 2
    d0, dmax = float(dist[0]), float(np.max(dist))
    contraction_ok = dmax <= 1.05 * C_T * d0
    print(f"contraction: sup ||u1-u2||_{{H^-1}}^2 = {dmax:.6e} <= "
          f"1.05 * C_T * initial = {1.05 * C_T * d0:.6e}: "
          f"{'pass' if contraction_ok else 'FAIL'}")
    if as_json:
        _dump_json(out_dir, "audit_summary.json",
                   {"uniform": audit, "contraction": {
                       "C_T": C_T, "initial": d0, "sup": dmax,
                       "passed": bool(contraction_ok)}})
    ok = audit["passed"] and contraction_ok
    if not ok:
        print("FAIL: a data-only a priori bound was violated beyond its slack",
              file=sys.stderr)
    return EXIT_OK if ok else EXIT_ASSERT


def _dump_json(out_dir, name, doc):
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


COMMANDS = {
    "cell": cmd_cell,
    "ahom": cmd_ahom,
    "micro": cmd_micro,
    "homog": cmd_homog,
    "converge": cmd_converge,
    "corrector": cmd_corrector,
    "audit": cmd_audit,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="oscidiff",
        description="Homogenization toolkit for nonlinear diffusion with "
                    "space-time oscillating coefficients.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON experiment config")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--json", action="store_true", help="mirror tables as JSON")
    ap.add_argument("--strict-rates", action="store_true",
                    help="additionally assert fitted decay rates >= 0.5")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg, args.out, as_json=args.json,
                                      strict_rates=args.strict_rates)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OscidiffError as err:
        print(f"solver error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
