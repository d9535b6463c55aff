"""Convergence studies and estimate audits.

The homogenization theory is qualitative (no rates in eps), so the
harness asserts monotone decrease of the corrector-augmented error
functionals along an eps sequence while the plain gradient and flux
errors stagnate above a positive floor. Fitted log-log rates are
reported for reference; the optional strict mode also asserts them.
The functionals and the audit take whole trajectories as (steps, nodes or
faces) arrays, so a |u0| clamped to the table hull warns once per eps.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import cellsolve as cs, effmat as em, pdesolve as pde, workers
from .errors import ConfigError, RegimeMismatch
from .fields import CellGrid, MacroGrid, PeriodicMatrixField

CSV_HEADER = "eps,sol_err,grad_corr_err,flux_corr_err,dtime_corr_err,grad_plain_err,flux_plain_err"
AUDIT_SLACK = 0.10  # the audited bounds hold when lhs <= (1 + AUDIT_SLACK) rhs


# Built-in initial data (per dimension), sources and default grids (per
# dimension), by name; the CLI config and ``default_data`` read them here.
DEFAULTS = {
    "u0": {
        "sine": {1: lambda x: np.sin(np.pi * x[:, 0]),
                 2: lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])},
        "zero": {1: lambda x: np.zeros(len(x)), 2: lambda x: np.zeros(len(x))},
        "bump": {1: lambda x: (x[:, 0] * (1 - x[:, 0])) * 4.0,
                 2: lambda x: 16.0 * x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1])},
    },
    "f": {
        "one": lambda x, t: np.ones(len(x)),
        "zero": lambda x, t: np.zeros(len(x)),
        "decaying": lambda x, t: np.exp(-t) * np.ones(len(x)),
    },
    "grids": {
        1: {"M_y": 64, "M_s": 64, "n_x": 256, "n_t": 32, "T": 0.25},
        2: {"M_y": 48, "M_s": 64, "n_x": 48, "n_t": 32, "T": 0.25},
    },
}
# sources that do not vary with t, which a march samples once per solve
DEFAULTS["f"]["one"].t_independent = DEFAULTS["f"]["zero"].t_independent = True


def default_data(dim: int = 1):
    """u0 = sin(pi x) (product form in 2D), f = 1, default macro grid."""
    g = DEFAULTS["grids"][dim]
    return {"u0": DEFAULTS["u0"]["sine"][dim], "f": DEFAULTS["f"]["one"],
            "n_x": g["n_x"], "n_t": g["n_t"], "T": g["T"]}


@dataclass
class ConvergenceReport:
    eps_list: list
    p: float
    r: float
    sol_err: list = dc_field(default_factory=list)
    grad_corr_err: list = dc_field(default_factory=list)
    flux_corr_err: list = dc_field(default_factory=list)
    dtime_corr_err: list = dc_field(default_factory=list)
    grad_plain_err: list = dc_field(default_factory=list)
    flux_plain_err: list = dc_field(default_factory=list)
    rates: dict = dc_field(default_factory=dict)
    monotone: dict = dc_field(default_factory=dict)
    partial: bool = False
    cause: Optional[str] = None
    config: dict = dc_field(default_factory=dict)

    _CURVES = ("sol_err", "grad_corr_err", "flux_corr_err", "dtime_corr_err",
               "grad_plain_err", "flux_plain_err")

    def finalize(self):
        for name in ("sol_err", "grad_corr_err", "flux_corr_err", "dtime_corr_err"):
            vals = getattr(self, name)
            self.monotone[name] = bool(
                len(vals) == len(self.eps_list) >= 2
                and all(b < a for a, b in zip(vals, vals[1:])))
            self.rates[name] = fit_rate(self.eps_list, vals)
        return self

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for i, eps in enumerate(self.eps_list):
            row = [f"{eps:.12g}"]
            for name in self._CURVES:
                vals = getattr(self, name)
                row.append(f"{vals[i]:.12g}" if i < len(vals) else "nan")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "eps": list(self.eps_list), "p": self.p, "r": self.r,
            "rates": self.rates, "monotone": self.monotone,
            "partial": self.partial, "cause": self.cause,
            "config": self.config,
            "note": "monotone decrease is the asserted property; the theory "
                    "proves convergence without rates, so fitted rates are "
                    "informational",
        }
        for name in self._CURVES:
            doc[name] = list(getattr(self, name))
        return json.dumps(doc, indent=2, sort_keys=True)


def fit_rate(eps_list, errs):
    """Least-squares slope of log(err) against log(eps); None for fewer than
    two points, a missing error or a non-positive one."""
    errs = np.asarray(errs, dtype=float)
    if len(errs) < 2 or len(errs) != len(eps_list) or np.any(errs <= 0):
        return None
    return float(np.polyfit(np.log(np.asarray(eps_list, dtype=float)), np.log(errs), 1)[0])


# ---------------------------------------------------------------------------
# Cell/tensor preparation per regime


def prepare_effective(field: PeriodicMatrixField, p: float, r: float,
                      cell_grid: CellGrid = None, keep_cells: bool = True):
    """Cell solutions and effective tensor for the given scaling.

    Returns (tensor, cells) where cells[i] holds the per-direction cell
    solutions of the tensor's key i (one entry for the constant regimes).
    With keep_cells=False the critical table drops each key's cells once
    assembled, and the list is empty at r = 2.
    """
    if cell_grid is None:
        g = DEFAULTS["grids"][field.dim]
        cell_grid = CellGrid(g["M_y"], g["M_s"])
    if r == 2:
        return em._tabulate_critical(field, cell_grid, p, keep_cells=keep_cells)
    capacity = cs.capacity(r, p)
    ops = cs.cell_operators(field, cell_grid, capacity)
    cells = cs.solve_cells(field, cell_grid, capacity, ops=ops)
    return em.assemble_ahom(cells, field, cell_grid, ops=ops), [cells]


# ---------------------------------------------------------------------------
# Discrete error functionals (face-based gradients)


def corrector_gradient(tensor, cells):
    """Evaluator of the corrector gradient sum_k d_k v0 grad_y Phi_k(y, s).

    ``cells[i]`` holds the per-direction cell solutions of the tensor's
    key i, as ``prepare_effective`` returns them. Each key's gradient
    interpolants are built here, once. The evaluator takes |u0| or u0 of
    shape (...), d v0 and the fast variables y of shape (..., dim) and s of
    shape (...); each point uses the cells of the key nearest to its |u0|
    (``EffectiveTensor.nearest_key``)."""
    if len(cells) != len(tensor.matrices):
        raise RegimeMismatch(f"need the cells of each of the {len(tensor.matrices)} keys")
    grads = [[cell.grad_interpolant() for cell in key_cells] for key_cells in cells]

    def evaluate(u0, grad_v0, y, s):
        nearest = tensor.nearest_key(u0)
        out = np.zeros_like(grad_v0)
        for i in np.unique(nearest):
            sel = nearest == i
            for k, grad in enumerate(grads[i]):
                out[sel] += grad_v0[sel, k:k + 1] * grad(y[sel], s[sel])
        return out

    return evaluate


def _study_errors(traj_eps, traj_hom, corrector, tensor, field, p, r, eps):
    """All six error functionals for one eps (1D grids); ``corrector`` is
    the study's ``corrector_gradient``. Each is one array pass over
    (steps, faces), summed over the steps in step order."""
    grid = traj_eps.grid
    if grid.dim != 1:
        raise RegimeMismatch("error functionals are implemented for 1D studies")
    h, dt = grid.h, grid.dt
    v_0 = traj_hom.values[1:]
    g_e, g_0 = grid.face_difference(traj_eps.values[1:], 0), grid.face_difference(v_0, 0)
    # fast variables at every (step, face)
    y = np.broadcast_to(np.mod(grid.face_points(0) / eps, 1.0), g_0.shape + (1,))
    s = np.broadcast_to(np.mod(grid.times()[1:, None] / eps**r, 1.0), g_0.shape)
    u0_faces, ahom_f = pde.face_ahom(tensor, grid, v_0, p, 0)
    corr = corrector(u0_faces, g_0[..., None], y, s)[..., 0]
    a_eps = field.sample(y, s)[..., 0, 0]
    j_eps = a_eps * g_e
    flux_defect = j_eps - a_eps * (g_0 + corr)
    du = traj_eps.u_values()[1:] - traj_hom.u_values()[1:]
    # float_power is libm pow, as on a per-step scalar; np.power's SIMD loop rounds differently
    per_step = {
        # solution error, L^{p+1}(Omega) per step
        "sol_err": dt * np.float_power(h * np.sum(np.abs(du) ** (p + 1.0), axis=1),
                                       2.0 / (p + 1.0)),
        "grad_corr_err": dt * h * np.sum((g_e - g_0 - corr) ** 2, axis=1),
        "flux_corr_err": dt * h * np.sum(flux_defect**2, axis=1),
        # time-derivative corrector: H^-1 norm of div of the flux defect
        "dtime_corr_err": dt * np.float_power(
            pde.hminus1_norm(np.diff(flux_defect, axis=1) / h, grid), 2),
        "grad_plain_err": dt * h * np.sum((g_e - g_0) ** 2, axis=1),
        "flux_plain_err": dt * h * np.sum((j_eps - ahom_f * g_0) ** 2, axis=1)}
    errs = {name: float(np.cumsum(vals)[-1]) for name, vals in per_step.items()}
    return {**errs, "sol_err": math.sqrt(errs["sol_err"])}


# ---------------------------------------------------------------------------
# Studies


def run_convergence_study(field: PeriodicMatrixField, p: float, r: float,
                          eps_list, data=None, cell_grid=None) -> ConvergenceReport:
    """Solve micro problems along eps and the effective problem once, and
    collect the error functionals. eps_list must be strictly decreasing
    dyadic fractions. The effective branch (cells, tensor, homogenized
    solve) and each micro solve are independent tasks of
    ``workers.run_tasks``; the corrector, the functionals and the partial
    report are formed here, in eps order."""
    eps_list = list(eps_list)
    if not eps_list:
        raise ConfigError("eps list must not be empty")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps list must be strictly decreasing")
    for eps in eps_list:
        if not pde.is_dyadic(eps):
            raise ConfigError(f"eps must be 1/2^m, got {eps}")
    data = {**default_data(field.dim), **(data or {})}
    grid = MacroGrid(dim=field.dim, n_x=data["n_x"], n_t=data["n_t"], T=data["T"])
    regime = cs.regime_for(r, p)
    # the effective solve shares the finest micro substep so that the
    # time-discretization bias cancels where the errors are smallest
    substeps = pde.MicroProblem(field=field, eps=eps_list[-1], r=r, p=p, f=data["f"],
                                u0=data["u0"], grid=grid).auto_substeps()

    def effective():
        tensor, cells = prepare_effective(field, p, r, cell_grid)
        hom_prob = pde.HomogenizedProblem(tensor=tensor, p=p, f=data["f"], u0=data["u0"],
                                          grid=grid, substeps=substeps)
        return tensor, cells, pde.solve_homogenized(hom_prob)

    def micro(eps):
        # the problem is built in the task, so that one rejected for an eps
        # ends the report there, as a failed solve does
        return pde.solve_micro(pde.MicroProblem(field=field, eps=eps, r=r, p=p, f=data["f"],
                                                u0=data["u0"], grid=grid))

    # the effective branch and every micro solve are independent; the
    # finest (longest) micro solve starts first
    outcomes = workers.run_tasks(
        [effective] + [functools.partial(micro, eps) for eps in reversed(eps_list)])
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    tensor, cells, traj_hom = outcomes[0]
    corrector = corrector_gradient(tensor, cells)

    report = ConvergenceReport(
        eps_list=eps_list, p=p, r=r,
        config={"field": field.name, "field_params": field.params, "p": p,
                "r": r, "eps": eps_list, "regime": regime,
                "n_x": grid.n_x, "n_t": grid.n_t, "T": grid.T},
    )
    for eps, traj in zip(eps_list, reversed(outcomes[1:])):
        try:
            if isinstance(traj, Exception):
                raise traj
            errs = _study_errors(traj, traj_hom, corrector, tensor, field, p, r, eps)
        except Exception as err:  # partial reports are allowed
            report.partial = True
            report.cause = f"eps={eps}: {err}"
            break
        for name, val in errs.items():
            getattr(report, name).append(val)
    return report.finalize()


# ---------------------------------------------------------------------------
# Uniform-estimate audit


def audit_uniform_estimates(trajs, p: float, data=None):
    """Check the data-only a priori bounds on every trajectory, within AUDIT_SLACK.

    Both bounds hold at every intermediate time with the integrals taken
    over (0, t), and are checked in that per-step form.
    Energy bound: (1/(p+1)) ||u(t)||_{p+1}^{p+1} + (lam/2) int_0^t ||grad v||^2
    <= (1/(p+1)) ||u0||_{p+1}^{p+1} + (1/(2 lam)) int_0^t ||f||_{H^-1}^2.
    Gradient bound (p < 2): with q = 3-p and nu = 1/(2q),
    (1/q) ||u(t)||_q^q + lam p (2-p) int_0^t ||grad u||^2
    <= nu sup_t ||u||_q^q + C_nu ||f||_{L^1(0,t;L^q)}^q + (1/q) ||u0||_q^q.
    The lam entering both is the field's lower ellipticity constant,
    passed via data["lam"].
    """
    data = dict(data or {})
    if "lam" not in data:
        raise ConfigError("audit needs data['lam'] (lower ellipticity constant)")
    lam = float(data["lam"])
    f = data.get("f") or DEFAULTS["f"]["zero"]
    q = 3.0 - p
    nu = 1.0 / (2.0 * q)
    qp = q / (q - 1.0)  # conjugate of q in the Young step: q' = q/(q-1)
    C_nu = (1.0 / q) * (nu * qp) ** (-q / qp)
    report = {"items": [], "passed": True}
    for traj in trajs:
        grid = traj.grid
        dt, hN = grid.dt, grid.h**grid.dim
        u, v = traj.u_values(), traj.values
        # data-side quantities, cumulative over steps; f takes a scalar t,
        # so it is evaluated once per step
        x = grid.interior_nodes()
        fvals = np.array([np.asarray(f(x, t), dtype=float).ravel() for t in grid.times()[1:]])
        fH1_cum = np.cumsum(np.r_[0.0, dt * pde.hminus1_norm(fvals, grid) ** 2])
        fLq_cum = np.cumsum(np.r_[0.0, dt * pde.lp_norm(fvals, grid, q)])
        # energy bound, checked at every step: for each n,
        # E^n + (lam/2) sum_{m<=n} dt |grad v^m|^2
        #   <= E^0 + (1/(2 lam)) sum_{m<=n} dt ||f^m||_{H^-1}^2
        E = pde.energy_functionals(traj, p)["energy"]
        lhs1 = E + 0.5 * lam * np.cumsum(np.r_[0.0, dt * pde.grad_sq_integral(v[1:], grid)])
        rhs1 = E[0] + fH1_cum / (2.0 * lam)
        # gradient bound for u itself, per step, with the nu sup term kept
        # on the right as in the Young step that produces it:
        # (1/q) ||u^n||_q^q + lam p (2-p) sum_{m<=n} dt |grad u^m|^2
        #   <= nu max_m ||u^m||_q^q + C_nu (sum dt ||f||_q)^q + (1/q)||u0||_q^q
        uq = hN * np.sum(np.abs(u) ** q, axis=1)
        gu2_cum = np.cumsum(np.r_[0.0, dt * pde.grad_sq_integral(u[1:], grid)])
        lhs2 = uq / q + lam * p * (2.0 - p) * gu2_cum
        rhs2 = nu * np.max(uq) + C_nu * fLq_cum**q + uq[0] / q
        # each bound at its worst step
        for bound, lhs, rhs in (("energy", lhs1, rhs1), ("gradient", lhs2, rhs2)):
            n = int(np.argmax(lhs - (1.0 + AUDIT_SLACK) * rhs))
            ok = bool(lhs[n] <= (1.0 + AUDIT_SLACK) * rhs[n])
            report["items"].append({"bound": bound, "lhs": float(lhs[n]),
                                    "rhs": float(rhs[n]), "step": n, "passed": ok})
            report["passed"] = report["passed"] and ok
    return report


# ---------------------------------------------------------------------------
# Output emission


def write_report(report: ConvergenceReport, out_dir, stem="converge",
                 json_mirror=True):
    """Emit CSV, optional JSON mirror, and per-curve two-column .dat files."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    paths.append(csv_path)
    if json_mirror:
        json_path = os.path.join(out_dir, f"{stem}.json")
        with open(json_path, "w") as fh:
            fh.write(report.to_json() + "\n")
        paths.append(json_path)
    for name in report._CURVES:
        vals = getattr(report, name)
        dat = os.path.join(out_dir, f"{stem}_{name}.dat")
        with open(dat, "w") as fh:
            for eps, v in zip(report.eps_list, vals):
                fh.write(f"{eps:.12g} {v:.12g}\n")
        paths.append(dat)
    return paths
