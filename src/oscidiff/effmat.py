"""Effective (homogenized) diffusion matrices.

The matrix is assembled column by column from cell solutions,
a_hom e_k = integral of a (grad_y Phi_k + e_k) over the space-time cell,
using the discrete energy pairing so that the result inherits the
symmetry and ellipticity structure of the discrete operator. In the
critical regime a_hom depends on the macroscopic solution through
|u0| only, so it is tabulated against a grid of |u0| values and
interpolated linearly in log(1 + |u0|).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import cellsolve as cs
from .errors import (
    BoundViolated,
    ConfigError,
    DimensionMismatch,
    RegimeMismatch,
    SkewFormulaMismatch,
    SymmetryViolated,
)
from .fields import CellGrid, PeriodicMatrixField, mean_ys, read_artifact, write_artifact

AHOM_MAGIC = "oscidiff-ahom v1"
SYMMETRY_TOL = 1e-9
# Allowed violation of the ellipticity sandwich, and the constant C of the
# skew-formula tolerance C (h_y^2 + h_s).
SANDWICH_SLACK = 1e-8
SKEW_TOL_C = 2.0


class TableClampWarning(UserWarning):
    """|u0| fell outside the tabulated hull and was clamped."""


@dataclass(frozen=True)
class EffectiveTensor:
    """Homogenized matrix, constant or tabulated against |u0|.

    ``matrices`` has shape (m, N, N); constant regimes store m = 1 and
    ``u0abs_keys`` is None. ``corrector_norms[i, k]`` is the corrector
    L2 norm integral for entry i and direction k, and ``grad_grams[i]``
    the Gram matrix of corrector gradients used by the ellipticity
    sandwich.
    """

    regime: str
    dim: int
    lam: float
    Lam: float
    matrices: np.ndarray
    corrector_norms: np.ndarray
    grad_grams: np.ndarray
    u0abs_keys: Optional[np.ndarray] = None
    p: Optional[float] = None
    provenance: dict = dc_field(default_factory=dict)

    @property
    def is_table(self):
        return self.u0abs_keys is not None

    @property
    def matrix(self):
        if self.is_table:
            raise RegimeMismatch("tabulated tensor has no single matrix; use entry_at()")
        return self.matrices[0]

    def entry_at(self, u0val):
        """Matrix at one |u0| value: ``entries_at`` at a single point."""
        return self.entries_at(float(u0val))

    def entries_at(self, u0vals):
        """Matrices at the given |u0| values, linear in log(1 + |u0|), shape
        (..., N, N). Values outside the table hull are clamped to it, with
        one TableClampWarning per call."""
        if not self.is_table:
            return np.broadcast_to(self.matrices[0],
                                   np.shape(u0vals) + (self.dim, self.dim))
        x = np.log1p(np.abs(np.asarray(u0vals, dtype=float)))
        keys = np.log1p(self.u0abs_keys)
        n_out = int(np.sum((x < keys[0] - 1e-15) | (x > keys[-1] + 1e-15)))
        if n_out:
            warnings.warn(f"{n_out} |u0| values clamped to the table hull",
                          TableClampWarning, stacklevel=3)
        x = np.clip(x, keys[0], keys[-1])
        i = np.clip(np.searchsorted(keys, x, side="right") - 1, 0, len(keys) - 2)
        theta = np.clip((x - keys[i]) / (keys[i + 1] - keys[i]), 0.0, 1.0)
        return ((1.0 - theta)[..., None, None] * self.matrices[i]
                + theta[..., None, None] * self.matrices[i + 1])


def _slice_ops_for(cells, field, grid, ops=None):
    """Per-slice operators matching the layout of the given cell solutions;
    ``ops`` are prebuilt ``cs._slice_operators(field, grid)``."""
    n_slices = cells[0].phi.shape[0]
    if n_slices == 1:
        if cells[0].regime == "supercritical":
            return [cs.s_averaged_operator(field, grid)], [0]
        return [cs.CellOperator(field, grid, s=0.0)], [0]
    if ops is None:
        ops = cs._slice_operators(field, grid)
    if n_slices == grid.M_s:  # slice-elliptic layout at s = j/M_s
        return [ops[j - 1] for j in range(n_slices)], list(range(n_slices))
    # critical layout: steps target s = j/M_s for j = 1..M_s (wrapped)
    return ops, list(range(1, grid.M_s + 1))


def assemble_ahom(cells, field: PeriodicMatrixField, grid: CellGrid,
                  ops=None) -> EffectiveTensor:
    """Assemble the homogenized matrix from one cell solution per direction.

    ``ops`` are prebuilt ``cs._slice_operators(field, grid)``, used by the
    slice layouts."""
    dim = field.dim
    if len(cells) != dim or sorted(c.k for c in cells) != list(range(1, dim + 1)):
        raise RegimeMismatch(f"need cell solutions for k = 1..{dim}")
    if any(c.regime != cells[0].regime for c in cells):
        raise RegimeMismatch("cell solutions mix regimes")
    if any(c.grid != grid for c in cells):
        raise RegimeMismatch("cell solutions were computed on a different grid")
    cells = sorted(cells, key=lambda c: c.k)
    param = cells[0].param
    if (cells[0].regime == "critical_pme" and param is not None
            and param.u0abs == 0.0):
        # the corrector vanishes and the matrix is the plain average
        A = mean_ys(field, grid)
        return EffectiveTensor(
            regime="critical_pme", dim=dim, lam=field.lam, Lam=field.Lam,
            matrices=A[np.newaxis], corrector_norms=np.zeros((1, dim)),
            grad_grams=np.zeros((1, dim, dim)), p=param.p,
            provenance={"field": field.name, "M_y": grid.M_y, "M_s": grid.M_s,
                        "u0abs": 0.0},
        )
    ops, rows = _slice_ops_for(cells, field, grid, ops)
    hN = 1.0 / (grid.M_y**dim)
    A = np.zeros((dim, dim))
    norms = np.zeros(dim)
    gram = np.zeros((dim, dim))
    for op, row in zip(ops, rows):
        phis = [c.phi[row] for c in cells]
        for j in range(dim):
            for k in range(dim):
                A[j, k] += op.pair_const[j, k] + op.flux_pairing(j, phis[k])
        gram += op.gradient_gram(phis)
        norms += np.array([hN * float(p @ p) for p in phis])
    m = len(ops)
    regime = cells[0].regime
    return EffectiveTensor(
        regime=regime, dim=dim, lam=field.lam, Lam=field.Lam,
        matrices=(A / m)[np.newaxis], corrector_norms=(norms / m)[np.newaxis],
        grad_grams=(gram / m)[np.newaxis],
        p=None if param is None else param.p,
        provenance={"field": field.name, "M_y": grid.M_y, "M_s": grid.M_s,
                    "u0abs": None if param is None else param.u0abs},
    )


def default_u0abs_grid():
    """{0} plus 16 log-spaced values in [1e-3, 10]."""
    return np.concatenate([[0.0], np.logspace(-3, 1, 16)])


def _tabulate_critical(field, grid, p, u0abs_grid=None, keep_cells=True):
    """Critical a_hom table and its cells: (tensor, {|u0| key: cells}).

    With keep_cells=False the cells of each key are dropped once assembled
    and the mapping is empty; holding every key's 2D correctors would
    raise the table's peak memory by the size of all of them."""
    regime = cs.regime_for(2.0, p)
    keys = np.asarray(default_u0abs_grid() if u0abs_grid is None else u0abs_grid, dtype=float)
    if len(keys) < 4 or np.any(np.diff(keys) <= 0) or keys[0] != 0.0:
        raise ConfigError("u0abs grid must be sorted, have >= 4 entries, and include 0")
    ops = cs._slice_operators(field, grid)
    tensors, cells_by_key = [], {}
    for u0 in keys:
        try:
            cells = cs.solve_cells(field, grid, regime, ops=ops,
                                   param=cs.CellParameter(p=p, u0abs=float(u0)))
        except Exception as err:
            wrapped = type(err)(f"u0abs={u0:.6g}: {err}")
            wrapped.__dict__.update(err.__dict__)  # defect, residual, ...
            raise wrapped from err
        tensors.append(assemble_ahom(cells, field, grid, ops=ops))
        if keep_cells:
            cells_by_key[float(u0)] = cells
        del cells  # not held while the next key solves
    tensor = EffectiveTensor(
        regime="critical", dim=field.dim, lam=field.lam, Lam=field.Lam,
        matrices=np.array([t.matrices[0] for t in tensors]),
        corrector_norms=np.array([t.corrector_norms[0] for t in tensors]),
        grad_grams=np.array([t.grad_grams[0] for t in tensors]),
        u0abs_keys=keys, p=p,
        provenance={"field": field.name, "M_y": grid.M_y, "M_s": grid.M_s,
                    "branch": regime},
    )
    return tensor, cells_by_key


def tabulate_ahom_critical(field: PeriodicMatrixField, grid: CellGrid, p: float,
                           u0abs_grid=None, jobs: int = 1) -> EffectiveTensor:
    """Solve the critical cell problems per |u0| entry and tabulate a_hom.

    The M_s slice operators are built once per table and shared by every
    key, direction and assembly; each key factors its M_s step matrices
    once for all directions. The table is built serially; ``jobs`` must
    be 1."""
    if jobs != 1:
        raise ConfigError(f"jobs must be 1 (the |u0| table is built serially), got {jobs}")
    return _tabulate_critical(field, grid, p, u0abs_grid, keep_cells=False)[0]


def ellipticity_report(tensor: EffectiveTensor, n_probes: int = 64, seed: int = 0):
    """Check the refined ellipticity sandwich on random unit directions.

    For each stored matrix M with corrector-gradient Gram G the quantity
    Q(xi) = |xi|^2 + xi.G xi must satisfy lam Q <= M xi.xi <= Lam Q up to
    SANDWICH_SLACK. Returns the minimal slack and its witness.
    """
    lam, Lam = tensor.lam, tensor.Lam
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n_probes, tensor.dim))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    min_slack = np.inf
    witness = None
    for i, (M, G) in enumerate(zip(tensor.matrices, tensor.grad_grams)):
        for xi in probes:
            Q = float(xi @ xi + xi @ G @ xi)
            val = float(xi @ M @ xi)
            lo = val - lam * Q
            hi = Lam * Q - val
            for name, s in (("lower", lo), ("upper", hi)):
                if s < min_slack:
                    min_slack, witness = s, {"entry": i, "xi": xi.copy(),
                                             "bound": name, "slack": s}
            if lo < -SANDWICH_SLACK or hi < -SANDWICH_SLACK:
                raise BoundViolated(
                    f"ellipticity sandwich violated ({witness['bound']} bound, "
                    f"slack {min(lo, hi):.3e}) at entry {i}, xi={xi}"
                )
    return {"min_slack": float(min_slack), "witness": witness,
            "n_matrices": len(tensor.matrices)}


def skew_integral(cells, p: float):
    """Discrete time-coupling integral predicting the skew part at r = 2.

    FDE branch: S[j,k] = mu * sum over steps of <Phi_k^m - Phi_k^{m-1},
    Phi_j^m> h^N; PME branch: the same with Psi in place of Phi and the
    kappa scale. Both equal (a_hom - a_hom^T)/2 up to discretization error.
    """
    dim = cells[0].dim
    cells = sorted(cells, key=lambda c: c.k)
    param = cells[0].param
    if param is None:
        raise RegimeMismatch("skew integral needs critical cell solutions")
    regime, expected = cells[0].regime, cs.regime_for(2.0, p)
    if regime != expected:
        raise RegimeMismatch(
            f"skew integral at p={p} needs {expected} cells, got {regime} cells")
    if regime == "critical_fde":
        scale = param.mu_fde
        fields_ = [c.phi for c in cells]
    else:
        scale = param.kappa_pme
        fields_ = [c.psi if c.psi is not None else c.phi for c in cells]
    hN = 1.0 / (cells[0].grid.M_y**dim)
    S = np.zeros((dim, dim))
    for j in range(dim):
        for k in range(dim):
            F_k, F_j = fields_[k], fields_[j]
            if F_k.shape[0] == 1:  # stationary (s-independent) solutions
                continue
            dF = np.diff(F_k, axis=0)
            S[j, k] = scale * hN * float(np.sum(dF * F_j[1:]))
    return S


def skew_report(tensor: EffectiveTensor, cells=None, p=None, u0abs=None):
    """Symmetry check (non-critical) or skew-formula check (critical)."""
    critical = tensor.regime in ("critical", "critical_fde", "critical_pme")
    if not critical:
        worst = max(float(np.max(np.abs(M - M.T))) for M in tensor.matrices)
        if worst > SYMMETRY_TOL:
            raise SymmetryViolated(
                f"max asymmetry {worst:.3e} exceeds {SYMMETRY_TOL:.1e}")
        return {"mode": "symmetry", "max_asymmetry": worst}
    if cells is None:
        raise RegimeMismatch("critical skew check needs the cell solutions")
    p = tensor.p if p is None else p
    grid = cells[0].grid
    if tensor.is_table:
        if u0abs is None:
            raise RegimeMismatch("tabulated tensor: pass the u0abs of the cells")
        i = int(np.argmin(np.abs(tensor.u0abs_keys - u0abs)))
        M = tensor.matrices[i]
    else:
        M = tensor.matrices[0]
    S = skew_integral(cells, p)
    skew = 0.5 * (M - M.T)
    tol = SKEW_TOL_C * (grid.h_y**2 + grid.h_s)
    mismatch = float(np.max(np.abs(skew - S)))
    if mismatch > tol:
        raise SkewFormulaMismatch(
            f"skew part differs from the time-coupling integral by "
            f"{mismatch:.3e} > tol {tol:.3e}")
    return {"mode": "skew", "skew": skew, "integral": S,
            "mismatch": mismatch, "tol": tol}


def harmonic_mean_oracle_1d(field: PeriodicMatrixField, grid: CellGrid,
                            regime: str, n_quad: int = 1024) -> float:
    """High-resolution quadrature oracle for the 1D effective coefficient.

    classical/subcritical: integral over s of the y-harmonic mean of
    a(., s); supercritical: y-harmonic mean of the s-average. Uses an
    n_quad x n_quad midpoint grid (about 1e6 points by default),
    independent of the cell solver.
    """
    if field.dim != 1:
        raise DimensionMismatch("1D oracle needs a one-dimensional field")
    y = ((np.arange(n_quad) + 0.5) / n_quad)[:, np.newaxis]
    if regime == "classical" or field.s_independent:
        vals = field.sample(y, np.zeros(n_quad))[..., 0, 0]
        return float(1.0 / np.mean(1.0 / vals))
    svals = (np.arange(n_quad) + 0.5) / n_quad
    if regime == "subcritical":
        acc = 0.0
        for sj in svals:
            vals = field.sample(y, np.full(n_quad, sj))[..., 0, 0]
            acc += 1.0 / np.mean(1.0 / vals)
        return float(acc / n_quad)
    if regime == "supercritical":
        acc = np.zeros(n_quad)
        for sj in svals:
            acc += field.sample(y, np.full(n_quad, sj))[..., 0, 0]
        acc /= n_quad
        return float(1.0 / np.mean(1.0 / acc))
    raise ConfigError(f"no 1D oracle for regime {regime!r}")


# ---------------------------------------------------------------------------
# Serialization ("oscidiff-ahom v1") and CSV export


def save_tensor(path, tensor: EffectiveTensor):
    keys = "none" if not tensor.is_table else ",".join(
        f"{k:.17g}" for k in tensor.u0abs_keys)
    meta = {"regime": tensor.regime, "N": tensor.dim,
            "p": float("nan") if tensor.p is None else tensor.p,
            "lam": tensor.lam, "Lam": tensor.Lam, "m": len(tensor.matrices), "keys": keys}
    blocks = [np.vstack([M, nrm, G]) for M, nrm, G in zip(
        tensor.matrices, tensor.corrector_norms, tensor.grad_grams)]
    write_artifact(path, AHOM_MAGIC, meta, np.vstack(blocks))


def load_tensor(path) -> EffectiveTensor:
    meta, rows = read_artifact(path, AHOM_MAGIC, ("regime", "N", "p", "lam", "Lam", "m", "keys"))
    dim, m = int(meta["N"]), int(meta["m"])
    per = 2 * dim + 1
    if rows.shape != (m * per, dim):
        raise ConfigError(f"{path}: expected {m * per} rows x {dim} cols, got {rows.shape}")
    blocks = rows.reshape(m, per, dim)
    keys = None if meta["keys"] == "none" else np.array(
        [float(v) for v in meta["keys"].split(",")])
    p = float(meta["p"])
    return EffectiveTensor(
        regime=meta["regime"], dim=dim, lam=float(meta["lam"]),
        Lam=float(meta["Lam"]), matrices=blocks[:, :dim],
        corrector_norms=blocks[:, dim], grad_grams=blocks[:, dim + 1:],
        u0abs_keys=keys, p=None if np.isnan(p) else p,
    )


def export_table_csv(path, tensor: EffectiveTensor):
    """CSV with one row per table entry (or the single constant matrix)."""
    dim = tensor.dim
    cols = [f"a{i + 1}{j + 1}" for i in range(dim) for j in range(dim)]
    with open(path, "w") as fh:
        fh.write("u0abs," + ",".join(cols) + "\n")
        keys = tensor.u0abs_keys if tensor.is_table else [float("nan")]
        for key, M in zip(keys, tensor.matrices):
            fh.write(f"{key:.12g}," + ",".join(f"{v:.12g}" for v in M.ravel()) + "\n")

