"""Periodic coefficient fields and the grids they live on.

A coefficient field is a symmetric, uniformly elliptic matrix-valued
function a(y, s) on the unit cell (0,1)^N x (0,1), extended periodically.
Evaluators are pure and vectorized; all arguments are wrapped to the cell
before evaluation, so sampling a(x/eps, t/eps^r) is total.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import AsymmetricCoefficient, ConfigError, EllipticityViolation

FILE_MAGIC = "oscidiff-field v1"
ELLIPTICITY_PROBES = 4096  # the probe points of ``validate_ellipticity``, one sample call
DS_PROBE_CELLS = 64  # cell centers per axis at which ``sup_ds_inf`` probes y
DS_STEP = 1e-6  # the central-difference step of ``sup_ds_inf``


@dataclass(frozen=True)
class PeriodicMatrixField:
    """Symmetric matrix field a(y,s) on the unit cell, with ellipticity data.

    ``entries(y, s)`` receives ``y`` of shape (..., dim) and ``s`` of shape
    (...), both already wrapped to [0,1), and returns shape (..., dim, dim).
    """

    dim: int
    entries: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lam: float
    Lam: float
    s_independent: bool = False
    name: str = "anonymous"
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        if not (0.0 < self.lam <= self.Lam < math.inf):
            raise ConfigError(f"need 0 < lambda <= Lambda < inf, got ({self.lam}, {self.Lam})")

    def sample(self, y, s):
        """Evaluate a at (y, s), wrapping both arguments into the unit cell."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape[-1] != self.dim:
            if self.dim == 1:
                y = y[..., np.newaxis]
            else:
                raise ConfigError(f"y has trailing size {y.shape[-1]}, expected {self.dim}")
        s = np.broadcast_to(np.asarray(s, dtype=float), y.shape[:-1])
        return self.entries(np.mod(y, 1.0), np.mod(s, 1.0))

    def sup_ds_inf(self, s):
        """sup over sampled y of the max-norm of d/ds a(y, s), by central
        differences, at each value of the 1D array s, in one sampling call."""
        if self.s_independent:
            return np.zeros(len(s))
        a = sample_grid(self, _cell_centers(self.dim, DS_PROBE_CELLS),
                        np.concatenate([s + DS_STEP, s - DS_STEP]))
        da = (a[:len(s)] - a[len(s):]) / (2.0 * DS_STEP)
        return np.max(np.sum(np.abs(da), axis=-1), axis=(1, 2))


@dataclass(frozen=True)
class CellGrid:
    """Uniform periodic grid on the unit cell (0,1)^N x (0,1).

    Cell centers sit at (i + 1/2) h_y; time slices at j h_s. The cell
    operator has one face mean, the geometric one (``cellsolve``).
    """

    M_y: int
    M_s: int

    def __post_init__(self):
        if self.M_y < 4:
            raise ConfigError(f"M_y must be >= 4, got {self.M_y}")
        if self.M_s < 2:
            raise ConfigError(f"M_s must be >= 2, got {self.M_s}")

    @property
    def h_y(self):
        return 1.0 / self.M_y

    @property
    def h_s(self):
        return 1.0 / self.M_s

    def centers(self, dim):
        """Cell-center coordinates, shape (M_y**dim, dim), y1 varying slowest."""
        return _cell_centers(dim, self.M_y)

    def slice_times(self):
        """Time-slice nodes j * h_s for j = 0..M_s-1."""
        return np.arange(self.M_s) * self.h_s


@dataclass(frozen=True)
class MacroGrid:
    """Tensor grid on Omega = (0,1)^N with n_x interior points per direction
    and n_t implicit time steps on (0, T). Homogeneous Dirichlet boundary."""

    dim: int
    n_x: int
    n_t: int
    T: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        if self.n_x < 8:
            raise ConfigError(f"n_x must be >= 8, got {self.n_x}")
        if self.n_t < 4:
            raise ConfigError(f"n_t must be >= 4, got {self.n_t}")
        if not self.T > 0:
            raise ConfigError(f"T must be positive, got {self.T}")

    @property
    def h(self):
        return 1.0 / (self.n_x + 1)

    @property
    def dt(self):
        return self.T / self.n_t

    def interior_nodes(self):
        """Interior node coordinates, shape (n_x**dim, dim), x1 varying slowest."""
        return _mesh(*[np.arange(1, self.n_x + 1) * self.h] * self.dim)

    # Face layer. The faces normal to axis d sit halfway between neighbouring
    # nodes along d, boundary nodes included, so face i along d separates
    # node i from node i + 1 (nodes 0 and n_x + 1 carry the boundary value 0).

    def face_shape(self, d):
        """Shape of face data normal to axis d: n_x + 1 along d, n_x elsewhere."""
        return tuple(self.n_x + (i == d) for i in range(self.dim))

    def face_points(self, d):
        """Face midpoints normal to axis d, shape (prod(face_shape(d)), dim),
        in the row-major order of ``face_shape(d)``."""
        x_node = np.arange(1, self.n_x + 1) * self.h
        x_face = (np.arange(self.n_x + 1) + 0.5) * self.h
        return _mesh(*(x_face if i == d else x_node for i in range(self.dim)))

    def _padded(self, v, d):
        """Node vectors v of shape (..., n_x**dim), as (..., n_x, ...) node
        arrays padded along axis d with the zero boundary values."""
        nodes = np.asarray(v)
        nodes = nodes.reshape(nodes.shape[:-1] + (self.n_x,) * self.dim)
        shape = list(nodes.shape)
        shape[d - self.dim] += 2
        padded = np.zeros(shape, dtype=nodes.dtype)
        padded[(..., slice(1, -1)) + (slice(None),) * (self.dim - 1 - d)] = nodes
        return padded

    def face_average(self, v, d):
        """Mean of the two node values adjacent to each face normal to d, for
        node vectors of shape (..., n_x**dim): shape (..., *face_shape(d))."""
        ve, tail = self._padded(v, d), (slice(None),) * (self.dim - 1 - d)
        return 0.5 * (ve[(..., slice(None, -1)) + tail] + ve[(..., slice(1, None)) + tail])

    def face_difference(self, v, d):
        """Difference quotient (v_{i+1} - v_i)/h across each face normal to d,
        with the shapes of ``face_average``."""
        return np.diff(self._padded(v, d), axis=d - self.dim) / self.h

    def times(self):
        """Step times t^n for n = 0..n_t (t^0 = 0)."""
        return np.arange(self.n_t + 1) * self.dt


def _mesh(*axes):
    """Points of the tensor grid of the 1D ``axes``, shape
    (prod of their lengths, len(axes)), the first axis varying slowest."""
    return np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _cell_centers(dim, m):
    return _mesh(*[(np.arange(m) + 0.5) / m] * dim)


def sample_grid(field, y, s):
    """a at every pair (y[i], s[j]) in one ``field.sample`` call, shape
    (len(s), len(y), dim, dim)."""
    return field.sample(np.broadcast_to(y, (len(s),) + y.shape), np.asarray(s)[:, np.newaxis])


# ---------------------------------------------------------------------------
# Operations


def validate_ellipticity(field: PeriodicMatrixField):
    """Probe the Rayleigh quotient at quasi-random (y, s, xi) triples.

    The probes are the first ELLIPTICITY_PROBES points of the additive-recurrence
    (R_d, Kronecker) sequence frac(x0 + n alpha) in the unit cube of
    dimension D = 2 dim + 1: alpha_i = g^-i (i = 1..D) with g the positive
    root of g^(D+1) = g + 1, and the offset x0 drawn from
    ``np.random.default_rng(0)``.
    Returns {"lambda_est", "Lambda_est"}; raises AsymmetricCoefficient or
    EllipticityViolation (with a witness point) if the declared constants
    are not respected within 1e-12.
    """
    d = field.dim
    D = 2 * d + 1
    g = 2.0
    for _ in range(64):  # the fixed point of g = (1 + g)^(1/(D + 1)), a contraction
        g = (1.0 + g) ** (1.0 / (D + 1))
    alpha = g ** -np.arange(1.0, D + 1)
    x0 = np.random.default_rng(0).random(D)
    pts = np.mod(x0 + np.arange(1, ELLIPTICITY_PROBES + 1)[:, None] * alpha, 1.0)
    y = pts[:, :d]
    s = pts[:, d]
    xi = pts[:, d + 1:] - 0.5
    # avoid near-zero probe vectors
    norms = np.linalg.norm(xi, axis=1)
    bad = norms < 1e-3
    xi[bad] = np.eye(d)[0]
    norms = np.linalg.norm(xi, axis=1)
    xi = xi / norms[:, np.newaxis]

    a = field.sample(y, s)
    asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
    worst = int(np.argmax(asym))
    if asym[worst] > 1e-12:
        raise AsymmetricCoefficient(
            f"asymmetry {asym[worst]:.3e} at y={y[worst]}, s={s[worst]:.6f}"
        )

    rq = np.einsum("ni,nij,nj->n", xi, a, xi)
    lo, hi = int(np.argmin(rq)), int(np.argmax(rq))
    for i, violated, bound in ((lo, rq[lo] < field.lam - 1e-12, f"< lambda={field.lam}"),
                               (hi, rq[hi] > field.Lam + 1e-12, f"> Lambda={field.Lam}")):
        if violated:
            raise EllipticityViolation(
                f"Rayleigh quotient {rq[i]:.12f} {bound} at y={y[i]}, s={s[i]:.6f}, xi={xi[i]}",
                witness=(y[i].copy(), float(s[i]), xi[i].copy()),
            )
    return {"lambda_est": float(rq[lo]), "Lambda_est": float(rq[hi])}


def mean_ys(field: PeriodicMatrixField, grid: CellGrid):
    """Midpoint-rule average of a over the space-time cell: the means over y
    at the midpoints in s, summed in s order (``np.sum`` would pair them)."""
    means = np.mean(sample_grid(field, grid.centers(field.dim),
                                (np.arange(grid.M_s) + 0.5) * grid.h_s), axis=1)
    return np.cumsum(means, axis=0)[-1] / grid.M_s


# ---------------------------------------------------------------------------
# Built-in analytic fields


def constant_field(matrix):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.shape[0] != matrix.shape[1]:
        raise ConfigError("constant field needs a square matrix")
    if np.max(np.abs(matrix - matrix.T)) > 0:
        raise ConfigError("constant field matrix must be symmetric")
    eig = np.linalg.eigvalsh(matrix)
    dim = matrix.shape[0]

    def entries(y, s):
        return np.broadcast_to(matrix, y.shape[:-1] + (dim, dim)).copy()

    return PeriodicMatrixField(
        dim=dim, entries=entries, lam=float(eig[0]), Lam=float(eig[-1]),
        s_independent=True, name="constant", params={"matrix": matrix.tolist()},
    )


def _diagonal_field(dim, diagonal, **kw):
    """Field a(y, s) = diag(diagonal(y, s)): ``diagonal`` returns the dim
    diagonal entries, each of the shape of s; ``kw`` are the remaining
    ``PeriodicMatrixField`` attributes."""

    def entries(y, s):
        out = np.zeros(y.shape[:-1] + (dim, dim))
        for d, value in enumerate(diagonal(y, s)):
            out[..., d, d] = value
        return out

    return PeriodicMatrixField(dim=dim, entries=entries, **kw)


def _trig_field(name, dim, swing, base, amp, scale, s_independent, **flags):
    """Diagonal field with entries scale * (base + w) for the w in
    swing(y, s), each |w| <= |amp|, so lambda = scale (base - |amp|) and
    Lambda = scale (base + |amp|); ``flags`` join the params."""
    if not base - abs(amp) > 0:
        raise ConfigError(f"{name} needs base > |amp| for ellipticity")
    return _diagonal_field(
        dim, lambda y, s: [scale * (base + w) for w in swing(y, s)],
        lam=scale * (base - abs(amp)), Lam=scale * (base + abs(amp)),
        s_independent=s_independent, name=name,
        params={"base": base, "amp": amp, "scale": scale, **flags},
    )


def trig_field_1d(base=2.0, amp=1.0, scale=0.25):
    """1D scalar a(y) = scale * (base + amp * sin(2 pi y)); s-independent."""
    return _trig_field("trig1d", 1, lambda y, s: [amp * np.sin(math.tau * y[..., 0])],
                       base, amp, scale, s_independent=True)


def trig_field_1d_st(base=2.0, amp=1.0, scale=0.25):
    """1D scalar a(y,s) = scale * (base + amp * sin(2 pi y) cos(2 pi s))."""
    return _trig_field(
        "trig1d_st", 1, lambda y, s: [amp * (np.sin(math.tau * y[..., 0]) * np.cos(math.tau * s))],
        base, amp, scale, s_independent=False)


def laminate_field_2d(base=2.0, amp=1.0, scale=0.25, s_dependent=False):
    """2D laminate alpha(y1[, s]) * I; separates in y for oracle checks.

    alpha = scale * (base + amp sin(2 pi y1) [cos(2 pi s) if s_dependent])
    """

    def swing(y, s):
        osc = np.sin(math.tau * y[..., 0])
        w = amp * (osc * np.cos(math.tau * s) if s_dependent else osc)
        return [w, w]

    return _trig_field("laminate2d", 2, swing, base, amp, scale,
                       s_independent=not s_dependent, s_dependent=s_dependent)


def trig_field_2d_st(base=2.0, amp=1.0, scale=0.25, s_dependent=True):
    """Genuinely 2D (non-laminate) diagonal field.

    a = scale * diag(base + amp sin(2 pi y1) cos(2 pi y2) c(s),
                     base + amp cos(2 pi y1) sin(2 pi y2) c(s + 1/4))
    with c = cos(2 pi .), or c = 1 without s_dependent. Diagonal entries
    stay inside [lam, Lam].
    """

    def swing(y, s):
        c1 = np.cos(math.tau * s) if s_dependent else 1.0
        c2 = np.cos(math.tau * (s + 0.25)) if s_dependent else 1.0
        return [amp * np.sin(math.tau * y[..., 0]) * np.cos(math.tau * y[..., 1]) * c1,
                amp * np.cos(math.tau * y[..., 0]) * np.sin(math.tau * y[..., 1]) * c2]

    return _trig_field("trig2d_st", 2, swing, base, amp, scale,
                       s_independent=not s_dependent, s_dependent=s_dependent)


def checkerboard_field_2d(low=0.25, high=0.75, sharpness=4.0):
    """Smoothed checkerboard: scalar between low and high, tanh profile,
    alpha = mid + half tanh(sharpness sin(2 pi y1) sin(2 pi y2)) times I
    with mid = (low + high)/2 and half = (high - low)/2."""
    if not 0 < low < high:
        raise ConfigError("checkerboard2d needs 0 < low < high")
    mid, half = 0.5 * (low + high), 0.5 * (high - low)

    def diagonal(y, s):
        patt = np.sin(math.tau * y[..., 0]) * np.sin(math.tau * y[..., 1])
        alpha = mid + half * np.tanh(sharpness * patt)
        return [alpha, alpha]

    return _diagonal_field(
        2, diagonal, lam=low, Lam=high, s_independent=True, name="checkerboard2d",
        params={"low": low, "high": high, "sharpness": sharpness},
    )


_BUILTINS = {
    "constant": constant_field,
    "trig1d": trig_field_1d,
    "trig1d_st": trig_field_1d_st,
    "laminate2d": laminate_field_2d,
    "trig2d_st": trig_field_2d_st,
    "checkerboard2d": checkerboard_field_2d,
}


def finite_number(where, value, kind=float):
    """``kind(value)`` for a JSON number (not a bool or a string) that is
    finite and, for ``kind`` int, integral; the one rule for numeric config
    values, builtin field parameters included."""
    try:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and (kind is float or value == int(value))):
            return kind(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ConfigError(f"{where}={value!r}: expected "
                      + ("a finite number" if kind is float else "an integer"))


def check_p(p):
    """ConfigError unless 0 < p < 2: the one rule for p, of every problem."""
    if not 0 < p < 2:
        raise ConfigError(f"p must lie in (0,2), got {p}")


def make_field(name, **params):
    """Instantiate a built-in field by name. Each parameter is checked by the
    kind of its default: a float by ``finite_number``, a flag as a bool,
    ``constant``'s ``dim`` as an integer and every entry of its ``matrix`` by
    ``finite_number``."""
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ConfigError(f"unknown builtin field {name!r}; choices: {sorted(_BUILTINS)}")
    factory = _BUILTINS[name]
    defaults = {k: p.default for k, p in inspect.signature(factory).parameters.items()}
    if name == "constant":
        defaults["dim"] = 1
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"builtin field {name!r} has no parameter {unknown[0]!r}; "
                          f"choices: {sorted(defaults)}")
    for key, value in params.items():
        where, kind = f"builtin field {name!r}: parameter {key}", type(defaults[key])
        if kind is bool and not isinstance(value, bool):
            raise ConfigError(f"{where}={value!r}: expected true or false")
        if kind in (int, float):
            finite_number(where, value, kind)
    kwargs = dict(params)
    if "matrix" in kwargs:  # constant's: a square list of finite numbers
        where, rows = f"builtin field {name!r}: parameter matrix", kwargs["matrix"]
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        if not (isinstance(rows, list) and rows
                and all(isinstance(row, list) and len(row) == len(rows) for row in rows)):
            raise ConfigError(f"{where}={rows!r}: expected a square list of rows")
        kwargs["matrix"] = [[finite_number(f"{where}[{i}][{j}]", value)
                             for j, value in enumerate(row)] for i, row in enumerate(rows)]
    try:
        if name == "constant" and "matrix" not in kwargs:
            kwargs["matrix"] = np.eye(int(kwargs.pop("dim", 1)))
        return factory(**kwargs)
    except (TypeError, ValueError) as err:
        # np.eye raises these for a negative dim, the factory for matrix and
        # dim given together
        given = ", ".join(f"{k}={v!r}" for k, v in params.items())
        raise ConfigError(f"builtin field {name!r}: bad parameter value ({given}): {err}"
                          ) from None


# ---------------------------------------------------------------------------
# Text artifacts: one header line "<magic> key=value ...", then a numeric body


def write_artifact(path, magic, meta, body):
    """Write an artifact: the header (numbers as %.17g, strings verbatim),
    then the rows of ``body`` as %.17g."""
    tokens = [f"{k}={v if isinstance(v, str) else format(v, '.17g')}"
              for k, v in meta.items()]
    with open(path, "w") as fh:
        fh.write(" ".join([magic] + tokens) + "\n")
        np.savetxt(fh, body, fmt="%.17g")


def float_list(text):
    """The numbers of a comma-separated header value, as an array."""
    return np.array([float(v) for v in text.split(",")])


def read_artifact(path, magic, kinds):
    """Read an artifact written by ``write_artifact``: (meta, body), the
    header's key=value tokens, those of ``kinds`` converted by their kind
    (such as ``int`` or ``float_list``), and the body as a 2D array. Raises
    ConfigError naming the path for a wrong magic, a token without '=', a
    key of ``kinds`` missing or of a value its kind refuses, or a body that
    is not a table of numbers."""
    with open(path) as fh:
        header = fh.readline().split()
        if " ".join(header[:2]) != magic:
            raise ConfigError(f"{path}: bad magic {' '.join(header[:2])!r}")
        meta = {}
        for token in header[2:]:
            kv = token.split("=")
            if len(kv) != 2:
                raise ConfigError(f"{path}: header token {token!r} is not key=value")
            meta[kv[0]] = kv[1]
        for key, kind in kinds.items():
            if key not in meta:
                raise ConfigError(f"{path}: header lacks key {key!r}")
            try:
                meta[key] = kind(meta[key])
            except ValueError as err:
                raise ConfigError(f"{path}: header key {key!r} has a bad value "
                                  f"{meta[key]!r}: {err}") from None
        try:
            return meta, np.loadtxt(fh, ndmin=2)
        except ValueError as err:
            raise ConfigError(f"{path}: body is not a table of numbers: {err}") from None


class PeriodicInterpolant:
    """Multilinear interpolation of nodal data, periodic in y and in s.

    ``values`` has shape (n_s,) + (M_y,) * dim + value shape. The y nodes
    sit at (i + y_offset)/M_y, the s nodes at j h_s with h_s = 1/n_s, so
    they cover one period and s wraps. A single s node makes the data
    s-independent."""

    def __init__(self, values, dim, y_offset=0.0):
        self.vals = np.asarray(values)
        self.dim, self.M = dim, self.vals.shape[1]
        self.h_s, self.y_offset = 1.0 / len(self.vals), y_offset

    def __call__(self, y, s):
        """Interpolate at y of shape (..., dim) and s broadcastable to (...)."""
        y = np.asarray(y, dtype=float)
        s = np.broadcast_to(np.asarray(s, dtype=float), y.shape[:-1])
        M = self.M
        yy = np.mod(y, 1.0) * M - self.y_offset
        i0 = np.floor(yy).astype(int)
        fy = yy - i0
        i0 = np.mod(i0, M)
        ns = len(self.vals)
        if ns == 1:
            j0 = np.zeros(s.shape, dtype=int)
            j1 = j0
            fs = np.zeros(s.shape)
        else:
            jj = np.mod(s, 1.0) / self.h_s
            j0 = np.floor(jj).astype(int) % ns
            fs = jj - np.floor(jj)
            j1 = (j0 + 1) % ns
        trail = (1,) * (self.vals.ndim - 1 - self.dim)
        out = np.zeros(y.shape[:-1] + self.vals.shape[1 + self.dim:])
        corners = [(0,), (1,)] if self.dim == 1 else [(0, 0), (0, 1), (1, 0), (1, 1)]
        for corner in corners:
            w = np.ones(y.shape[:-1])
            idx = []
            for d, c in enumerate(corner):
                w = w * (fy[..., d] if c else 1.0 - fy[..., d])
                idx.append((i0[..., d] + c) % M)
            out += (w * (1.0 - fs)).reshape(w.shape + trail) * self.vals[(j0,) + tuple(idx)]
            out += (w * fs).reshape(w.shape + trail) * self.vals[(j1,) + tuple(idx)]
        return out


# ---------------------------------------------------------------------------
# Gridded fields ("oscidiff-field v1")


def save_gridded(path, field: PeriodicMatrixField, grid: CellGrid):
    """Sample a field at grid nodes (i/M_y, j/M_s) and write the v1 format."""
    dim = field.dim
    a = sample_grid(field, _mesh(*[np.arange(grid.M_y) / grid.M_y] * dim),
                    np.arange(grid.M_s) / grid.M_s)
    # rows run over y (y1 slowest), then s; columns are the lower triangle
    i, j = np.tril_indices(dim)
    rows = np.swapaxes(a, 0, 1)[..., i, j].reshape(-1, len(i))
    write_artifact(path, FILE_MAGIC, {"N": dim, "My": grid.M_y, "Ms": grid.M_s}, rows)


def load_gridded(path):
    """Load a gridded field; values interpolate linearly and periodically."""
    meta, raw = read_artifact(path, FILE_MAGIC, {"N": int, "My": int, "Ms": int})
    dim, My, Ms = meta["N"], meta["My"], meta["Ms"]
    i, j = np.tril_indices(dim)
    expected = My**dim * Ms
    if raw.shape != (expected, len(i)):
        raise ConfigError(f"{path}: expected {expected} rows x {len(i)} cols, got {raw.shape}")
    # the lower triangle, completed by symmetry
    full = np.zeros((expected, dim, dim))
    full[:, i, j] = full[:, j, i] = raw
    eigs = np.linalg.eigvalsh(full)
    lam, Lam = float(eigs.min()), float(eigs.max())
    if lam <= 0:
        raise ConfigError(f"{path}: gridded field is not positive definite (min eig {lam})")
    # rows run over y (y1 slowest), then s; the interpolant wants s first
    table = np.moveaxis(full.reshape(([My] * dim) + [Ms, dim, dim]), dim, 0)
    warnings.warn("field is only tagged continuous; corrector statements assume "
                  "Hoelder regularity in y (and smoothness at the critical ratio), "
                  "which cannot be verified for a black-box evaluator", stacklevel=2)
    return PeriodicMatrixField(
        dim=dim, entries=PeriodicInterpolant(table, dim), lam=lam, Lam=Lam,
        s_independent=(Ms == 1), name=f"gridded:{path}",
    )
