"""Shared oracles and helpers for the test suite."""

import math
import os
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oscidiff import cellsolve as cs, effmat as em, pdesolve as pde
from oscidiff.errors import ConfigError, RegimeMismatch

FIXTURE_DIR = os.environ.get(
    "OSCIDIFF_FIXTURES",
    os.path.join(os.path.dirname(__file__), "fixtures"))


def monolithic_critical_solve(field, grid, p, u0abs, k):
    """Direct sparse solve of the full space-time periodic cell system.

    Assembles the same implicit-Euler discretization the marching solver
    steps through, but as one (M_s n + 1) x (M_s n + 1) linear system with
    a Lagrange multiplier enforcing zero mean on slice 0, and solves it in
    one shot. Returns the trajectory with the layout of CellSolution.phi:
    M_s rows, row i the slice at s = i h_s, solved with ops[i].

    The slice matrices K_j and drives b_j come from
    ``sparse_product_operator`` on the sampled cell values, so the oracle
    also checks the stencil build of ``CellOperator``. The capacity mu and
    the diffusivity scale kappa are computed here from p and u0abs,
    independently of ``cellsolve.capacity``. For the
    fast-diffusion branch the unknown is Phi with capacity
    mu = (1/p)|u0|^(1-p). For the porous-medium branch the system is kept
    in its own form, d_s Psi = div_y(a [kappa grad Psi + e_k]) with
    kappa = p|u0|^(p-1), and the returned trajectory is Phi = kappa Psi;
    this checks that the solver's capacity form is that rescaling.
    """
    if p < 1:
        capacity, kappa = (1.0 / p) * u0abs ** (1.0 - p), 1.0
    else:
        capacity, kappa = 1.0, p * u0abs ** (p - 1.0)
    slices = [reference_slice(field, grid, s) for s in grid.slice_times()]
    n = grid.M_y**field.dim
    M_s = grid.M_s
    c = capacity / grid.h_s
    blocks = [[None] * M_s for _ in range(M_s)]
    for i in range(M_s):
        blocks[i][i] = sp.eye(n) * c + kappa * slices[i][0]
        blocks[i][(i - 1) % M_s] = sp.eye(n) * (-c)
    A = sp.bmat(blocks, format="lil")
    rhs = np.concatenate([b[k - 1] for _, b in slices])
    # one global constant in the kernel: pin the mean of slice 0
    ones = np.zeros(M_s * n)
    ones[:n] = 1.0 / n
    A_aug = sp.bmat([[A, ones[:, None]], [ones[None, :], None]], format="csc")
    sol = spla.spsolve(A_aug, np.concatenate([rhs, [0.0]]))[:-1]
    return kappa * sol.reshape(M_s, n)


def _face_difference_matrix(dim, M, d):
    """Sparse D_d: cell values -> face differences / h along direction d.

    Face f(i) separates cell i from cell i + e_d (periodic wrap)."""
    n = M**dim
    idx = np.arange(n).reshape((M,) * dim)
    nb = np.roll(idx, -1, axis=d)
    rows = np.arange(n)
    data = np.concatenate([np.full(n, -M, dtype=float), np.full(n, M, dtype=float)])
    cols = np.concatenate([idx.ravel(), nb.ravel()])
    return sp.csr_matrix((data, (np.concatenate([rows, rows]), cols)), shape=(n, n))


def _centered_matrix(dim, M, d):
    """Sparse centered difference G_d (antisymmetric on the periodic grid)."""
    n = M**dim
    idx = np.arange(n).reshape((M,) * dim)
    up = np.roll(idx, -1, axis=d)
    dn = np.roll(idx, 1, axis=d)
    rows = np.arange(n)
    data = np.concatenate([np.full(n, 0.5 * M), np.full(n, -0.5 * M)])
    cols = np.concatenate([up.ravel(), dn.ravel()])
    return sp.csr_matrix((data, (np.concatenate([rows, rows]), cols)), shape=(n, n))


def sparse_product_operator(a, dim, M, face_avg):
    """Cell operator from sparse difference products, an oracle for the
    stencil build of ``CellOperator``: K = sum_d D_d^T diag(a_f) D_d plus
    G_0^T diag(a12) G_1 + G_1^T diag(a12) G_0, b_k = -D_k^T a_f (minus
    G^T a12 along the other axis) and the identity-coefficient Gram
    sum_d h^N (D_d phi_i) . (D_d phi_j). Returns (K, b, pair_const, gram)
    with gram a function of the list of phis."""
    n = M**dim
    K = sp.csr_matrix((n, n))
    D = [_face_difference_matrix(dim, M, d) for d in range(dim)]
    faces = []
    for d in range(dim):
        add = a[:, d, d].reshape((M,) * dim)
        nbr = np.roll(add, -1, axis=d)
        if face_avg == "geometric":
            af = np.sqrt(add * nbr)
        elif face_avg == "harmonic":
            af = 2.0 * add * nbr / (add + nbr)
        else:
            af = 0.5 * (add + nbr)
        faces.append(af.ravel())
        K = K + D[d].T @ sp.diags(af.ravel()) @ D[d]
    b = [-(D[k].T @ faces[k]) for k in range(dim)]
    pair_const = np.diag([np.mean(af) for af in faces])
    if dim == 2 and np.max(np.abs(a[:, 0, 1])) > 0:
        a12 = a[:, 0, 1]
        G = [_centered_matrix(dim, M, d) for d in range(dim)]
        A12 = sp.diags(a12)
        K = K + G[0].T @ A12 @ G[1] + G[1].T @ A12 @ G[0]
        b = [b[k] - G[1 - k].T @ a12 for k in range(dim)]
        pair_const[0, 1] = pair_const[1, 0] = float(np.mean(a12))

    def gram(phis):
        dphis = [[Dd @ p for Dd in D] for p in phis]
        return np.array([[(1.0 / n) * sum(float(dphis[i][d] @ dphis[j][d]) for d in range(dim))
                          for j in range(len(phis))] for i in range(len(phis))])

    return K.tocsr(), b, pair_const, gram


def reference_slice(field, grid, s):
    """(K, b) of the cell operator at slice time s from
    ``sparse_product_operator`` on the field sampled at the cell centers."""
    y = grid.centers(field.dim)
    K, b, _, _ = sparse_product_operator(field.sample(y, np.full(len(y), float(s))),
                                         field.dim, grid.M_y, grid.face_avg)
    return K, b


def same_band(a, b):
    """True when two ``banded.Band`` hold the same entries, bit for bit."""
    return a.kd == b.kd and np.array_equal(a.rows, b.rows) and np.array_equal(a.values, b.values)


def cell_matrix(op):
    """Dense K of a ``CellOperator`` in cell order, expanded from its band."""
    pos = cs._folded_order(op.dim, op.M)[1]
    return band_csr(op.band).toarray()[np.ix_(pos, pos)]


def band_csr(band):
    """The symmetric matrix of a ``banded.Band`` as a CSR matrix, in the
    band's own numbering, without its zero entries."""
    rows, cols, vals = [], [], []
    for r, diagonal in zip(band.rows, band.values):
        o = band.kd - r
        j = np.arange(o, band.n)
        rows += [j - o, j] if o else [j]
        cols += [j, j - o] if o else [j]
        vals += [diagonal[o:]] * (2 if o else 1)
    K = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(band.n, band.n))
    K.eliminate_zeros()
    return K


def pairing_reference(cells, ops):
    """Row-by-row energy pairing, an oracle for ``effmat.assemble_ahom``.

    For each row r with operator ops[r]: A[j,k] += pair_const[j,k] -
    h^N b_j . phi_k (the flux pairing B(y_j, y_k + phi_k), given
    K phi_k = b_k), the identity-coefficient Gram G[i,j] += h^N sum_d
    D_d phi_i . D_d phi_j of the forward differences
    D_d phi = M(phi[i + e_d] - phi[i]), and the corrector norms
    h^N phi_k . phi_k; each is divided by the number of rows. Returns
    (A, norms, gram)."""
    cells = sorted(cells, key=lambda c: c.k)
    dim, M = cells[0].dim, cells[0].grid.M_y
    hN = 1.0 / M**dim
    up = cs._neighbours(dim, M)[0]
    A, norms, gram = np.zeros((dim, dim)), np.zeros(dim), np.zeros((dim, dim))
    for row, op in enumerate(ops):
        phis = [c.phi[row] for c in cells]
        for j in range(dim):
            for k in range(dim):
                A[j, k] += op.pair_const[j, k] - hN * float(op.b[j] @ phis[k])
        dphis = [[M * p[u] - M * p for u in up] for p in phis]
        for i in range(dim):
            for j in range(dim):
                gram[i, j] += hN * sum(float(dphis[i][d] @ dphis[j][d]) for d in range(dim))
        norms += [hN * float(p @ p) for p in phis]
    m = len(ops)
    return A / m, norms / m, gram / m


def _entries_at_reference(tensor, u0vals):
    """The |u0| look-up with its log keys recomputed per call, x and theta
    clipped and the segment ends gathered per call, an oracle for
    ``EffectiveTensor.entries_at``; one TableClampWarning per clamping call."""
    x = np.log1p(np.abs(np.asarray(u0vals, dtype=float)))
    keys = np.log1p(tensor.u0abs_keys)
    n_out = int(np.sum((x < keys[0] - 1e-15) | (x > keys[-1] + 1e-15)))
    if n_out:
        warnings.warn(f"{n_out} |u0| values clamped to the table hull", em.TableClampWarning)
    x = np.clip(x, keys[0], keys[-1])
    i = np.clip(np.searchsorted(keys, x, side="right") - 1, 0, len(keys) - 2)
    theta = np.clip((x - keys[i]) / (keys[i + 1] - keys[i]), 0.0, 1.0)
    return ((1.0 - theta)[..., None, None] * tensor.matrices[i]
            + theta[..., None, None] * tensor.matrices[i + 1])


def study_errors_reference(traj_eps, traj_hom, corrector, tensor, field, p, r, eps):
    """Step-by-step error functionals, an oracle for ``harness._study_errors``
    (the per-step loop it replaced): all six for one eps (1D grids);
    ``corrector`` is the study's ``corrector_gradient``."""
    grid = traj_eps.grid
    if grid.dim != 1:
        raise RegimeMismatch("error functionals are implemented for 1D studies")
    h, dt = grid.h, grid.dt
    xf = grid.face_points(0)
    n_t = grid.n_t
    sol2 = grad_c2 = flux_c2 = dt2 = grad_p2 = flux_p2 = 0.0
    u_eps = traj_eps.u_values()
    u_hom = traj_hom.u_values()
    hN = h**grid.dim
    for n in range(1, n_t + 1):
        t = n * dt
        v_e, v_0 = traj_eps.values[n], traj_hom.values[n]
        # solution error, L^{p+1}(Omega) per step
        du = u_eps[n] - u_hom[n]
        sol2 += dt * (hN * np.sum(np.abs(du) ** (p + 1.0))) ** (2.0 / (p + 1.0))
        # face gradients and fast-variable samples
        g_e = grid.face_difference(v_e, 0)[:, None]
        g_0 = grid.face_difference(v_0, 0)[:, None]
        y = np.mod(xf / eps, 1.0)
        s = np.mod(t / eps**r, 1.0)
        u0_faces = pde._u_of(grid.face_average(v_0, 0), p)
        corr = corrector(u0_faces, g_0, y, np.full(len(xf), s))
        a_eps = field.sample(y, np.full(len(xf), s))[:, 0, 0][:, None]
        if tensor.is_table:
            ahom_f = _entries_at_reference(tensor, np.abs(u0_faces))[:, 0, 0][:, None]
        else:
            ahom_f = np.full((len(xf), 1), tensor.matrices[0][0, 0])
        defect = g_e - g_0 - corr
        grad_c2 += dt * h * float(np.sum(defect**2))
        grad_p2 += dt * h * float(np.sum((g_e - g_0) ** 2))
        j_eps = a_eps * g_e
        j_hom = ahom_f * g_0
        flux_model = a_eps * (g_0 + corr)
        flux_c2 += dt * h * float(np.sum((j_eps - flux_model) ** 2))
        flux_p2 += dt * h * float(np.sum((j_eps - j_hom) ** 2))
        # time-derivative corrector: H^-1 norm of div of the flux defect
        w = np.diff((j_eps - flux_model)[:, 0]) / h
        dt2 += dt * pde.hminus1_norm(w, grid) ** 2
    return {"sol_err": math.sqrt(sol2), "grad_corr_err": grad_c2,
            "flux_corr_err": flux_c2, "dtime_corr_err": dt2,
            "grad_plain_err": grad_p2, "flux_plain_err": flux_p2}


def audit_reference(trajs, p: float, data=None, slack: float = 0.10):
    """Step-by-step uniform-estimate audit, an oracle for
    ``harness.audit_uniform_estimates`` (the per-step loops it replaced).

    Checks the data-only a priori bounds on every trajectory.

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
    report = {"items": [], "passed": True}
    for traj in trajs:
        grid = traj.grid
        dt, hN = grid.dt, grid.h**grid.dim
        u = traj.u_values()
        v = traj.values
        f = data.get("f")
        times = grid.times()
        # data-side quantities
        u0 = u[0]
        q = 3.0 - p
        n_t = grid.n_t
        if f is None:
            fH1_cum = fLq_cum = np.zeros(n_t + 1)
        else:
            x = grid.interior_nodes()
            fvals = [np.asarray(f(x, t), dtype=float).ravel() for t in times[1:]]
            fH1_cum = np.concatenate(
                [[0.0], np.cumsum([dt * pde.hminus1_norm(fv, grid) ** 2
                                   for fv in fvals])])
            fLq_cum = np.concatenate(
                [[0.0], np.cumsum([dt * pde.lp_norm(fv, grid, q)
                                   for fv in fvals])])
        # energy bound, checked at every step: for each n,
        # E^n + (lam/2) sum_{m<=n} dt |grad v^m|^2
        #   <= E^0 + (1/(2 lam)) sum_{m<=n} dt ||f^m||_{H^-1}^2
        E = np.array([hN * np.sum(np.abs(u[n]) ** (p + 1.0)) / (p + 1.0)
                      for n in range(n_t + 1)])
        gv2_cum = np.concatenate(
            [[0.0], np.cumsum([dt * pde.grad_sq_integral(v[n], grid)
                               for n in range(1, n_t + 1)])])
        lhs1 = E + 0.5 * lam * gv2_cum
        rhs1 = E[0] + fH1_cum / (2.0 * lam)
        n1 = int(np.argmax(lhs1 - (1.0 + slack) * rhs1))
        ok1 = bool(lhs1[n1] <= (1.0 + slack) * rhs1[n1])
        report["items"].append({"bound": "energy", "lhs": float(lhs1[n1]),
                                "rhs": float(rhs1[n1]), "step": n1,
                                "passed": ok1})
        # gradient bound for u itself, per step, with the nu sup term kept
        # on the right as in the Young step that produces it:
        # (1/q) ||u^n||_q^q + lam p (2-p) sum_{m<=n} dt |grad u^m|^2
        #   <= nu max_m ||u^m||_q^q + C_nu (sum dt ||f||_q)^q + (1/q)||u0||_q^q
        nu = 1.0 / (2.0 * q)
        qp = q / (q - 1.0)  # conjugate of q in the Young step: q' = q/(q-1)
        C_nu = (1.0 / q) * (nu * qp) ** (-q / qp)
        uq = np.array([hN * np.sum(np.abs(u[n]) ** q) for n in range(n_t + 1)])
        gu2_cum = np.concatenate(
            [[0.0], np.cumsum([dt * pde.grad_sq_integral(u[n], grid)
                               for n in range(1, n_t + 1)])])
        lhs2 = uq / q + lam * p * (2.0 - p) * gu2_cum
        rhs2 = nu * np.max(uq) + C_nu * fLq_cum**q + uq[0] / q
        n2 = int(np.argmax(lhs2 - (1.0 + slack) * rhs2))
        ok2 = bool(lhs2[n2] <= (1.0 + slack) * rhs2[n2])
        report["items"].append({"bound": "gradient", "lhs": float(lhs2[n2]),
                                "rhs": float(rhs2[n2]), "step": n2,
                                "passed": ok2})
        report["passed"] = report["passed"] and ok1 and ok2
    return report


def l2_cell_time(diff, grid, dim):
    """L2(cell x period) norm of a (M_s, n) slice trajectory difference,
    rectangle rule over its slices."""
    hN = (1.0 / grid.M_y) ** dim
    return float(np.sqrt(grid.h_s * hN * np.sum(diff ** 2)))


@pytest.fixture
def operator_builds(monkeypatch):
    """Counts, while the test runs, of ``CellOperator`` builds from a field
    slice ("slice") and of ``s_averaged_operator`` calls ("average")."""
    built = {"slice": 0, "average": 0}
    init, average = cs.CellOperator.__init__, cs.s_averaged_operator

    def counting_init(self, *args, **kwargs):
        built["slice"] += 1
        init(self, *args, **kwargs)

    def counting_average(*args):
        built["average"] += 1
        return average(*args)

    monkeypatch.setattr(cs.CellOperator, "__init__", counting_init)
    monkeypatch.setattr(cs, "s_averaged_operator", counting_average)
    return built
