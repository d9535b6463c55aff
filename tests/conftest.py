"""Shared oracles and helpers for the test suite."""

import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oscidiff import cellsolve as cs

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

    The capacity mu and the diffusivity scale kappa are computed here from
    p and u0abs, independently of ``CellParameter``. For the
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
    ops = cs._slice_operators(field, grid)
    n = grid.M_y**field.dim
    M_s = grid.M_s
    c = capacity / grid.h_s
    blocks = [[None] * M_s for _ in range(M_s)]
    for i in range(M_s):
        blocks[i][i] = sp.eye(n) * c + kappa * ops[i].K
        blocks[i][(i - 1) % M_s] = sp.eye(n) * (-c)
    A = sp.bmat(blocks, format="lil")
    rhs = np.concatenate([op.b[k - 1] for op in ops])
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
