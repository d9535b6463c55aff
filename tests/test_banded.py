import numpy as np
import pytest

from conftest import band_csr
from oscidiff import cellsolve as cs, pdesolve as pde
from oscidiff.banded import Band

AXES = {1: [(1,)], 2: [(1, 0), (0, 1)]}
CROSS = [(1, 1), (1, -1)]


def random_stencil(dim, M, offsets, periodic, rng):
    """COO triplets of a random symmetric stencil matrix on an M^dim grid:
    a diagonal in [1, 2] and one weight in [-1, 1] per coupled pair (i, i +
    offset), wrapped when ``periodic`` and dropped past the edge otherwise."""
    n = M**dim
    grid = np.indices((M,) * dim).reshape(dim, n)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [rng.uniform(1.0, 2.0, n)]
    for off in offsets:
        nbr = grid + np.array(off)[:, None]
        inside = np.all((nbr >= 0) & (nbr < M), axis=0) | periodic
        i = np.arange(n)[inside]
        j = np.ravel_multi_index(tuple(nbr[:, inside] % M), (M,) * dim)
        w = rng.uniform(-1.0, 1.0, len(i))
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("dim,cross,M", [(1, False, 9), (1, False, 64), (2, False, 7),
                                         (2, False, 12), (2, True, 7), (2, True, 12)])
def test_matvec_matches_dense_product(dim, cross, M, periodic):
    # periodic cell stencils in folded order, Dirichlet stencils in row-major
    # order; the dense oracle is scattered from the same triplets
    rng = np.random.default_rng(M + 10 * dim + cross)
    offsets = AXES[dim] + (CROSS if cross else [])
    rows, cols, vals = random_stencil(dim, M, offsets, periodic, rng)
    n = M**dim
    order, pos = cs._folded_order(dim, M) if periodic else (np.arange(n), np.arange(n))
    band = Band(rows, cols, vals, pos)
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    for x in rng.standard_normal((3, n)):
        want = (dense @ x)[order]
        assert np.linalg.norm(band.matvec(x[order]) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("a12", [0.0, 0.3])
@pytest.mark.parametrize("n", [8, 13, 48])
def test_operator2d_matvec_is_the_csr_product_bit_for_bit(n, a12):
    # the CSR product sums each row in ascending column order from zero;
    # the 2D Newton residuals, and so the homogenized trajectories, depend
    # on the band product doing the same
    rng = np.random.default_rng(n)
    op = pde.Operator2D(rng.uniform(0.5, 2.0, (n + 1, n)), rng.uniform(0.5, 2.0, (n, n + 1)),
                        1.0 / (n + 1), 0.05, a12=a12)
    K = band_csr(op.band)
    assert K.has_canonical_format
    for x in rng.standard_normal((3, n * n)):
        assert np.array_equal(op.band.matvec(x), K @ x)
        assert np.array_equal(op.matvec(x), 0.05 * (K @ x))
