import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import l2_cell_time, monolithic_critical_solve, sparse_product_operator
from oscidiff import cellsolve as cs, effmat as em
from oscidiff.errors import (ConfigError, EllipticityViolation, PeriodicityNotReached,
                             SolverDiverged)
from oscidiff.fields import CellGrid, make_field

STEP_FIELDS = [("trig1d_st", {}), ("trig2d_st", {}),
               ("constant", {"matrix": [[2.0, 0.7], [0.7, 1.0]]})]


def face_flux_1d(field, sol, slice_idx):
    """Discrete face flux a_f (dPhi + 1) of a 1D cell solution, one slice."""
    grid = sol.grid
    h = 1.0 / grid.M_y
    y = (np.arange(grid.M_y)[:, None] + 0.5) / grid.M_y
    s = sol.s_nodes[slice_idx] % 1.0
    a = field.sample(y, np.full(grid.M_y, s))[:, 0, 0]
    af = np.sqrt(a * np.roll(a, -1))  # geometric face mean
    phi = sol.phi[slice_idx] if sol.phi.ndim == 2 else sol.phi
    dphi = (np.roll(phi, -1) - phi) / h
    return af * (dphi + 1.0)


def test_regime_for():
    assert cs.regime_for(1.0, 0.5) == "subcritical"
    assert cs.regime_for(3.0, 0.5) == "supercritical"
    assert cs.regime_for(2.0, 0.5) == "critical_fde"
    assert cs.regime_for(2.0, 1.5) == "critical_pme"
    with pytest.raises(ConfigError):
        cs.regime_for(2.0, 1.0)


def test_classical_identity_field_zero_corrector():
    sol = cs.solve_classical_cell(make_field("constant", matrix=np.eye(1)),
                                  CellGrid(M_y=32, M_s=4), k=1)
    assert np.max(np.abs(sol.phi)) <= 1e-10


def test_classical_1d_closed_form_gradient():
    # a(y) = (2+sin 2 pi y)/4 gives flux c = <1/a>^-1 = sqrt(3)/4 and
    # Phi'(y) = c/a(y) - 1
    field = make_field("trig1d")
    grid = CellGrid(M_y=128, M_s=4)
    sol = cs.solve_classical_cell(field, grid, k=1)
    c = np.sqrt(3.0) / 4.0
    flux = face_flux_1d(field, sol, 0)
    assert np.max(np.abs(flux - flux[0])) < 1e-9  # flux constant in y
    assert abs(flux[0] - c) < 2e-4  # O(h^2) against the closed form


def test_classical_grid_convergence_order():
    field = make_field("trig1d")
    c = np.sqrt(3.0) / 4.0
    errs = []
    for M in (16, 32, 64, 128):
        sol = cs.solve_classical_cell(field, CellGrid(M_y=M, M_s=4), k=1)
        errs.append(abs(face_flux_1d(field, sol, 0)[0] - c))
    order = np.polyfit(np.log([16, 32, 64, 128]), np.log(errs), 1)[0]
    assert -order >= 1.9


def test_laminate_2d_separates():
    field2 = make_field("laminate2d")
    field1 = make_field("trig1d")  # the laminate profile along y1
    grid2 = CellGrid(M_y=32, M_s=4)
    sol1 = cs.solve_classical_cell(field2, grid2, k=1)
    sol2 = cs.solve_classical_cell(field2, grid2, k=2)
    ref = cs.solve_classical_cell(field1, CellGrid(M_y=32, M_s=4), k=1)
    phi1 = sol1.phi[0].reshape(32, 32)
    assert np.max(np.abs(sol2.phi)) <= 1e-10  # transverse corrector vanishes
    assert np.max(np.abs(phi1 - phi1[:, :1])) <= 1e-10  # depends on y1 only
    assert np.max(np.abs(phi1[:, 0] - ref.phi[0])) <= 1e-9


def test_subcritical_slices_and_flux_identity():
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=64, M_s=16)
    sol = cs.solve_subcritical_cell(field, grid, k=1)
    for j in range(grid.M_s):
        s = sol.s_nodes[j]
        c_s = 0.25 * np.sqrt(4.0 - np.cos(2 * np.pi * s) ** 2)
        flux = face_flux_1d(field, sol, j)
        assert np.max(np.abs(flux - flux[0])) < 1e-9
        assert abs(flux[0] - c_s) < 1e-3


def test_supercritical_trig_field_zero_corrector():
    # the s-average of trig1d_st is the constant 1/2
    sol = cs.solve_supercritical_cell(make_field("trig1d_st"),
                                      CellGrid(M_y=32, M_s=32), k=1)
    assert np.max(np.abs(sol.phi)) <= 1e-10


def test_zero_mean_and_periodicity_invariants():
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=16, M_s=16)
    for regime, param in [("subcritical", None),
                          ("critical_fde", cs.CellParameter(p=0.5, u0abs=1.0)),
                          ("critical_pme", cs.CellParameter(p=1.5, u0abs=1.0))]:
        (sol,) = cs.solve_cells(field, grid, regime, param=param)
        assert sol.mean_defect() <= 1e-10
        assert sol.periodic_defect <= 1e-10


def test_regime_consistency_s_independent():
    field = make_field("trig1d")
    grid = CellGrid(M_y=32, M_s=8)
    ref = cs.solve_classical_cell(field, grid, k=1).phi[0]
    sols = [
        cs.solve_subcritical_cell(field, grid, k=1),
        cs.solve_supercritical_cell(field, grid, k=1),
        cs.solve_critical_cell_fde(field, grid,
                                   cs.CellParameter(p=0.5, u0abs=1.0), k=1),
        cs.solve_critical_cell_pme(field, grid,
                                   cs.CellParameter(p=1.5, u0abs=1.0), k=1),
    ]
    for sol in sols:
        assert np.max(np.abs(sol.phi - ref)) <= 1e-9


@pytest.mark.parametrize("M", [4, 5, 7, 24])
@pytest.mark.parametrize("name,params", STEP_FIELDS)
def test_folded_order_is_permutation_with_stated_half_width(name, params, M):
    field = make_field(name, **params)
    op = cs.CellOperator(field, CellGrid(M_y=M, M_s=4), s=0.3)
    order, pos = cs._folded_order(field.dim, M)
    assert np.array_equal(np.sort(order), np.arange(op.n))
    assert np.array_equal(pos[order], np.arange(op.n))
    cross = op.cell_offdiag is not None
    assert name != "constant" or cross
    half_width = 2 if field.dim == 1 else 2 * M + (2 if cross else 0)
    assert op.band.kd == half_width


@pytest.mark.parametrize("shift", [1e-3, 4.0])
@pytest.mark.parametrize("M", [4, 5, 7, 24])
@pytest.mark.parametrize("name,params", STEP_FIELDS)
def test_step_factors_match_spsolve(name, params, M, shift):
    # shift I + K in folded order against a sparse direct solve
    field = make_field(name, **params)
    grid = CellGrid(M_y=M, M_s=4)
    ops = [cs.CellOperator(field, grid, s=s) for s in (0.25, 0.5)]
    order, pos = cs._folded_order(field.dim, M)
    for op, factor in zip(ops, cs._step_factors(ops, shift)):
        A = (shift * sp.eye(op.n) + op.K).tocsc()
        wave = np.cos(np.arange(op.n))
        rhs = op.b[-1] + wave - wave.mean()  # mean-zero, as the march's
        x = factor.solve(rhs[order])[pos]
        ref = spla.spsolve(A, rhs)
        assert np.linalg.norm(A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        # at shift 1e-3 the condition number reaches about 1e7
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_step_factor_not_positive_definite_names_slice():
    grid = CellGrid(M_y=8, M_s=4)
    negative = cs.CellOperator.from_matrix_values(
        -np.ones((8, 1, 1)), 1, CellGrid(M_y=8, M_s=4, face_avg="arithmetic"))
    positive = cs.CellOperator(make_field("trig1d_st"), grid, s=0.25)
    with pytest.raises(SolverDiverged, match=r"slice 1 \(s=0\.2500\).*leading minor"):
        cs._step_factors([positive, negative, positive, positive], 4.0)
    factor = cs._step_factors([positive], 4.0)[0]
    with pytest.raises(ValueError):
        factor.solve(np.full(8, np.nan))
    with pytest.raises(ValueError):
        cs._step_factors([positive], np.inf)


STENCIL_CASES = [("trig1d_st", {}, 8), ("trig1d_st", {}, 64), ("trig2d_st", {}, 7),
                 ("trig2d_st", {}, 24), ("constant", {"matrix": [[2.0, 0.7], [0.7, 1.0]]}, 7),
                 ("constant", {"matrix": [[2.0, 0.7], [0.7, 1.0]]}, 24)]


@pytest.mark.parametrize("face_avg", ["geometric", "harmonic", "arithmetic"])
@pytest.mark.parametrize("name,params,M", STENCIL_CASES)
def test_stencil_build_matches_sparse_products(name, params, M, face_avg):
    # K, b and pair_const bitwise for diagonal fields, whose products the
    # stencil repeats operation by operation; the cross term within 1e-14.
    # The Gram of random rows, assembled by effmat in one matrix product
    # per direction, sums in another order than the oracle's dot products
    field = make_field(name, **params)
    grid = CellGrid(M_y=M, M_s=4, face_avg=face_avg)
    op = cs.CellOperator(field, grid, s=0.3)
    a = field.sample(grid.centers(field.dim), np.full(op.n, 0.3))
    K, b, pair_const, gram = sparse_product_operator(a, field.dim, M, face_avg)
    phis = np.random.default_rng(M).standard_normal((field.dim, op.n))
    cells = [cs.CellSolution(regime="classical", dim=field.dim, grid=grid, k=k + 1,
                             phi=phis[k:k + 1], residual=0.0) for k in range(field.dim)]
    got_gram = em.assemble_ahom(cells, field, grid, ops=[op]).grad_grams[0]
    want_gram = gram(list(phis))
    assert np.max(np.abs(got_gram - want_gram)) <= 1e-14 * np.max(np.abs(want_gram))
    got = [op.K.toarray(), *op.b, op.pair_const]
    want = [K.toarray(), *b, pair_const]
    if op.cell_offdiag is None:
        assert name != "constant"
        for arr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.K, arr), getattr(K, arr))
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
    else:
        for x, y in zip(got, want):
            assert np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y))


@pytest.mark.parametrize("face_avg", ["geometric", "harmonic"])
def test_face_average_rejects_non_positive_cells(face_avg):
    # sqrt(a * a_nbr) of two negative values is the positive field's mean
    grid = CellGrid(M_y=8, M_s=4, face_avg=face_avg)
    with pytest.raises(EllipticityViolation, match=r"a_11 = -1 at cell 0 "):
        cs.CellOperator.from_matrix_values(-np.ones((8, 1, 1)), 1, grid)
    one_negative = np.ones((8, 1, 1))
    one_negative[5] = -0.5
    with pytest.raises(EllipticityViolation, match=r"a_11 = -0\.5 at cell 5 "):
        cs.CellOperator.from_matrix_values(one_negative, 1, grid)
    zero_a22 = np.tile(np.eye(2), (64, 1, 1))
    zero_a22[10, 1, 1] = 0.0
    with pytest.raises(EllipticityViolation, match=r"a_22 = 0 at cell 10 "):
        cs.CellOperator.from_matrix_values(zero_a22, 2, grid)
    # the arithmetic mean still builds the negative operator
    arithmetic = CellGrid(M_y=8, M_s=4, face_avg="arithmetic")
    op = cs.CellOperator.from_matrix_values(-np.ones((8, 1, 1)), 1, arithmetic)
    assert np.all(op.face_coeffs[0] == -1.0)


@pytest.mark.parametrize("p,u0abs", [(0.5, 1.0), (1.5, 1.0), (0.5, 0.3),
                                     (1.5, 2.7)])
def test_critical_matches_monolithic_oracle(p, u0abs):
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=16, M_s=16)
    param = cs.CellParameter(p=p, u0abs=u0abs)
    if p < 1:
        sol = cs.solve_critical_cell_fde(field, grid, param, k=1)
    else:
        sol = cs.solve_critical_cell_pme(field, grid, param, k=1)
    oracle = monolithic_critical_solve(field, grid, p, u0abs, k=1)
    dev = l2_cell_time(sol.phi - oracle, grid, field.dim)
    assert dev <= 1e-8
    assert dev <= 1e-8 * l2_cell_time(oracle, grid, field.dim)


@pytest.mark.parametrize("p", [0.5, 1.5])
@pytest.mark.parametrize("name,grid", [("trig1d_st", CellGrid(M_y=16, M_s=16)),
                                       ("trig2d_st", CellGrid(M_y=8, M_s=16))])
def test_critical_interpolant_sits_on_rows_and_wraps(name, grid, p):
    field = make_field(name)
    sol = cs.solve_cells(field, grid, cs.regime_for(2.0, p),
                         param=cs.CellParameter(p=p, u0abs=1.0))[0]
    grad, rows = sol.grad_interpolant(), sol.grad_y()
    y = grid.centers(field.dim)
    for j in range(grid.M_s):
        assert np.array_equal(grad(y, j * grid.h_s), rows[j])
    for theta in np.random.default_rng(3).uniform(0, 1, 8):
        want = (1.0 - theta) * rows[-1] + theta * rows[0]
        assert np.allclose(grad(y, 1.0 - (1.0 - theta) * grid.h_s), want,
                           rtol=1e-12, atol=1e-14 * np.max(np.abs(rows)))


def test_fde_zero_datum_delegates_to_subcritical():
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=16, M_s=8)
    fde = cs.solve_critical_cell_fde(field, grid,
                                     cs.CellParameter(p=0.5, u0abs=0.0), k=1)
    sub = cs.solve_subcritical_cell(field, grid, k=1)
    assert fde.regime == "critical_fde"
    assert np.max(np.abs(fde.phi - sub.phi)) == 0.0


def test_pme_zero_datum_corrector_vanishes():
    sol = cs.solve_critical_cell_pme(make_field("trig1d_st"),
                                     CellGrid(M_y=16, M_s=8),
                                     cs.CellParameter(p=1.5, u0abs=0.0), k=1)
    assert np.max(np.abs(sol.phi)) == 0.0


def test_cell_parameter_validation():
    with pytest.raises(ConfigError):
        cs.CellParameter(p=2.5, u0abs=1.0)
    with pytest.raises(ConfigError):
        cs.CellParameter(p=0.5, u0abs=-1.0)
    with pytest.raises(ConfigError):
        cs.CellParameter(p=0.5, u0abs=float("nan"))
    with pytest.raises(ConfigError):
        cs.solve_critical_cell_fde(make_field("trig1d_st"), CellGrid(8, 8),
                                   cs.CellParameter(p=1.5, u0abs=1.0), k=1)


def test_cell_roundtrip(tmp_path):
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=16, M_s=16)
    sol = cs.solve_critical_cell_pme(field, grid,
                                     cs.CellParameter(p=1.5, u0abs=1.0), k=1)
    path = tmp_path / "cell.txt"
    cs.save_cell(path, sol)
    loaded = cs.load_cell(path)
    assert loaded.regime == sol.regime
    assert np.allclose(loaded.phi, sol.phi, atol=1e-15)
    assert loaded.param.p == sol.param.p


@given(vals=st.lists(st.floats(0.2, 5.0), min_size=8, max_size=8))
@settings(max_examples=25, deadline=None)
def test_classical_flux_constancy_random_1d(vals):
    # piecewise coefficient through the gridded-field interpolant: the
    # discrete flux must be constant in y for any admissible coefficient
    a = np.array(vals)

    def entries(y, s):
        idx = (np.asarray(y)[..., 0] * 8).astype(int) % 8
        return a[idx][..., None, None]

    from oscidiff.fields import PeriodicMatrixField
    field = PeriodicMatrixField(dim=1, entries=entries, lam=float(a.min()),
                                Lam=float(a.max()), s_independent=True,
                                name="random_piecewise")
    sol = cs.solve_classical_cell(field, CellGrid(M_y=8, M_s=2), k=1)
    flux = face_flux_1d(field, sol, 0)
    assert np.max(np.abs(flux - flux[0])) < 1e-8 * max(1.0, np.max(np.abs(flux)))


def test_fde_zero_datum_interpolant_wraps_like_subcritical():
    # the M_s slices of the FDE |u0| = 0 cell cover one s-period, so on
    # the last slice interval the interpolant runs towards slice 0
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=32, M_s=32)
    (fde,) = cs.solve_cells(field, grid, "critical_fde", param=cs.CellParameter(p=0.5, u0abs=0.0))
    (sub,) = cs.solve_cells(field, grid, "subcritical")
    rng = np.random.default_rng(7)
    y = rng.uniform(0, 1, (64, 1))
    s = 1.0 - grid.h_s * rng.uniform(0, 1, 64)
    assert np.array_equal(fde.grad_interpolant()(y, s), sub.grad_interpolant()(y, s))
    assert np.array_equal(fde.s_nodes, sub.s_nodes)


ROUNDTRIP_LAYOUTS = [  # (field, regime, p, u0abs, rows)
    ("trig1d", "classical", None, None, 1),
    ("trig2d_st", "subcritical", None, None, 4),
    ("trig1d_st", "supercritical", None, None, 1),
    ("trig1d_st", "critical_fde", 0.5, 0.0, 4),
    ("trig2d_st", "critical_fde", 0.5, 0.7, 4),
    ("trig1d_st", "critical_pme", 1.5, 0.7, 4),
    ("trig1d_st", "critical_pme", 1.5, 0.0, 4),
]


@pytest.mark.parametrize("name,regime,p,u0abs,rows", ROUNDTRIP_LAYOUTS)
def test_cell_roundtrip_keeps_slice_layout(tmp_path, name, regime, p, u0abs, rows):
    field = make_field(name)
    grid = CellGrid(M_y=8, M_s=4)
    param = None if p is None else cs.CellParameter(p=p, u0abs=u0abs)
    sol = cs.solve_cells(field, grid, regime, param=param)[-1]
    cs.save_cell(tmp_path / "cell.txt", sol)
    loaded = cs.load_cell(tmp_path / "cell.txt")
    assert len(sol.phi) == len(cs.cell_operators(field, grid, regime)) == rows
    assert len(sol.s_nodes) == rows
    assert np.array_equal(loaded.s_nodes, sol.s_nodes)
    assert np.array_equal(sol.s_nodes, np.arange(rows) * grid.h_s)
    rng = np.random.default_rng(11)
    y, s = rng.uniform(0, 1, (50, field.dim)), rng.uniform(0, 1, 50)
    assert np.array_equal(loaded.grad_interpolant()(y, s), sol.grad_interpolant()(y, s))


def test_load_cell_rejects_unknown_slice_layout(tmp_path):
    sol = cs.solve_subcritical_cell(make_field("trig1d_st"), CellGrid(M_y=8, M_s=4), k=1)
    cut = cs.CellSolution(regime=sol.regime, dim=1, grid=sol.grid, k=1,
                          phi=sol.phi[:3], residual=sol.residual)
    cs.save_cell(tmp_path / "cell.txt", cut)
    with pytest.raises(ConfigError, match="nslices=3"):
        cs.load_cell(tmp_path / "cell.txt")


@pytest.mark.parametrize("regime,rows", [("classical", 4), ("supercritical", 4),
                                         ("subcritical", 1), ("subcritical", 5),
                                         ("critical_fde", 1), ("critical_pme", 5),
                                         ("classic", 1)])
def test_load_cell_checks_slice_count_against_regime(tmp_path, regime, rows):
    # a classical solution tiled over the M_s slices loaded before the
    # regime was checked, and failed only in the tensor assembly; a
    # critical file with M_s + 1 rows is the older start-and-end layout
    grid = CellGrid(M_y=8, M_s=4)
    sol = cs.solve_classical_cell(make_field("trig1d"), grid, k=1)
    param = cs.CellParameter(p=1.5 if regime == "critical_pme" else 0.5, u0abs=1.0) \
        if regime.startswith("critical") else None
    tiled = cs.CellSolution(regime=regime, dim=1, grid=grid, k=1,
                            phi=np.tile(sol.phi, (rows, 1)), residual=0.0, param=param)
    path = tmp_path / "cell.txt"
    cs.save_cell(path, tiled)
    with pytest.raises(ConfigError, match=rf"cell\.txt: a '{regime}' cell file .*nslices={rows}"):
        cs.load_cell(path)
    ok = 1 if regime in ("classical", "supercritical") else grid.M_s
    if regime != "classic":
        cs.save_cell(path, dataclasses.replace(tiled, phi=np.tile(sol.phi, (ok, 1))))
        assert len(cs.load_cell(path).phi) == ok


def test_load_cell_rejects_psi_rows(tmp_path):
    # the older psi=1 layout stored the porous-medium rows c phi after phi
    sol = cs.solve_cells(make_field("trig1d_st"), CellGrid(M_y=8, M_s=4), "critical_pme",
                         param=cs.CellParameter(p=1.5, u0abs=1.0))[0]
    path = tmp_path / "cell.txt"
    cs.save_cell(path, sol)
    header, body = path.read_text().split("\n", 1)
    path.write_text(header.replace(" psi=0 ", " psi=1 ") + "\n" + body + body)
    with pytest.raises(ConfigError, match=r"cell\.txt: header key 'psi' must be 0"):
        cs.load_cell(path)


@pytest.mark.parametrize("regime,param,prefix", [
    ("subcritical", None, "slice 0 (s=0.0000): "),
    ("critical_fde", cs.CellParameter(p=0.5, u0abs=0.0), "slice 0 (s=0.0000): "),
    ("classical", None, ""),
    ("supercritical", None, ""),
])
def test_cg_failure_names_slice_only_on_slice_layouts(monkeypatch, regime, param, prefix):
    def stalled(K, b):
        raise SolverDiverged("CG stalled", residual=0.5)

    monkeypatch.setattr(cs, "projected_cg", stalled)
    with pytest.raises(SolverDiverged) as info:
        cs.solve_cells(make_field("trig1d"), CellGrid(M_y=8, M_s=4), regime, param=param)
    assert str(info.value) == prefix + "CG stalled"
    assert info.value.residual == 0.5


CRITERION_3_GRIDS = [("trig1d_st", CellGrid(M_y=16, M_s=16)),
                     ("trig2d_st", CellGrid(M_y=12, M_s=16))]


@pytest.mark.parametrize("u0abs", [1e-5, 1e-3, 1.0, 10.0])
@pytest.mark.parametrize("p", [0.05, 0.5, 1.5, 1.9])
@pytest.mark.parametrize("name,grid", CRITERION_3_GRIDS)
def test_criterion_3_grid_matches_monolithic_oracle(name, grid, p, u0abs):
    # criterion 3 over the ends of the capacity range (c from 3.6e-4 to
    # 1.7e4), every direction, absolute and relative
    field = make_field(name)
    cells = cs.solve_cells(field, grid, cs.regime_for(2.0, p),
                           param=cs.CellParameter(p=p, u0abs=u0abs))
    for sol in cells:
        oracle = monolithic_critical_solve(field, grid, p, u0abs, k=sol.k)
        dev = l2_cell_time(sol.phi - oracle, grid, field.dim)
        assert dev <= 1e-8 * min(1.0, l2_cell_time(oracle, grid, field.dim))


@pytest.mark.parametrize("p", [0.5, 1.5])
@pytest.mark.parametrize("name,grid", CRITERION_3_GRIDS)
def test_critical_rows_solve_their_step_equation(name, grid, p):
    # row j: (c/h_s)(phi_j - phi_{j-1}) + K_j phi_j = b_k with j - 1 mod M_s
    # and K_j, b_k from ops[j]; row 1 steps from the final sweep's start,
    # c |end - start| <= PERIODIC_TOL away from row 0
    field = make_field(name)
    regime = cs.regime_for(2.0, p)
    param = cs.CellParameter(p=p, u0abs=1.0)
    ops = cs.cell_operators(field, grid, regime)
    for sj, op in zip(grid.slice_times(), ops):
        assert (op.K != cs.CellOperator(field, grid, s=sj).K).nnz == 0
    shift = param.capacity / grid.h_s
    for sol in cs.solve_cells(field, grid, regime, param=param, ops=ops):
        assert len(sol.phi) == len(ops) == grid.M_s
        prev = np.roll(sol.phi, 1, axis=0)
        residual = np.array([shift * (phi - before) + op.K @ phi - op.b[sol.k - 1]
                             for phi, before, op in zip(sol.phi, prev, ops)])
        assert l2_cell_time(residual, grid, field.dim) <= grid.M_s * cs.PERIODIC_TOL


@pytest.mark.parametrize("p", [1.9, 1.99])
@pytest.mark.parametrize("name,grid", [("trig1d_st", CellGrid(M_y=64, M_s=64)),
                                       ("trig2d_st", CellGrid(M_y=24, M_s=32))])
def test_critical_cell_solves_at_large_capacity(name, grid, p):
    # |u0| = 1e-5 gives c = 1.7e4 (p = 1.9) and 4.5e4 (p = 1.99), where one
    # period-map sweep contracts by about exp(-lambda_min / c)
    field = make_field(name)
    param = cs.CellParameter(p=p, u0abs=1e-5)
    cells = cs.solve_cells(field, grid, "critical_pme", param=param)
    assert len(cells) == field.dim
    for sol in cells:
        assert 0.0 < sol.periodic_defect <= cs.PERIODIC_TOL
        assert sol.mean_defect() <= 1e-12 * np.max(np.abs(sol.phi))


def test_period_solve_budget_error_carries_true_defect(monkeypatch):
    # GMRES stops at its budget with its start, g = the sweep from 0: the
    # error carries c |Phi(1) - Phi(0)| of a sweep from g, computed here
    # with sparse solves of the step equation
    def exhausted(A, b, x0, **kwargs):
        return x0.copy(), kwargs["maxiter"]

    monkeypatch.setattr(cs.spla, "gmres", exhausted)
    field, grid = make_field("trig1d_st"), CellGrid(M_y=8, M_s=4)
    param = cs.CellParameter(p=1.5, u0abs=0.01)
    with pytest.raises(PeriodicityNotReached) as info:
        cs.solve_cells(field, grid, "critical_pme", param=param)
    ops, c = cs.cell_operators(field, grid, "critical_pme"), param.capacity
    shift = c / grid.h_s

    def sweep(start):
        for j in (*range(1, grid.M_s), 0):
            start = spla.spsolve((shift * sp.identity(grid.M_y) + ops[j].K).tocsc(),
                                 shift * start + ops[j].b[0])
        return start

    g = sweep(np.zeros(grid.M_y))
    defect = c * np.linalg.norm(sweep(g) - g) * np.sqrt(1.0 / grid.M_y)
    assert info.value.defect == pytest.approx(defect, rel=1e-8)
    assert info.value.defect > cs.PERIODIC_TOL
    assert f"k=1, capacity c={c:.6g}" in str(info.value)
    assert f"{info.value.defect:.3e}" in str(info.value)


def u0_at_capacity(p, capacity):
    """An |u0| whose capacity (1/p)|u0|^(1-p) is exactly ``capacity``."""
    u0 = (p * capacity) ** (1.0 / (1.0 - p))
    for _ in range(64):
        got = cs.CellParameter(p=p, u0abs=u0).capacity
        if got == capacity:
            return u0
        # the capacity grows with |u0| for p < 1 and falls for p > 1
        u0 = np.nextafter(u0, np.inf if (got < capacity) == (p < 1) else 0.0)
    raise AssertionError(f"no |u0| near {u0} has capacity {capacity} at p={p}")


@pytest.mark.parametrize("capacity", [0.05, 1.0, 20.0])
@pytest.mark.parametrize("name,grid", CRITERION_3_GRIDS)
def test_fde_and_pme_cells_agree_at_matched_capacity(name, grid, capacity):
    # both branches are one problem in the capacity c: equal c, equal cells
    field = make_field(name)
    fde, pme = (cs.solve_cells(field, grid, cs.regime_for(2.0, p),
                               param=cs.CellParameter(p=p, u0abs=u0_at_capacity(p, capacity)))
                for p in (0.5, 1.5))
    for a, b in zip(fde, pme):
        assert np.array_equal(a.phi, b.phi)
        assert a.periodic_defect == b.periodic_defect


def test_capacity_limits_at_zero_datum():
    assert cs.CellParameter(p=0.5, u0abs=0.0).capacity == 0.0
    assert cs.CellParameter(p=1.5, u0abs=0.0).capacity == np.inf
    assert cs.CellParameter(p=1.5, u0abs=4.0).capacity == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_project_mean_is_bitwise_x_minus_its_mean():
    rng = np.random.default_rng(11)
    for n in [1, 2, 3, 7, 8, 9, 127, 128, 129, 4096, *rng.integers(1, 4097, 400)]:
        x = rng.standard_normal(n) * rng.uniform(1e-3, 1e3) + rng.uniform(-5.0, 5.0)
        want = x - x.mean()
        got = cs._project_mean(x)
        assert got is x
        assert np.array_equal(got, want)
