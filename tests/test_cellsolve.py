import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import l2_cell_time, monolithic_critical_solve
from oscidiff import cellsolve as cs
from oscidiff.errors import ConfigError, EllipticityViolation, SolverDiverged
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
    # shift I + kappa K in folded order against a sparse direct solve
    field = make_field(name, **params)
    grid = CellGrid(M_y=M, M_s=4)
    ops = [cs.CellOperator(field, grid, s=s) for s in (0.25, 0.5)]
    kappa = 1.7
    order, pos = cs._folded_order(field.dim, M)
    for op, factor in zip(ops, cs._step_factors(ops, shift, kappa)):
        A = (shift * sp.eye(op.n) + kappa * op.K).tocsc()
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
    with pytest.raises(SolverDiverged, match=r"slice 1 \(s=0\.5000\).*leading minor"):
        cs._step_factors([positive, negative, positive, positive], 4.0, 1.5)
    factor = cs._step_factors([positive], 4.0, 1.5)[0]
    with pytest.raises(ValueError):
        factor.solve(np.full(8, np.nan))
    with pytest.raises(ValueError):
        cs._step_factors([positive], np.inf, 1.5)


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
    assert l2_cell_time(sol.phi - oracle, grid, field.dim) <= 1e-8


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
    assert np.allclose(loaded.psi, sol.psi, atol=1e-15)
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
