import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (_entries_at_reference, indefinite_operator, monolithic_critical_solve,
                      pairing_reference)
from oscidiff import cellsolve as cs, effmat as em, harness as hz, pdesolve as pde
from oscidiff.errors import (BoundViolated, ConfigError, DimensionMismatch,
                             PeriodicityNotReached, RegimeMismatch,
                             SolverDiverged, SymmetryViolated)
from oscidiff.fields import CellGrid, MacroGrid, PeriodicMatrixField, make_field, mean_ys

# pinned by a 1e6-point midpoint quadrature of int (1/4) sqrt(4 - cos^2 2 pi s) ds
SUBCRITICAL_TRIG_REF = 0.467107728834


def assemble(field_name, capacity, grid=None):
    field = make_field(field_name)
    grid = grid or CellGrid(M_y=64, M_s=64)
    cells = cs.solve_cells(field, grid, capacity)
    return em.assemble_ahom(cells, field, grid), field, grid, cells


def test_constant_field_recovers_constant():
    A = np.array([[0.8, 0.1], [0.1, 0.6]])
    field = make_field("constant", matrix=A)
    grid = CellGrid(M_y=16, M_s=8)
    cells = cs.solve_cells(field, grid, 0.0)
    tensor = em.assemble_ahom(cells, field, grid)
    assert np.max(np.abs(tensor.matrix - A)) < 1e-10


def test_classical_1d_matches_harmonic_mean():
    tensor, field, grid, _ = assemble("trig1d", 0.0)
    oracle = em.harmonic_mean_oracle_1d(field)
    assert oracle == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-7)
    assert abs(tensor.matrix[0, 0] - oracle) < 1e-4


def test_subcritical_trig_matches_quadrature_oracle():
    tensor, field, grid, _ = assemble("trig1d_st", 0.0)
    oracle = em.harmonic_mean_oracle_1d(field)
    assert oracle == pytest.approx(SUBCRITICAL_TRIG_REF, abs=1e-6)
    assert abs(tensor.matrix[0, 0] - oracle) < 1e-4


def test_supercritical_trig_is_one_half():
    tensor, _, _, _ = assemble("trig1d_st", np.inf)
    assert abs(tensor.matrix[0, 0] - 0.5) < 1e-8


def test_oracle_refinement_order():
    field = make_field("trig1d_st")
    oracle = em.harmonic_mean_oracle_1d(field)
    errs = []
    Ms = [16, 32, 64]
    for M in Ms:
        grid = CellGrid(M_y=M, M_s=64)
        cells = cs.solve_cells(field, grid, 0.0)
        errs.append(abs(em.assemble_ahom(cells, field, grid).matrix[0, 0]
                        - oracle))
    order = -np.polyfit(np.log(Ms), np.log(errs), 1)[0]
    assert order >= 1.9


def test_fde_table_converges_to_subcritical_at_zero():
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=32, M_s=32)
    table = em.tabulate_ahom_critical(field, grid, p=0.5,
                                      u0abs_grid=[0.0, 1e-4, 1e-3, 1e-2, 1.0])
    sub = em.assemble_ahom(cs.solve_cells(field, grid, cs.capacity(1.0, 0.5)),
                           field, grid)
    assert np.max(np.abs(table.matrices[0] - sub.matrix)) < 1e-10
    # entries approach the elliptic limit along the table
    assert np.max(np.abs(table.matrices[1] - sub.matrix)) < 1e-3


def test_pme_table_zero_entry_is_mean():
    # key 0 is the supercritical tensor, the plain mean here because the
    # s-average of trig1d_st is constant in y
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=32, M_s=32)
    table = em.tabulate_ahom_critical(field, grid, p=1.5,
                                      u0abs_grid=[0.0, 0.01, 0.1, 1.0])
    mean = mean_ys(field, grid)
    assert np.max(np.abs(table.matrices[0] - mean)) < 1e-12


def test_pme_zero_datum_has_no_skew():
    # infinite capacity: the cells solve the supercritical problem, so there
    # is no skew integral (no c * 0 = inf * 0), and the tensor is symmetric;
    # at c = 0 there is none either
    field, grid = make_field("trig2d_st"), CellGrid(M_y=8, M_s=4)
    cells = cs.solve_cells(field, grid, cs.capacity(2.0, 1.5, 0.0))
    with pytest.raises(RegimeMismatch,
                       match=r"capacity in \(0, inf\), got c=inf \('supercritical'\)"):
        em.skew_integral(cells)
    with pytest.raises(RegimeMismatch, match=r"got c=0 \('subcritical'\)"):
        em.skew_integral(cs.solve_cells(field, grid, cs.capacity(2.0, 0.5, 0.0)))
    rep = em.skew_report(em.assemble_ahom(cells, field, grid), cells=cells)
    assert rep["mode"] == "symmetry"


def product_field(dim):
    """a = 0.25 (2 + sin 2 pi y_1)(1 + 0.5 cos 2 pi s) I, a product
    alpha(y_1) beta(s). The geometric face mean factors, so K_j = beta_j
    K_alpha and b_j = beta_j b_alpha, and the elliptic corrector of alpha
    solves the critical problem at every capacity c in [0, inf]."""
    def entries(y, s):
        a = 0.25 * (2.0 + np.sin(2 * np.pi * y[..., 0])) * (1.0 + 0.5 * np.cos(2 * np.pi * s))
        return a[..., None, None] * np.eye(dim)

    return PeriodicMatrixField(dim=dim, entries=entries, lam=0.125, Lam=1.125, name="product")


@pytest.mark.parametrize("p", [0.5, 1.5])
@pytest.mark.parametrize("dim,grid", [(1, CellGrid(M_y=64, M_s=64)),
                                      (2, CellGrid(M_y=16, M_s=16))])
def test_product_field_table_is_flat_at_every_key(dim, grid, p):
    # the oracle: a_hom is one matrix for every c, key 0 (c = 0 at p < 1,
    # c = inf at p > 1) included, and it is the supercritical tensor
    field = product_field(dim)
    table = em.tabulate_ahom_critical(field, grid, p, u0abs_grid=[0.0, 1e-3, 0.1, 1.0, 10.0])
    sup = em.assemble_ahom(cs.solve_cells(field, grid, np.inf), field, grid).matrix
    tol = 1e-10 * np.max(np.abs(sup))
    assert np.max(np.abs(table.matrices - sup)) <= tol
    assert np.max(np.ptp(table.matrices, axis=0)) <= tol
    # harm(alpha) mean(beta) = sqrt(3)/4, within O(h^2)
    assert abs(sup[0, 0] - 0.25 * np.sqrt(3.0)) <= 0.5 * grid.h_y**2


def test_s_independent_field_all_regimes_agree():
    field = make_field("trig1d")
    grid = CellGrid(M_y=32, M_s=16)
    mats = []
    for capacity in [0.0, np.inf, cs.capacity(2.0, 0.5, 1.0), cs.capacity(2.0, 1.5, 1.0)]:
        cells = cs.solve_cells(field, grid, capacity)
        mats.append(em.assemble_ahom(cells, field, grid).matrices[0])
    classical = em.assemble_ahom([cs.solve_classical_cell(field, grid, 1)], field, grid)
    for M in mats:  # one elliptic row at every capacity: the classical cells
        assert np.array_equal(M, classical.matrix)


SHARED_TABLE_CASES = [("trig1d_st", 0.5), ("trig2d_st", 1.5)]
SHARED_TABLE_KEYS = [0.0, 0.01, 0.3, 2.0]


@pytest.mark.parametrize("name,p", SHARED_TABLE_CASES)
def test_table_matches_per_key_loop_exactly(name, p):
    # the shared slice operators and per-key factors change no arithmetic
    field = make_field(name)
    grid = CellGrid(M_y=8, M_s=4)
    table = em.tabulate_ahom_critical(field, grid, p=p,
                                      u0abs_grid=SHARED_TABLE_KEYS)
    per_key = [em.assemble_ahom(cs.solve_cells(field, grid, cs.capacity(2.0, p, u0)), field, grid)
               for u0 in SHARED_TABLE_KEYS]
    assert np.array_equal(table.matrices, [t.matrices[0] for t in per_key])
    assert np.array_equal(table.corrector_norms,
                          [t.corrector_norms[0] for t in per_key])
    assert np.array_equal(table.grad_grams, [t.grad_grams[0] for t in per_key])


def test_table_2d_pme_matches_monolithic_oracle():
    # the shared factors march to the same correctors as a one-shot solve
    field = make_field("trig2d_st")
    grid = CellGrid(M_y=8, M_s=4)
    table = em.tabulate_ahom_critical(field, grid, p=1.5,
                                      u0abs_grid=SHARED_TABLE_KEYS)
    for i, u0 in enumerate(SHARED_TABLE_KEYS[1:], start=1):
        cells = [cs.CellSolution(
            capacity=cs.capacity(2.0, 1.5, u0), dim=2, grid=grid, k=k,
            phi=monolithic_critical_solve(field, grid, 1.5, u0, k),
            residual=0.0) for k in (1, 2)]
        oracle = em.assemble_ahom(cells, field, grid).matrices[0]
        assert np.max(np.abs(table.matrices[i] - oracle)) <= 1e-8


@pytest.mark.parametrize("name,p", SHARED_TABLE_CASES)
def test_table_builds_each_slice_once(monkeypatch, name, p):
    built = []
    init = cs.CellOperator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cs.CellOperator, "__init__", counting_init)
    grid = CellGrid(M_y=8, M_s=4)
    em.tabulate_ahom_critical(make_field(name), grid, p=p,
                              u0abs_grid=SHARED_TABLE_KEYS)
    assert len(built) == grid.M_s


def _sparse_free_run(case):
    """One run of a solver path: a critical table, a tiny supercritical
    study, a 2D table-mode homogenized solve, or H^-1 norms in 1D and 2D."""
    if case in ("table_1d", "table_2d"):
        name, p = SHARED_TABLE_CASES[case == "table_2d"]
        em.tabulate_ahom_critical(make_field(name), CellGrid(M_y=8, M_s=4), p=p,
                                  u0abs_grid=SHARED_TABLE_KEYS)
    elif case == "study":
        hz.run_convergence_study(make_field("trig1d_st"), 0.5, 3.0, [1 / 8, 1 / 16],
                                 data={"n_x": 32, "n_t": 4, "T": 2.0**-6},
                                 cell_grid=CellGrid(M_y=16, M_s=16))
    elif case == "homog_2d":
        tensor = em.tabulate_ahom_critical(make_field("trig2d_st"), CellGrid(M_y=8, M_s=4),
                                           p=1.5, u0abs_grid=[0.0, 0.5, 1.0, 2.0])
        pde.solve_homogenized(pde.HomogenizedProblem(
            tensor=tensor, p=1.5, f=lambda x, t: np.ones(len(x)),
            u0=lambda x: np.prod(np.sin(np.pi * x), axis=1),
            grid=MacroGrid(dim=2, n_x=12, n_t=4, T=0.25), mode="critical_table"))
    else:
        pde._laplacian_solve.cache_clear()
        for dim in (1, 2):
            grid = MacroGrid(dim=dim, n_x=12, n_t=4, T=1.0)
            pde.hminus1_norm(np.ones((3, grid.n_x**dim)), grid)


@pytest.mark.parametrize("case", ["table_1d", "table_2d", "study", "homog_2d", "hminus1"])
def test_solver_paths_build_no_sparse_matrix(monkeypatch, case):
    # every operator is a banded.Band; scipy.sparse's matrix constructors
    # raise while a solver path runs
    def forbidden(*args, **kwargs):
        raise AssertionError("a scipy.sparse matrix was built")

    for name in ("csr_matrix", "coo_matrix", "diags", "eye", "bmat"):
        monkeypatch.setattr(sp, name, forbidden)
    with pytest.raises(AssertionError, match="scipy.sparse"):
        sp.eye(2)
    _sparse_free_run(case)


def test_table_not_positive_definite_names_key_and_slice(monkeypatch):
    grid = CellGrid(M_y=8, M_s=4)
    indefinite = indefinite_operator()
    monkeypatch.setattr(cs, "slice_operators", lambda field, grid: [indefinite] * grid.M_s)
    with pytest.raises(SolverDiverged,
                       match=r"u0abs=0\.01: slice 0 \(s=0\.0000\): .*leading minor"):
        em.tabulate_ahom_critical(make_field("trig2d_st"), grid, p=1.5,
                                  u0abs_grid=SHARED_TABLE_KEYS)


def test_table_error_keeps_context(monkeypatch):
    def stalled(*args, **kwargs):
        raise PeriodicityNotReached("period map stalled", defect=0.5)

    monkeypatch.setattr(cs, "_solve_periodic", stalled)
    with pytest.raises(PeriodicityNotReached) as info:
        em.tabulate_ahom_critical(make_field("trig1d_st"), CellGrid(M_y=8, M_s=4),
                                  p=0.5, u0abs_grid=SHARED_TABLE_KEYS)
    assert info.value.defect == 0.5
    assert "u0abs=" in str(info.value)


def test_table_interpolation_rule():
    field = make_field("trig1d")
    grid = CellGrid(M_y=16, M_s=8)
    table = em.tabulate_ahom_critical(field, grid, p=1.5,
                                      u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    k0, k1 = np.log1p(0.5), np.log1p(1.0)
    theta = (np.log1p(0.7) - k0) / (k1 - k0)
    expected = (1 - theta) * table.matrices[1] + theta * table.matrices[2]
    assert np.max(np.abs(table.entry_at(0.7) - expected)) < 1e-14


def test_table_rejects_jobs_other_than_1():
    with pytest.raises(ConfigError):
        em.tabulate_ahom_critical(make_field("trig1d"), CellGrid(M_y=8, M_s=4), p=1.5,
                                  jobs=2)


def test_table_clamp_warns():
    field = make_field("trig1d")
    grid = CellGrid(M_y=16, M_s=8)
    table = em.tabulate_ahom_critical(field, grid, p=1.5,
                                      u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    with pytest.warns(em.TableClampWarning):
        clamped = table.entry_at(5.0)
    assert np.max(np.abs(clamped - table.matrices[-1])) == 0.0


def test_entries_at_counts_clamps_in_a_list_instead_of_warning():
    rng = np.random.default_rng(3)
    table = em.EffectiveTensor(
        regime="critical", dim=2, lam=0.25, Lam=1.0, matrices=rng.uniform(0.3, 0.9, (4, 2, 2)),
        corrector_norms=np.zeros((4, 2)), grad_grams=np.zeros((4, 2, 2)),
        u0abs_keys=np.array([0.0, 0.5, 1.0, 2.0]), p=1.5)
    u0 = np.array([0.3, 2.5, -7.0, 2.0, -1.0])
    clamped = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = table.entries_at(u0, clamped)
        inside = table.entries_at(u0[[0, 3, 4]], clamped)
    assert clamped == [2]
    with pytest.warns(em.TableClampWarning) as got:
        ref = table.entries_at(u0)
    assert len(got) == 1 and "2 |u0| values clamped" in str(got[0].message)
    assert np.array_equal(out, ref) and np.array_equal(inside, ref[[0, 3, 4]])


def test_entries_at_matches_reference_lookup_off_the_default_keys():
    # a first key above 0, values below it, NaN among clamped values, no values
    rng = np.random.default_rng(8)
    table = em.EffectiveTensor(
        regime="critical", dim=2, lam=0.25, Lam=1.0, matrices=rng.uniform(0.3, 0.9, (4, 2, 2)),
        corrector_norms=np.zeros((4, 2)), grad_grams=np.zeros((4, 2, 2)),
        u0abs_keys=np.array([0.1, 0.5, 1.0, 2.0]), p=1.5)
    probes = [np.array([0.0, 0.05, 0.3, 1.5]), np.array([0.2, 0.7]), np.array([0.1, 2.0]),
              np.array([np.nan, 3.0, 0.01, 0.6]), np.array([np.nan]), np.zeros(0), 0.02]
    for u0 in probes:
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            out = table.entries_at(u0)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref = _entries_at_reference(table, u0)
        assert np.array_equal(out, ref, equal_nan=True)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]


def test_ellipticity_report_sandwich():
    tensor, _, _, _ = assemble("trig1d_st", 0.0, grid=CellGrid(M_y=32, M_s=32))
    rep = em.ellipticity_report(tensor, seed=0)
    assert rep["min_slack"] >= -1e-8
    # trigonometric field has a nonzero corrector, so the lower bound is
    # strictly improved over plain lam |xi|^2
    assert tensor.corrector_norms[0][0] > 1e-4


def test_ellipticity_report_flags_violations():
    tensor, _, _, _ = assemble("trig1d_st", 0.0, grid=CellGrid(M_y=16, M_s=16))
    bad = em.EffectiveTensor(
        regime=tensor.regime, dim=tensor.dim, lam=tensor.lam, Lam=tensor.Lam,
        matrices=0.1 * tensor.matrices, corrector_norms=tensor.corrector_norms,
        grad_grams=tensor.grad_grams, u0abs_keys=None, p=None)
    with pytest.raises(BoundViolated):
        em.ellipticity_report(bad, seed=0)


def test_symmetry_noncritical_2d():
    field = make_field("trig2d_st")
    grid = CellGrid(M_y=24, M_s=24)
    cells = cs.solve_cells(field, grid, 0.0)
    tensor = em.assemble_ahom(cells, field, grid)
    rep = em.skew_report(tensor)
    assert rep["max_asymmetry"] <= 1e-9


def test_skew_report_rejects_asymmetric_noncritical():
    tensor, _, _, _ = assemble("trig1d_st", 0.0, grid=CellGrid(M_y=16, M_s=16))
    bad = em.EffectiveTensor(
        regime="subcritical", dim=2, lam=0.25, Lam=1.0,
        matrices=np.array([[[0.5, 0.1], [0.0, 0.5]]]),
        corrector_norms=np.zeros((1, 2)), grad_grams=np.zeros((1, 2, 2)),
        u0abs_keys=None, p=None)
    with pytest.raises(SymmetryViolated):
        em.skew_report(bad)


def test_critical_skew_matches_integral_2d():
    field = make_field("trig2d_st")
    grid = CellGrid(M_y=16, M_s=32)
    cells = cs.solve_cells(field, grid, cs.capacity(2.0, 0.5, 1.0))
    tensor = em.assemble_ahom(cells, field, grid)
    rep = em.skew_report(tensor, cells=cells)
    assert rep["mismatch"] <= rep["tol"]
    # over a whole period of rows, the step equation makes the skew part of
    # the pairing the antisymmetric part of S, up to the periodic defect
    S, skew = rep["integral"], rep["skew"]
    row_norm = max(float(np.max(np.linalg.norm(c.phi, axis=1))) for c in cells) / grid.M_y
    assert np.max(np.abs(skew - 0.5 * (S - S.T))) <= cs.PERIODIC_TOL * row_norm + 1e-14


def test_critical_skew_zero_for_s_independent():
    field = make_field("laminate2d")
    grid = CellGrid(M_y=16, M_s=16)
    cells = cs.solve_cells(field, grid, cs.capacity(2.0, 0.5, 1.0))
    assert len(cells[0].phi) == 1  # one elliptic row, at c = 2
    S = em.skew_integral(cells)
    assert np.max(np.abs(S)) < 1e-10


def test_skew_report_rejects_a_table():
    # the skew formula holds for the cells of one |u0|, so a table, which has
    # no single matrix, is refused before any cell is read
    field, grid = make_field("trig1d_st"), CellGrid(M_y=8, M_s=8)
    tensor, cells = em._tabulate_critical(field, grid, 1.5, u0abs_grid=[0.0, 0.1, 1.0, 10.0])
    with pytest.raises(RegimeMismatch, match="tabulated"):
        em.skew_report(tensor, cells=cells[2])


def test_nearest_key_is_the_log_argmin_on_the_default_keys():
    keys = em.default_u0abs_grid()
    table = em.EffectiveTensor(regime="critical", dim=1, lam=1.0, Lam=1.0,
                               matrices=np.ones((len(keys), 1, 1)),
                               corrector_norms=np.zeros((len(keys), 1)),
                               grad_grams=np.zeros((len(keys), 1, 1)), u0abs_keys=keys)
    u0 = np.random.default_rng(11).uniform(0.0, 30.0, 10_000)
    argmin = np.argmin(np.abs(np.log1p(u0)[:, None] - np.log1p(keys)), axis=1)
    assert len(keys) == 17
    assert np.array_equal(table.nearest_key(u0), argmin)
    assert np.array_equal(table.nearest_key(-u0), argmin)
    assert np.array_equal(table.nearest_key(keys), np.arange(len(keys)))
    constant = em.EffectiveTensor(regime="subcritical", dim=1, lam=1.0, Lam=1.0,
                                  matrices=np.ones((1, 1, 1)), corrector_norms=np.zeros((1, 1)),
                                  grad_grams=np.zeros((1, 1, 1)))
    assert np.array_equal(constant.nearest_key(u0), np.zeros(len(u0)))


def test_assemble_needs_one_row_per_operator():
    field, grid = make_field("trig1d_st"), CellGrid(M_y=8, M_s=4)
    (sol,) = cs.solve_cells(field, grid, 0.0)
    cut = cs.CellSolution(capacity=sol.capacity, dim=1, grid=grid, k=1,
                          phi=sol.phi[:3], residual=sol.residual)
    with pytest.raises(RegimeMismatch, match="one row per operator, 4"):
        em.assemble_ahom([cut], field, grid)


PAIRING_FIELDS = [("trig1d_st", {}), ("trig2d_st", {}),
                  ("constant", {"matrix": [[2.0, 0.7], [0.7, 1.0]]})]
PAIRING_CAPACITIES = [  # the ids keep the older regime labels
    pytest.param(0.0, id="subcritical-None"), pytest.param(np.inf, id="supercritical-None"),
    pytest.param(cs.capacity(2.0, 0.5, 1.0), id="critical_fde-param2")]


@pytest.mark.parametrize("capacity", PAIRING_CAPACITIES)
@pytest.mark.parametrize("name,params", PAIRING_FIELDS)
def test_assembly_matches_row_by_row_pairing(name, params, capacity):
    field, grid = make_field(name, **params), CellGrid(M_y=8, M_s=4)
    ops = cs.cell_operators(field, grid, capacity)
    cells = cs.solve_cells(field, grid, capacity, ops=ops)
    tensor = em.assemble_ahom(cells, field, grid, ops=ops)
    got = (tensor.matrices[0], tensor.corrector_norms[0], tensor.grad_grams[0])
    for x, y in zip(got, pairing_reference(cells, ops)):
        assert np.max(np.abs(x - y)) <= 1e-14 * np.max(np.abs(y))


def test_assemble_rejects_mixed_capacities():
    field, grid = make_field("trig2d_st"), CellGrid(M_y=8, M_s=4)
    cells = [cs.solve_cells(field, grid, cs.capacity(2.0, 1.5, u0))[k - 1]
             for k, u0 in ((1, 1.0), (2, 2.0))]
    with pytest.raises(RegimeMismatch, match="mix capacities"):
        em.assemble_ahom(cells, field, grid)
    # at c = 0 and c = inf too, whose rows differ in number
    cells = [cs.solve_cells(field, grid, c)[k - 1] for k, c in ((1, 0.0), (2, np.inf))]
    with pytest.raises(RegimeMismatch, match=r"mix capacities \[0\.0, inf\]"):
        em.assemble_ahom(cells, field, grid)


def test_oracle_rejects_2d():
    with pytest.raises(DimensionMismatch):
        em.harmonic_mean_oracle_1d(make_field("laminate2d"))


def test_matrix_property_rejects_table():
    field = make_field("trig1d")
    table = em.tabulate_ahom_critical(field, CellGrid(M_y=8, M_s=4), p=1.5,
                                      u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    with pytest.raises(RegimeMismatch):
        table.matrix


def test_tensor_roundtrip_constant(tmp_path):
    tensor, _, _, _ = assemble("trig1d_st", 0.0, grid=CellGrid(M_y=16, M_s=16))
    path = tmp_path / "ahom.txt"
    em.save_tensor(path, tensor)
    loaded = em.load_tensor(path)
    assert loaded.regime == tensor.regime
    assert np.allclose(loaded.matrices, tensor.matrices, atol=1e-15)
    assert np.allclose(loaded.grad_grams, tensor.grad_grams, atol=1e-15)


def test_tensor_roundtrip_table(tmp_path):
    field = make_field("trig1d")
    table = em.tabulate_ahom_critical(field, CellGrid(M_y=8, M_s=4), p=1.5,
                                      u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    path = tmp_path / "table.txt"
    em.save_tensor(path, table)
    loaded = em.load_tensor(path)
    assert np.allclose(loaded.u0abs_keys, table.u0abs_keys, atol=0)
    assert np.allclose(loaded.matrices, table.matrices, atol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(loaded.entry_at(0.7), table.entry_at(0.7))


def test_table_refinement_stability():
    # halving the table spacing moves interpolated values by < 1e-3
    field = make_field("trig1d_st")
    grid = CellGrid(M_y=16, M_s=16)
    coarse_keys = [0.0] + list(np.logspace(-3, 1, 9))
    fine_keys = [0.0] + list(np.logspace(-3, 1, 17))
    coarse = em.tabulate_ahom_critical(field, grid, p=0.5,
                                       u0abs_grid=coarse_keys)
    fine = em.tabulate_ahom_critical(field, grid, p=0.5, u0abs_grid=fine_keys)
    probes = np.logspace(-2.5, 0.8, 12)
    worst = max(float(np.max(np.abs(coarse.entry_at(u) - fine.entry_at(u))))
                for u in probes)
    assert worst < 1e-3


def test_export_table_csv(tmp_path):
    field = make_field("trig1d")
    table = em.tabulate_ahom_critical(field, CellGrid(M_y=8, M_s=4), p=1.5,
                                      u0abs_grid=[0.0, 0.5, 1.0, 2.0])
    path = tmp_path / "table.csv"
    em.export_table_csv(path, table)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 entries
    assert lines[0].startswith("u0abs")


def test_entries_at_matches_reference_lookup():
    keys = em.default_u0abs_grid()
    rng = np.random.default_rng(5)
    table = em.EffectiveTensor(
        regime="critical", dim=2, lam=0.25, Lam=1.0, matrices=rng.uniform(0.3, 0.9, (17, 2, 2)),
        corrector_norms=np.zeros((17, 2)), grad_grams=np.zeros((17, 2, 2)), u0abs_keys=keys, p=1.5)
    inside = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), 200))
    probes = [inside, -inside[:5], keys, keys[:1], keys[-1:], np.nextafter(keys[-1], 0.0),
              np.array([12.0, -40.0, 3.0]), np.array([1e-300, 5e-4])]
    for u0 in probes:
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            out = table.entries_at(u0)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref = _entries_at_reference(table, u0)
        assert np.array_equal(out, ref)
        assert [(w.category, str(w.message)) for w in got] == \
            [(w.category, str(w.message)) for w in want]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(table.entry_at(0.7), _entries_at_reference(table, 0.7))
