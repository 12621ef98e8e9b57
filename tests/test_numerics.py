import math

import numpy as np
import pytest
from scipy.integrate import quad

from pcoulomb.exact import constraint_b, ground_state, hierarchy_states
from pcoulomb.model import (
    LaurentForm,
    PhysicalParams,
    PotentialParams,
    dimension_reduce,
    effective_potential,
)
from pcoulomb import numerics
from pcoulomb.numerics import (
    MAX_NODES,
    GridFunction,
    RadialGrid,
    build_grid,
    eigen_lowest,
    evaluate_state,
    h_residual,
    hamiltonian_apply,
    normalize,
    overlap,
    sturm_count,
)
from pcoulomb.qes import oracle_state, qes_solve
from pcoulomb.susy import ClosedFormState

PHYS = PhysicalParams()
DIM3 = dimension_reduce(3, 0)
P1 = PotentialParams(a=1.0, b=1.0, c=0.5)


# -- grids ---------------------------------------------------------------------

def test_grid_nodes_layout():
    grid = RadialGrid(r_max=10.0, h=0.01)
    assert grid.count == 1000
    assert grid.nodes[0] == pytest.approx(0.01)
    assert grid.nodes[-1] == pytest.approx(10.0)


def test_grid_requires_enough_nodes():
    with pytest.raises(ValueError, match="at least 100 nodes"):
        RadialGrid(r_max=1.0, h=0.5)


def test_grid_node_budget():
    # a grid stores no array until its nodes are asked for
    assert RadialGrid(r_max=1.0, h=1.0 / MAX_NODES).count == MAX_NODES
    for r_max, h in ((1.0, 1.0 / (MAX_NODES + 1)), (math.inf, 0.01), (1.0, 1e-300)):
        with pytest.raises(ValueError, match="exceeds the budget"):
            RadialGrid(r_max=r_max, h=h)


def test_build_grid_defaults():
    grid = build_grid(P1, DIM3, PHYS)
    assert grid.r_max >= 10.0
    assert grid.h == pytest.approx(grid.r_max / 20000)


def test_build_grid_overrides_win():
    grid = build_grid(P1, DIM3, PHYS, r_max=40.0, h=0.002)
    assert grid.r_max == 40.0
    assert grid.h == 0.002
    assert grid.count == 20000


def test_build_grid_pure_oscillator():
    grid = build_grid(PotentialParams(c=0.5), DIM3, PHYS)
    assert grid.r_max >= 10.0


def test_build_grid_rejects_purely_repulsive():
    with pytest.raises(ValueError, match="attractive or confining"):
        build_grid(PotentialParams(a=-1.0), DIM3, PHYS)


# -- state evaluation and quadrature ---------------------------------------------

def test_evaluate_state_reference_value():
    psi = ground_state(P1, DIM3, PHYS).psi
    grid = RadialGrid(r_max=5.0, h=0.01)
    f = evaluate_state(psi, grid)
    i = np.argmin(np.abs(grid.nodes - 1.0))
    assert f.values[i] == pytest.approx(math.exp(-1.5), rel=1e-12)


def test_evaluate_state_vanishes_linearly_at_origin():
    psi = ground_state(P1, DIM3, PHYS).psi
    grid = RadialGrid(r_max=2.0, h=1e-3)
    f = evaluate_state(psi, grid)
    ratio = f.values[:5] / grid.nodes[:5]
    np.testing.assert_allclose(ratio, 1.0, rtol=5e-3)


def test_evaluate_state_rejects_non_normalizable():
    bad = ClosedFormState(poly=(1.0,), q=-0.5, lam=1.0, kap=0.0)
    grid = RadialGrid(r_max=2.0, h=0.01)
    with pytest.raises(ValueError, match="square integrable"):
        evaluate_state(bad, grid)


def test_evaluate_state_large_exponent_no_overflow():
    state = ClosedFormState(poly=(1.0,), q=40.0, lam=0.0, kap=5.0)
    grid = RadialGrid(r_max=30.0, h=0.01)
    f = evaluate_state(state, grid)
    assert np.all(np.isfinite(f.values))


def test_grid_function_freezes_a_view_not_the_callers_array():
    grid = RadialGrid(r_max=2.0, h=0.01)
    values = np.ones(grid.count)
    f = GridFunction(grid=grid, values=values)
    assert np.shares_memory(f.values, values)  # no copy
    values[0] = 2.0
    assert f.values[0] == 2.0
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 3.0


def test_normalize_unit_norm():
    psi = ground_state(P1, DIM3, PHYS).psi
    grid = build_grid(P1, DIM3, PHYS)
    unit, _ = normalize(evaluate_state(psi, grid))
    assert unit.norm() == pytest.approx(1.0, abs=1e-12)


def test_normalize_homogeneity():
    grid = RadialGrid(r_max=2.0, h=0.01)
    values = np.sin(math.pi * grid.nodes / (grid.r_max + grid.h))
    f = GridFunction(grid=grid, values=values)
    g = GridFunction(grid=grid, values=2.0 * values)
    fu, fn = normalize(f)
    gu, gn = normalize(g)
    np.testing.assert_allclose(fu.values, gu.values, rtol=1e-14)
    assert gn == pytest.approx(fn / 2.0, rel=1e-14)


def test_normalize_idempotent():
    psi = ground_state(P1, DIM3, PHYS).psi
    grid = build_grid(P1, DIM3, PHYS)
    once, _ = normalize(evaluate_state(psi, grid))
    twice, scale = normalize(once)
    assert scale == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(twice.values, once.values, rtol=1e-14)


def test_normalize_rejects_zero():
    grid = RadialGrid(r_max=2.0, h=0.01)
    for values in (np.zeros(grid.count), np.full(grid.count, 1e308)):
        # zero, and a norm whose sum of squares overflows
        with pytest.raises(ValueError, match="zero or non-finite"):
            normalize(GridFunction(grid=grid, values=values))


def test_normalization_factor_against_quadrature():
    # independent oracle: adaptive quadrature of the squared closed form
    psi = ground_state(P1, DIM3, PHYS).psi
    integral, err = quad(lambda r: psi.evaluate(r) ** 2, 0.0, 30.0, limit=200)
    assert err < 1e-12
    expected = 1.0 / math.sqrt(integral)
    grid = build_grid(P1, DIM3, PHYS)
    _, n0 = normalize(evaluate_state(psi, grid))
    assert n0 == pytest.approx(expected, abs=1e-6)


# -- hamiltonian ------------------------------------------------------------------

def test_hamiltonian_sine_mode():
    grid = RadialGrid(r_max=1.0, h=1.0 / 2000)
    length = grid.r_max + grid.h
    values = np.sin(math.pi * grid.nodes / length)
    f = GridFunction(grid=grid, values=values)
    hf = hamiltonian_apply(LaurentForm({}), f, PHYS)
    expected = PHYS.kinetic * (math.pi / length) ** 2
    np.testing.assert_allclose(hf.values, expected * values, rtol=1e-5)


def test_hamiltonian_linearity():
    grid = RadialGrid(r_max=3.0, h=0.01)
    rng = np.random.default_rng(8)
    f = GridFunction(grid=grid, values=rng.normal(size=grid.count))
    g = GridFunction(grid=grid, values=rng.normal(size=grid.count))
    v = LaurentForm({-1: -1.0, 2: 0.5})
    lhs = hamiltonian_apply(
        v, GridFunction(grid=grid, values=2.0 * f.values + 3.0 * g.values), PHYS
    )
    rhs = 2.0 * hamiltonian_apply(v, f, PHYS).values + 3.0 * hamiltonian_apply(v, g, PHYS).values
    scale = np.max(np.abs(rhs))
    np.testing.assert_allclose(lhs.values, rhs, atol=1e-13 * scale)


def test_h_residual_exact_ground_is_discretization_limited():
    psi = ground_state(P1, DIM3, PHYS).psi
    v_eff = effective_potential(P1, DIM3, PHYS)
    grid = build_grid(P1, DIM3, PHYS)
    res = h_residual(evaluate_state(psi, grid), 1.0, v_eff, PHYS)
    assert res <= 1e-6


def test_h_residual_scales_second_order():
    psi = ground_state(P1, DIM3, PHYS).psi
    v_eff = effective_potential(P1, DIM3, PHYS)
    coarse = RadialGrid(r_max=12.0, h=12.0 / 10000)
    res_h = h_residual(evaluate_state(psi, coarse), 1.0, v_eff, PHYS)
    res_h2 = h_residual(evaluate_state(psi, coarse.halved()), 1.0, v_eff, PHYS)
    assert 3.6 <= res_h / res_h2 <= 4.4


def test_h_residual_oracle_state():
    sols = qes_solve(1.0, 0.5, DIM3, PHYS, 1)
    sol = sols[1]  # one-node state, a = (3+sqrt 5)/2
    state = oracle_state(sol, DIM3, PHYS, 1.0, 0.5)
    pot = PotentialParams(a=sol.a_root, b=1.0, c=0.5)
    grid = build_grid(pot, DIM3, PHYS)
    res = h_residual(evaluate_state(state, grid), 2.0, effective_potential(pot, DIM3, PHYS), PHYS)
    assert res <= 1e-6


def test_oracle_node_count_matches_eigenvalue_index():
    # a state with k nodes is the (k+1)-th eigenstate of its own potential,
    # so the oracle's level energy must sit at that index in the numeric
    # spectrum: a three-way consistency between recursion, node counting,
    # and the eigensolver
    for n in (1, 2):
        for sol in qes_solve(1.0, 0.5, DIM3, PHYS, n):
            pot = PotentialParams(a=sol.a_root, b=1.0, c=0.5)
            grid = build_grid(pot, DIM3, PHYS)
            value = eigen_lowest(
                effective_potential(pot, DIM3, PHYS), grid, PHYS, sol.node_count)
            assert abs(value - sol.energy) <= 1e-4


def test_h_residual_ladder_state_reproducible():
    # measured quantity with no smallness claim: identical across evaluations
    ladder = hierarchy_states(1.0, 0.5, DIM3, PHYS, 1)
    pot = PotentialParams(a=2.0, b=1.0, c=0.5)
    v_eff = effective_potential(pot, DIM3, PHYS)
    grid = build_grid(pot, DIM3, PHYS)
    first = h_residual(evaluate_state(ladder, grid), 2.0, v_eff, PHYS)
    second = h_residual(
        evaluate_state(hierarchy_states(1.0, 0.5, DIM3, PHYS, 1), grid), 2.0, v_eff, PHYS
    )
    assert first == second
    assert first > 0.1  # the ladder state is far from an exact eigenstate here


# -- eigensolver ------------------------------------------------------------------

def _levels(v_eff, grid, k, first=0, **kwargs):
    """Levels first .. first + k - 1, one ``eigen_lowest`` call each."""
    return [eigen_lowest(v_eff, grid, PHYS, level, **kwargs) for level in range(first, first + k)]


def test_eigen_hydrogen():
    pot = PotentialParams(a=1.0)
    grid = RadialGrid(r_max=40.0, h=0.002)
    v_eff = effective_potential(pot, DIM3, PHYS)
    e0 = eigen_lowest(v_eff, grid, PHYS, richardson=True)
    assert abs(e0 + 0.5) <= 5e-5


def test_eigen_pure_oscillator_single_potential_levels():
    # the reduced s-wave problem alone has spacing 2 hbar omega
    pot = PotentialParams(c=0.5)
    grid = RadialGrid(r_max=20.0, h=0.001)
    v_eff = effective_potential(pot, DIM3, PHYS)
    vals = _levels(v_eff, grid, 3, richardson=True)
    np.testing.assert_allclose(vals, [1.5, 3.5, 5.5], atol=5e-5)


def test_eigen_pure_oscillator_hierarchy_levels():
    # the level-n formula value is the ground energy of the barrier-(Lambda+n)
    # member, so successive levels interleave both parities of the full
    # oscillator spectrum
    pot = PotentialParams(c=0.5)
    grid = RadialGrid(r_max=20.0, h=0.001)
    for n, expected in enumerate([1.5, 2.5, 3.5]):
        dim = dimension_reduce(3, n)
        v_eff = effective_potential(pot, dim, PHYS)
        e0 = eigen_lowest(v_eff, grid, PHYS, richardson=True)
        assert abs(e0 - expected) <= 5e-5


def test_eigen_reference_problem():
    grid = build_grid(P1, DIM3, PHYS)
    v_eff = effective_potential(P1, DIM3, PHYS)
    e0 = eigen_lowest(v_eff, grid, PHYS)
    assert abs(e0 - 1.0) <= 1e-4


def test_eigen_values_nondecreasing():
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    vals = _levels(v_eff, grid, 6)
    assert all(lo <= hi for lo, hi in zip(vals[:-1], vals[1:]))


def test_eigen_convergence_order():
    pot = PotentialParams(a=1.0)
    v_eff = effective_potential(pot, DIM3, PHYS)
    err = []
    for h in (0.004, 0.002):
        grid = RadialGrid(r_max=40.0, h=h)
        err.append(abs(eigen_lowest(v_eff, grid, PHYS) + 0.5))
    assert 3.6 <= err[0] / err[1] <= 4.4


def test_eigen_eigenvector_ground_matches_closed_form():
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    _, vector = eigen_lowest(v_eff, grid, PHYS, eigenvectors=True)
    numeric, _ = normalize(GridFunction(grid=grid, values=vector))
    closed, _ = normalize(evaluate_state(ground_state(P1, DIM3, PHYS).psi, grid))
    assert abs(overlap(numeric, closed)) == pytest.approx(1.0, abs=1e-8)


def test_eigen_first_validation():
    grid = RadialGrid(r_max=10.0, h=0.01)  # 1000 nodes: levels 0..99
    v_eff = effective_potential(P1, DIM3, PHYS)
    with pytest.raises(ValueError, match="level -1 out of range for 1000 nodes"):
        eigen_lowest(v_eff, grid, PHYS, -1)
    assert math.isfinite(eigen_lowest(v_eff, grid, PHYS, grid.levels - 1))


def test_eigen_k_validation():
    # ten nodes per level bound the levels a grid solves, as `eig --k` checks
    grid = RadialGrid(r_max=10.0, h=0.01)
    v_eff = effective_potential(P1, DIM3, PHYS)
    assert grid.levels == grid.count // 10 == 100
    for level in (grid.levels, grid.count):
        with pytest.raises(ValueError, match=f"level {level} out of range for 1000 nodes"):
            eigen_lowest(v_eff, grid, PHYS, level)


def _entries(diag, off):
    """The n - 1 off-diagonal entries, each ``off``, as the references
    (``eigh_tridiagonal``, ``dstebz``, ``sturm_count``) take them."""
    return np.full(len(diag) - 1, off)


def _stebz_levels(diag, off, first, k):
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(
        diag, _entries(diag, off), eigvals_only=True, select="i",
        select_range=(first, first + k - 1), lapack_driver="stebz",
    )


def _stebz_vector(diag, off, level):
    """dstein's vector of the bisected level, as ``eigh_tridiagonal`` finds it."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(diag, _entries(diag, off), select="i", select_range=(level, level),
                            lapack_driver="stebz")[1][:, 0]


def _matrix(v_eff, grid):
    """(diag, off) of a grid, the bits ``numerics._matrix`` gives."""
    t = PHYS.kinetic
    return 2.0 * t / grid.h**2 + v_eff(grid.nodes), -t / grid.h**2


def _bisection_tol(diag, off):
    """stebz's default tolerance, ULP * ||T||_1."""
    off = np.abs(_entries(diag, off))
    col = np.abs(diag) + np.concatenate(([0.0], off)) + np.concatenate((off, [0.0]))
    return np.finfo(float).eps * float(np.max(col))


#: sweep-like problems: (a, c) on the coupling surface, N, l
SWEEP_LIKE = [(0.8, 0.4, 3, 0), (1.6, 0.8, 5, 1), (1.2, 0.6, 7, 2)]


def _sweep_like(a, c, n_dim, ell):
    """(v_eff, default grid) of a problem on the coupling surface."""
    dim = dimension_reduce(n_dim, ell)
    pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
    return effective_potential(pot, dim, PHYS), build_grid(pot, dim, PHYS)


def _assert_stebz_vector(vector, diag, off, level):
    # dstein's vector of the bisected level, bit for bit: its largest
    # component positive
    expected = _stebz_vector(diag, off, level)
    assert vector.tobytes() == expected.tobytes()
    assert vector[np.argmax(np.abs(vector))] > 0.0


def test_eigen_lowest_is_the_stebz_index_solve():
    # values within stebz's tolerance of the plain index-range bisection,
    # each the Rayleigh quotient of dstein's vector of its level
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    values = _levels(v_eff, grid, 4)
    np.testing.assert_allclose(
        values, _stebz_levels(diag, off, 0, 4), rtol=0, atol=_bisection_tol(diag, off))
    for level, value in enumerate(values):
        quotient, vector = eigen_lowest(v_eff, grid, PHYS, level, eigenvectors=True)
        assert quotient == value
        _assert_stebz_vector(vector, diag, off, level)
        tx = diag * vector
        tx[1:] += off * vector[:-1]
        tx[:-1] += off * vector[1:]
        assert abs(value - float(vector @ tx)) <= 1e-13 * abs(value)


def test_richardson_levels_match_unseeded_extrapolation():
    dim = dimension_reduce(5, 1)
    pot = PotentialParams(a=1.6, b=constraint_b(1.6, 0.8, dim, PHYS), c=0.8)
    v_eff = effective_potential(pot, dim, PHYS)
    grid = build_grid(pot, dim, PHYS)
    coarse, fine = _matrix(v_eff, grid), _matrix(v_eff, grid.halved())
    # each grid's value is within its bisection tolerance of stebz's, and
    # the extrapolation weighs them 4/3 and 1/3
    tol = (4.0 * _bisection_tol(*fine) + _bisection_tol(*coarse)) / 3.0
    for first, k in ((0, 1), (1, 1), (2, 1), (1, 2)):
        h_vals, half_vals = _stebz_levels(*coarse, first, k), _stebz_levels(*fine, first, k)
        expected = (4.0 * half_vals - h_vals) / 3.0
        values = _levels(v_eff, grid, k, first, richardson=True)
        np.testing.assert_allclose(values, expected, rtol=0, atol=tol)


@pytest.mark.parametrize("n", range(4))
def test_single_level_is_the_stebz_index_solve(n):
    # a single level, with or without its vector, is the same double as
    # that level among the lowest four, within stebz's tolerance of the
    # plain index-range bisection
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    expected = eigen_lowest(v_eff, grid, PHYS, n)
    assert _levels(v_eff, grid, 4)[n] == expected
    value, vector = eigen_lowest(v_eff, grid, PHYS, n, eigenvectors=True)
    assert value == expected
    _assert_stebz_vector(vector, diag, off, n)
    np.testing.assert_allclose(
        expected, _stebz_levels(diag, off, n, 1), rtol=0, atol=_bisection_tol(diag, off))


def _vector_bound(diag, off, level, value, vector):
    """(r + ULP * ||T||_1) / gap, with r = ||T x - E x|| and gap the distance
    from E to the nearest other level: the iterate is within r / gap of the
    eigenvector (Davis & Kahan), and dstein's vector within about
    ULP * ||T||_1 / gap of it."""
    tx = diag * vector
    tx[1:] += off * vector[:-1]
    tx[:-1] += off * vector[1:]
    low = max(level - 1, 0)
    others = np.delete(_stebz_levels(diag, off, low, level + 2 - low), level - low)
    gap = float(np.min(np.abs(others - value)))
    return (float(np.linalg.norm(tx - value * vector)) + _bisection_tol(diag, off)) / gap


def test_values_below_the_bisection_floor():
    # the Rayleigh quotients against a dstebz solve at a tight tolerance, and
    # against the quotient of the same vectors summed in extended precision,
    # where numpy has it: both differences are far below stebz's default
    # tolerance (measured 3.3e-2 and 1.8e-3 of it)
    from scipy.linalg.lapack import dstebz

    grid = RadialGrid(r_max=20.0, h=1e-3)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    floor = _bisection_tol(diag, off)
    values = np.array(_levels(v_eff, grid, 3))
    m, tight, _, _, info = dstebz(diag, _entries(diag, off), 2, 0.0, 0.0, 1, 3, 1e-300, "E")
    assert (m, info) == (3, 0)
    assert np.max(np.abs(values - tight[:3])) <= floor / 10.0
    if np.finfo(np.longdouble).eps > 1e-18:
        return
    refined, vectors = zip(*(eigen_lowest(v_eff, grid, PHYS, level, eigenvectors=True)
                             for level in range(3)))
    assert list(refined) == values.tolist()
    wide = diag.astype(np.longdouble), np.longdouble(off)
    for value, vector in zip(values, vectors):
        x = vector.astype(np.longdouble)
        tx = wide[0] * x
        tx[1:] += wide[1] * x[:-1]
        tx[:-1] += wide[1] * x[1:]
        assert abs(float(np.sum(x * tx) / np.sum(x * x)) - value) <= floor / 50.0


def test_non_finite_matrix_is_refused():
    # c r^2 overflows at the far nodes
    pot = PotentialParams(a=1.0, b=0.0, c=1e307)
    v_eff = effective_potential(pot, DIM3, PHYS)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        eigen_lowest(v_eff, RadialGrid(r_max=20.0, h=0.01), PHYS)


# -- returned vectors -----------------------------------------------------------

def _owner(array):
    """The array that owns the memory ``array`` views."""
    while array.base is not None:
        array = array.base
    return array


def test_returned_vectors_do_not_share_the_work_arrays():
    # a returned vector owns its memory alone: it neither changes with a
    # later solve nor keeps a larger work array alive
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    _, first = eigen_lowest(v_eff, grid, PHYS, eigenvectors=True)
    kept = first.copy()
    _, second = eigen_lowest(v_eff, grid, PHYS, 1, eigenvectors=True)
    assert first.tobytes() == kept.tobytes()
    for vector in (first, second):
        assert _owner(vector).nbytes == vector.nbytes == 8 * grid.count


def test_sturm_count_consistency_with_eigenvalues():
    # my count of eigenvalues below random shifts must match the solver's
    grid = RadialGrid(r_max=12.0, h=12.0 / 400)
    v_eff = effective_potential(P1, DIM3, PHYS)
    t = PHYS.kinetic
    diag = 2.0 * t / grid.h**2 + v_eff(grid.nodes)
    off = np.full(grid.count - 1, -t / grid.h**2)
    from scipy.linalg import eigh_tridiagonal

    all_vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    rng = np.random.default_rng(77)
    lo, hi = all_vals[0] - 1.0, all_vals[-1] + 1.0
    for _ in range(100):
        sigma = rng.uniform(lo, hi)
        assert sturm_count(diag, off, sigma) == int(np.sum(all_vals < sigma))


# -- overlap ----------------------------------------------------------------------

def test_overlap_self_is_one():
    grid = RadialGrid(r_max=5.0, h=0.01)
    psi = ground_state(P1, DIM3, PHYS).psi
    f = evaluate_state(psi, grid)
    assert overlap(f, f) == pytest.approx(1.0, abs=1e-14)


def test_overlap_box_modes_orthogonal():
    grid = RadialGrid(r_max=1.0, h=1.0 / 4000)
    length = grid.r_max + grid.h
    one = GridFunction(grid=grid, values=np.sin(math.pi * grid.nodes / length))
    two = GridFunction(grid=grid, values=np.sin(2.0 * math.pi * grid.nodes / length))
    assert abs(overlap(one, two)) <= 1e-10


def test_overlap_ground_vs_oracle_nodeless():
    # different potentials in the family; the states are close but not equal
    grid = build_grid(P1, DIM3, PHYS)
    ground = evaluate_state(ground_state(P1, DIM3, PHYS).psi, grid)
    nodeless = qes_solve(1.0, 0.5, DIM3, PHYS, 1)[0]
    other = evaluate_state(oracle_state(nodeless, DIM3, PHYS, 1.0, 0.5), grid)
    value = overlap(ground, other)
    assert 0.0 < value < 1.0


def test_overlap_grid_mismatch_rejected():
    f = GridFunction(grid=RadialGrid(r_max=5.0, h=0.01), values=np.ones(500))
    g = GridFunction(grid=RadialGrid(r_max=5.0, h=0.05), values=np.ones(100))
    with pytest.raises(ValueError, match="same grid"):
        overlap(f, g)


# -- grid kernels in their own arrays, bit for bit -------------------------------

def _solver_apply(v_eff, f, phys):
    """The eigensolver's own matrix of f's grid, ``numerics._matrix``, times
    f in the plain expressions of the product: diag f, plus off f_{i-1},
    plus off f_{i+1}."""
    diag, off = numerics._matrix(v_eff(f.grid.nodes), f.grid.h, phys)
    vals = f.values
    tx = diag * vals
    tx[1:] = tx[1:] + off * vals[:-1]
    tx[:-1] = tx[:-1] + off * vals[1:]
    return tx


def _plain_quad(samples, h):
    """The trapezoid rule with zero end values: h times the pairwise sum."""
    return h * np.add.reduce(samples)


def _kernel_cases():
    """(name, v_eff, grid, states): the reference problem's states on
    its default grid, and the rank-7 and rank-8 states of ``oracle --b 2.2
    --c 0.2 --N 6 --l 0 --n 8``, as the benchmark asks, on their own grids
    of more than 2e5 nodes."""
    ground = ground_state(P1, DIM3, PHYS)
    states = [ground.psi, *(hierarchy_states(1.0, 0.5, DIM3, PHYS, n) for n in (1, 2))]
    yield "default", effective_potential(P1, DIM3, PHYS), build_grid(P1, DIM3, PHYS), states
    dim = dimension_reduce(6, 0)
    for sol in qes_solve(2.2, 0.2, dim, PHYS, 8)[-2:]:
        pot = PotentialParams(a=sol.a_root, b=2.2, c=0.2)
        grid = build_grid(pot, dim, PHYS)
        assert grid.count > 2e5
        yield (f"oracle rank {sol.node_count}", effective_potential(pot, dim, PHYS), grid,
               [oracle_state(sol, dim, PHYS, 2.2, 0.2)])


def test_nodes_are_computed_once_and_read_only():
    for _, _, grid, _ in _kernel_cases():
        nodes = grid.nodes
        assert nodes is grid.nodes
        assert nodes.tobytes() == (grid.h * np.arange(1, grid.count + 1)).tobytes()
        assert not nodes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0
    # the cache is no field: equal grids stay equal and hash alike
    grid = RadialGrid(r_max=10.0, h=0.01)
    grid.nodes
    assert grid == RadialGrid(r_max=10.0, h=0.01)
    assert hash(grid) == hash(RadialGrid(r_max=10.0, h=0.01))


def test_grid_kernels_are_the_plain_expressions_bit_for_bit():
    for name, v_eff, grid, states in _kernel_cases():
        for state in states:
            f = evaluate_state(state, grid)
            assert f.values.tobytes() == state.evaluate(grid.nodes).tobytes(), name
            applied = hamiltonian_apply(v_eff, f, PHYS).values
            assert applied.tobytes() == _solver_apply(v_eff, f, PHYS).tobytes(), name
            assert f.norm() == math.sqrt(_plain_quad(f.values**2, grid.h)), name
            other = evaluate_state(states[0], grid)
            expected = _plain_quad(f.values * other.values, grid.h) / (f.norm() * other.norm())
            assert overlap(f, other) == expected, name


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("off", [-0.75, 0.0])
def test_product_is_the_dense_tridiagonal_product(n, off):
    # T x of the one off-diagonal value, against the dense matrix
    rng = np.random.default_rng(n)
    diag, x = rng.normal(size=n), rng.normal(size=n)
    dense = np.diag(diag) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    out = numerics._product(diag, off, x, np.empty(n), np.empty(n))
    np.testing.assert_allclose(out, dense @ x, rtol=1e-14, atol=1e-14)
    if off == 0.0:
        assert out.tobytes() == (diag * x).tobytes()
    # the diagonal itself as the scratch, as ``hamiltonian_apply`` passes it
    own = diag.copy()
    assert numerics._product(own, off, x, np.empty(n), own).tobytes() == out.tobytes()


def test_state_evaluate_on_scalars_is_the_plain_expression():
    # a float, a numpy scalar and a 0-d array take the array path and give
    # a float, the bits of the one-element array; so do the degree-0 and
    # zero polynomials
    states = [ClosedFormState(poly=(1.0,), q=1.0, lam=1.0),
              ClosedFormState(poly=(0.3, -1.7, 0.25, 2.0), q=2.5, lam=0.4, kap=0.3),
              ClosedFormState(poly=(0.0,), q=0.5, kap=1.0)]
    for state in states:
        for r in (0.37, np.float64(2.0), np.asarray(11.5), 1e-300):
            value = state.evaluate(r)
            assert type(value) is float
            assert value == float(state.evaluate(np.asarray([r]))[0])
    assert states[0].evaluate(np.asarray(1.0)) == math.exp(-1.0)


