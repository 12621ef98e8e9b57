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
    COARSE_WINDOW,
    COARSEN,
    MAX_NODES,
    WINDOW,
    GridFunction,
    RadialGrid,
    _seeded_lowest,
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
    assert grid.r_min == 0.01
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
    zero = GridFunction(grid=grid, values=np.zeros(grid.count))
    with pytest.raises(ValueError):
        normalize(zero)


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
    res = h_residual(psi, 1.0, v_eff, PHYS, grid=grid)
    assert res <= 1e-6


def test_h_residual_scales_second_order():
    psi = ground_state(P1, DIM3, PHYS).psi
    v_eff = effective_potential(P1, DIM3, PHYS)
    coarse = RadialGrid(r_max=12.0, h=12.0 / 10000)
    res_h = h_residual(psi, 1.0, v_eff, PHYS, grid=coarse)
    res_h2 = h_residual(psi, 1.0, v_eff, PHYS, grid=coarse.halved())
    assert 3.6 <= res_h / res_h2 <= 4.4


def test_h_residual_oracle_state():
    sols = qes_solve(1.0, 0.5, DIM3, PHYS, 1)
    sol = sols[1]  # one-node state, a = (3+sqrt 5)/2
    state = oracle_state(sol, DIM3, PHYS, 1.0, 0.5)
    pot = PotentialParams(a=sol.a_root, b=1.0, c=0.5)
    grid = build_grid(pot, DIM3, PHYS)
    res = h_residual(state, 2.0, effective_potential(pot, DIM3, PHYS), PHYS, grid=grid)
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
            vals = eigen_lowest(
                effective_potential(pot, DIM3, PHYS), grid, PHYS,
                k=sol.node_count + 1,
            )
            assert abs(vals[sol.node_count] - sol.energy) <= 1e-4


def test_h_residual_ladder_state_reproducible():
    # measured quantity with no smallness claim: identical across evaluations
    ladder = hierarchy_states(1.0, 0.5, DIM3, PHYS, 1)
    pot = PotentialParams(a=2.0, b=1.0, c=0.5)
    v_eff = effective_potential(pot, DIM3, PHYS)
    grid = build_grid(pot, DIM3, PHYS)
    first = h_residual(ladder, 2.0, v_eff, PHYS, grid=grid)
    second = h_residual(
        hierarchy_states(1.0, 0.5, DIM3, PHYS, 1), 2.0, v_eff, PHYS, grid=grid
    )
    assert first == second
    assert first > 0.1  # the ladder state is far from an exact eigenstate here


# -- eigensolver ------------------------------------------------------------------

def test_eigen_hydrogen():
    pot = PotentialParams(a=1.0)
    grid = RadialGrid(r_max=40.0, h=0.002)
    v_eff = effective_potential(pot, DIM3, PHYS)
    e0 = eigen_lowest(v_eff, grid, PHYS, k=1, richardson=True)[0]
    assert abs(e0 + 0.5) <= 5e-5


def test_eigen_pure_oscillator_single_potential_levels():
    # the reduced s-wave problem alone has spacing 2 hbar omega
    pot = PotentialParams(c=0.5)
    grid = RadialGrid(r_max=20.0, h=0.001)
    v_eff = effective_potential(pot, DIM3, PHYS)
    vals = eigen_lowest(v_eff, grid, PHYS, k=3, richardson=True)
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
        e0 = eigen_lowest(v_eff, grid, PHYS, k=1, richardson=True)[0]
        assert abs(e0 - expected) <= 5e-5


def test_eigen_reference_problem():
    grid = build_grid(P1, DIM3, PHYS)
    v_eff = effective_potential(P1, DIM3, PHYS)
    e0 = eigen_lowest(v_eff, grid, PHYS, k=1)[0]
    assert abs(e0 - 1.0) <= 1e-4


def test_eigen_values_nondecreasing():
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    vals = eigen_lowest(v_eff, grid, PHYS, k=6)
    assert all(lo <= hi for lo, hi in zip(vals[:-1], vals[1:]))


def test_eigen_convergence_order():
    pot = PotentialParams(a=1.0)
    v_eff = effective_potential(pot, DIM3, PHYS)
    err = []
    for h in (0.004, 0.002):
        grid = RadialGrid(r_max=40.0, h=h)
        err.append(abs(eigen_lowest(v_eff, grid, PHYS, k=1)[0] + 0.5))
    assert 3.6 <= err[0] / err[1] <= 4.4


def test_eigen_eigenvector_ground_matches_closed_form():
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    vals, vecs = eigen_lowest(v_eff, grid, PHYS, k=1, eigenvectors=True)
    numeric, _ = normalize(GridFunction(grid=grid, values=vecs[:, 0]))
    closed, _ = normalize(evaluate_state(ground_state(P1, DIM3, PHYS).psi, grid))
    assert abs(overlap(numeric, closed)) == pytest.approx(1.0, abs=1e-8)


def test_eigen_k_validation():
    grid = RadialGrid(r_max=10.0, h=0.01)
    v_eff = effective_potential(P1, DIM3, PHYS)
    with pytest.raises(ValueError):
        eigen_lowest(v_eff, grid, PHYS, k=0)
    with pytest.raises(ValueError):
        eigen_lowest(v_eff, grid, PHYS, k=grid.count)


def _stebz_lowest(diag, off, k):
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, k - 1),
        lapack_driver="stebz",
    )


def _matrix(v_eff, grid):
    t = PHYS.kinetic
    return 2.0 * t / grid.h**2 + v_eff(grid.nodes), np.full(grid.count - 1, -t / grid.h**2)


def _bisection_tol(diag, off):
    """stebz's default tolerance, ULP * ||T||_1."""
    col = np.abs(diag) + np.concatenate(([0.0], np.abs(off))) + np.concatenate((np.abs(off), [0.0]))
    return np.finfo(float).eps * float(np.max(col))


#: sweep-like problems: (a, c) on the coupling surface, N, l
SWEEP_LIKE = [(0.8, 0.4, 3, 0), (1.6, 0.8, 5, 1), (1.2, 0.6, 7, 2)]


@pytest.mark.parametrize("a, c, n_dim, ell", SWEEP_LIKE)
def test_seeded_half_step_matches_unseeded(a, c, n_dim, ell):
    dim = dimension_reduce(n_dim, ell)
    pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
    v_eff = effective_potential(pot, dim, PHYS)
    grid = build_grid(pot, dim, PHYS)
    seeds = eigen_lowest(v_eff, grid, PHYS, k=6)
    diag, off = _matrix(v_eff, grid.halved())
    tol = _bisection_tol(diag, off)
    for k in (1, 3, 6):
        seeded = _seeded_lowest(diag, off, seeds[:k], 0, WINDOW)
        np.testing.assert_allclose(seeded, _stebz_lowest(diag, off, k), rtol=0, atol=tol)


def test_seeded_values_bracketed_by_sturm_counts():
    grid = RadialGrid(r_max=12.0, h=12.0 / 1000)  # the h/2 grid has 2000 nodes
    v_eff = effective_potential(P1, DIM3, PHYS)
    seeds = eigen_lowest(v_eff, grid, PHYS, k=6)
    diag, off = _matrix(v_eff, grid.halved())
    step = 4.0 * _bisection_tol(diag, off)
    for j, value in enumerate(_seeded_lowest(diag, off, seeds, 0, WINDOW)):
        assert sturm_count(diag, off, value - step) == j
        assert sturm_count(diag, off, value + step) == j + 1


def test_seeded_windows_fall_back_to_unseeded():
    grid = RadialGrid(r_max=12.0, h=12.0 / 2000)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    k = 4
    # the bisection's bits depend on the index range, so compare like with like
    unseeded = _stebz_lowest(diag, off, k)
    bad_seeds = {
        "miss": unseeded + 0.5,  # windows hold no eigenvalue
        "shifted": _stebz_lowest(diag, off, k + 1)[1:],  # one per window, k + 1 below the top
        "overlap": [unseeded[0], unseeded[0] + 1e-9, *unseeded[2:]],
    }
    for name, seeds in bad_seeds.items():
        values = _seeded_lowest(diag, off, seeds, 0, WINDOW)
        assert values.tolist() == unseeded.tolist(), name


def test_eigen_lowest_is_the_stebz_index_solve():
    # non-extrapolated values are the plain index-range bisection, bit for bit
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    expected = _stebz_lowest(*_matrix(v_eff, grid), 4).tolist()
    assert eigen_lowest(v_eff, grid, PHYS, k=4) == expected
    assert eigen_lowest(v_eff, grid, PHYS, k=4, eigenvectors=True)[0] == expected


def _stebz_levels(diag, off, first, k):
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(first, first + k - 1),
        lapack_driver="stebz",
    )


def _no_fallback(*_args):
    raise AssertionError("the unseeded solve ran")


@pytest.mark.parametrize("a, c, n_dim, ell", SWEEP_LIKE)
def test_coarse_seeded_values_match_unseeded(a, c, n_dim, ell, monkeypatch):
    dim = dimension_reduce(n_dim, ell)
    pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
    v_eff = effective_potential(pot, dim, PHYS)
    grid = build_grid(pot, dim, PHYS)
    diag, off = _matrix(v_eff, grid)
    coarse = _matrix(v_eff, RadialGrid(r_max=grid.r_max, h=COARSEN * grid.h))
    tol = _bisection_tol(diag, off)
    for first in range(3):
        for k in range(1, 4):
            expected = _stebz_levels(diag, off, first, k)
            seeds = _stebz_levels(*coarse, first, k)
            with monkeypatch.context() as patch:
                # the windows must prove themselves here, not fall back
                patch.setattr(numerics, "_index_solve", _no_fallback)
                seeded = _seeded_lowest(diag, off, seeds, first, COARSE_WINDOW)
            np.testing.assert_allclose(seeded, expected, rtol=0, atol=tol)


def test_richardson_levels_match_unseeded_extrapolation():
    dim = dimension_reduce(5, 1)
    pot = PotentialParams(a=1.6, b=constraint_b(1.6, 0.8, dim, PHYS), c=0.8)
    v_eff = effective_potential(pot, dim, PHYS)
    grid = build_grid(pot, dim, PHYS)
    coarse, fine = _matrix(v_eff, grid), _matrix(v_eff, grid.halved())
    # each seeded value is within its grid's bisection tolerance of the
    # unseeded one, and the extrapolation weighs them 4/3 and 1/3
    tol = (4.0 * _bisection_tol(*fine) + _bisection_tol(*coarse)) / 3.0
    for first, k in ((0, 1), (1, 1), (2, 1), (1, 2)):
        h_vals, half_vals = _stebz_levels(*coarse, first, k), _stebz_levels(*fine, first, k)
        expected = (4.0 * half_vals - h_vals) / 3.0
        values = eigen_lowest(v_eff, grid, PHYS, k=k, richardson=True, first=first)
        np.testing.assert_allclose(values, expected, rtol=0, atol=tol)


def test_seeded_windows_with_first_fall_back_to_unseeded():
    grid = RadialGrid(r_max=12.0, h=12.0 / 2000)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    first, k = 2, 2
    unseeded = _stebz_levels(diag, off, first, k)
    levels = _stebz_levels(diag, off, 0, first + k + 1)
    bad_seeds = {
        "lower": levels[first - 1:first - 1 + k],  # N(top) is first + k - 1
        "higher": levels[first + 1:first + 1 + k],  # N(top) is first + k + 1
        # one eigenvalue per window and N(top) = first + k, but the windows
        # hold levels 1 and 3: only N(lowest edge) = 1 != first shows it
        "gap": [levels[first - 1], levels[first + 1]],
        "miss": unseeded + 0.5,
    }
    for name, seeds in bad_seeds.items():
        values = _seeded_lowest(diag, off, seeds, first, WINDOW)
        assert values.tolist() == unseeded.tolist(), name


def test_richardson_without_coarse_grid_is_unseeded_at_h():
    # r_max / (4 h) = 50 nodes: no 4h grid, so the h values are unseeded
    grid = RadialGrid(r_max=20.0, h=0.1)
    v_eff = effective_potential(P1, DIM3, PHYS)
    fine = _matrix(v_eff, grid.halved())
    for first in (0, 1):
        coarse_vals = _stebz_levels(*_matrix(v_eff, grid), first, 2)
        fine_vals = _seeded_lowest(*fine, coarse_vals, first, WINDOW)
        expected = [float((4.0 * f - c) / 3.0) for c, f in zip(coarse_vals, fine_vals)]
        assert eigen_lowest(v_eff, grid, PHYS, k=2, richardson=True, first=first) == expected


@pytest.mark.parametrize("n", range(4))
def test_single_level_is_the_stebz_index_solve(n):
    # non-extrapolated levels are the plain index-range bisection, bit for bit
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    expected = _stebz_levels(diag, off, n, 1).tolist()
    assert eigen_lowest(v_eff, grid, PHYS, k=1, first=n) == expected
    assert eigen_lowest(v_eff, grid, PHYS, k=1, first=n, eigenvectors=True)[0] == expected


def test_eigen_first_validation():
    grid = RadialGrid(r_max=10.0, h=0.01)  # 1000 nodes: levels 0..99
    v_eff = effective_potential(P1, DIM3, PHYS)
    with pytest.raises(ValueError, match="first >= 0"):
        eigen_lowest(v_eff, grid, PHYS, k=1, first=-1)
    with pytest.raises(ValueError, match="out of range"):
        eigen_lowest(v_eff, grid, PHYS, k=2, first=99)
    assert len(eigen_lowest(v_eff, grid, PHYS, k=2, first=98)) == 2


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
