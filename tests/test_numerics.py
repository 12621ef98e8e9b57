import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from pcoulomb.exact import closed_level, constraint_b, ground_state, hierarchy_states
from pcoulomb.model import (
    LaurentForm,
    PhysicalParams,
    PotentialParams,
    dimension_reduce,
    effective_potential,
)
from pcoulomb import numerics
from pcoulomb.numerics import (
    COARSEN,
    MAX_NODES,
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
    first = h_residual(evaluate_state(ladder, grid), 2.0, v_eff, PHYS)
    second = h_residual(
        evaluate_state(hierarchy_states(1.0, 0.5, DIM3, PHYS, 1), grid), 2.0, v_eff, PHYS
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


def test_eigenvectors_are_for_one_level():
    grid = RadialGrid(r_max=10.0, h=0.01)
    v_eff = effective_potential(P1, DIM3, PHYS)
    with pytest.raises(ValueError, match="k = 2"):
        eigen_lowest(v_eff, grid, PHYS, k=2, eigenvectors=True)


def test_eigen_k_validation():
    grid = RadialGrid(r_max=10.0, h=0.01)
    v_eff = effective_potential(P1, DIM3, PHYS)
    with pytest.raises(ValueError):
        eigen_lowest(v_eff, grid, PHYS, k=0)
    with pytest.raises(ValueError):
        eigen_lowest(v_eff, grid, PHYS, k=grid.count)


def _stebz_levels(diag, off, first, k):
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(first, first + k - 1),
        lapack_driver="stebz",
    )


def _stebz_vector(diag, off, level):
    """dstein's vector of the bisected level, as ``eigh_tridiagonal`` finds it."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(
        diag, off, select="i", select_range=(level, level), lapack_driver="stebz")[1][:, 0]


def _matrix(v_eff, grid):
    t = PHYS.kinetic
    return 2.0 * t / grid.h**2 + v_eff(grid.nodes), np.full(grid.count - 1, -t / grid.h**2)


def _bisection_tol(diag, off):
    """stebz's default tolerance, ULP * ||T||_1."""
    col = np.abs(diag) + np.concatenate(([0.0], np.abs(off))) + np.concatenate((np.abs(off), [0.0]))
    return np.finfo(float).eps * float(np.max(col))


#: sweep-like problems: (a, c) on the coupling surface, N, l
SWEEP_LIKE = [(0.8, 0.4, 3, 0), (1.6, 0.8, 5, 1), (1.2, 0.6, 7, 2)]


def _sweep_like(a, c, n_dim, ell):
    """(v_eff, default grid) of a problem on the coupling surface."""
    dim = dimension_reduce(n_dim, ell)
    pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
    return effective_potential(pot, dim, PHYS), build_grid(pot, dim, PHYS)


def _unseeded(diag, off, level):
    """(value, vector) of the unseeded path: the level's bisected value, refined."""
    return _seeded_lowest(diag, off, None, level)


@pytest.mark.parametrize("a, c, n_dim, ell", SWEEP_LIKE)
def test_seeded_half_step_matches_unseeded(a, c, n_dim, ell):
    v_eff, grid = _sweep_like(a, c, n_dim, ell)
    seeds = eigen_lowest(v_eff, grid, PHYS, k=6)
    diag, off = _matrix(v_eff, grid.halved())
    tol = _bisection_tol(diag, off)
    seeded = [_seeded_lowest(diag, off, seed, level)[0] for level, seed in enumerate(seeds)]
    np.testing.assert_allclose(seeded, _stebz_levels(diag, off, 0, 6), rtol=0, atol=tol)


def test_seeded_values_bracketed_by_sturm_counts():
    grid = RadialGrid(r_max=12.0, h=12.0 / 1000)  # the h/2 grid has 2000 nodes
    v_eff = effective_potential(P1, DIM3, PHYS)
    seeds = eigen_lowest(v_eff, grid, PHYS, k=6)
    diag, off = _matrix(v_eff, grid.halved())
    step = 4.0 * _bisection_tol(diag, off)
    for j, seed in enumerate(seeds):
        value, _ = _seeded_lowest(diag, off, seed, j)
        assert sturm_count(diag, off, value - step) == j
        assert sturm_count(diag, off, value + step) == j + 1


def _assert_same_pairs(pairs, expected, name):
    """(values, vectors) equal bit for bit."""
    for got, want in zip(pairs, expected):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_seeded_windows_fall_back_to_unseeded():
    grid = RadialGrid(r_max=12.0, h=12.0 / 2000)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    levels = _stebz_levels(diag, off, 0, 5)
    for level in range(4):
        bad_seeds = {
            "miss": levels[level] + 0.5,  # a residual far wider than the window
            "shifted": levels[level + 1],  # N(top) is level + 2
        }
        for name, seed in bad_seeds.items():
            _assert_same_pairs(_seeded_lowest(diag, off, seed, level),
                               _unseeded(diag, off, level), name)
        # the fallback's value is refined and proves itself
        value, vector = _unseeded(diag, off, level)
        np.testing.assert_allclose(value, levels[level], rtol=0, atol=_bisection_tol(diag, off))
        assert vector is not None


def _chain(v_eff, grid, level):
    """(value, vector) of one level by the 16h -> 4h -> h chain composed from
    its parts: the level's index bisection on the 16h grid, then the
    refinement of that seed on the 4h grid and of its value on the h grid."""
    coarsest = _matrix(v_eff, RadialGrid(r_max=grid.r_max, h=COARSEN**2 * grid.h))
    seed = _stebz_levels(*coarsest, level, 1)[0]
    coarse = _matrix(v_eff, RadialGrid(r_max=grid.r_max, h=COARSEN * grid.h))
    seed, _ = _seeded_lowest(*coarse, seed, level)
    return _seeded_lowest(*_matrix(v_eff, grid), seed, level)


def _assert_chain_vector(vecs, chain_vector):
    # eigen_lowest signs the chain's iterate: the largest component positive
    assert vecs.shape == (len(chain_vector), 1)
    assert np.abs(vecs[:, 0]).tobytes() == np.abs(chain_vector).tobytes()
    assert vecs[np.argmax(np.abs(vecs[:, 0])), 0] > 0.0


def test_eigen_lowest_is_the_stebz_index_solve():
    # values and a level's vector are the seeded chain's, bit for bit, and
    # the values are within stebz's tolerance of the plain index-range
    # bisection.  Level 3 moves by 2.2e-4 relative from 4h to h on this grid
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    expected = [_chain(v_eff, grid, level)[0] for level in range(4)]
    assert eigen_lowest(v_eff, grid, PHYS, k=4) == expected
    pair_values, vecs = eigen_lowest(v_eff, grid, PHYS, k=1, first=3, eigenvectors=True)
    chain_value, chain_vector = _chain(v_eff, grid, 3)
    assert pair_values == [chain_value]
    _assert_chain_vector(vecs, chain_vector)
    np.testing.assert_allclose(
        expected, _stebz_levels(diag, off, 0, 4), rtol=0, atol=_bisection_tol(diag, off))


def _no_fallback(*_args):
    raise AssertionError("the unseeded solve ran")


@pytest.mark.parametrize("a, c, n_dim, ell", SWEEP_LIKE)
def test_coarse_seeded_values_match_unseeded(a, c, n_dim, ell, monkeypatch):
    v_eff, grid = _sweep_like(a, c, n_dim, ell)
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
                seeded = [_seeded_lowest(diag, off, seed, level)[0]
                          for level, seed in enumerate(seeds, first)]
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
    levels = _stebz_levels(diag, off, 0, 5)
    for level in (2, 3):
        bad_seeds = {
            "lower": levels[level - 1],  # N(top) is level, N(bottom) level - 1
            "higher": levels[level + 1],  # N(top) is level + 2, N(bottom) level + 1
            "miss": levels[level] + 0.5,
        }
        for name, seed in bad_seeds.items():
            _assert_same_pairs(_seeded_lowest(diag, off, seed, level),
                               _unseeded(diag, off, level), name)


def test_seeded_vectors_of_a_split_matrix(monkeypatch):
    # a zero off-diagonal splits the matrix into two blocks whose levels
    # interleave; each level's vector lies in its own block
    diag = np.concatenate((np.linspace(1.0, 2.0, 100), np.linspace(1.03, 2.03, 100)))
    off = np.full(199, -0.3)
    off[99] = 0.0
    values = _stebz_levels(diag, off, 0, 5)
    tol = _bisection_tol(diag, off)
    monkeypatch.setattr(numerics, "_index_solve", _no_fallback)
    for level, in_second in enumerate([0.0, 1.0, 0.0, 1.0]):
        seeded, vector = _seeded_lowest(diag, off, values[level], level)
        vector = vector * np.sign(vector[np.argmax(np.abs(vector))])
        np.testing.assert_allclose(np.sum(vector[100:] ** 2), in_second, atol=1e-12)
        np.testing.assert_allclose(seeded, values[level], rtol=0, atol=tol)
        # dstein's vector, within ULP * ||T||_1 over the gap to the next level
        gap = np.min(np.abs(np.delete(values, level) - values[level]))
        assert np.linalg.norm(vector - _stebz_vector(diag, off, level)) <= tol / gap


def test_diagonal_matrix_falls_back_past_singular_pivots():
    # with T = hbar^2/2m underflowing to zero the matrix is diagonal: a seed
    # equal to an entry is an exactly zero pivot, lowered to -pivmin, whose
    # iterate overflows the norm and falls back, and the fallback shifts the
    # bisected values off the entries
    diag = np.linspace(1.0, 2.0, 200)
    off = np.zeros(199)
    for level in (0, 1, 3, 4):
        value, vector = _seeded_lowest(diag, off, diag[level], level)
        assert value == diag[level]
        np.testing.assert_allclose(np.abs(vector), np.eye(200)[level], rtol=0, atol=1e-20)
    # entries so small that the shift off them is subnormal: the pivot is
    # lowered to -pivmin at every shift, the iterate overflows the norm, and
    # the bisected value is returned with no vector
    tiny = 1e-300 * diag
    for level in (0, 1):
        value, vector = _seeded_lowest(tiny, off, None, level)
        assert value == _stebz_levels(tiny, off, level, 1)[0]
        assert vector is None


def test_richardson_without_coarse_grid_is_unseeded_at_h():
    # r_max / (4 h) = 50 nodes: no 4h grid, so the h values are unseeded
    grid = RadialGrid(r_max=20.0, h=0.1)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    fine = _matrix(v_eff, grid.halved())
    for first in (0, 1):
        levels = (first, first + 1)
        coarse_vals = [_unseeded(diag, off, level)[0] for level in levels]
        np.testing.assert_allclose(coarse_vals, _stebz_levels(diag, off, first, 2),
                                   rtol=0, atol=_bisection_tol(diag, off))
        fine_vals = [_seeded_lowest(*fine, c, level)[0] for c, level in zip(coarse_vals, levels)]
        expected = [float((4.0 * f - c) / 3.0) for c, f in zip(coarse_vals, fine_vals)]
        assert eigen_lowest(v_eff, grid, PHYS, k=2, richardson=True, first=first) == expected


@pytest.mark.parametrize("n", range(4))
def test_single_level_is_the_stebz_index_solve(n):
    # a single level and its vector are the seeded chain's, bit for bit, and
    # the value is within stebz's tolerance of the plain index-range bisection
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    expected, chain_vector = _chain(v_eff, grid, n)
    assert eigen_lowest(v_eff, grid, PHYS, k=1, first=n) == [expected]
    # each level is solved on its own: the level solved with others is the
    # same double
    assert eigen_lowest(v_eff, grid, PHYS, k=4)[n] == expected
    pair_values, vecs = eigen_lowest(v_eff, grid, PHYS, k=1, first=n, eigenvectors=True)
    assert pair_values == [expected]
    _assert_chain_vector(vecs, chain_vector)
    np.testing.assert_allclose(
        expected, _stebz_levels(diag, off, n, 1), rtol=0, atol=_bisection_tol(diag, off))


@pytest.mark.parametrize("a, c, n_dim, ell", SWEEP_LIKE)
def test_eigen_lowest_windows_prove_themselves(a, c, n_dim, ell, monkeypatch):
    # only the coarsest grid (16h) is bisected: no fallback at 4h, h or h/2
    v_eff, grid = _sweep_like(a, c, n_dim, ell)
    coarsest = RadialGrid(r_max=grid.r_max, h=COARSEN**2 * grid.h).count
    index_solve = numerics._index_solve

    def coarsest_only(diag, off, level):
        if len(diag) != coarsest:
            raise AssertionError(f"the grid of {len(diag)} nodes fell back to the unseeded solve")
        return index_solve(diag, off, level)

    monkeypatch.setattr(numerics, "_index_solve", coarsest_only)
    for first in range(3):
        for k in range(1, 4):
            values = eigen_lowest(v_eff, grid, PHYS, k=k, first=first)
            eigen_lowest(v_eff, grid, PHYS, k=k, first=first, richardson=True)
            if k == 1:
                pair_values, vecs = eigen_lowest(
                    v_eff, grid, PHYS, k=k, first=first, eigenvectors=True)
                assert pair_values == values
                assert vecs.shape == (grid.count, k)


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


@pytest.mark.parametrize("a, c, n_dim, ell", SWEEP_LIKE)
def test_seeded_level_one_vector_matches_index_solve(a, c, n_dim, ell):
    # the refined iterate against dstein's vector of the bisected level: the
    # same sign convention, and within _vector_bound in the 2-norm (measured
    # up to 0.11 of it; the bound is 5e-10 to 2e-9 here)
    v_eff, grid = _sweep_like(a, c, n_dim, ell)
    diag, off = _matrix(v_eff, grid)
    (value,), vecs = eigen_lowest(v_eff, grid, PHYS, k=1, first=1, eigenvectors=True)
    expected = _stebz_vector(diag, off, 1)
    assert abs(float(vecs[:, 0] @ expected)) >= 1.0 - 1e-12
    assert np.linalg.norm(vecs[:, 0] - expected) <= _vector_bound(diag, off, 1, value, vecs[:, 0])


def test_values_below_the_bisection_floor():
    # the refined values against a dstebz solve at a tight tolerance, and
    # against the Rayleigh quotient of the same iterates summed in extended
    # precision, where numpy has it: both differences are far below stebz's
    # default tolerance (measured 3.3e-2 and 7.6e-3 of it)
    from scipy.linalg.lapack import dstebz

    grid = RadialGrid(r_max=20.0, h=1e-3)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    floor = _bisection_tol(diag, off)
    values = np.array(eigen_lowest(v_eff, grid, PHYS, k=3))
    m, tight, _, _, info = dstebz(diag, off, 2, 0.0, 0.0, 1, 3, 1e-300, "E")
    assert (m, info) == (3, 0)
    assert np.max(np.abs(values - tight[:3])) <= floor / 10.0
    if np.finfo(np.longdouble).eps > 1e-18:
        return
    refined, vectors = zip(*(_chain(v_eff, grid, level) for level in range(3)))
    assert list(refined) == values.tolist()
    wide = diag.astype(np.longdouble), off.astype(np.longdouble)
    for value, vector in zip(values, vectors):
        x = vector.astype(np.longdouble)
        tx = wide[0] * x
        tx[1:] += wide[1] * x[:-1]
        tx[:-1] += wide[1] * x[1:]
        assert abs(float(np.sum(x * tx) / np.sum(x * x)) - value) <= floor / 50.0


# Solves P1 in a fresh interpreter, where no scipy.linalg is loaded yet, with
# LAPACK loaded directly or, for "fallback", with the lookup of the extension
# file made to fail; then imports scipy.linalg, checks each value within
# ULP * ||T||_1 of eigh_tridiagonal and each vector within a residual bound
# of its vector, and prints a digest of every result's bits.
_LAPACK_PATH_CHILD = """
import hashlib
import sys
import numpy as np
from pcoulomb import numerics
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce, effective_potential

mode = sys.argv[1]
if mode == "fallback":
    def _missing():
        raise ImportError("no extension file")
    numerics._flapack_path = _missing
lapack = numerics._lapack()
expected = {"direct": "scipy.linalg._flapack", "fallback": "scipy.linalg.lapack"}[mode]
assert lapack.__name__ == expected
assert ("scipy.linalg" in sys.modules) == (mode == "fallback")

phys = PhysicalParams()
v_eff = effective_potential(PotentialParams(a=1.0, b=1.0, c=0.5), dimension_reduce(3, 0), phys)
grid = numerics.RadialGrid(r_max=15.0, h=0.005)
diag, off = numerics._tridiagonal(v_eff, grid, phys)
cases = [(0, 1), (1, 1), (0, 3), (1, 2)]
solved = []
for first, k in cases:
    values = numerics.eigen_lowest(v_eff, grid, phys, k=k, first=first)
    extrapolated = numerics.eigen_lowest(v_eff, grid, phys, k=k, first=first, richardson=True)
    unseeded = np.array([numerics._seeded_lowest(diag, off, None, level)[0]
                         for level in range(first, first + k)])
    vecs = None
    if k == 1:  # vectors are found for one level
        vecs = numerics.eigen_lowest(v_eff, grid, phys, k=k, first=first, eigenvectors=True)[1]
    solved.append((values, extrapolated, unseeded, vecs))

import scipy.linalg
from scipy.linalg import eigh_tridiagonal

assert scipy.linalg.lapack.dstebz is numerics._lapack().dstebz
assert scipy.linalg.lapack.dpttrs is numerics._lapack().dpttrs
assert scipy.linalg.lapack.dpttrf is numerics._lapack().dpttrf

levels = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 4),
                          lapack_driver="stebz")
col = np.abs(diag) + np.concatenate(([0.0], np.abs(off))) + np.concatenate((np.abs(off), [0.0]))
tol = np.finfo(float).eps * float(np.max(col))
digest = hashlib.sha256()
for (first, k), (values, extrapolated, unseeded, vecs) in zip(cases, solved):
    ref_vals, ref_vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(first, first + k - 1), lapack_driver="stebz")
    assert np.max(np.abs(np.array(values) - ref_vals)) <= tol
    assert np.max(np.abs(unseeded - ref_vals)) <= tol
    if vecs is not None:
        # the iterate is within r / gap of the eigenvector (Davis & Kahan),
        # dstein's vector within about tol / gap
        x = vecs[:, 0]
        tx = diag * x
        tx[1:] += off * x[:-1]
        tx[:-1] += off * x[1:]
        residual = np.linalg.norm(tx - values[0] * x)
        gap = np.min(np.abs(np.delete(levels, first) - values[0]))
        assert np.linalg.norm(x - ref_vecs[:, 0]) <= (residual + tol) / gap
    for result in (values, extrapolated, unseeded, vecs):
        digest.update(np.asarray(result, dtype=float).tobytes())
print(digest.hexdigest())
"""


@functools.cache
def _lapack_path_digest(mode):
    package_root = str(Path(numerics.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LAPACK_PATH_CHILD, mode],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("mode", ["direct", "fallback"])
def test_lapack_paths_match_eigh_tridiagonal(mode):
    # both paths give the same bits
    assert _lapack_path_digest(mode) == _lapack_path_digest("direct")


def test_lapack_failure_raises_linalg_error(capfd):
    diag, off = np.linspace(1.0, 2.0, 200), np.full(199, -0.3)
    with pytest.raises(np.linalg.LinAlgError, match="dstebz"):
        numerics._index_solve(diag, off, 200)  # level 200 of a 200 x 200 matrix
    capfd.readouterr()  # LAPACK's own message on the illegal argument


def test_non_finite_matrix_is_refused():
    # c r^2 overflows at the far nodes
    pot = PotentialParams(a=1.0, b=0.0, c=1e307)
    v_eff = effective_potential(pot, DIM3, PHYS)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        eigen_lowest(v_eff, RadialGrid(r_max=20.0, h=0.01), PHYS)


def test_eigen_first_validation():
    grid = RadialGrid(r_max=10.0, h=0.01)  # 1000 nodes: levels 0..99
    v_eff = effective_potential(P1, DIM3, PHYS)
    with pytest.raises(ValueError, match="first >= 0"):
        eigen_lowest(v_eff, grid, PHYS, k=1, first=-1)
    with pytest.raises(ValueError, match="out of range"):
        eigen_lowest(v_eff, grid, PHYS, k=2, first=99)
    assert len(eigen_lowest(v_eff, grid, PHYS, k=2, first=98)) == 2


@pytest.mark.parametrize("first, coarsest", [(9, 100), (10, 400)])
def test_levels_the_16h_grid_cannot_resolve_are_seeded_at_4h(first, coarsest, monkeypatch):
    # 1600 nodes: the 16h grid (100 nodes) resolves levels 0..9 and the 4h
    # grid (400 nodes) levels 0..39; the coarsest grid that resolves the
    # level is bisected first.  Levels this high move too far between grids
    # this coarse for the windows to hold, so finer grids fall back here
    grid = RadialGrid(r_max=16.0, h=0.01)
    v_eff = effective_potential(P1, DIM3, PHYS)
    sizes = []
    index_solve = numerics._index_solve

    def recording(diag, off, level):
        sizes.append(len(diag))
        return index_solve(diag, off, level)

    monkeypatch.setattr(numerics, "_index_solve", recording)
    eigen_lowest(v_eff, grid, PHYS, k=1, first=first)
    assert sizes[0] == coarsest


def _stebz_count(diag, off, top):
    """dstebz's Sturm count N(top), RANGE='V' over (-inf, top]."""
    from scipy.linalg.lapack import dstebz

    m, _, _, _, info = dstebz(diag, off, 1, -np.inf, top, 0, 0, np.inf, "E")
    assert info == 0
    return m


def _dense_levels(diag, off):
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def _assert_counts_agree(diag, off, shifts):
    """The pivot count against sturm_count and dstebz at every shift at
    least ``_seeded_lowest``'s margin, 8 eps ||T||_1, from every eigenvalue."""
    levels = _dense_levels(diag, off)
    margin = 8.0 * np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
    checked = 0
    for top in shifts:
        if np.min(np.abs(levels - top)) < margin:
            continue
        expected = int(np.sum(levels < top))
        assert numerics._count_at_or_below(diag, off, top) == expected, top
        assert sturm_count(diag, off, top) == expected == _stebz_count(diag, off, top), top
        checked += 1
    assert checked > len(shifts) // 2


def _midpoints(diag, off):
    """Shifts between neighbouring eigenvalues and beyond both ends."""
    levels = _dense_levels(diag, off)
    return np.concatenate(([levels[0] - 1.0], (levels[1:] + levels[:-1]) / 2.0,
                           [levels[-1] + 1.0]))


def test_pivot_count_of_the_reference_problem():
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, RadialGrid(r_max=12.0, h=12.0 / 400))
    rng = np.random.default_rng(13)
    shifts = np.concatenate((_midpoints(diag, off), rng.uniform(diag.min() - 1.0, 2.0 * diag.max(), 100)))
    _assert_counts_agree(diag, off, shifts)


def test_pivot_count_of_a_split_matrix():
    # a zero off-diagonal: the factorization runs on through the split
    diag = np.concatenate((np.linspace(1.0, 2.0, 100), np.linspace(1.03, 2.03, 100)))
    off = np.full(199, -0.3)
    off[99] = 0.0
    _assert_counts_agree(diag, off, _midpoints(diag, off))


def test_pivot_count_at_a_zero_pivot():
    # a shift exactly on an entry of a diagonal matrix is an exactly zero
    # pivot: it counts as negative, as in dstebz, so N(top) counts the
    # eigenvalues at or below top
    diag = np.linspace(1.0, 2.0, 200)
    off = np.zeros(199)
    for j in (0, 57, 198, 199):
        assert numerics._count_at_or_below(diag, off, diag[j]) == j + 1 == _stebz_count(
            diag, off, diag[j])
    _assert_counts_agree(diag, off, _midpoints(diag, off))
    # with a coupled next row, the restart divides by -pivmin, not by zero
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, RadialGrid(r_max=12.0, h=12.0 / 400))
    with np.errstate(over="ignore"):  # sturm_count's nudged zero pivot overflows
        _assert_counts_agree(diag, off, [diag[0]])


def test_pivot_count_after_a_tiny_positive_pivot():
    # the first pivot is a subnormal positive number, so the second,
    # 1 - 1 / 1e-310, is -inf: the count restarts at the third row with its
    # plain diagonal
    diag = np.full(50, 3.0)
    diag[:2] = 1e-310, 1.0
    off = np.full(49, 0.5)
    off[0] = 1.0
    with np.errstate(over="ignore"):  # sturm_count overflows the same way
        assert diag[1] - off[0] ** 2 / diag[0] == -np.inf
        _assert_counts_agree(diag, off, [0.0])
    assert numerics._count_at_or_below(diag, off, 0.0) == 1


@pytest.mark.parametrize("last, count", [(3.0, 1), (-5.0, 2)])
def test_pivot_count_with_a_one_row_tail(last, count):
    # a negative pivot at row n - 2 leaves one row, which is counted without
    # dpttrf, positive or negative
    diag = np.full(20, 3.0)
    diag[-2:] = -5.0, last
    off = np.full(19, 0.5)
    _assert_counts_agree(diag, off, [0.0])
    assert numerics._count_at_or_below(diag, off, 0.0) == count


def _assert_factors_reproduce(diag, off, shift):
    """L D L^T of ``_factor`` is T - shift I within 3 eps |L| |D| |L^T|,
    entry by entry (the backward error of an LDL^T factorization; pivots
    grow between levels, to 325 eps ||T||_1 on the reference matrix)."""
    d, l, count = numerics._factor(diag, off, shift)
    eps = np.finfo(float).eps
    rebuilt, bound = d.copy(), np.abs(d)
    rebuilt[1:] += l * l * d[:-1]
    bound[1:] += l * l * np.abs(d[:-1])
    assert np.all(np.abs(rebuilt - (diag - shift)) <= 3.0 * eps * bound), shift
    assert np.all(np.abs(l * d[:-1] - off) <= 3.0 * eps * np.abs(l * d[:-1])), shift
    return d, count


def test_factor_reproduces_the_shifted_matrix():
    # below the spectrum, between levels, and above several levels, where
    # every nonpositive pivot restarts dpttrf
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, RadialGrid(r_max=12.0, h=12.0 / 400))
    levels = _dense_levels(diag, off)
    shifts = [levels[0] - 1.0] + [(levels[j] + levels[j + 1]) / 2.0 for j in (0, 1, 2, 5, 9, 51)]
    for shift in shifts:
        d, count = _assert_factors_reproduce(diag, off, shift)
        assert count == int(np.sum(d <= 0.0)) == int(np.sum(levels < shift))
        assert count == sturm_count(diag, off, shift) == _stebz_count(diag, off, shift)
    # a split matrix factors on through its zero off-diagonal
    diag = np.concatenate((np.linspace(1.0, 2.0, 100), np.linspace(1.03, 2.03, 100)))
    off = np.full(199, -0.3)
    off[99] = 0.0
    for shift in _midpoints(diag, off)[::20]:
        _assert_factors_reproduce(diag, off, shift)


def test_factor_on_an_entry_of_a_diagonal_matrix():
    # the zero pivot is lowered to -pivmin: the solve is finite and points
    # at that entry alone
    diag = np.linspace(1.0, 2.0, 200)
    off = np.zeros(199)
    lapack = numerics._lapack()
    for j in (0, 57, 199):
        d, l, count = numerics._factor(diag, off, diag[j])
        assert count == j + 1
        x, info = lapack.dpttrs(d, l, np.ones(200))
        assert info == 0 and np.all(np.isfinite(x))
        unit = x / np.max(np.abs(x))
        np.testing.assert_allclose(np.abs(unit), np.eye(200)[j], rtol=0, atol=1e-300)


def test_surface_points_do_not_fall_back(monkeypatch):
    # the benchmark's surface points (perfbench/workloads.py), M 3..11 at
    # levels 0..2 as sweep solves them: every window on 4h, h and h/2
    # proves itself, so only the coarsest grid is bisected.  The radial
    # problem depends on M = N + 2l alone, so one (N, l) stands for each M
    index_solve = numerics._index_solve
    coarsest = [0]

    def coarsest_only(diag, off, level):
        if len(diag) != coarsest[0]:
            raise AssertionError(f"the grid of {len(diag)} nodes fell back")
        return index_solve(diag, off, level)

    monkeypatch.setattr(numerics, "_index_solve", coarsest_only)
    for a, c in [(0.7, 0.8), (1.1, 0.6), (1.6, 0.4)]:
        for m_index in range(3, 12):
            dim = dimension_reduce(3 + m_index % 2, (m_index - 3) // 2)
            pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
            for n in range(3):
                a_level, _ = closed_level(pot, dim, PHYS, n)
                pot_level = PotentialParams(a=a_level, b=pot.b, c=c)
                grid = build_grid(pot_level, dim, PHYS)
                coarsest[0] = RadialGrid(r_max=grid.r_max, h=COARSEN**2 * grid.h).count
                v_eff = effective_potential(pot_level, dim, PHYS)
                for richardson in (False, True):
                    eigen_lowest(v_eff, grid, PHYS, first=n, richardson=richardson)


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
