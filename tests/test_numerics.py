import functools
import itertools
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
    """(diag, off) of a grid on its own: ``_chain_matrices`` gives the same
    bits from the chain's samples."""
    t = PHYS.kinetic
    return 2.0 * t / grid.h**2 + v_eff(grid.nodes), -t / grid.h**2


def _bisection_tol(diag, off):
    """stebz's default tolerance, ULP * ||T||_1."""
    off = np.abs(_entries(diag, off))
    col = np.abs(diag) + np.concatenate(([0.0], off)) + np.concatenate((off, [0.0]))
    return np.finfo(float).eps * float(np.max(col))


def _seeded(diag, off, seed, level, steps=2, start=None):
    """``_seeded_lowest`` with the margin of the matrix and work rows of its
    own, from the iterate ``start`` (default: a ones vector)."""
    work = np.empty((4, len(diag)))
    if start is not None:
        work[2] = start
    return numerics._seeded_lowest(diag, off, seed, level, numerics._margin(diag, off), work,
                                   steps, start is not None)


def _halved(x):
    """x linearly interpolated onto the grid of half its step, with a zero
    beyond each end: the plain expressions of ``_interpolate``'s halving."""
    padded = np.concatenate(([0.0], x, [0.0]))
    y = np.empty(2 * len(x) + 1)
    y[1::2] = x
    y[::2] = 0.5 * (padded[:-1] + padded[1:])
    return y


def _interpolated(x, stride, count):
    """A coarser grid's iterate on the grid of 1/``stride`` its step and
    ``count`` nodes: one halving per factor 2, cut at ``count``."""
    for _ in range(stride.bit_length() - 1):
        x = _halved(x)
    return x[:count]


def _trend_shift(values, q_prev, q, margin):
    """The shift of a refinement after two values E_cc, E_c, on grids of
    step ratios q_prev and q: the value their O(h^2) trend predicts plus the
    larger of its move and twice the margin."""
    e_cc, e_c = values[-2:]
    move = (e_c - e_cc) * (1.0 - 1.0 / q**2) / (q_prev**2 - 1.0)
    return e_c + move + max(abs(move), 2.0 * margin)


def _count(diag, off, top):
    """Sturm count N(top): the nonpositive pivots of ``_factor`` at ``top``."""
    return numerics._factor(diag, off, top, np.empty((2, len(diag))))[2]


#: sweep-like problems: (a, c) on the coupling surface, N, l
SWEEP_LIKE = [(0.8, 0.4, 3, 0), (1.6, 0.8, 5, 1), (1.2, 0.6, 7, 2)]


def _sweep_like(a, c, n_dim, ell):
    """(v_eff, default grid) of a problem on the coupling surface."""
    dim = dimension_reduce(n_dim, ell)
    pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
    return effective_potential(pot, dim, PHYS), build_grid(pot, dim, PHYS)


def _unseeded(diag, off, level):
    """(value, vector) of the unseeded path: the level's bisected value, refined."""
    return _seeded(diag, off, None, level)


@pytest.mark.parametrize("a, c, n_dim, ell", SWEEP_LIKE)
def test_seeded_half_step_matches_unseeded(a, c, n_dim, ell):
    v_eff, grid = _sweep_like(a, c, n_dim, ell)
    seeds = _levels(v_eff, grid, 6)
    diag, off = _matrix(v_eff, grid.halved())
    tol = _bisection_tol(diag, off)
    seeded = [_seeded(diag, off, seed, level)[0] for level, seed in enumerate(seeds)]
    np.testing.assert_allclose(seeded, _stebz_levels(diag, off, 0, 6), rtol=0, atol=tol)


def test_seeded_values_bracketed_by_sturm_counts():
    grid = RadialGrid(r_max=12.0, h=12.0 / 1000)  # the h/2 grid has 2000 nodes
    v_eff = effective_potential(P1, DIM3, PHYS)
    seeds = _levels(v_eff, grid, 6)
    diag, off = _matrix(v_eff, grid.halved())
    step = 4.0 * _bisection_tol(diag, off)
    for j, seed in enumerate(seeds):
        value, _ = _seeded(diag, off, seed, j)
        assert sturm_count(diag, _entries(diag, off), value - step) == j
        assert sturm_count(diag, _entries(diag, off), value + step) == j + 1


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
            _assert_same_pairs(_seeded(diag, off, seed, level),
                               _unseeded(diag, off, level), name)
        # the fallback's value is refined and proves itself
        value, vector = _unseeded(diag, off, level)
        np.testing.assert_allclose(value, levels[level], rtol=0, atol=_bisection_tol(diag, off))
        assert vector is not None


def _chain(v_eff, grid, level, levels=None):
    """(value, vector) of one level by the seeding chain composed from its
    parts: the level's index bisection on the coarsest grid that
    ``_coarse_grids`` gives for ``levels`` levels (level + 1 when None);
    then the refinement of that seed on the next grid, by BISECTED_STEPS
    steps from ones; then on each grid after it, up to h, one step from the
    iterate of the grid before, interpolated, shifted by the trend of the
    two values before (``_trend_shift``)."""
    links = [*numerics._coarse_grids(grid, levels or level + 1), grid]
    assert len(links) > 1, "a grid with no coarse grid is not a chain"
    values = [_stebz_levels(*_matrix(v_eff, links[0]), level, 1)[0]]
    value, vector = _seeded(*_matrix(v_eff, links[1]), values[0], level,
                            steps=numerics.BISECTED_STEPS)
    values.append(value)
    for link in links[2:]:
        diag, off = _matrix(v_eff, link)
        shift = _trend_shift(values, COARSEN, COARSEN, numerics._margin(diag, off))
        value, vector = _seeded(diag, off, shift, level, steps=1,
                                start=_interpolated(vector, COARSEN, link.count))
        values.append(value)
    return value, vector


def _assert_chain_vector(vector, chain_vector):
    # eigen_lowest signs the chain's iterate: the largest component positive
    assert vector.shape == (len(chain_vector),)
    assert np.abs(vector).tobytes() == np.abs(chain_vector).tobytes()
    assert vector[np.argmax(np.abs(vector))] > 0.0


def test_eigen_lowest_is_the_stebz_index_solve():
    # values and a level's vector are the seeded chain's, bit for bit, and
    # the values are within stebz's tolerance of the plain index-range
    # bisection.  Level 3 moves by 2.2e-4 relative from 4h to h on this grid
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    expected = [_chain(v_eff, grid, level, levels=4)[0] for level in range(4)]
    assert _levels(v_eff, grid, 4) == expected
    value, vector = eigen_lowest(v_eff, grid, PHYS, 3, eigenvectors=True)
    chain_value, chain_vector = _chain(v_eff, grid, 3)
    assert value == chain_value
    _assert_chain_vector(vector, chain_vector)
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
                seeded = [_seeded(diag, off, seed, level)[0]
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
        values = _levels(v_eff, grid, k, first, richardson=True)
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
            _assert_same_pairs(_seeded(diag, off, seed, level),
                               _unseeded(diag, off, level), name)


def test_diagonal_matrix_falls_back_past_singular_pivots():
    # with T = hbar^2/2m underflowing to zero the matrix is diagonal, its
    # off-diagonal -T/h^2 = -0.0: a seed equal to an entry is an exactly zero
    # pivot, lowered to -pivmin, whose iterate overflows the norm and falls
    # back, and the fallback shifts the bisected values off the entries
    diag = np.linspace(1.0, 2.0, 200)
    off = -0.0
    for level in (0, 1, 3, 4):
        value, vector = _seeded(diag, off, diag[level], level)
        assert value == diag[level]
        np.testing.assert_allclose(np.abs(vector), np.eye(200)[level], rtol=0, atol=1e-20)
    # entries so small that the shift off them is subnormal: the pivot is
    # lowered to -pivmin at every shift, the iterate overflows the norm, and
    # the bisected value is returned with no vector
    tiny = 1e-300 * diag
    for level in (0, 1):
        value, vector = _seeded(tiny, off, None, level)
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
        coarse = [_unseeded(diag, off, level) for level in levels]
        coarse_vals = [value for value, _ in coarse]
        np.testing.assert_allclose(coarse_vals, _stebz_levels(diag, off, first, 2),
                                   rtol=0, atol=_bisection_tol(diag, off))
        # the h/2 values: one step from the h iterate, shifted to the h value
        fine_vals = [_seeded(*fine, c, level, steps=1, start=_interpolated(x, 2, len(fine[0])))[0]
                     for (c, x), level in zip(coarse, levels)]
        expected = [float((4.0 * f - c) / 3.0) for c, f in zip(coarse_vals, fine_vals)]
        assert _levels(v_eff, grid, 2, first, richardson=True) == expected


@pytest.mark.parametrize("n", range(4))
def test_single_level_is_the_stebz_index_solve(n):
    # a single level and its vector are the seeded chain's, bit for bit, and
    # the value is within stebz's tolerance of the plain index-range bisection
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    diag, off = _matrix(v_eff, grid)
    expected, chain_vector = _chain(v_eff, grid, n)
    assert eigen_lowest(v_eff, grid, PHYS, n) == expected
    # each level is solved on its own: the level among the lowest four is
    # the same double
    assert _levels(v_eff, grid, 4)[n] == expected
    value, vector = eigen_lowest(v_eff, grid, PHYS, n, eigenvectors=True)
    assert value == expected
    _assert_chain_vector(vector, chain_vector)
    np.testing.assert_allclose(
        expected, _stebz_levels(diag, off, n, 1), rtol=0, atol=_bisection_tol(diag, off))


@pytest.mark.parametrize("a, c, n_dim, ell", SWEEP_LIKE)
def test_eigen_lowest_windows_prove_themselves(a, c, n_dim, ell, monkeypatch):
    # each level is bisected only on the coarsest grid of its chain: no
    # fallback on the finer coarse grids, h or h/2
    v_eff, grid = _sweep_like(a, c, n_dim, ell)
    index_solve = numerics._index_solve

    def coarsest_only(diag, off, level):
        if len(diag) != numerics._coarse_grids(grid, level + 1)[0].count:
            raise AssertionError(f"the grid of {len(diag)} nodes fell back to the unseeded solve")
        return index_solve(diag, off, level)

    monkeypatch.setattr(numerics, "_index_solve", coarsest_only)
    for first in range(3):
        for k in range(1, 4):
            values = _levels(v_eff, grid, k, first)
            _levels(v_eff, grid, k, first, richardson=True)
            if k == 1:
                value, vector = eigen_lowest(v_eff, grid, PHYS, first, eigenvectors=True)
                assert [value] == values
                assert vector.shape == (grid.count,)


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
    value, vector = eigen_lowest(v_eff, grid, PHYS, 1, eigenvectors=True)
    expected = _stebz_vector(diag, off, 1)
    assert abs(float(vector @ expected)) >= 1.0 - 1e-12
    assert np.linalg.norm(vector - expected) <= _vector_bound(diag, off, 1, value, vector)


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
    values = np.array(_levels(v_eff, grid, 3))
    m, tight, _, _, info = dstebz(diag, _entries(diag, off), 2, 0.0, 0.0, 1, 3, 1e-300, "E")
    assert (m, info) == (3, 0)
    assert np.max(np.abs(values - tight[:3])) <= floor / 10.0
    if np.finfo(np.longdouble).eps > 1e-18:
        return
    refined, vectors = zip(*(_chain(v_eff, grid, level) for level in range(3)))
    assert list(refined) == values.tolist()
    wide = diag.astype(np.longdouble), np.longdouble(off)
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
diag, off = 2.0 * phys.kinetic / grid.h**2 + v_eff(grid.nodes), -phys.kinetic / grid.h**2
margin = numerics._margin(diag, off)
cases = [(0, 1), (1, 1), (0, 3), (1, 2)]
solved = []
for first, k in cases:
    levels = range(first, first + k)
    values = [numerics.eigen_lowest(v_eff, grid, phys, level) for level in levels]
    extrapolated = [numerics.eigen_lowest(v_eff, grid, phys, level, richardson=True)
                    for level in levels]
    unseeded = np.array([numerics._seeded_lowest(diag, off, None, level, margin,
                                                 np.empty((4, grid.count)))[0]
                         for level in levels])
    vector = None
    if k == 1:
        vector = numerics.eigen_lowest(v_eff, grid, phys, first, eigenvectors=True)[1]
    solved.append((values, extrapolated, unseeded, vector))

import scipy.linalg
from scipy.linalg import eigh_tridiagonal

off = np.full(grid.count - 1, off)

assert scipy.linalg.lapack.dstebz is numerics._lapack().dstebz
assert scipy.linalg.lapack.dpttrs is numerics._lapack().dpttrs
assert scipy.linalg.lapack.dpttrf is numerics._lapack().dpttrf

levels = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 4),
                          lapack_driver="stebz")
col = np.abs(diag) + np.concatenate(([0.0], np.abs(off))) + np.concatenate((np.abs(off), [0.0]))
tol = np.finfo(float).eps * float(np.max(col))
digest = hashlib.sha256()
for (first, k), (values, extrapolated, unseeded, vector) in zip(cases, solved):
    ref_vals, ref_vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(first, first + k - 1), lapack_driver="stebz")
    assert np.max(np.abs(np.array(values) - ref_vals)) <= tol
    assert np.max(np.abs(unseeded - ref_vals)) <= tol
    if vector is not None:
        # the iterate is within r / gap of the eigenvector (Davis & Kahan),
        # dstein's vector within about tol / gap
        x = vector
        tx = diag * x
        tx[1:] += off * x[:-1]
        tx[:-1] += off * x[1:]
        residual = np.linalg.norm(tx - values[0] * x)
        gap = np.min(np.abs(np.delete(levels, first) - values[0]))
        assert np.linalg.norm(x - ref_vecs[:, 0]) <= (residual + tol) / gap
    for result in (values, extrapolated, unseeded, vector):
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
    diag, off = np.linspace(1.0, 2.0, 200), -0.3
    with pytest.raises(np.linalg.LinAlgError, match="dstebz"):
        numerics._index_solve(diag, off, 200)  # level 200 of a 200 x 200 matrix
    capfd.readouterr()  # LAPACK's own message on the illegal argument


def test_non_finite_matrix_is_refused():
    # c r^2 overflows at the far nodes
    pot = PotentialParams(a=1.0, b=0.0, c=1e307)
    v_eff = effective_potential(pot, DIM3, PHYS)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        eigen_lowest(v_eff, RadialGrid(r_max=20.0, h=0.01), PHYS)


@pytest.mark.parametrize("level, coarsest", [(9, 100), (10, 400)])
def test_levels_the_16h_grid_cannot_resolve_are_seeded_at_4h(level, coarsest, monkeypatch):
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
    eigen_lowest(v_eff, grid, PHYS, level)
    assert sizes[0] == coarsest


def _stebz_count(diag, off, top):
    """dstebz's Sturm count N(top), RANGE='V' over (-inf, top]."""
    from scipy.linalg.lapack import dstebz

    m, _, _, _, info = dstebz(diag, _entries(diag, off), 1, -np.inf, top, 0, 0, np.inf, "E")
    assert info == 0
    return m


def _dense_levels(diag, off):
    off = _entries(diag, off)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def _assert_counts_agree(diag, off, shifts):
    """The pivot count against sturm_count and dstebz at every shift at
    least ``_seeded_lowest``'s margin, 8 eps ||T||_1, from every eigenvalue."""
    levels = _dense_levels(diag, off)
    margin = 8.0 * np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * abs(off))
    checked = 0
    for top in shifts:
        if np.min(np.abs(levels - top)) < margin:
            continue
        expected = int(np.sum(levels < top))
        assert _count(diag, off, top) == expected, top
        assert sturm_count(diag, _entries(diag, off), top) == expected == _stebz_count(
            diag, off, top), top
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


def test_pivot_count_at_a_zero_pivot():
    # a shift exactly on an entry of a diagonal matrix is an exactly zero
    # pivot: it counts as negative, as in dstebz, so N(top) counts the
    # eigenvalues at or below top
    diag = np.linspace(1.0, 2.0, 200)
    off = 0.0
    for j in (0, 57, 198, 199):
        assert _count(diag, off, diag[j]) == j + 1 == _stebz_count(diag, off, diag[j])
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
    off = 1.0
    with np.errstate(over="ignore"):  # sturm_count overflows the same way
        assert diag[1] - off**2 / diag[0] == -np.inf
        _assert_counts_agree(diag, off, [0.0])
    assert _count(diag, off, 0.0) == 1


@pytest.mark.parametrize("last, count", [(3.0, 1), (-5.0, 2)])
def test_pivot_count_with_a_one_row_tail(last, count):
    # a negative pivot at row n - 2 leaves one row, which is counted without
    # dpttrf, positive or negative
    diag = np.full(20, 3.0)
    diag[-2:] = -5.0, last
    off = 0.5
    _assert_counts_agree(diag, off, [0.0])
    assert _count(diag, off, 0.0) == count


def _assert_factors_reproduce(diag, off, shift):
    """L D L^T of ``_factor`` is T - shift I within 3 eps |L| |D| |L^T|,
    entry by entry (the backward error of an LDL^T factorization; pivots
    grow between levels, to 325 eps ||T||_1 on the reference matrix)."""
    d, l, count = numerics._factor(diag, off, shift, np.empty((2, len(diag))))
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
        assert count == sturm_count(diag, _entries(diag, off), shift) == _stebz_count(
            diag, off, shift)


def test_factor_on_an_entry_of_a_diagonal_matrix():
    # the zero pivot is lowered to -pivmin: the solve is finite and points
    # at that entry alone
    diag = np.linspace(1.0, 2.0, 200)
    lapack = numerics._lapack()
    for j in (0, 57, 199):
        d, l, count = numerics._factor(diag, 0.0, diag[j], np.empty((2, 200)))
        assert count == j + 1
        x, info = lapack.dpttrs(d, l, np.ones(200))
        assert info == 0 and np.all(np.isfinite(x))
        unit = x / np.max(np.abs(x))
        np.testing.assert_allclose(np.abs(unit), np.eye(200)[j], rtol=0, atol=1e-300)


def test_surface_points_do_not_fall_back(monkeypatch):
    # the benchmark's surface points (perfbench/workloads.py), M 3..11 at
    # levels 0..2 as sweep solves them: every window on the finer coarse
    # grids, h and h/2 proves itself, so only the coarsest grid is
    # bisected.  The radial problem depends on M = N + 2l alone, so one
    # (N, l) stands for each M
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
                coarsest[0] = numerics._coarse_grids(grid, n + 1)[0].count
                v_eff = effective_potential(pot_level, dim, PHYS)
                for richardson in (False, True):
                    eigen_lowest(v_eff, grid, PHYS, n, richardson=richardson)


# -- one sampling per chain, per-call work arrays, the shift's own count --------

def _links(grid, richardson):
    """The grids ``eigen_lowest`` solves level 0 on, coarsest first."""
    return [*numerics._coarse_grids(grid, 1), grid, *([grid.halved()] if richardson else [])]


@pytest.mark.parametrize("r_max, h", [(None, None), (19.992, 0.001)])
@pytest.mark.parametrize("richardson", [False, True])
def test_chain_diagonals_are_each_grids_own(r_max, h, richardson):
    # the potential sampled once at the finest grid's nodes gives every
    # grid's matrix bit for bit: each grid is every s-th node of the finest,
    # also at r_max 19.992, h 0.001, where r_max / h is no multiple of 64
    dim = dimension_reduce(5, 0)  # a barrier term: every power -2..2
    pot = PotentialParams(a=1.1, b=constraint_b(1.1, 0.6, dim, PHYS), c=0.6)
    v_eff = effective_potential(pot, dim, PHYS)
    grid = build_grid(pot, dim, PHYS, r_max=r_max, h=h)
    links = _links(grid, richardson)
    assert len(links) == len(numerics._coarse_grids(grid, 1)) + 1 + richardson >= 3 + richardson
    fine = links[-1]
    assert all(link.count == fine.count // round(link.h / fine.h) for link in links)
    if richardson:
        assert fine.count == 2 * grid.count + 1
    matrices = numerics._chain_matrices(v_eff(fine.nodes), links, PHYS)
    for link, (diag, off) in zip(links, matrices, strict=True):
        expected_diag, expected_off = _matrix(v_eff, link)
        assert diag.tobytes() == expected_diag.tobytes()
        assert np.float64(off).tobytes() == np.float64(expected_off).tobytes()


def _owner(array):
    """The array that owns the memory ``array`` views."""
    while array.base is not None:
        array = array.base
    return array


def test_returned_vectors_do_not_share_the_work_arrays():
    # a returned vector owns its memory alone: it neither changes with a
    # later solve nor keeps the solve's work arrays alive
    grid = RadialGrid(r_max=15.0, h=0.005)
    v_eff = effective_potential(P1, DIM3, PHYS)
    _, first = eigen_lowest(v_eff, grid, PHYS, eigenvectors=True)
    kept = first.copy()
    _, second = eigen_lowest(v_eff, grid, PHYS, 1, eigenvectors=True)
    assert first.tobytes() == kept.tobytes()
    for vector in (first, second):
        assert _owner(vector).nbytes == vector.nbytes == 8 * grid.count


def _two_count_proof(diag, off, level, margin, value, x):
    """(proved, bound) of the window proof with both of its edge counts
    (``dstebz``'s), bound = ||T x - E x|| + margin summed as ``_refine`` sums."""
    tx = diag * x
    tx[1:] += off * x[:-1]
    tx[:-1] += off * x[1:]
    defect = tx - value * x
    bound = math.sqrt(np.add.reduce(defect * defect)) + margin
    half = numerics.WINDOW * max(1.0, abs(value))
    proved = (bound < half and _stebz_count(diag, off, value + half) == level + 1
              and (level == 0 or _stebz_count(diag, off, value - half) == level))
    return proved, bound


#: the (a, c) surface points of perfbench/workloads.py
SURFACE_POINTS = [(0.7, 0.8), (1.1, 0.6), (1.6, 0.4)]


@pytest.mark.parametrize("a, c", SURFACE_POINTS)
def test_shift_count_proves_as_the_two_counts(a, c, monkeypatch):
    # on the benchmark's surface points, M 3..11 at levels 0..2 with
    # Richardson, every refinement on the grids after the coarsest, h and
    # h/2 is proved or not as the proof with both window counts decides
    refine = numerics._refine
    sides = {"top": 0, "bottom": 0, "inside": 0}
    links = 0

    def checked(diag, off, shift, level, margin, work, steps=2, start=False):
        value, x, proved = refine(diag, off, shift, level, margin, work, steps, start)
        expected, bound = _two_count_proof(diag, off, level, margin, value, x)
        assert proved == expected
        side = "top" if shift >= value + bound else "bottom" if shift < value - bound else "inside"
        sides[side] += 1
        return value, x, proved

    monkeypatch.setattr(numerics, "_refine", checked)
    for m_index in range(3, 12):
        dim = dimension_reduce(3 + m_index % 2, (m_index - 3) // 2)
        pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
        for n in range(3):
            a_level, _ = closed_level(pot, dim, PHYS, n)
            pot_level = PotentialParams(a=a_level, b=pot.b, c=c)
            v_eff = effective_potential(pot_level, dim, PHYS)
            grid = build_grid(pot_level, dim, PHYS)
            links += len(numerics._coarse_grids(grid, n + 1)) + 1
            eigen_lowest(v_eff, grid, PHYS, n, richardson=True)
    assert sum(sides.values()) == links >= 9 * 3 * 3
    assert sides["bottom"] > 0


def _counting_factor(monkeypatch):
    """The shifts ``_factor`` is called at, in order."""
    factor, shifts = numerics._factor, []

    def counting(diag, off, shift, work):
        shifts.append(shift)
        return factor(diag, off, shift, work)

    monkeypatch.setattr(numerics, "_factor", counting)
    return shifts


def test_shift_inside_the_residual_interval_counts_both_edges(monkeypatch):
    # a refinement shifted to a refined value: its own value lies within
    # roundoff of the shift, inside E -+ bound, so the factorization at the
    # shift is no edge and both window edges are counted
    grid = RadialGrid(r_max=12.0, h=12.0 / 2000)
    diag, off = _matrix(effective_potential(P1, DIM3, PHYS), grid)
    margin = numerics._margin(diag, off)
    work = np.empty((4, len(diag)))
    shifts = _counting_factor(monkeypatch)
    for level in range(3):
        seed = _stebz_levels(diag, off, level, 1)[0]
        shift, _, _ = numerics._refine(diag, off, seed, level, margin, work)
        shifts.clear()
        value, x, proved = numerics._refine(diag, off, shift, level, margin, work)
        expected, bound = _two_count_proof(diag, off, level, margin, value, x)
        assert abs(shift - value) < bound
        assert proved and expected
        half = numerics.WINDOW * max(1.0, abs(value))
        assert shifts == [shift, value + half] + ([value - half] if level else [])


def _level_zero_problems():
    """(name, v_eff, grid): pure Coulomb, and the benchmark's surface points
    at M 3..11."""
    pot = PotentialParams(a=1.0, b=0.0, c=0.0)
    yield "coulomb", effective_potential(pot, DIM3, PHYS), build_grid(pot, DIM3, PHYS)
    for a, c in SURFACE_POINTS:
        for m_index in range(3, 12):
            dim = dimension_reduce(3 + m_index % 2, (m_index - 3) // 2)
            pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
            yield (a, c, m_index), effective_potential(pot, dim, PHYS), build_grid(pot, dim, PHYS)


def test_level_zero_shift_above_factors_once(monkeypatch):
    # every grid refined from a coarser grid's iterate lies below its shift
    # by more than the residual bound, and N(shift) = 1, so the
    # factorization at the shift is the whole proof: one _factor call per
    # such link, h/2 included.  Pure Coulomb's values fall towards h and its
    # shifts stay above them; the surface points' values rise, and the
    # shift moves past the level along their trend.  The first refined link
    # is shifted to the bisected value, above the level for Coulomb only
    refine = numerics._refine
    shifts, links = _counting_factor(monkeypatch), []

    def recording(diag, off, shift, level, margin, work, steps=2, start=False):
        before = len(shifts)
        value, x, proved = refine(diag, off, shift, level, margin, work, steps, start)
        _, bound = _two_count_proof(diag, off, level, margin, value, x)
        links.append((start, (len(shifts) - before, shift >= value + bound, proved)))
        return value, x, proved

    monkeypatch.setattr(numerics, "_refine", recording)
    for name, v_eff, grid in _level_zero_problems():
        for richardson in (False, True):
            links.clear()
            eigen_lowest(v_eff, grid, PHYS, richardson=richardson)
            assert len(links) == len(numerics._coarse_grids(grid, 1)) + richardson >= 2
            assert [start for start, _ in links] == [False] + [True] * (len(links) - 1)
            expected = [(1, True, True)] * len(links)
            if name != "coulomb":
                links.pop(0)
                expected.pop()
            assert [link for _, link in links] == expected, (name, richardson)


def test_interpolation_is_exact_on_piecewise_linear_data():
    # integer samples on the coarse grid: every interpolated value is a
    # multiple of 1/4, exact, at each residue of the fine count modulo 4
    # (the last fine nodes run towards the coarse grid's far zero) and on the
    # h/2 grid of 2 count + 1 nodes; work rows as eigen_lowest sizes them,
    # COARSEN - 1 entries beyond the finest grid's count
    rng = np.random.default_rng(25)
    for coarse_count in (1, 2, 25, 100):
        x = rng.integers(-50, 50, size=coarse_count).astype(float)
        knots = np.arange(coarse_count + 2, dtype=float)
        values = np.concatenate(([0.0], x, [0.0]))
        residues = range(COARSEN * coarse_count, COARSEN * (coarse_count + 1))
        for stride, counts in ((COARSEN, residues), (2, [2 * coarse_count + 1])):
            for count in counts:
                work = np.full((4, count + COARSEN - 1), np.nan)
                work[2, :coarse_count] = x
                numerics._interpolate(work, coarse_count, stride)
                expected = np.interp(np.arange(1, count + 1) / stride, knots, values)
                assert work[2, :count].tobytes() == expected.tobytes(), (coarse_count, count)
                assert work[2, :count].tobytes() == _interpolated(x, stride, count).tobytes()


def test_sweep_strata_do_not_fall_back(monkeypatch):
    # the sweep-scan strata, (a, c) in {0.8, 1.6} x {0.4, 0.8} at M 3..11 and
    # n 0..2, level n at the linear rule's a_n on its default grid, with and
    # without Richardson: every grid seeded from a coarser grid's iterate
    # proves its window, so only the coarsest grid of each chain is bisected
    index_solve, coarsest, interpolated = numerics._index_solve, [0], [0]

    def coarsest_only(diag, off, level):
        if len(diag) != coarsest[0]:
            raise AssertionError(f"the grid of {len(diag)} nodes fell back")
        return index_solve(diag, off, level)

    interpolate = numerics._interpolate

    def counting(work, count, stride):
        interpolated[0] += 1
        interpolate(work, count, stride)

    monkeypatch.setattr(numerics, "_index_solve", coarsest_only)
    monkeypatch.setattr(numerics, "_interpolate", counting)
    for a, c in itertools.product((0.8, 1.6), (0.4, 0.8)):
        for m_index in range(3, 12):
            dim = dimension_reduce(3 + m_index % 2, (m_index - 3) // 2)
            pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
            for n in range(3):
                a_level, _ = closed_level(pot, dim, PHYS, n)
                pot_level = PotentialParams(a=a_level, b=pot.b, c=c)
                grid = build_grid(pot_level, dim, PHYS)
                v_eff = effective_potential(pot_level, dim, PHYS)
                coarse = numerics._coarse_grids(grid, n + 1)
                coarsest[0] = coarse[0].count
                for richardson in (False, True):
                    before = interpolated[0]
                    eigen_lowest(v_eff, grid, PHYS, n, richardson=richardson)
                    assert interpolated[0] - before == len(coarse) - 1 + richardson >= 1


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

def _plain_evaluate(state, r):
    """A copy of ``ClosedFormState.evaluate``'s expression, which is now this
    plain numpy expression itself: kept until the grid helpers go."""
    r = np.asarray(r, dtype=float)
    pref = np.polynomial.polynomial.polyval(r, np.asarray(state.poly))
    return pref * np.exp(state.q * np.log(r) - state.lam * r - state.kap * r * r)


def _solver_apply(v_eff, f, phys):
    """The eigensolver's own matrix of f's grid, as ``_chain_matrices`` gives
    it, times f in the plain expressions of the product: diag f, plus
    off f_{i-1}, plus off f_{i+1}."""
    (diag, off), = numerics._chain_matrices(v_eff(f.grid.nodes), [f.grid], phys)
    vals = f.values
    tx = diag * vals
    tx[1:] = tx[1:] + off * vals[:-1]
    tx[:-1] = tx[:-1] + off * vals[1:]
    return tx


def _plain_residual(v_eff, f, energy, phys):
    """A copy of ``h_residual``'s expression, pairwise sums of squares, which
    is now the kernel's own body: kept until the grid helpers go."""
    defect = _solver_apply(v_eff, f, phys) - energy * f.values
    sl = slice(numerics.RESIDUAL_TRIM, -numerics.RESIDUAL_TRIM)
    return (math.sqrt(np.add.reduce(defect[sl] * defect[sl]))
            / math.sqrt(np.add.reduce(f.values[sl] * f.values[sl])))


def _plain_quad(samples, h):
    """The trapezoid rule with zero end values: h times the pairwise sum."""
    return h * np.add.reduce(samples)


def _kernel_cases():
    """(name, v_eff, grid, states, energy): the reference problem's states on
    its default grid, and the rank-7 and rank-8 states of ``oracle --b 2.2
    --c 0.2 --N 6 --l 0 --n 8``, as the benchmark asks, on their own grids
    of more than 2e5 nodes."""
    ground = ground_state(P1, DIM3, PHYS)
    states = [ground.psi, *(hierarchy_states(1.0, 0.5, DIM3, PHYS, n) for n in (1, 2))]
    yield ("default", effective_potential(P1, DIM3, PHYS), build_grid(P1, DIM3, PHYS),
           states, ground.energy.total)
    dim = dimension_reduce(6, 0)
    for sol in qes_solve(2.2, 0.2, dim, PHYS, 8)[-2:]:
        pot = PotentialParams(a=sol.a_root, b=2.2, c=0.2)
        grid = build_grid(pot, dim, PHYS)
        assert grid.count > 2e5
        yield (f"oracle rank {sol.node_count}", effective_potential(pot, dim, PHYS), grid,
               [oracle_state(sol, dim, PHYS, 2.2, 0.2)], sol.energy)


def test_nodes_are_computed_once_and_read_only():
    for _, _, grid, _, _ in _kernel_cases():
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
    for name, v_eff, grid, states, energy in _kernel_cases():
        for state in states:
            values = state.evaluate(grid.nodes)
            assert values.tobytes() == _plain_evaluate(state, grid.nodes).tobytes(), name
            f = evaluate_state(state, grid)
            assert f.values.tobytes() == values.tobytes(), name
            applied = hamiltonian_apply(v_eff, f, PHYS).values
            assert applied.tobytes() == _solver_apply(v_eff, f, PHYS).tobytes(), name
            assert h_residual(f, energy, v_eff, PHYS) == _plain_residual(v_eff, f, energy, PHYS)
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
    # a float; so do the degree-0 and zero polynomials
    states = [ClosedFormState(poly=(1.0,), q=1.0, lam=1.0),
              ClosedFormState(poly=(0.3, -1.7, 0.25, 2.0), q=2.5, lam=0.4, kap=0.3),
              ClosedFormState(poly=(0.0,), q=0.5, kap=1.0)]
    for state in states:
        for r in (0.37, np.float64(2.0), np.asarray(11.5), 1e-300):
            value = state.evaluate(r)
            assert type(value) is float
            assert value == float(_plain_evaluate(state, r))
    assert states[0].evaluate(np.asarray(1.0)) == math.exp(-1.0)


# -- the 64h link and its level cap ---------------------------------------------

def _bisections_by_grid(monkeypatch, solve):
    """{grid nodes: bisections} of the eigensolves ``solve`` runs."""
    index_solve, counts = numerics._index_solve, {}

    def counting(diag, off, level):
        counts[len(diag)] = counts.get(len(diag), 0) + 1
        return index_solve(diag, off, level)

    with monkeypatch.context() as patch:
        patch.setattr(numerics, "_index_solve", counting)
        solve()
    return counts


def _nodes(bisections):
    """Nodes bisected in all, from ``_bisections_by_grid``."""
    return sum(nodes * count for nodes, count in bisections.items())


@pytest.mark.parametrize("k", [16, 30])
def test_levels_above_the_cap_are_bisected_on_16h_once(k, monkeypatch):
    # levels 0 .. COARSEST_LEVELS - 1 are bisected on 64h and the levels
    # above on 16h, each once and on no other grid, which bisects fewer
    # nodes than the 16h -> 4h -> h chain with two steps; and each level
    # is the double k = 1 gives it
    assert k > numerics.COARSEST_LEVELS
    for a, c in SURFACE_POINTS:
        for m_index in (3, 11):
            dim = dimension_reduce(3 + m_index % 2, (m_index - 3) // 2)
            pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
            v_eff, grid = effective_potential(pot, dim, PHYS), build_grid(pot, dim, PHYS)
            coarsest, sixteen, _ = numerics._coarse_grids(grid, 1)
            assert numerics._coarse_grids(grid, k)[0] == sixteen
            solve = functools.partial(_levels, v_eff, grid, k)
            counts = _bisections_by_grid(monkeypatch, solve)
            assert counts == {coarsest.count: numerics.COARSEST_LEVELS,
                              sixteen.count: k - numerics.COARSEST_LEVELS}, (a, c, m_index)
            with monkeypatch.context() as patch:
                # the chain 16h -> 4h -> h with two steps on every grid
                patch.setattr(numerics, "COARSEST_LEVELS", 0)
                patch.setattr(numerics, "BISECTED_STEPS", 2)
                before = _bisections_by_grid(monkeypatch, solve)
            assert _nodes(counts) < _nodes(before), (a, c, m_index)
            values = solve()
            for level in (0, numerics.COARSEST_LEVELS - 1, numerics.COARSEST_LEVELS, k - 1):
                assert eigen_lowest(v_eff, grid, PHYS, level) == values[level]


def test_levels_up_to_the_cap_are_bisected_on_64h_only(monkeypatch):
    # the highest levels the 64h grid seeds prove themselves on every finer grid
    k = numerics.COARSEST_LEVELS
    for a, c in SURFACE_POINTS:
        v_eff, grid = _sweep_like(a, c, 7, 2)
        coarse = numerics._coarse_grids(grid, k)
        assert coarse[0].h == COARSEN**3 * grid.h
        counts = _bisections_by_grid(
            monkeypatch, lambda: _levels(v_eff, grid, k))
        assert counts == {coarse[0].count: k}


def test_first_refined_link_takes_three_steps(monkeypatch):
    # verify's level-1 vector at M = 4 on a point of the benchmark's surface:
    # two steps from the 64h bisection left the 16h window unproved
    dim = dimension_reduce(4, 0)
    pot = PotentialParams(a=1.64046, b=constraint_b(1.64046, 0.40084, dim, PHYS), c=0.40084)
    pot_up = PotentialParams(a=closed_level(pot, dim, PHYS, 1)[0], b=pot.b, c=pot.c)
    v_eff, grid = effective_potential(pot_up, dim, PHYS), build_grid(pot, dim, PHYS)
    coarsest = numerics._coarse_grids(grid, 2)[0]
    assert coarsest.h == COARSEN**3 * grid.h
    solve = functools.partial(eigen_lowest, v_eff, grid, PHYS, 1, eigenvectors=True)
    assert _bisections_by_grid(monkeypatch, solve) == {coarsest.count: 1}
