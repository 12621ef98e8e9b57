import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from pcoulomb.exact import constraint_a, ground_state
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce
from pcoulomb.qes import (
    MAX_LEVEL,
    ROOT_RTOL,
    level_energy,
    oracle_reduce,
    oracle_state,
    qes_constraint_polynomial,
    qes_solve,
)

PHYS = PhysicalParams()
DIM3 = dimension_reduce(3, 0)

GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0
ANTI_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


# -- reduction ------------------------------------------------------------------

def test_oracle_reduce_exponent_rates():
    system = oracle_reduce(1.0, 0.5, DIM3, PHYS, 1)
    assert system.lam_exp == pytest.approx(1.0)
    assert system.kap_exp == pytest.approx(0.5)
    assert system.a0 == pytest.approx(1.0)


def test_oracle_reduce_level0_single_condition():
    system = oracle_reduce(1.0, 0.5, DIM3, PHYS, 0)
    curv, shift, step = system.row(-1)
    # row reads: curv * p_1 + (A + shift) * p_0 + step * p_{-1} = 0 with
    # p_1 = p_{-1} = 0, so the condition is A = a0
    assert shift == pytest.approx(-system.a0)
    assert curv == pytest.approx(2.0 * PHYS.kinetic * (DIM3.lam + 1.0))


def test_oracle_reduce_level1_conditions():
    system = oracle_reduce(1.0, 0.5, DIM3, PHYS, 1)
    # top interior row j=0: [A - a0 - 2T lam] p_1 + 4T kap p_0 = 0
    _, shift0, step0 = system.row(0)
    assert shift0 == pytest.approx(-(system.a0 + 2.0 * system.kinetic * system.lam_exp))
    assert step0 == pytest.approx(1.0)
    # bottom row j=-1: 2T(Lambda+1) p_1 + (A - a0) p_0 = 0
    curv1, shift1, _ = system.row(-1)
    assert curv1 == pytest.approx(1.0)
    assert shift1 == pytest.approx(-system.a0)


def test_oracle_reduce_validates_inputs():
    with pytest.raises(ValueError):
        oracle_reduce(1.0, 0.0, DIM3, PHYS, 1)
    with pytest.raises(ValueError):
        oracle_reduce(-1.0, 0.5, DIM3, PHYS, 1)
    with pytest.raises(ValueError):
        oracle_reduce(1.0, 0.5, DIM3, PHYS, MAX_LEVEL + 1)


# -- constraint polynomial --------------------------------------------------------

def test_constraint_polynomial_level0_is_linear():
    d = qes_constraint_polynomial(1.0, 0.5, DIM3, PHYS, 0)
    assert len(d) == 2
    np.testing.assert_allclose(d, [-1.0, 1.0], atol=1e-15)


def test_constraint_polynomial_level1_quadratic():
    # eliminating the two level-1 conditions gives A^2 - 3A + 1 for the
    # (b=1, c=0.5, Lambda=0) family
    d = qes_constraint_polynomial(1.0, 0.5, DIM3, PHYS, 1)
    assert len(d) == 3
    scaled = d / d[-1]
    np.testing.assert_allclose(scaled, [1.0, -3.0, 1.0], rtol=1e-13)
    assert npoly.polyval(2.0, scaled) == pytest.approx(-1.0, abs=1e-13)


def test_constraint_polynomial_level1_vieta():
    # product of roots = 4 T^2 [lam^2 (Lambda+1)(Lambda+2) - 2 kap (Lambda+1)]
    rng = np.random.default_rng(13)
    for _ in range(40):
        b = rng.uniform(0.2, 4.0)
        c = rng.uniform(0.2, 4.0)
        m = int(rng.integers(2, 11))
        dim = dimension_reduce(m, 0)
        system = oracle_reduce(b, c, dim, PHYS, 1)
        t, lam, kap = system.kinetic, system.lam_exp, system.kap_exp
        expected = 4.0 * t**2 * (
            lam**2 * (dim.lam + 1.0) * (dim.lam + 2.0) - 2.0 * kap * (dim.lam + 1.0)
        )
        roots = [s.a_root for s in qes_solve(b, c, dim, PHYS, 1)]
        assert roots[0] * roots[1] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_constraint_polynomial_degree():
    for n in range(MAX_LEVEL + 1):
        d = qes_constraint_polynomial(0.7, 1.3, DIM3, PHYS, n)
        assert len(d) == n + 2
        assert d[-1] != 0.0


# -- qes_solve -------------------------------------------------------------------

def test_qes_solve_level0_matches_inversion():
    sols = qes_solve(1.0, 0.5, DIM3, PHYS, 0)
    assert len(sols) == 1
    assert sols[0].a_root == pytest.approx(1.0, rel=1e-14)
    assert sols[0].node_count == 0
    assert sols[0].energy == pytest.approx(1.0)
    np.testing.assert_allclose(sols[0].poly, [1.0])


def test_qes_solve_level0_randomized_equivalence():
    rng = np.random.default_rng(101)
    for _ in range(120):
        b = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.1, 10.0)
        m = int(rng.integers(2, 13))
        dim = dimension_reduce(m, 0)
        target = constraint_a(b, c, dim, PHYS, n=0)
        sols = qes_solve(b, c, dim, PHYS, 0)
        assert len(sols) == 1
        assert abs(sols[0].a_root - target) / target <= 1e-13


def test_qes_solve_level0_random_units():
    rng = np.random.default_rng(103)
    for _ in range(40):
        phys = PhysicalParams(mass=rng.uniform(0.3, 3.0), hbar=rng.uniform(0.3, 3.0))
        b = rng.uniform(0.2, 5.0)
        c = rng.uniform(0.2, 5.0)
        dim = dimension_reduce(int(rng.integers(2, 11)), 0)
        target = constraint_a(b, c, dim, phys, n=0)
        sols = qes_solve(b, c, dim, phys, 0)
        assert len(sols) == 1
        assert abs(sols[0].a_root - target) / target <= 1e-13


def test_qes_solve_level1_reference_roots():
    sols = qes_solve(1.0, 0.5, DIM3, PHYS, 1)
    assert len(sols) == 2
    assert sols[0].a_root == pytest.approx(ANTI_GOLDEN, abs=1e-10)
    assert sols[1].a_root == pytest.approx(GOLDEN, abs=1e-10)
    assert [s.node_count for s in sols] == [0, 1]
    assert all(s.energy == pytest.approx(2.0) for s in sols)


def test_qes_solve_linear_rule_is_not_a_root():
    # the level-advanced inversion gives a_1 = 2, but D(2) = -1 != 0 for the
    # reference family: the linear rule is not an exact level-1 constraint
    d = qes_constraint_polynomial(1.0, 0.5, DIM3, PHYS, 1)
    a1 = constraint_a(1.0, 0.5, DIM3, PHYS, n=1)
    value = npoly.polyval(a1, d / d[-1])
    assert abs(value) > 0.5


def test_qes_solve_roots_straddle_linear_rule():
    rng = np.random.default_rng(19)
    for _ in range(60):
        b = rng.uniform(0.2, 5.0)
        c = rng.uniform(0.2, 5.0)
        m = int(rng.integers(2, 11))
        dim = dimension_reduce(m, 0)
        a1 = constraint_a(b, c, dim, PHYS, n=1)
        roots = [s.a_root for s in qes_solve(b, c, dim, PHYS, 1)]
        assert min(roots) < a1 < max(roots)


def test_qes_solve_root_count_and_ordering():
    for n in range(MAX_LEVEL + 1):
        sols = qes_solve(1.0, 0.5, DIM3, PHYS, n)
        assert len(sols) == n + 1
        roots = [s.a_root for s in sols]
        assert roots == sorted(roots)
        assert [s.node_count for s in sols] == list(range(n + 1))


def test_qes_energy_matches_formula():
    rng = np.random.default_rng(29)
    for _ in range(30):
        b = rng.uniform(0.1, 4.0)
        c = rng.uniform(0.1, 4.0)
        n = int(rng.integers(0, 5))
        m = int(rng.integers(2, 9))
        dim = dimension_reduce(m, 0)
        expected = level_energy(b, c, dim, PHYS, n)
        for sol in qes_solve(b, c, dim, PHYS, n):
            assert abs(sol.energy - expected) <= 1e-14 * max(1.0, abs(expected))


def test_qes_ground_root_recovers_closed_form():
    # the oracle's nodeless level-0 state is the closed-form ground state
    b, c = 1.0, 0.5
    sol = qes_solve(b, c, DIM3, PHYS, 0)[0]
    state = oracle_state(sol, DIM3, PHYS, b, c)
    pot = PotentialParams(a=sol.a_root, b=b, c=c)
    psi = ground_state(pot, DIM3, PHYS).psi
    assert (state.q, state.lam, state.kap) == (psi.q, psi.lam, psi.kap)


def test_reference_potential_has_second_exact_level():
    # the (a=1, b=1, c=0.5, Lambda=0) potential is itself a root of the
    # degree-3 constraint family: its first excited state is exact too,
    # P = r^3 + 3 r^2 - 3 with one node at E = 4.  The eigensolver agrees.
    sols = [s for s in qes_solve(1.0, 0.5, DIM3, PHYS, 3) if abs(s.a_root - 1.0) < 1e-12]
    assert len(sols) == 1
    sol = sols[0]
    assert sol.node_count == 1
    assert sol.energy == pytest.approx(4.0)
    np.testing.assert_allclose(
        np.asarray(sol.poly) / sol.poly[-1], [-3.0, 0.0, 3.0, 1.0], atol=1e-12
    )

    from pcoulomb.model import effective_potential
    from pcoulomb.numerics import build_grid, eigen_lowest

    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    grid = build_grid(pot, DIM3, PHYS)
    vals = eigen_lowest(effective_potential(pot, DIM3, PHYS), grid, PHYS, k=2)
    assert vals[0] == pytest.approx(1.0, abs=1e-4)
    assert vals[1] == pytest.approx(4.0, abs=1e-4)


def test_qes_null_vector_satisfies_all_rows():
    # back-substituted coefficients must satisfy the skipped row too
    system = oracle_reduce(0.8, 1.7, DIM3, PHYS, 3)
    for sol in qes_solve(0.8, 1.7, DIM3, PHYS, 3):
        p = list(sol.poly) + [0.0, 0.0]
        for j in range(-1, 3):
            curv, shift, step = system.row(j)
            pj = p[j] if j >= 0 else 0.0
            residual = curv * p[j + 2] + (sol.a_root + shift) * p[j + 1] + step * pj
            assert abs(residual) <= 1e-9 * max(1.0, max(abs(x) for x in p))


def test_qes_solve_pure_oscillator_family():
    # b = 0: the level-1 constraint roots are +-1 for c = 0.5, Lambda = 0;
    # the positive root adds an attractive Coulomb term to make a one-node
    # state exact at E = 2.5, the negative root a repulsive nodeless one
    sols = qes_solve(0.0, 0.5, DIM3, PHYS, 1)
    assert [s.a_root for s in sols] == [pytest.approx(-1.0), pytest.approx(1.0)]
    assert [s.node_count for s in sols] == [0, 1]
    assert all(s.energy == pytest.approx(2.5) for s in sols)


# -- roots and node counts against independent references -----------------------

#: (b, c, N, l) from the reference family to strong Coulomb coupling
NODE_POINTS = [(1.0, 0.5, 3, 0), (2.2, 0.2, 4, 2), (5.0, 0.05, 7, 2)]


def _sign_changes(values: np.ndarray) -> int:
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


@pytest.mark.parametrize("b, c, n_dim, ell", NODE_POINTS)
def test_node_counts_match_grid_sign_changes(b, c, n_dim, ell):
    # P is sampled densely over 12 oscillator lengths, then geometrically out
    # to its Cauchy bound, beyond which P has no zeros
    dim = dimension_reduce(n_dim, ell)
    kap = oracle_reduce(b, c, dim, PHYS, 0).kap_exp
    extent = 12.0 / math.sqrt(kap)
    near = np.linspace(0.0, extent, 200_001)[1:]
    for n in range(MAX_LEVEL + 1):
        counts = []
        for sol in qes_solve(b, c, dim, PHYS, n):
            bound = 1.0 + max(abs(p) for p in sol.poly[:-1]) if n else extent
            far = np.geomspace(extent, max(bound, extent), 2_000)
            r = np.concatenate((near, far[1:]))
            counts.append(_sign_changes(npoly.polyval(r, np.asarray(sol.poly))))
            assert counts[-1] == sol.node_count, (n, sol.a_root)
        # n+1 distinct exact states with at most n zeros each
        assert sorted(counts) == list(range(n + 1)), n


def _mp_constraint_polynomial(b, c, n_dim, ell, n):
    """D(A) at 60 digits, ascending in A, from the recursion in the module
    docstring (hbar = mass = 1): p_k by back-substitution from p_n = 1 as
    polynomials in A, D = 2T(Lambda+1) p_1 + (A - a0) p_0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        b, c = mpmath.mpf(b), mpmath.mpf(c)
        t = mpmath.mpf(1) / 2
        big_lam = mpmath.mpf(n_dim + 2 * ell - 3) / 2
        kap = mpmath.sqrt(2 * c) / 2
        lam = b / mpmath.sqrt(2 * c)
        a0 = 2 * t * lam * (big_lam + 1)

        def times_a_plus(shift, p):  # (A + shift) p, ascending in A
            return [shift * x + y for x, y in zip(p + [0], [0] + p)]

        def add(p, q):
            size = max(len(p), len(q))
            return [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0)
                    for k in range(size)]

        polys = {n: [mpmath.mpf(1)], n + 1: [mpmath.mpf(0)]}
        for j in range(n - 1, -1, -1):
            curv = t * ((j + 2) * (j + 1) + 2 * (big_lam + 1) * (j + 2))
            shift = -a0 - 2 * t * lam * (j + 1)
            step = 4 * t * kap * (n - j)
            acc = add(times_a_plus(shift, polys[j + 1]), [curv * x for x in polys[j + 2]])
            polys[j] = [-x / step for x in acc]
        p1 = polys[1] if n >= 1 else [mpmath.mpf(0)]
        return add([2 * t * (big_lam + 1) * x for x in p1], times_a_plus(-a0, polys[0]))


def _mp_constraint_roots(b, c, n_dim, ell, n):
    """Real roots of D(A) at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        d = _mp_constraint_polynomial(b, c, n_dim, ell, n)
        if n == 0:
            return [float(-d[0] / d[1])]
        roots = mpmath.polyroots(d[::-1], maxsteps=400, extraprec=240)
        return sorted(float(mpmath.re(z)) for z in roots)


@pytest.mark.parametrize("b, c, n_dim, ell", NODE_POINTS)
def test_constraint_polynomial_matches_mpmath(b, c, n_dim, ell):
    # back-substitution leaves D the leading sign (-1)^n, which the module drops
    dim = dimension_reduce(n_dim, ell)
    for n in range(MAX_LEVEL + 1):
        ref = (-1) ** n * np.array([float(x) for x in _mp_constraint_polynomial(
            b, c, n_dim, ell, n)])
        got = qes_constraint_polynomial(b, c, dim, PHYS, n)
        assert len(got) == len(ref) == n + 2
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), n


@pytest.mark.parametrize("b, c, n_dim, ell", NODE_POINTS)
def test_roots_match_mpmath(b, c, n_dim, ell):
    dim = dimension_reduce(n_dim, ell)
    for n in range(MAX_LEVEL + 1):
        ref = _mp_constraint_roots(b, c, n_dim, ell, n)
        got = [s.a_root for s in qes_solve(b, c, dim, PHYS, n)]
        assert len(got) == len(ref) == n + 1
        for x, y in zip(got, ref):
            assert abs(x - y) <= ROOT_RTOL * abs(y), (n, x, y)


def test_near_zero_root_bound_is_relative_to_largest_root():
    # a root near A = 0 carries the absolute error of the whole level
    # (2.9e-13 relative to itself here), so the stated accuracy is relative
    # to the level's largest |root|
    b, c = 0.3935, 0.229
    ref = _mp_constraint_roots(b, c, 3, 0, 1)
    got = [s.a_root for s in qes_solve(b, c, DIM3, PHYS, 1)]
    assert abs(ref[0]) < 1e-3
    scale = max(abs(y) for y in ref)
    for x, y in zip(got, ref):
        assert abs(x - y) <= ROOT_RTOL * scale


@pytest.mark.parametrize("coupling", [1e-300, 1e-200, 1e-100])
def test_constraint_polynomial_at_tiny_couplings_is_finite_or_refused(coupling):
    # the product of steps underflows to zero at n 3..4 (1e-300), 4..6
    # (1e-200) and 7..8 (1e-100): D is refused, never a RuntimeWarning
    refused = []
    for n in range(MAX_LEVEL + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                d = qes_constraint_polynomial(coupling, coupling, DIM3, PHYS, n)
            except ValueError as exc:
                assert str(exc).startswith(f"level n = {n}: "), exc
                refused.append(n)
                continue
        assert np.all(np.isfinite(d)), n
    assert refused and refused == list(range(refused[0], MAX_LEVEL + 1))
