import math

import numpy as np
import pytest

from pcoulomb.exact import (
    ConstraintViolation,
    constraint_a,
    constraint_b,
    constraint_residual,
    coulomb_ground,
    dual_view_check,
    ground_state,
    hierarchy_states,
    level_spacing,
    level_superpotential,
    oscillator_view_ground,
    perturbation_ground_coulomb,
    spectrum,
)
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce, effective_potential
from pcoulomb.susy import riccati_residual

PHYS = PhysicalParams()
DIM3 = dimension_reduce(3, 0)
DIM5 = dimension_reduce(5, 0)


# -- constraints ---------------------------------------------------------------

def test_constraint_b_reference_values():
    assert constraint_b(1.0, 0.5, DIM3, PHYS) == pytest.approx(1.0)
    assert constraint_b(1.0, 0.5, DIM5, PHYS) == pytest.approx(0.5)
    assert constraint_b(2.0, 2.0, DIM3, PHYS) == pytest.approx(4.0)


def test_constraint_b_rejects_nonpositive():
    with pytest.raises(ValueError, match="attractive Coulomb"):
        constraint_b(-1.0, 0.5, DIM3, PHYS)
    with pytest.raises(ValueError, match="attractive Coulomb"):
        constraint_b(1.0, 0.0, DIM3, PHYS)


def test_constraint_b_scaling_homogeneity():
    # b(s a, s^2 c) / b(a, c) = s^2
    for s in (2.0, 5.0):
        base = constraint_b(1.3, 0.7, DIM3, PHYS)
        scaled = constraint_b(s * 1.3, s**2 * 0.7, DIM3, PHYS)
        assert scaled / base == pytest.approx(s**2, rel=1e-14)


def test_constraint_a_inverts_constraint_b():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.1, 10.0)
        m = int(rng.integers(2, 13))
        dim = dimension_reduce(m, 0)
        b = constraint_b(a, c, dim, PHYS)
        assert constraint_a(b, c, dim, PHYS, n=0) == pytest.approx(a, rel=1e-13)


def test_constraint_a_levels():
    assert constraint_a(1.0, 0.5, DIM3, PHYS, n=0) == pytest.approx(1.0)
    assert constraint_a(1.0, 0.5, DIM3, PHYS, n=1) == pytest.approx(2.0)
    assert constraint_a(0.5, 0.5, DIM5, PHYS, n=0) == pytest.approx(1.0)


def test_constraint_residual_violation_magnitude():
    pot = PotentialParams(a=1.0, b=2.0, c=0.5)
    assert constraint_residual(pot, DIM3, PHYS) == pytest.approx(1.0)
    on_surface = PotentialParams(a=1.0, b=1.0, c=0.5)
    assert constraint_residual(on_surface, DIM3, PHYS) <= 1e-15


def test_constraint_residual_flags_repulsive_coulomb():
    # b >= 0 can never meet a negative target: there is no surface point
    pot = PotentialParams(a=-1.0, b=0.0, c=0.5)
    assert constraint_residual(pot, DIM3, PHYS) == pytest.approx(1.0)
    with pytest.raises(ConstraintViolation):
        oscillator_view_ground(pot, DIM3, PHYS)


# -- coulomb ground ------------------------------------------------------------

def test_coulomb_ground_hydrogen():
    w, chi, eps = coulomb_ground(1.0, DIM3, PHYS)
    assert eps == pytest.approx(-0.5)
    assert (chi.q, chi.lam, chi.kap) == (1.0, 1.0, 0.0)


def test_coulomb_ground_higher_barrier():
    _, chi, eps = coulomb_ground(1.0, DIM5, PHYS)
    assert eps == pytest.approx(-0.125)
    assert (chi.q, chi.lam) == (2.0, 0.5)


def test_coulomb_ground_strength_scaling():
    _, chi, eps = coulomb_ground(2.0, DIM3, PHYS)
    assert eps == pytest.approx(-2.0)
    assert chi.lam == pytest.approx(2.0)


def test_coulomb_ground_rejects_repulsive():
    with pytest.raises(ValueError, match="no bound Coulomb state"):
        coulomb_ground(0.0, DIM3, PHYS)


# -- perturbation pieces ---------------------------------------------------------

def test_perturbation_ground_reference_case():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    dw, phi, delta = perturbation_ground_coulomb(pot, DIM3, PHYS)
    assert delta == pytest.approx(1.5)
    assert phi.kap == pytest.approx(0.5)
    assert dw.coeff(1) == pytest.approx(math.sqrt(0.5))


def test_perturbation_ground_m5():
    pot = PotentialParams(a=1.0, b=0.5, c=0.5)
    _, phi, delta = perturbation_ground_coulomb(pot, DIM5, PHYS)
    assert delta == pytest.approx(2.5)
    assert phi.kap == pytest.approx(0.5)


def test_perturbation_ground_rejects_off_surface():
    pot = PotentialParams(a=1.0, b=2.0, c=0.5)
    with pytest.raises(ConstraintViolation) as err:
        perturbation_ground_coulomb(pot, DIM3, PHYS)
    assert err.value.violation == pytest.approx(1.0)


def test_kappa_identity_on_surface():
    # kappa = b(M-1)/(4a) = sqrt(2mc)/(2 hbar) when b is on the surface
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.uniform(0.2, 5.0)
        c = rng.uniform(0.2, 5.0)
        m = int(rng.integers(2, 10))
        dim = dimension_reduce(m, 0)
        b = constraint_b(a, c, dim, PHYS)
        pot = PotentialParams(a=a, b=b, c=c)
        _, phi, _ = perturbation_ground_coulomb(pot, dim, PHYS)
        assert phi.kap == pytest.approx(b * (dim.m_index - 1) / (4 * a), rel=1e-12)
        assert phi.kap == math.sqrt(2 * c) / 2.0


# -- ground_state / oscillator view ---------------------------------------------

def test_ground_state_reference_case():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    assert sol.energy.epsilon == pytest.approx(-0.5)
    assert sol.energy.delta_epsilon == pytest.approx(1.5)
    assert sol.energy.total == pytest.approx(1.0)
    assert (sol.psi.q, sol.psi.lam, sol.psi.kap) == (1.0, 1.0, 0.5)


def test_ground_state_m5_case():
    pot = PotentialParams(a=1.0, b=0.5, c=0.5)
    sol = ground_state(pot, DIM5, PHYS)
    assert sol.energy.total == pytest.approx(2.375)
    assert (sol.psi.q, sol.psi.lam, sol.psi.kap) == (2.0, 0.5, 0.5)


def test_ground_state_psi_is_product_of_factors():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    radii = np.linspace(0.2, 4.0, 17)
    np.testing.assert_allclose(
        sol.psi.evaluate(radii),
        sol.chi.evaluate(radii) * sol.phi.evaluate(radii),
        rtol=1e-14,
    )


def test_ground_state_hydrogen_fallback():
    sol = ground_state(PotentialParams(a=1.0), DIM3, PHYS)
    assert sol.energy.total == pytest.approx(-0.5)
    assert sol.energy.delta_epsilon == 0.0
    assert sol.dw.form.is_zero
    assert (sol.psi.q, sol.psi.lam, sol.psi.kap) == (1.0, 1.0, 0.0)


def test_oscillator_view_reference_case():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = oscillator_view_ground(pot, DIM3, PHYS)
    assert sol.energy.epsilon == pytest.approx(1.5)
    assert sol.energy.delta_epsilon == pytest.approx(-0.5)
    assert sol.energy.total == pytest.approx(1.0)
    assert (sol.psi.q, sol.psi.lam, sol.psi.kap) == (1.0, 1.0, 0.5)


def test_oscillator_view_m5():
    pot = PotentialParams(a=1.0, b=0.5, c=0.5)
    sol = oscillator_view_ground(pot, DIM5, PHYS)
    assert sol.energy.epsilon == pytest.approx(2.5)
    assert sol.energy.delta_epsilon == pytest.approx(-0.125)
    assert sol.energy.total == pytest.approx(2.375)


def test_oscillator_view_pure_oscillator():
    pot = PotentialParams(c=0.5)
    sol = oscillator_view_ground(pot, DIM3, PHYS)
    assert sol.energy.epsilon == pytest.approx(1.5)
    assert sol.energy.delta_epsilon == 0.0
    assert sol.energy.total == pytest.approx(1.5)


def test_oscillator_view_requires_confinement():
    with pytest.raises(ValueError, match="oscillator view undefined"):
        oscillator_view_ground(PotentialParams(a=1.0, b=1.0), DIM3, PHYS)


def test_both_views_riccati_exact_m5():
    pot = PotentialParams(a=1.0, b=0.5, c=0.5)
    v_eff = effective_potential(pot, DIM5, PHYS)
    for sol in (ground_state(pot, DIM5, PHYS), oscillator_view_ground(pot, DIM5, PHYS)):
        res = riccati_residual(sol.w + sol.dw, v_eff, sol.energy.total, PHYS)
        assert res.max_abs_coeff() <= 1e-13


# -- dual view -----------------------------------------------------------------

def test_dual_view_check_reference_cases():
    for pot, dim in (
        (PotentialParams(a=1.0, b=1.0, c=0.5), DIM3),
        (PotentialParams(a=1.0, b=0.5, c=0.5), DIM5),
    ):
        report = dual_view_check(
            ground_state(pot, dim, PHYS), oscillator_view_ground(pot, dim, PHYS)
        )
        assert report["energy_diff"] <= 1e-12
        assert report["psi_param_diff"] <= 1e-12


def test_dual_view_randomized_equality():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.1, 10.0)
        m = int(rng.integers(2, 13))
        dim = dimension_reduce(m, 0)
        b = constraint_b(a, c, dim, PHYS)
        pot = PotentialParams(a=a, b=b, c=c)
        coul = ground_state(pot, dim, PHYS)
        osc = oscillator_view_ground(pot, dim, PHYS)
        scale = max(1.0, abs(coul.energy.total))
        assert abs(coul.energy.total - osc.energy.total) <= 1e-12 * scale


def test_dual_view_equality_with_random_units():
    # mass and hbar are carried explicitly; the view equivalence and both
    # factorization identities must survive arbitrary unit choices
    rng = np.random.default_rng(59)
    for _ in range(60):
        phys = PhysicalParams(mass=rng.uniform(0.3, 3.0), hbar=rng.uniform(0.3, 3.0))
        a = rng.uniform(0.2, 5.0)
        c = rng.uniform(0.2, 5.0)
        dim = dimension_reduce(int(rng.integers(2, 11)), int(rng.integers(0, 3)))
        pot = PotentialParams(a=a, b=constraint_b(a, c, dim, phys), c=c)
        v_eff = effective_potential(pot, dim, phys)
        coul = ground_state(pot, dim, phys)
        osc = oscillator_view_ground(pot, dim, phys)
        scale = max(1.0, abs(coul.energy.total))
        assert abs(coul.energy.total - osc.energy.total) <= 1e-12 * scale
        for sol in (coul, osc):
            res = riccati_residual(sol.w + sol.dw, v_eff, sol.energy.total, phys)
            assert res.max_abs_coeff() <= 1e-12 * scale
        assert abs(coul.psi.lam - osc.psi.lam) <= 1e-12 * max(1.0, coul.psi.lam)
        assert abs(coul.psi.kap - osc.psi.kap) <= 1e-12 * max(1.0, coul.psi.kap)


def test_dual_view_check_refuses_off_surface():
    # dual_view_check compares built views; both constructors refuse
    pot = PotentialParams(a=1.0, b=2.0, c=0.5)
    for view in (ground_state, oscillator_view_ground):
        with pytest.raises(ConstraintViolation):
            view(pot, DIM3, PHYS)


def test_psi_parameter_identities():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = rng.uniform(0.1, 8.0)
        c = rng.uniform(0.1, 8.0)
        m = int(rng.integers(2, 11))
        dim = dimension_reduce(m, 0)
        pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
        psi = ground_state(pot, dim, PHYS).psi
        assert psi.kap == math.sqrt(2.0 * c) / 2.0
        assert psi.lam == a / (dim.lam + 1.0)
        assert psi.q == dim.lam + 1.0


def test_riccati_zero_form_randomized_both_views():
    # every ground solution's full superpotential must reproduce the
    # potential and energy exactly in coefficient arithmetic
    rng = np.random.default_rng(37)
    for _ in range(50):
        a = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.1, 10.0)
        m = int(rng.integers(2, 13))
        dim = dimension_reduce(m, 0)
        pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
        v_eff = effective_potential(pot, dim, PHYS)
        for sol in (ground_state(pot, dim, PHYS), oscillator_view_ground(pot, dim, PHYS)):
            res = riccati_residual(sol.w + sol.dw, v_eff, sol.energy.total, PHYS)
            assert res.max_abs_coeff() <= 1e-12 * max(1.0, abs(sol.energy.total))


# -- spectrum ------------------------------------------------------------------

def test_spectrum_reference_family():
    levels = spectrum(1.0, 0.5, DIM3, PHYS, 2)
    assert [lv.e_n for lv in levels] == [1.0, 2.0, 3.0]
    assert [lv.a_n for lv in levels] == [1.0, 2.0, 3.0]


def test_spectrum_pure_oscillator():
    levels = spectrum(0.0, 0.5, DIM3, PHYS, 2)
    assert [lv.e_n for lv in levels] == [1.5, 2.5, 3.5]
    assert all(lv.a_n == 0.0 for lv in levels)


def test_spectrum_higher_barrier():
    levels = spectrum(1.0, 0.5, DIM5, PHYS, 2)
    assert [lv.e_n for lv in levels] == [2.0, 3.0, 4.0]


def test_spectrum_uniform_spacing():
    rng = np.random.default_rng(17)
    for _ in range(25):
        b = rng.uniform(0.0, 4.0)
        c = rng.uniform(0.1, 6.0)
        m = int(rng.integers(2, 10))
        dim = dimension_reduce(m, 0)
        levels = spectrum(b, c, dim, PHYS, 5)
        gap = level_spacing(c, PHYS)
        for lo, hi in zip(levels[:-1], levels[1:]):
            assert hi.e_n - lo.e_n == pytest.approx(gap, abs=1e-14)
            assert hi.e_n > lo.e_n


def test_spectrum_requires_confinement():
    with pytest.raises(ValueError):
        spectrum(1.0, 0.0, DIM3, PHYS, 2)


# -- hierarchy -----------------------------------------------------------------

def test_hierarchy_level_one_polynomial():
    state = hierarchy_states(1.0, 0.5, DIM3, PHYS, 1)
    assert (state.q, state.lam, state.kap) == (1.0, 1.0, 0.5)
    # proportional to r^2 + r - 1.5
    scaled = np.asarray(state.poly) / state.poly[-1]
    np.testing.assert_allclose(scaled, [-1.5, 1.0, 1.0], rtol=1e-14)


def test_hierarchy_level_zero_is_ground():
    state = hierarchy_states(1.0, 0.5, DIM3, PHYS, 0)
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    ground = ground_state(pot, DIM3, PHYS).psi
    assert state.degree == 0
    assert (state.q, state.lam, state.kap) == (ground.q, ground.lam, ground.kap)


def test_hierarchy_degree_grows_by_two():
    for n in range(4):
        state = hierarchy_states(1.0, 0.5, DIM3, PHYS, n)
        assert state.degree == 2 * n
        assert state.q == pytest.approx(DIM3.lam + 1.0)


def test_hierarchy_pure_oscillator_node_position():
    # with b = 0 the ladder reproduces the first excited oscillator state:
    # even quadratic polynomial with its node at r^2 = (2 Lambda + 3) hbar/(2 sqrt(2mc))
    state = hierarchy_states(0.0, 0.5, DIM3, PHYS, 1)
    assert state.poly[1] == pytest.approx(0.0, abs=1e-15)
    zeros = np.polynomial.polynomial.polyroots(state.poly)
    roots = [z.real for z in zeros if z.imag == 0 and z.real > 0]
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_level_superpotential_constant_is_level_independent():
    s0 = level_superpotential(1.0, 0.5, DIM3, PHYS, 0)
    s3 = level_superpotential(1.0, 0.5, DIM3, PHYS, 3)
    assert s0.coeff(0) == s3.coeff(0)
    assert s3.coeff(-1) - s0.coeff(-1) == pytest.approx(-3.0 / math.sqrt(2.0))
