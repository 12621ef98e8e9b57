import math

import numpy as np
import pytest

from pcoulomb.exact import ground_state, level_superpotential
from pcoulomb.model import LaurentForm, PhysicalParams, PotentialParams, dimension_reduce, effective_potential
from pcoulomb.susy import (
    ClosedFormState,
    Superpotential,
    ground_energy_of,
    ladder_apply,
    lowering_apply,
    partner_potential,
    perturbation_residual,
    riccati_image,
    riccati_residual,
    shape_invariance_compare,
    superpotential_from_state,
)

PHYS = PhysicalParams()
DIM3 = dimension_reduce(3, 0)
SQ2 = math.sqrt(2.0)


def fd_derivative(func, r, step=1e-5):
    return (func(r + step) - func(r - step)) / (2.0 * step)


# -- superpotential_from_state ------------------------------------------------

def test_superpotential_from_coulomb_state():
    chi = ClosedFormState(poly=(1.0,), q=1.0, lam=1.0, kap=0.0)
    w = superpotential_from_state(chi, PHYS)
    assert w.form.as_dict() == pytest.approx({-1: -1 / SQ2, 0: 1 / SQ2})


def test_superpotential_from_gaussian_state():
    phi = ClosedFormState(poly=(1.0,), q=0.0, lam=0.0, kap=0.5)
    w = superpotential_from_state(phi, PHYS)
    # 2*kap/sqrt(2m) = 1/sqrt(2) = sqrt(c) for c = 0.5
    assert w.form.as_dict() == pytest.approx({1: 1 / SQ2})
    assert w.coeff(1) == pytest.approx(math.sqrt(0.5))


def test_superpotential_log_derivative_linearity():
    full = ClosedFormState(poly=(1.0,), q=1.0, lam=1.0, kap=0.5)
    part1 = ClosedFormState(poly=(1.0,), q=1.0, lam=1.0, kap=0.0)
    part2 = ClosedFormState(poly=(1.0,), q=0.0, lam=0.0, kap=0.5)
    combined = superpotential_from_state(part1, PHYS) + superpotential_from_state(part2, PHYS)
    assert superpotential_from_state(full, PHYS).form == combined.form


def test_superpotential_rejects_polynomial_states():
    state = ClosedFormState(poly=(1.0, 2.0), q=1.0, lam=1.0, kap=0.0)
    with pytest.raises(ValueError, match="log-derivative not a Laurent form"):
        superpotential_from_state(state, PHYS)


def test_superpotential_power_restriction():
    with pytest.raises(ValueError):
        Superpotential(LaurentForm({2: 1.0}))


def test_superpotential_matches_grid_log_derivative():
    # independent check: -(hbar/sqrt(2m)) psi'/psi on sample radii
    psi = ClosedFormState(poly=(1.0,), q=1.0, lam=1.0, kap=0.5)
    sup = superpotential_from_state(psi, PHYS)
    radii = np.linspace(0.5, 3.0, 11)
    numeric = -PHYS.deriv_scale * fd_derivative(psi.evaluate, radii) / psi.evaluate(radii)
    np.testing.assert_allclose(sup(radii), numeric, rtol=1e-8)


# -- riccati_image ------------------------------------------------------------

def test_riccati_image_hydrogen():
    sup = Superpotential(LaurentForm({0: 1 / SQ2, -1: -1 / SQ2}))
    image = riccati_image(sup, "-", PHYS)
    assert image.as_dict() == pytest.approx({0: 0.5, -1: -1.0})


def test_riccati_image_oscillator():
    sup = Superpotential(LaurentForm({1: 1 / SQ2, -1: -1 / SQ2}))
    image = riccati_image(sup, "-", PHYS)
    assert image.as_dict() == pytest.approx({2: 0.5, 0: -1.5})


def test_riccati_image_sign_difference_is_derivative_term():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sup = Superpotential(LaurentForm({p: rng.uniform(-2, 2) for p in (-1, 0, 1)}))
        diff = riccati_image(sup, "+", PHYS) - riccati_image(sup, "-", PHYS)
        expected = 2.0 * PHYS.deriv_scale * sup.form.derivative()
        assert (diff - expected).max_abs_coeff() <= 1e-14


def test_riccati_image_bad_sign():
    with pytest.raises(ValueError):
        riccati_image(Superpotential(LaurentForm({})), "x", PHYS)


def test_riccati_image_matches_grid_curvature():
    # the minus image evaluated pointwise must equal the scaled curvature
    # (hbar^2/2m) psi''/psi of the state generating the superpotential
    psi = ClosedFormState(poly=(1.0,), q=1.0, lam=1.0, kap=0.5)
    sup = superpotential_from_state(psi, PHYS)
    image = riccati_image(sup, "-", PHYS)
    radii = np.linspace(0.5, 3.0, 11)
    step = 1e-4
    second = (
        psi.evaluate(radii + step) - 2.0 * psi.evaluate(radii) + psi.evaluate(radii - step)
    ) / step**2
    curvature = PHYS.kinetic * second / psi.evaluate(radii)
    np.testing.assert_allclose(image(radii), curvature, rtol=1e-7)


# -- residuals ----------------------------------------------------------------

def test_riccati_residual_exact_ground():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    v_eff = effective_potential(pot, DIM3, PHYS)
    res = riccati_residual(sol.w + sol.dw, v_eff, sol.energy.total, PHYS)
    assert res.max_abs_coeff() <= 1e-13


def test_riccati_residual_energy_shift_isolates_in_constant():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    v_eff = effective_potential(pot, DIM3, PHYS)
    res = riccati_residual(sol.w + sol.dw, v_eff, sol.energy.total + 0.1, PHYS)
    assert res.coeff(0) == pytest.approx(0.1, abs=1e-13)
    assert res.constant_removed().max_abs_coeff() <= 1e-13


def test_riccati_residual_missing_term_shows_up():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    v_eff = effective_potential(pot, DIM3, PHYS)
    res = riccati_residual(sol.w, v_eff, sol.energy.total, PHYS)  # dropped sqrt(c) r piece
    assert res.coeff(2) == pytest.approx(-0.5)  # -c survives at r^2


def test_perturbation_residual_exact():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    dv = LaurentForm({1: pot.b, 2: pot.c})
    res = perturbation_residual(sol.w, sol.dw, dv, sol.energy.delta_epsilon, PHYS)
    assert res.max_abs_coeff() <= 1e-13


def test_perturbation_residual_detects_off_surface_b():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    delta = 0.25
    dv = LaurentForm({1: pot.b + delta, 2: pot.c})
    res = perturbation_residual(sol.w, sol.dw, dv, sol.energy.delta_epsilon, PHYS)
    assert res.coeff(1) == pytest.approx(-delta, abs=1e-13)
    assert res.coeff(0) == pytest.approx(0.0, abs=1e-13)
    assert res.coeff(2) == pytest.approx(0.0, abs=1e-13)


def test_perturbation_residual_identity_case():
    res = perturbation_residual(
        Superpotential(LaurentForm({})), Superpotential(LaurentForm({})), LaurentForm({}),
        0.0, PHYS,
    )
    assert res.is_zero


# -- partner potentials -------------------------------------------------------

def _images(sup):
    return riccati_image(sup, "-", PHYS), riccati_image(sup, "+", PHYS)


def test_partner_potentials_full_problem():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    minus, plus = _images(sol.w + sol.dw)
    assert minus.coeff(-1) == pytest.approx(-1.0)
    assert minus.coeff(1) == pytest.approx(1.0)
    assert minus.coeff(2) == pytest.approx(0.5)
    # constants differ by 2*(hbar/sqrt(2m)) * (constant part of S')
    sup = sol.w + sol.dw
    expected = 2.0 * PHYS.deriv_scale * sup.form.derivative().coeff(0)
    assert plus.coeff(0) - minus.coeff(0) == pytest.approx(expected)
    assert expected == pytest.approx(1.0)


def test_partner_potentials_pure_oscillator_barrier_shift():
    lam = 1.0
    sup = Superpotential(
        LaurentForm({1: math.sqrt(0.5), -1: -(lam + 1) / SQ2})
    )
    minus, plus = _images(sup)
    diff = plus - minus
    # barrier advances by 2(Lambda+1) units of hbar^2/2m
    assert diff.coeff(-2) == pytest.approx(2.0 * (lam + 1) * PHYS.kinetic)
    assert diff.coeff(0) == pytest.approx(2.0 * PHYS.deriv_scale * math.sqrt(0.5))


def test_partner_potentials_constant_superpotential():
    sup = Superpotential(LaurentForm({0: 0.7}))
    minus, plus = _images(sup)
    assert minus.as_dict() == pytest.approx({0: 0.49})
    assert plus.as_dict() == pytest.approx({0: 0.49})


def test_partner_potential_restores_the_ground_energy():
    # V- proper is the potential itself; V+ is its image plus the same E0
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    sol = ground_state(pot, DIM3, PHYS)
    sup = sol.w + sol.dw
    v_minus = partner_potential(sup, "-", PHYS)
    assert (v_minus - effective_potential(pot, DIM3, PHYS)).max_abs_coeff() <= 1e-14
    assert ground_energy_of(sup, PHYS) == pytest.approx(sol.energy.total, abs=1e-14)
    v_plus, image = partner_potential(sup, "+", PHYS), riccati_image(sup, "+", PHYS)
    assert v_plus.powers() == image.powers()
    for p in image.powers():
        expected = image.coeff(p) + (sol.energy.total if p == 0 else 0.0)
        assert v_plus.coeff(p) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(ValueError):
        partner_potential(sup, "x", PHYS)


# -- shape invariance ---------------------------------------------------------

def test_shape_invariance_consecutive_levels():
    s0 = level_superpotential(1.0, 0.5, DIM3, PHYS, 0)
    s1 = level_superpotential(1.0, 0.5, DIM3, PHYS, 1)
    cmp = shape_invariance_compare(s0, s1, PHYS)
    assert cmp.r_const == pytest.approx(1.0, abs=1e-14)
    # levels advance the Coulomb strength from a0=1 to a1=2; the comparison
    # reports that as the 1/r entry a0 - a1
    assert cmp.mismatch.coeff(-1) == pytest.approx(-1.0, abs=1e-13)
    assert cmp.mismatch.constant_removed().coeff(-2) == pytest.approx(0.0, abs=1e-14)
    assert cmp.mismatch.coeff(1) == pytest.approx(0.0, abs=1e-14)
    assert cmp.mismatch.coeff(2) == pytest.approx(0.0, abs=1e-14)


def test_shape_invariance_identity_is_exact():
    # V+(alpha0) - V-(alpha1) - R + mismatch must vanish exactly
    s0 = level_superpotential(1.0, 0.5, DIM3, PHYS, 0)
    s1 = level_superpotential(1.0, 0.5, DIM3, PHYS, 1)
    cmp = shape_invariance_compare(s0, s1, PHYS)
    v_plus0 = riccati_image(s0, "+", PHYS) + LaurentForm({0: ground_energy_of(s0, PHYS)})
    v_minus1 = riccati_image(s1, "-", PHYS) + LaurentForm({0: ground_energy_of(s1, PHYS)})
    defect = v_plus0 - v_minus1 - LaurentForm({0: cmp.r_const}) + cmp.mismatch
    assert defect.max_abs_coeff() == 0.0


def test_shape_invariance_same_parameters():
    s0 = level_superpotential(1.0, 0.5, DIM3, PHYS, 0)
    cmp = shape_invariance_compare(s0, s0, PHYS)
    expected_r = 2.0 * PHYS.deriv_scale * s0.form.derivative().coeff(0)
    assert cmp.r_const == pytest.approx(expected_r)
    # mismatch is the barrier shift alone
    assert cmp.mismatch.powers() == (-2,)


def test_shape_invariance_rejects_different_c():
    s0 = level_superpotential(1.0, 0.5, DIM3, PHYS, 0)
    s1 = level_superpotential(1.0, 2.0, DIM3, PHYS, 1)
    with pytest.raises(ValueError, match="b,c not held fixed"):
        shape_invariance_compare(s0, s1, PHYS)


# -- ladder -------------------------------------------------------------------

def test_ladder_apply_reference_polynomial():
    # seed: level-1 ground state of the (b=1, c=0.5, Lambda=0) family
    seed = ClosedFormState(poly=(1.0,), q=2.0, lam=1.0, kap=0.5)
    s0 = level_superpotential(1.0, 0.5, DIM3, PHYS, 0)
    out = ladder_apply(s0, seed, PHYS)
    assert out.q == pytest.approx(1.0)
    assert out.lam == pytest.approx(1.0)
    assert out.kap == pytest.approx(0.5)
    np.testing.assert_allclose(
        out.poly, [-3.0 / SQ2, SQ2, SQ2], rtol=1e-14
    )


def test_ladder_apply_degree_and_power_bookkeeping():
    seed = ClosedFormState(poly=(1.0,), q=3.0, lam=0.7, kap=0.3)
    sup = Superpotential(LaurentForm({-1: -0.5, 0: 0.2, 1: 0.9}))
    out = ladder_apply(sup, seed, PHYS)
    assert out.q == pytest.approx(2.0)
    assert out.degree == seed.degree + 2
    assert (out.lam, out.kap) == (seed.lam, seed.kap)


def test_ladder_apply_zero_superpotential_is_pure_derivative():
    seed = ClosedFormState(poly=(1.0,), q=2.0, lam=1.0, kap=0.5)
    out = ladder_apply(Superpotential(LaurentForm({})), seed, PHYS)
    radii = np.linspace(0.4, 3.0, 13)
    expected = -PHYS.deriv_scale * fd_derivative(seed.evaluate, radii)
    np.testing.assert_allclose(out.evaluate(radii), expected, rtol=1e-8)


def test_ladder_apply_matches_grid_application():
    # evaluated ladder output == -(hbar/sqrt(2m)) f' + S f computed numerically
    seed = ClosedFormState(poly=(1.0,), q=2.0, lam=1.0, kap=0.5)
    s0 = level_superpotential(1.0, 0.5, DIM3, PHYS, 0)
    out = ladder_apply(s0, seed, PHYS)
    radii = np.linspace(0.3, 4.0, 29)
    numeric = -PHYS.deriv_scale * fd_derivative(seed.evaluate, radii) + s0(radii) * seed.evaluate(radii)
    np.testing.assert_allclose(out.evaluate(radii), numeric, rtol=1e-8)


def test_ladder_apply_requires_regular_state():
    state = ClosedFormState(poly=(1.0,), q=0.0, lam=1.0, kap=0.0)
    with pytest.raises(ValueError, match="regular at the origin"):
        ladder_apply(Superpotential(LaurentForm({})), state, PHYS)


def test_lowering_annihilates_ground_state():
    ground = ClosedFormState(poly=(1.0,), q=1.5, lam=0.8, kap=0.4)
    sup = superpotential_from_state(ground, PHYS)
    out = lowering_apply(sup, ground, PHYS)
    assert out.is_zero
    assert max(abs(c) for c in out.poly) <= 1e-15
