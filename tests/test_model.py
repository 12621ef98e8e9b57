import numpy as np
import pytest

from pcoulomb.model import (
    LaurentForm,
    PhysicalParams,
    PotentialParams,
    classify_regime,
    dimension_reduce,
    effective_potential,
)

PHYS = PhysicalParams()


def test_dimension_reduce_basic_cases():
    assert (dimension_reduce(3, 0).m_index, dimension_reduce(3, 0).lam) == (3, 0.0)
    assert (dimension_reduce(3, 1).m_index, dimension_reduce(3, 1).lam) == (5, 1.0)
    assert (dimension_reduce(5, 0).m_index, dimension_reduce(5, 0).lam) == (5, 1.0)


def test_dimension_reduce_equivalent_m_interchangeable():
    assert dimension_reduce(3, 1).lam == dimension_reduce(5, 0).lam
    assert dimension_reduce(2, 2).lam == dimension_reduce(6, 0).lam


def test_dimension_reduce_half_integer_lambda():
    assert dimension_reduce(2, 0).lam == -0.5
    assert dimension_reduce(4, 0).lam == 0.5


def test_dimension_reduce_rejects_low_m():
    with pytest.raises(ValueError):
        dimension_reduce(1, 0)  # M = 1
    with pytest.raises(ValueError):
        dimension_reduce(0, 3)
    with pytest.raises(ValueError):
        dimension_reduce(3, -1)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(mass=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(hbar=-1.0)
    assert PhysicalParams(mass=2.0).kinetic == 0.25


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite(value):
    for field in ("mass", "hbar"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PhysicalParams(**{field: value})
    for field in ("a", "b", "c"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PotentialParams(**{"a": 1.0, field: value})


def test_potential_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(a=1.0, b=-0.1)
    with pytest.raises(ValueError):
        PotentialParams(a=1.0, c=-0.1)
    with pytest.raises(ValueError):
        PotentialParams()


def test_effective_potential_m3_has_no_barrier():
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    form = effective_potential(pot, dimension_reduce(3, 0), PHYS)
    assert form.as_dict() == {-1: -1.0, 1: 1.0, 2: 0.5}


def test_effective_potential_m5_barrier():
    pot = PotentialParams(a=1.0, b=0.5, c=0.5)
    form = effective_potential(pot, dimension_reduce(5, 0), PHYS)
    # Lambda = 1 so the barrier coefficient is 1*2 * hbar^2/2m = 1
    assert form.as_dict() == {-2: 1.0, -1: -1.0, 1: 0.5, 2: 0.5}


def test_effective_potential_pure_coulomb():
    pot = PotentialParams(a=1.0)
    form = effective_potential(pot, dimension_reduce(3, 0), PHYS)
    assert form.as_dict() == {-1: -1.0}


def test_effective_potential_bitwise_identical_for_equal_m():
    pot = PotentialParams(a=1.3, b=0.7, c=0.9)
    f1 = effective_potential(pot, dimension_reduce(3, 1), PHYS)
    f2 = effective_potential(pot, dimension_reduce(5, 0), PHYS)
    assert f1 == f2
    assert f1.as_dict() == f2.as_dict()


def test_classify_regime():
    assert classify_regime(PotentialParams(a=1.0, b=1.0, c=0.5)) == "coulomb-dominant"
    assert classify_regime(PotentialParams(a=0.1, b=0.1, c=10.0)) == "oscillator-dominant"
    assert classify_regime(PotentialParams(a=1.0)) == "coulomb-dominant"


# -- LaurentForm algebra -----------------------------------------------------

def test_laurent_power_range_enforced():
    with pytest.raises(ValueError):
        LaurentForm({3: 1.0})
    with pytest.raises(ValueError):
        LaurentForm({-3: 1.0})
    with pytest.raises(ValueError):
        LaurentForm({2: 1.0}) * LaurentForm({1: 1.0})  # power 3
    with pytest.raises(ValueError):
        LaurentForm({-2: 1.0}).derivative()  # power -3


def test_laurent_zero_coefficients_pruned():
    form = LaurentForm({-1: 0.0, 0: 2.0, 1: 0.0})
    assert form.powers() == (0,)
    assert form == LaurentForm({0: 2.0})
    assert LaurentForm({0: 1.0}) - LaurentForm({0: 1.0}) == LaurentForm({})
    assert (LaurentForm({0: 1.0}) - LaurentForm({0: 1.0})).is_zero


def test_laurent_derivative():
    form = LaurentForm({-1: 2.0, 0: 5.0, 1: 3.0, 2: 1.0})
    assert form.derivative().as_dict() == {-2: -2.0, 0: 3.0, 1: 2.0}


def test_laurent_square_power_bookkeeping():
    form = LaurentForm({-1: 1.0, 0: 2.0, 1: 3.0})
    sq = form.squared()
    assert sq.as_dict() == {-2: 1.0, -1: 4.0, 0: 10.0, 1: 12.0, 2: 9.0}


def test_laurent_pointwise_consistency():
    # coefficient arithmetic must agree with pointwise evaluation
    rng = np.random.default_rng(42)
    radii = np.geomspace(0.05, 8.0, 12)
    for _ in range(25):
        f = LaurentForm({p: rng.uniform(-2, 2) for p in range(-2, 3)})
        g = LaurentForm({p: rng.uniform(-2, 2) for p in range(-2, 3)})
        h = LaurentForm({p: rng.uniform(-2, 2) for p in (-1, 0, 1)})
        np.testing.assert_allclose((f + g)(radii), f(radii) + g(radii), rtol=1e-12)
        np.testing.assert_allclose((f - g)(radii), f(radii) - g(radii), rtol=1e-12)
        np.testing.assert_allclose(
            h.squared()(radii), h(radii) ** 2, rtol=1e-12
        )
        np.testing.assert_allclose((2.5 * f)(radii), 2.5 * f(radii), rtol=1e-12)


def test_laurent_scalar_evaluation():
    form = LaurentForm({-1: -1.0, 1: 1.0, 2: 0.5})
    assert form(1.0) == pytest.approx(0.5)
    assert isinstance(form(1.0), float)


def _power(r, p):
    """r**p as a correctly rounded product or quotient: r**-2 is the square
    of 1/r, never numpy's pow, whose bits move with the SIMD dispatch level."""
    inv = 1.0 / r
    return {-2: inv * inv, -1: inv, 0: np.ones_like(r), 1: r, 2: r * r}[p]


def test_laurent_evaluation_is_the_term_by_term_sum():
    # the in-place accumulation gives the bits of out = v * r**p + out,
    # term by term in the stored order from the first term, for every power
    # -2..2, on arrays and on scalars, which still evaluate to a float
    rng = np.random.default_rng(7)
    radii = np.concatenate((np.geomspace(1e-3, 40.0, 1001), [0.5, 1.0, 2.0]))
    for _ in range(20):
        coeffs = {p: rng.uniform(-3.0, 3.0) for p in rng.permutation(range(-2, 3)).tolist()}
        form = LaurentForm(coeffs)
        for r in (radii, 0.7, 3.0):
            expected = None
            for p, v in coeffs.items():
                term = v * _power(np.asarray(r, dtype=float), p)
                expected = term if expected is None else term + expected
            got = form(r)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
            if np.ndim(r) == 0:
                assert type(got) is float
    for p in range(-2, 3):
        single = LaurentForm({p: 1.5})
        assert single(radii).tobytes() == (1.5 * _power(radii, p)).tobytes()
        assert type(single(2.0)) is float
    assert LaurentForm({})(radii).tobytes() == np.zeros_like(radii).tobytes()
    assert LaurentForm({})(2.0) == 0.0


def test_laurent_immutable():
    form = LaurentForm({0: 1.0})
    with pytest.raises(AttributeError):
        form.x = 1
