"""Exact integrals of closed-form states against mpmath references.

``susy._moments`` is checked against the parabolic-cylinder closed form of
the moments; norms, overlaps and residual norms of the states ``solve`` and
``verify`` print against mpmath quadrature of the states themselves.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from pcoulomb import report
from pcoulomb.exact import closed_level, constraint_b, ground_state, hierarchy_states
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce, effective_potential
from pcoulomb.qes import oracle_state, qes_solve
from pcoulomb.susy import ClosedFormState, _moments, hamiltonian_defect

mpmath = pytest.importorskip("mpmath")

PHYS = PhysicalParams()
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _surface_points():
    """The benchmark's (a, c) surface points, read from its workload file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SURFACE_POINTS


def _moment_reference(beta, k, p):
    """I_p at 40 digits: p!/beta^(p+1) at k = 0, else J_p(x) / k^((p+1)/2)
    with J_p from the parabolic cylinder function D_(-p-1)(sqrt(2) x)."""
    with mpmath.workdps(40):
        beta, k = mpmath.mpf(beta), mpmath.mpf(k)
        if k == 0:
            return mpmath.factorial(p) / beta ** (p + 1)
        x = beta / (2 * mpmath.sqrt(k))
        j = (2 ** (-mpmath.mpf(p + 1) / 2) * mpmath.gamma(p + 1) * mpmath.exp(x * x / 2)
             * mpmath.pcfd(-p - 1, mpmath.sqrt(2) * x))
        return j / k ** (mpmath.mpf(p + 1) / 2)


def _values(moments):
    return [math.ldexp(m, e) for m, e in moments]


@pytest.mark.parametrize("x", [0.0, 0.05, 0.39, 0.41, 1.0, 1.7, 5.0, 30.0])
@pytest.mark.parametrize("k", [1.0, 0.37])
def test_moments_match_mpmath(x, k):
    beta = 2.0 * x * math.sqrt(k)
    got = _values(_moments(beta, k, 0, 40))
    for p, value in enumerate(got):
        ref = _moment_reference(beta, k, p)
        assert abs(value - ref) <= 1e-14 * ref, (p, value, ref)


@pytest.mark.parametrize("beta", [0.5, 2.0, 7.3])
def test_moments_at_c_zero_are_factorials(beta):
    # at a subnormal k, x = beta / (2 sqrt(k)) squares beyond the float
    # range, and k carries no weight: the moments are those of k = 0
    for k in (0.0, 5e-324):
        got = _values(_moments(beta, k, 0, 40))
        for p, value in enumerate(got):
            assert abs(value - _moment_reference(beta, 0.0, p)) <= 1e-14 * value, (k, p)
        assert _values(_moments(2.0, k, 0, 3)) == [0.5, 0.25, 0.25, 0.375]


def test_moments_keep_digits_beyond_the_float_range():
    # I_400 at k = 1 is about 1e372: the mantissa and exponent carry it
    beta, k = 0.3, 1.0
    (mantissa, exponent), = _moments(beta, k, 400, 400)
    ref = _moment_reference(beta, k, 400)
    with mpmath.workdps(40):
        assert abs(mpmath.ldexp(mantissa, exponent) / ref - 1) <= 1e-13
    assert _moments(beta, k, 3, 10) == _moments(beta, k, 0, 10)[3:]


def test_inner_products_of_monomials_are_the_moments():
    a = ClosedFormState(poly=(1.0, -2.0), q=1.0, lam=0.4, kap=0.25)
    b = ClosedFormState(poly=(0.5,), q=2.0, lam=0.6, kap=0.25)
    ref = [_moment_reference(1.0, 0.5, p) for p in (3, 4)]
    assert a.inner(b) == pytest.approx(float(0.5 * ref[0] - ref[1]), rel=1e-14)
    assert a.inner(b) == b.inner(a)
    with pytest.raises(ValueError, match="diverges at r = 0"):
        ClosedFormState(poly=(1.0,), q=-1.0, lam=1.0).inner(ClosedFormState())
    with pytest.raises(ValueError, match="not an integer"):
        ClosedFormState(poly=(1.0,), q=0.5, lam=1.0).inner(ClosedFormState(lam=1.0))


def _quad(f):
    return mpmath.quad(f, [0, 0.5, 1, 2, 4, 8, 16, mpmath.inf])


def _mp_state(state):
    poly = [mpmath.mpf(c) for c in state.poly]
    q, lam, kap = (mpmath.mpf(v) for v in (state.q, state.lam, state.kap))
    return lambda r: mpmath.polyval(poly[::-1], r) * r**q * mpmath.exp(-lam * r - kap * r * r)


@pytest.mark.parametrize("point", range(3))
@pytest.mark.parametrize("m_index", range(2, 14))
def test_norm_and_nodeless_overlap_match_mpmath(point, m_index):
    # psi's scale N0 and its overlap with the nodeless level-1 ansatz state,
    # as solve and verify print them, at the benchmark's surface points
    a, c = _surface_points()[point]
    dim = dimension_reduce(m_index, 0)
    pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
    doc = report.verify_document(pot, dim, PHYS, 0)
    psi = ground_state(pot, dim, PHYS).psi
    other = oracle_state(qes_solve(pot.b, pot.c, dim, PHYS, n=1)[0], dim, PHYS, pot.b, pot.c)
    with mpmath.workdps(30):
        f, g = _mp_state(psi), _mp_state(other)
        ff, gg = _quad(lambda r: f(r) ** 2), _quad(lambda r: g(r) ** 2)
        fg = _quad(lambda r: f(r) * g(r))
        n0_ref, overlap_ref = 1 / mpmath.sqrt(ff), fg / mpmath.sqrt(ff * gg)
    by_name = {check["name"]: check["value"] for check in doc["checks"]}
    assert doc["psi"]["N0"] == pytest.approx(float(n0_ref), rel=1e-13)
    assert by_name["ground_vs_oracle_nodeless_overlap"] == pytest.approx(
        float(overlap_ref), rel=1e-13)


def test_reference_ladder_residuals():
    # verify --a 1 --c 0.5 (M = 3): ||(H - E1) psi1|| / ||psi1|| of the
    # ladder state at the advanced a_1 and at the fixed a, against mpmath
    # quadrature of the state's second derivative
    dim = dimension_reduce(3, 0)
    pot = PotentialParams(a=1.0, b=constraint_b(1.0, 0.5, dim, PHYS), c=0.5)
    doc = report.verify_document(pot, dim, PHYS, 0)
    by_name = {check["name"]: check["value"] for check in doc["checks"]}
    assert by_name["ladder_level1_residual_advanced_a"] == pytest.approx(1.203493699, abs=1e-9)
    assert by_name["ladder_level1_residual_fixed_a"] == pytest.approx(2.491972535, abs=1e-9)

    ladder = hierarchy_states(pot.b, pot.c, dim, PHYS, n=1)
    a1, e1 = closed_level(pot, dim, PHYS, 1)
    with mpmath.workdps(25):
        f = _mp_state(ladder)
        norm = mpmath.sqrt(_quad(lambda r: f(r) ** 2))
        for name, a in (("advanced_a", a1), ("fixed_a", pot.a)):
            def defect(r, a=a):
                return -mpmath.diff(f, r, 2) / 2 + (-a / r + pot.b * r + pot.c * r * r - e1) * f(r)
            ref = mpmath.sqrt(_quad(lambda r: defect(r) ** 2)) / norm
            assert by_name[f"ladder_level1_residual_{name}"] == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("mass", [1.0, 0.3])
@pytest.mark.parametrize("m_index", range(2, 14))
def test_defect_has_no_inverse_square_term(m_index, mass):
    # the barrier cancels T q (q - 1) r^(q-2) exactly, so the defect starts
    # at r^(q-1) (M >= 3 square integrable, M = 2 not)
    phys = PhysicalParams(mass=mass)
    dim = dimension_reduce(m_index, 0)
    pot = PotentialParams(a=1.3, b=constraint_b(1.3, 0.6, dim, phys), c=0.6)
    ladder = hierarchy_states(pot.b, pot.c, dim, phys, n=1)
    for a in (pot.a, closed_level(pot, dim, phys, 1)[0]):
        pot_a = PotentialParams(a=a, b=pot.b, c=pot.c)
        defect = hamiltonian_defect(ladder, 0.7, effective_potential(pot_a, dim, phys), phys)
        assert defect.q == ladder.q - 1.0
        assert defect.square_integrable == (m_index >= 3)


def test_exact_ground_state_has_a_vanishing_defect():
    dim = dimension_reduce(5, 1)
    pot = PotentialParams(a=1.1, b=constraint_b(1.1, 0.6, dim, PHYS), c=0.6)
    sol = ground_state(pot, dim, PHYS)
    defect = hamiltonian_defect(sol.psi, sol.energy.total, effective_potential(pot, dim, PHYS), PHYS)
    assert defect.norm() <= 1e-14 * abs(sol.energy.total) * sol.psi.norm()
