"""Exact superpotential algebra on Laurent coefficients.

A superpotential S generates two partner potentials through the Riccati
combinations

    S(r)^2 -+ (hbar/sqrt(2m)) S'(r) = V_(-+)(r) - E0,

where the minus sign recovers the original potential V- and the plus sign its
partner V+.  For a nodeless bound state u(r) = r^q exp(-lam r - kap r^2) the
superpotential is the negative log-derivative

    S = -(hbar/sqrt(2m)) u'/u = -(hbar/sqrt(2m)) (q/r - lam - 2 kap r),

a Laurent form restricted to powers {-1, 0, 1}.  Everything in this module is
coefficient arithmetic on such forms: residuals of the Riccati identities are
exact Laurent forms that vanish iff the candidate (state, energy) pair solves
the radial equation, and the first-order raising operator

    A+ = -(hbar/sqrt(2m)) d/dr + S

maps closed-form states to closed-form states with the polynomial degree
raised by two and the leading power lowered by one.

All objects are immutable; all functions are pure and concurrency-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LaurentForm, PhysicalParams

SUPERPOTENTIAL_POWERS = (-1, 0, 1)


@dataclass(frozen=True)
class Superpotential:
    """Laurent form with powers restricted to {-1, 0, 1}."""

    form: LaurentForm

    def __post_init__(self) -> None:
        bad = [p for p in self.form.powers() if p not in SUPERPOTENTIAL_POWERS]
        if bad:
            raise ValueError(f"superpotential powers must lie in {{-1,0,1}}, got {bad}")

    def coeff(self, p: int) -> float:
        return self.form.coeff(p)

    def __add__(self, other: "Superpotential") -> "Superpotential":
        return Superpotential(self.form + other.form)

    def __call__(self, r):
        return self.form(r)


@dataclass(frozen=True)
class ClosedFormState:
    """Radial function P(r) * r^q * exp(-lam r - kap r^2).

    ``poly`` holds the coefficients of P in ascending order (p_0 .. p_deg).
    The state is normalizable iff q > -1/2 and at least one of lam, kap is
    positive.  Its node count for r > 0 equals the number of positive real
    roots of P.  It carries no normalization factor; ``numerics.normalize``
    computes one on a grid.
    """

    poly: tuple[float, ...] = (1.0,)
    q: float = 0.0
    lam: float = 0.0
    kap: float = 0.0

    def __post_init__(self) -> None:
        if not self.poly:
            raise ValueError("polynomial part must have at least one coefficient")
        if self.lam < 0 or self.kap < 0:
            raise ValueError("exponential decay rates must be >= 0")
        # strip trailing zero coefficients so degree() is meaningful
        poly = tuple(float(c) for c in self.poly)
        while len(poly) > 1 and poly[-1] == 0.0:
            poly = poly[:-1]
        object.__setattr__(self, "poly", poly)

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.poly)

    def __mul__(self, other: "ClosedFormState") -> "ClosedFormState":
        """Pointwise product: polynomials convolve, exponent parameters add."""
        poly = tuple(np.convolve(self.poly, other.poly))
        return ClosedFormState(
            poly=poly, q=self.q + other.q, lam=self.lam + other.lam,
            kap=self.kap + other.kap,
        )

    def evaluate(self, r):
        """Pointwise values with the exponent computed in log space.

        The exponent q log r - lam r - kap r r and P (Horner's rule in
        ``polyval``'s order: c_deg + r * 0, then c * r + c_i) are written
        into two arrays of r's shape by in-place ufuncs in the order of
        those expressions, so the bits are theirs; a scalar r is a 0-d array
        on the same path.
        """
        r = np.asarray(r, dtype=float)
        vals, scratch = np.empty_like(r), np.empty_like(r)
        np.log(r, out=vals)
        vals *= self.q
        vals -= np.multiply(r, self.lam, out=scratch)
        np.multiply(r, self.kap, out=scratch)
        scratch *= r
        vals -= scratch
        np.exp(vals, out=vals)
        pref = np.multiply(r, 0.0, out=scratch)
        pref += self.poly[-1]
        for c in reversed(self.poly[:-1]):
            pref *= r
            pref += c
        vals *= pref
        if vals.ndim == 0:
            return float(vals)
        return vals


@dataclass(frozen=True)
class ShapeInvarianceComparison:
    """Outcome of comparing V+ at one parameter set against V- at the next.

    ``r_const`` is the constant separating the two partner potentials.  The
    identity V+(alpha0) - V-(alpha1) - r_const + mismatch = 0 holds exactly as
    Laurent forms, so ``mismatch`` is zero iff the pair is exactly shape
    invariant.  For the constrained hierarchy the Coulomb strengths of
    consecutive levels differ, and ``mismatch`` carries that difference in its
    1/r coefficient (a_level0 - a_level1).
    """

    r_const: float
    mismatch: LaurentForm


def superpotential_from_state(
    state: ClosedFormState, phys: PhysicalParams
) -> Superpotential:
    """Negative log-derivative of a nodeless pure state as a Laurent form."""
    if state.is_zero:
        raise ValueError("zero state has no log-derivative")
    if state.degree != 0:
        raise ValueError("log-derivative not a Laurent form")
    s = phys.deriv_scale
    return Superpotential(
        LaurentForm({-1: -s * state.q, 0: s * state.lam, 1: 2.0 * s * state.kap})
    )


def riccati_image(
    sup: Superpotential, sign: str, phys: PhysicalParams
) -> LaurentForm:
    """S^2 -+ (hbar/sqrt(2m)) S' as an exact Laurent form.

    sign "-" yields V- minus its ground energy, sign "+" yields V+ minus the
    same energy.  The constant term is the caller's to interpret.
    """
    if sign not in ("-", "+"):
        raise ValueError(f"sign must be '-' or '+', got {sign!r}")
    deriv_term = phys.deriv_scale * sup.form.derivative()
    if sign == "-":
        return sup.form.squared() - deriv_term
    return sup.form.squared() + deriv_term


def riccati_residual(
    sup: Superpotential, v_eff: LaurentForm, energy: float, phys: PhysicalParams
) -> LaurentForm:
    """Defect of S^2 - (hbar/sqrt(2m)) S' = V - E; zero iff exact."""
    return riccati_image(sup, "-", phys) - (v_eff - LaurentForm({0: energy}))


def perturbation_residual(
    w: Superpotential,
    dw: Superpotential,
    dv: LaurentForm,
    denergy: float,
    phys: PhysicalParams,
) -> LaurentForm:
    """Defect of dW^2 - (hbar/sqrt(2m)) dW' + 2 W dW = dV - dE.

    This is the correction-level identity obtained by splitting the state
    into a solvable factor (superpotential W) and a moderating factor
    (superpotential dW).  A zero form certifies that (dW, dE) solves the
    correction problem exactly.
    """
    lhs = (
        dw.form.squared()
        - phys.deriv_scale * dw.form.derivative()
        + 2.0 * (w.form * dw.form)
    )
    rhs = dv - LaurentForm({0: denergy})
    return lhs - rhs


def ground_energy_of(sup: Superpotential, phys: PhysicalParams) -> float:
    """Energy implied by S for a potential with no constant term.

    The minus image equals V- - E0 and potentials in this family carry no
    r^0 coefficient, so E0 is minus the constant of the image.
    """
    return -riccati_image(sup, "-", phys).coeff(0)


def partner_potential(
    sup: Superpotential, sign: str, phys: PhysicalParams
) -> LaurentForm:
    """V- (sign "-") or V+ (sign "+") proper: the Riccati image with the
    ground energy E0 = ``ground_energy_of(sup)`` restored."""
    return riccati_image(sup, sign, phys) + LaurentForm({0: ground_energy_of(sup, phys)})


def shape_invariance_compare(
    sup0: Superpotential, sup1: Superpotential, phys: PhysicalParams
) -> ShapeInvarianceComparison:
    """Measure how far V+(alpha0) is from V-(alpha1) plus a constant.

    Both superpotentials must carry the same r coefficient (same quadratic
    coupling); otherwise the two potentials are not members of one family
    and the comparison is refused.  The reported constant is that of
    V+(alpha0) - V-(alpha1); the reported mismatch is the nonconstant part of
    V-(alpha1) - V+(alpha0), so that

        V+(alpha0) = V-(alpha1) + r_const - mismatch      (exactly).

    A nonzero 1/r entry in the mismatch quantifies the change of Coulomb
    strength between consecutive hierarchy levels instead of absorbing it.
    """
    if sup0.coeff(1) != sup1.coeff(1):
        raise ValueError("b,c not held fixed")
    diff = partner_potential(sup0, "+", phys) - partner_potential(sup1, "-", phys)
    return ShapeInvarianceComparison(
        r_const=diff.coeff(0), mismatch=(-diff).constant_removed()
    )


def _first_order_apply(
    sup: Superpotential, state: ClosedFormState, phys: PhysicalParams, dsign: float
) -> ClosedFormState:
    """Apply dsign*(hbar/sqrt(2m)) d/dr + S(r) to a closed-form state.

    Writing the state as P(r) r^q e^(-lam r - kap r^2) and multiplying the
    1/r pieces through, the result is Q(r) r^(q-1) e^(same exponent) with

        Q = dsign*s*(r P' + q P - lam r P - 2 kap r^2 P) + (s_-1 + s_0 r + s_1 r^2) P

    where s = hbar/sqrt(2m) and s_p are the superpotential coefficients.
    """
    s = phys.deriv_scale * dsign
    p = np.asarray(state.poly, dtype=float)
    dp = np.polynomial.polynomial.polyder(p) if len(p) > 1 else np.zeros(1)

    q = np.zeros(len(p) + 2)
    rdp = np.concatenate(([0.0], dp))  # r * P'
    q[: len(rdp)] += s * rdp
    q[: len(p)] += (s * state.q + sup.coeff(-1)) * p
    q[1 : len(p) + 1] += (-s * state.lam + sup.coeff(0)) * p
    q[2 : len(p) + 2] += (-2.0 * s * state.kap + sup.coeff(1)) * p

    return ClosedFormState(
        poly=tuple(q), q=state.q - 1.0, lam=state.lam, kap=state.kap
    )


def ladder_apply(
    sup: Superpotential, state: ClosedFormState, phys: PhysicalParams
) -> ClosedFormState:
    """Raising operator A+ = -(hbar/sqrt(2m)) d/dr + S on a closed-form state.

    The result keeps (lam, kap), lowers the leading power by one, and raises
    the polynomial degree by two in the generic case.  No normalization is
    applied.
    """
    if state.q <= 0:
        raise ValueError(f"state must be regular at the origin (q > 0), got q={state.q}")
    return _first_order_apply(sup, state, phys, dsign=-1.0)


def lowering_apply(
    sup: Superpotential, state: ClosedFormState, phys: PhysicalParams
) -> ClosedFormState:
    """Companion operator A = +(hbar/sqrt(2m)) d/dr + S.

    Annihilates the ground state whose log-derivative defines S (the
    polynomial part of the image collapses to zero coefficients).
    """
    return _first_order_apply(sup, state, phys, dsign=+1.0)
