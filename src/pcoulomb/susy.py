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

Integrals are exact too.  The product of two closed-form states is one
closed-form state, and in every product this program forms the r-power is
an integer (2q = M - 1 for two states of one dimension), so its integral
over r > 0 is a finite sum of the moments

    I_p = int_0^inf r^p exp(-beta r - k r^2) dr,

which ``_moments`` computes in plain float arithmetic (``+ - * /`` and
``math.sqrt``, each correctly rounded, so the bits are the same on every
host).  Norms, overlaps and the residual norm of (H - E) psi
(``hamiltonian_defect``) are such sums, with no grid.

All objects are immutable (a ``ClosedFormState`` caches its exact square
beside its fields); all functions are pure and concurrency-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import LaurentForm, PhysicalParams

SUPERPOTENTIAL_POWERS = (-1, 0, 1)

#: order of the asymptotic start of the moment ratios' backward recurrence
MOMENT_TAIL_ORDER = 8

#: steps the backward recurrence of the moment ratios runs above the
#: highest moment asked for
MOMENT_TAIL_STEPS = 96


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
    roots of P.  It carries no normalization factor; ``norm`` gives its
    norm exactly, ``numerics.normalize`` one on a grid.
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
        # strip trailing zero coefficients so degree() is meaningful.  The
        # tuple is made from a list, at its final size: one made from a
        # generator is allocated at a guessed size and resized, so each
        # release would add a block to CPython's free list of its final
        # size (up to 2,000 a size, about 0.6 MB over a long verify run)
        poly = [float(c) for c in self.poly]
        while len(poly) > 1 and poly[-1] == 0.0:
            poly.pop()
        object.__setattr__(self, "poly", tuple(poly))

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.poly)

    @property
    def square_integrable(self) -> bool:
        """Whether the integral of the state's square over r > 0 is finite:
        the zero state, or a positive decay rate and a lowest power
        r^(q + j) with a nonzero coefficient and q + j > -1/2."""
        if self.is_zero:
            return True
        lowest = next(j for j, c in enumerate(self.poly) if c != 0.0)
        return self.q + lowest > -0.5 and (self.lam > 0 or self.kap > 0)

    def __mul__(self, other: "ClosedFormState") -> "ClosedFormState":
        """Pointwise product: polynomials convolve (each coefficient summed
        in ascending order of self's index), exponent parameters add."""
        poly = [0.0] * (len(self.poly) + len(other.poly) - 1)
        for i, a in enumerate(self.poly):
            for j, b in enumerate(other.poly):
                poly[i + j] += a * b
        return ClosedFormState(
            poly=tuple(poly), q=self.q + other.q, lam=self.lam + other.lam,
            kap=self.kap + other.kap,
        )

    def evaluate(self, r):
        """Pointwise values P(r) exp(q log r - lam r - kap r r), the
        exponent computed in log space; a float for a scalar r.  The tests
        use it as the grid cross-check of the exact integrals."""
        r = np.asarray(r, dtype=float)
        vals = np.polynomial.polynomial.polyval(r, self.poly) * np.exp(
            self.q * np.log(r) - self.lam * r - self.kap * r * r)
        return float(vals) if vals.ndim == 0 else vals

    def rescaled(self, s: float, k: int = 0) -> tuple["ClosedFormState", int]:
        """(f, top) with self(r) = (s 2^k)^q 2^top f(r / (s 2^k)): from
        p_j = m_j 2^e_j and s 2^k = s_mant 2^s_exp, s_mant in (1/2, 1], f has
        coefficients m_j s_mant^j 2^(e_j + j s_exp - top), top the largest such
        exponent, and rates lam s 2^k and kap s s 2^(2k), so no part leaves the
        float range; at s = 1 each is exact, also where 2^k is no float."""
        s_mant, s_exp = math.frexp(s)
        s_mant, s_exp = (1.0, s_exp + k - 1) if s_mant == 0.5 else (s_mant, s_exp + k)
        parts = [(m * s_mant**j, e + j * s_exp)
                 for j, (m, e) in enumerate(map(math.frexp, self.poly))]
        top = max((e for m, e in parts if m != 0.0), default=0)
        return ClosedFormState(poly=tuple(math.ldexp(m, e - top) for m, e in parts),
                               q=self.q, lam=math.ldexp(self.lam * s, k),
                               kap=math.ldexp(self.kap * s * s, 2 * k)), top

    def _integral_parts(self, other: "ClosedFormState") -> tuple[float, int]:
        """(value, e) with the integral of self * other over r > 0 equal to
        value * 2^e.

        Both factors are first written in t = r / 2^k, 2^k near the decay
        length of the product, min(1/lam, 1/sqrt(kap)), and each is scaled
        by one power of two (``rescaled``), so that their product
        (``__mul__``) has coefficients of at most deg + 1 and moments near
        p!: no product of coefficients overflows, and none that carries
        weight underflows.  The integral is 2^(k (q + 1)) times the scaled
        one, and every scaling is exact, so the value keeps the bits of the
        unscaled sum unless a product that carries no weight (below 2^-1074
        of the largest) underflows to zero: the moments' recurrence starts
        above the highest power, so their last bits can move.  k is even, so
        the exponent of a square keeps its parity, and with it the bits of
        ``norm``'s square root.  The integral is sum_j c_j I_(q+j) at beta = lam and k = kap
        (``_moments``), summed by ``math.fsum`` after every term is scaled
        by one power of two, so that the largest has exponent 0, and an
        integral beyond the float range (a tiny mass, a large M) keeps its
        digits.

        ValueError when q is not an integer, when the integral diverges (a
        power r^(q+j) with q + j <= -1 and c_j != 0, or no decay), or when a
        coefficient of a factor is not finite.
        """
        if not all(map(math.isfinite, self.poly + other.poly)):
            raise ValueError(
                "an integral of closed-form states is not representable:"
                " a coefficient overflows the float range")
        rate = max(self.lam + other.lam, math.sqrt(self.kap + other.kap))
        k = -math.frexp(rate)[1]
        k -= k % 2
        (left, e_left), (right, e_right) = self.rescaled(1.0, k), other.rescaled(1.0, k)
        product = left * right
        if not float(product.q).is_integer():
            raise ValueError(f"r-power q = {product.q} is not an integer")
        terms = [(int(product.q) + j, c) for j, c in enumerate(product.poly) if c != 0.0]
        if not terms:
            return 0.0, 0
        lo, hi = terms[0][0], terms[-1][0]
        if lo <= -1:
            raise ValueError(f"the integral of r^{lo} diverges at r = 0")
        if product.lam == 0.0 and product.kap == 0.0:
            raise ValueError("the integral of a state with no decay diverges")
        moments = _moments(product.lam, product.kap, lo, hi)
        scaled = [(c * moments[p - lo][0], moments[p - lo][1]) for p, c in terms]
        e = max(math.frexp(v)[1] + shift for v, shift in scaled)
        value = math.fsum(math.ldexp(v, shift - e) for v, shift in scaled)
        return value, e + e_left + e_right + k * (int(product.q) + 1)

    def inner(self, other: "ClosedFormState") -> float:
        """The exact integral of self * other over r > 0; OverflowError
        beyond the float range."""
        return math.ldexp(*self._integral_parts(other))

    @functools.cached_property
    def _square_parts(self) -> tuple[float, int]:
        """``_integral_parts`` of self * self, once per state.  The integral
        of a square is not negative, so a negative sum (the squares of the
        coefficients underflowed where cross terms did not) is a ValueError."""
        value, e = self._integral_parts(self)
        if value < 0.0:
            raise ValueError(
                "the norm of a closed-form state is not representable:"
                " products of its coefficients underflow the float range")
        return value, e

    def norm(self) -> float:
        """The exact L2 norm over r > 0, sqrt(inner(self, self)) bit for
        bit wherever that square lies in the float range."""
        value, e = self._square_parts
        if e % 2:
            value, e = 2.0 * value, e - 1
        return math.ldexp(math.sqrt(value), e // 2)

    def log_norm(self) -> float:
        """The natural log of ``norm``, finite wherever the norm is not zero,
        also where the norm itself leaves the float range."""
        value, e = self._square_parts
        return 0.5 * (math.log(value) + e * math.log(2.0))

    def overlap(self, other: "ClosedFormState") -> float:
        """The exact normalized inner product <self, other> / (||self|| ||other||)."""
        ab, e_ab = self._integral_parts(other)
        aa, e_aa = self._square_parts
        bb, e_bb = other._square_parts
        return ab / math.sqrt(math.ldexp(aa * bb, e_aa + e_bb - 2 * e_ab))


def _moments(beta: float, k: float, lo: int, hi: int) -> list[tuple[float, int]]:
    """I_p = int_0^inf r^p exp(-beta r - k r^2) dr for p = lo..hi, each as
    (m, e) with I_p = m 2^e and m = frexp(I_p)[0]; beta, k >= 0, not both 0.

    k = 0: I_p = I_(p-1) p / beta from I_0 = 1 / beta, so I_p = p! / beta^(p+1).
    The same recurrence serves where x = beta / (2 sqrt(k)) of the k > 0
    case squares beyond the float range: there k r^2 is below 1e-300 of
    beta r wherever r^p exp(-beta r) carries weight.

    k > 0: with t = sqrt(k) r, I_p = J_p / k^((p+1)/2), where
    J_p = int_0^inf t^p exp(-2 x t - t^2) dt and x = beta / (2 sqrt(k)).
    Integrating by parts gives 2 J_(p+1) + 2 x J_p = p J_(p-1) and
    2 J_1 + 2 x J_0 = 1.  J_p is the recurrence's minimal solution as p
    grows, so upward it loses up to about e^(2 sqrt(2p) x) ulps (9e-10
    relative by p = 40 at x = 1, 4e-4 at x = 1.7), and the ratios
    r_p = J_p / J_(p-1) are taken downward instead (Miller's algorithm, as
    a continued fraction): r_p = p / (2 (x + r_(p+1))), from
    p = hi + MOMENT_TAIL_STEPS down to 1.  Its start is not 0 but the
    smooth solution of the recurrence to MOMENT_TAIL_ORDER orders
    (``_tail_ratio``), so MOMENT_TAIL_STEPS steps damp the start's error
    below rounding at every x >= 0, where a start at 0 needs about
    (sqrt(hi) + 13/x)^2 steps.  Then J_0 = 1 / (2 (x + r_1)) by
    the normalization, so I_0 = 1 / (beta + 2 sqrt(k) r_1), and
    I_p = I_(p-1) r_p / sqrt(k).  Against mpmath the moments are right to
    6e-15 relative for p <= 40 at every x from 0 to 1e3 (k from 1e-6 to 1e6).

    The chain of products is renormalized by ``frexp`` at every step, which
    is exact, so no I_p overflows or underflows on the way.
    """
    root = math.sqrt(k)
    x = beta / (2.0 * root) if root else math.inf
    if not math.isfinite(x * x):
        value, e = math.frexp(1.0 / beta)
        moments = [(value, e)]
        for p in range(1, hi + 1):
            value, shift = math.frexp(value * p / beta)
            e += shift
            moments.append((value, e))
        return moments[lo:]
    depth = hi + MOMENT_TAIL_STEPS
    ratio = _tail_ratio(x, depth + 1)
    ratios = [0.0] * (hi + 2)
    for p in range(depth, 0, -1):
        ratio = p / (2.0 * (x + ratio))
        if p <= hi + 1:
            ratios[p] = ratio
    value, e = math.frexp(1.0 / (beta + 2.0 * root * ratios[1]))
    moments = [(value, e)]
    for p in range(1, hi + 1):
        value, shift = math.frexp(value * ratios[p] / root)
        e += shift
        moments.append((value, e))
    return moments[lo:]


def _tail_ratio(x: float, p: int) -> float:
    """r_p = J_p / J_(p-1) of ``_moments`` for large p, from the smooth
    solution of r_p (2 x + 2 r_(p+1)) = p.

    Order 1 takes r_(p+1) = r_p: 2 r^2 + 2 x r = p.  Order n + 1 takes
    r_(p+1) - r_p from order n's values at p and p + 1 and solves the
    quadratic again; MOMENT_TAIL_ORDER orders need as many points.
    """
    points = range(MOMENT_TAIL_ORDER)
    ratios = [0.5 * (math.sqrt(x * x + 2.0 * (p + i)) - x) for i in points]
    for order in range(1, MOMENT_TAIL_ORDER):
        for i in points[: MOMENT_TAIL_ORDER - order]:
            s = x + ratios[i + 1] - ratios[i]
            ratios[i] = 0.5 * (math.sqrt(s * s + 2.0 * (p + i)) - s)
    return ratios[0]


def hamiltonian_defect(
    state: ClosedFormState, energy: float, v_eff: LaurentForm, phys: PhysicalParams
) -> ClosedFormState:
    """(H - E) state = -T state'' + (V - E) state as a closed-form state.

    With state = P(r) phi, phi = r^q exp(-lam r - kap r^2) and
    w = phi'/phi = q/r - lam - 2 kap r, the defect is Q(r) phi with the
    Laurent polynomial

        Q = -T (P'' + 2 P' w + P (w' + w^2)) + (V - E) P.

    Term p_j r^j of P gives r^(j+m) c_m(j), m = -2..2, with s = j + q:

        c_-2 = V_-2 - T s (s - 1)          c_1 = V_1 - 4 T lam kap
        c_-1 = V_-1 + 2 T lam s            c_2 = V_2 - 4 T kap^2
        c_0  = V_0 - E + T (2 kap (2 s + 1) - lam^2)

    For a state with q = Lambda + 1 in its own dimension's potential,
    c_-2(0) is V_-2 - T q (q - 1), and V_-2 = Lambda (Lambda + 1) T is that
    same product of the same factors, so the r^(q-2) term cancels
    exactly.  The result carries the lowest power with a nonzero
    coefficient in its q, so ``square_integrable`` decides whether
    ||(H - E) state|| is finite.
    """
    t = phys.kinetic
    lam, kap = state.lam, state.kap
    coeffs = [0.0] * (len(state.poly) + 4)  # powers q - 2 .. q + deg + 2
    for j, pj in enumerate(state.poly):
        s = j + state.q
        row = (
            v_eff.coeff(-2) - s * (s - 1.0) * t,
            v_eff.coeff(-1) + 2.0 * t * lam * s,
            v_eff.coeff(0) - energy + t * (2.0 * kap * (2.0 * s + 1.0) - lam * lam),
            v_eff.coeff(1) - 4.0 * t * lam * kap,
            v_eff.coeff(2) - 4.0 * t * kap * kap,
        )
        for m, c in enumerate(row):
            coeffs[j + m] += pj * c
    lowest = next((i for i, c in enumerate(coeffs) if c != 0.0), 2)
    return ClosedFormState(
        poly=tuple(coeffs[lowest:]), q=state.q - 2.0 + lowest, lam=lam, kap=kap,
    )


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
    shifts = (s * state.q + sup.coeff(-1), -s * state.lam + sup.coeff(0),
              -2.0 * s * state.kap + sup.coeff(1))
    poly = [0.0] * (len(state.poly) + 2)
    for j, pj in enumerate(state.poly[1:], 1):
        poly[j] += s * (j * pj)
    for shift, c in enumerate(shifts):
        for j, pj in enumerate(state.poly):
            poly[j + shift] += c * pj
    return ClosedFormState(
        poly=tuple(poly), q=state.q - 1.0, lam=state.lam, kap=state.kap
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
