"""Closed-form ground solutions, exact energies, spectrum, and ladder hierarchy.

The potential -a/r + br + cr^2 (plus centrifugal barrier) admits an exact
Gaussian-dressed Coulomb ground state whenever the couplings satisfy

    b = 2 a sqrt(2 m c) / ((M - 1) hbar),

with M = N + 2l.  On that surface the same state emerges from two different
splits of the problem:

  * coulomb view:    solvable part -a/r + barrier, correction br + cr^2,
                     epsilon = -m a^2 / (2 hbar^2 (Lambda+1)^2),
                     delta   = M (M-1) b hbar^2 / (4 m a);
  * oscillator view: solvable part cr^2 + barrier, correction -a/r + br,
                     epsilon = hbar sqrt(c) (2 Lambda + 3) / sqrt(2m),
                     delta   = -b^2 / (4 c).

Both views give E0 = epsilon + delta and the identical wave function
r^(Lambda+1) exp(-lam r - kap r^2) with lam = m a / ((Lambda+1) hbar^2) and
kap = sqrt(2 m c) / (2 hbar).  The level-n energies

    E_n = -b^2/(4c) + (hbar sqrt(c)/sqrt(2m)) (2(n + Lambda) + 3)

follow from shape invariance; each level carries its own Coulomb strength
a_n = (Lambda + n + 1) hbar b / sqrt(2 m c) under the linear advancement rule.
That rule is exact at n = 0 and is deliberately *not* asserted for n >= 1
here: the polynomial-ansatz oracle in ``qes`` measures how far it is from the
true level constraint.

Off the constraint surface the closed forms are meaningless, so every
solution operation validates the surface first and raises
``ConstraintViolation`` carrying the relative violation when it exceeds
``CONSTRAINT_RTOL``.  ``closed_level`` alone skips the check: a scan reports
it to show how far off the surface the formulas fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DimensionSpec, LaurentForm, PhysicalParams, PotentialParams, require_finite,
)
from .susy import ClosedFormState, Superpotential, ladder_apply

#: relative distance from the coupling surface accepted as "on it"
CONSTRAINT_RTOL = 1e-10


class ConstraintViolation(ValueError):
    """Raised when the couplings are off the exactly solvable surface."""

    def __init__(self, message: str, violation: float):
        super().__init__(message)
        self.violation = violation


@dataclass(frozen=True)
class EnergyBreakdown:
    """Solvable-part eigenvalue, correction, and their exact sum."""

    epsilon: float
    delta_epsilon: float

    @property
    def total(self) -> float:
        return self.epsilon + self.delta_epsilon


@dataclass(frozen=True)
class GroundSolution:
    """One view's exact ground solution.

    psi is the product of the solvable factor chi and the moderating factor
    phi; the factors' polynomial and exponent parameters combine exactly.
    dv is the correction: the potential minus the view's solvable part.
    """

    view: str
    w: Superpotential
    dw: Superpotential
    dv: LaurentForm
    chi: ClosedFormState
    phi: ClosedFormState
    psi: ClosedFormState
    energy: EnergyBreakdown


@dataclass(frozen=True)
class SpectrumLevel:
    n: int
    a_n: float
    e_n: float


def constraint_b(
    a: float, c: float, dim: DimensionSpec, phys: PhysicalParams
) -> float:
    """Linear coupling that puts (a, c) on the exactly solvable surface."""
    if a <= 0 or c <= 0:
        raise ValueError(
            "constraint requires attractive Coulomb and confining quadratic terms"
        )
    return _surface_b(a, c, dim, phys)


def _surface_b(a: float, c: float, dim: DimensionSpec, phys: PhysicalParams) -> float:
    return 2.0 * a * math.sqrt(2.0 * phys.mass * c) / ((dim.m_index - 1) * phys.hbar)


def constraint_a(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int = 0
) -> float:
    """Level-n Coulomb strength under the linear advancement rule.

    Inverts the coupling relation with Lambda advanced to Lambda + n.  Exact
    for n = 0.  For n >= 1 this is the prescribed linear rule only; the
    polynomial oracle decides whether it is a true constraint root.
    """
    if b <= 0 or c <= 0:
        raise ValueError(
            "constraint requires attractive Coulomb and confining quadratic terms"
        )
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    return (dim.lam + n + 1.0) * phys.hbar * b / math.sqrt(2.0 * phys.mass * c)


def constraint_c(
    a: float, b: float, dim: DimensionSpec, phys: PhysicalParams
) -> float:
    """Quadratic coupling that puts (a, b) on the surface; inverts ``constraint_b``."""
    if a <= 0 or b <= 0:
        raise ValueError("constraint requires attractive Coulomb and linear terms")
    return (b * (dim.m_index - 1) * phys.hbar / (2.0 * a)) ** 2 / (2.0 * phys.mass)


def constraint_residual(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> float:
    """Relative distance of b from the surface value derived from (a, c).

    The target is signed (a repulsive Coulomb term has no surface point at
    all, since b >= 0), and the violation is measured against the target
    when it is nonzero, else against b itself.  A pure-oscillator input
    (a = b = 0) sits exactly on the surface; any stray coupling reports a
    violation of order one.
    """
    target = _surface_b(pot.a, pot.c, dim, phys) if pot.c > 0 else 0.0
    if target != 0.0:
        return abs(pot.b - target) / abs(target)
    return abs(pot.b)


def require_constraint(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> None:
    """Raise ``ConstraintViolation`` beyond ``CONSTRAINT_RTOL`` from the surface."""
    violation = constraint_residual(pot, dim, phys)
    if violation > CONSTRAINT_RTOL:
        raise ConstraintViolation(
            f"couplings are off the exactly solvable surface "
            f"(relative violation {violation:.6g}); "
            f"need b = 2 a sqrt(2mc) / ((M-1) hbar)",
            violation,
        )


def require_view(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> None:
    """Raise ``ConstraintViolation`` when neither view is defined (a <= 0, c <= 0)."""
    if pot.a <= 0 and pot.c <= 0:
        raise ConstraintViolation(
            "no solvable view: need a > 0 or c > 0 on the constraint surface",
            constraint_residual(pot, dim, phys),
        )


def derive_couplings(
    a: float, b: float, c: float, derive: str | None,
    dim: DimensionSpec, phys: PhysicalParams,
) -> PotentialParams:
    """The couplings with the ``derive`` one ("a", "b", "c" or None) filled
    from the constraint surface.

    The given couplings must be finite, so a non-finite input is named
    instead of the coupling derived from it.
    """
    given = {"a": a, "b": b, "c": c}
    given.pop(derive, None)
    require_finite(**given)
    if derive == "b":
        b = constraint_b(a, c, dim, phys)
    elif derive == "a":
        if b <= 0 or c <= 0:
            raise ValueError("--derive a requires b > 0 and c > 0")
        a = constraint_a(b, c, dim, phys, n=0)
    elif derive == "c":
        if a <= 0 or b <= 0:
            raise ValueError("--derive c requires a > 0 and b > 0")
        c = constraint_c(a, b, dim, phys)
    return PotentialParams(a=a, b=b, c=c)


def coulomb_ground(
    a: float, dim: DimensionSpec, phys: PhysicalParams
) -> tuple[Superpotential, ClosedFormState, float]:
    """Ground solution of the pure Coulomb-plus-barrier problem.

    Returns (W, chi, epsilon) with chi = r^(Lambda+1) exp(-lam r)
    unnormalized and epsilon = -m a^2 / (2 hbar^2 (Lambda+1)^2).
    """
    if a <= 0:
        raise ValueError("no bound Coulomb state for a <= 0 in this construction")
    lp1 = dim.lam + 1.0
    w = Superpotential(
        LaurentForm({
            0: math.sqrt(phys.mass / 2.0) * a / (lp1 * phys.hbar),
            -1: _barrier_coeff(lp1, phys),
        })
    )
    lam = phys.mass * a / (lp1 * phys.hbar**2)
    chi = ClosedFormState(poly=(1.0,), q=lp1, lam=lam, kap=0.0)
    epsilon = -phys.mass * a**2 / (2.0 * phys.hbar**2 * lp1**2)
    return w, chi, epsilon


def _barrier_coeff(lp1: float, phys: PhysicalParams) -> float:
    """1/r coefficient -(Lambda+1) hbar / sqrt(2m) of a ground superpotential."""
    return -lp1 * phys.hbar / math.sqrt(2.0 * phys.mass)


def _kappa(c: float, phys: PhysicalParams) -> float:
    """Gaussian rate kap = sqrt(2mc) / (2 hbar) of every closed-form state."""
    return math.sqrt(2.0 * phys.mass * c) / (2.0 * phys.hbar)


def _oscillator_lambda(b: float, c: float, phys: PhysicalParams) -> float:
    """Exponential rate sqrt(m/2) b / (hbar sqrt(c)) of the oscillator family."""
    return math.sqrt(phys.mass / 2.0) * b / (phys.hbar * math.sqrt(c))


def _coulomb_delta(pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams) -> float:
    """Coulomb-view correction energy M (M-1) b hbar^2 / (4 m a)."""
    m_index = dim.m_index
    return m_index * (m_index - 1) * pot.b * phys.hbar**2 / (4.0 * phys.mass * pot.a)


def perturbation_ground_coulomb(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> tuple[Superpotential, ClosedFormState, float]:
    """Correction pieces for the coulomb view: (dW, phi, delta_epsilon).

    dW = sqrt(c) r is the unique choice regular at the origin; it induces the
    Gaussian moderating factor phi = exp(-kap r^2) with
    kap = b (M-1) / (4a) = sqrt(2mc) / (2 hbar) on the constraint surface,
    and delta_epsilon = M (M-1) b hbar^2 / (4 m a).  With b = c = 0 all three
    vanish (dW = 0, kap = 0, delta_epsilon = 0).
    """
    require_constraint(pot, dim, phys)
    dw = Superpotential(LaurentForm({1: math.sqrt(pot.c)}))
    phi = ClosedFormState(poly=(1.0,), q=0.0, lam=0.0, kap=_kappa(pot.c, phys))
    return dw, phi, _coulomb_delta(pot, dim, phys)


def ground_state(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> GroundSolution:
    """Exact ground solution in the coulomb view.

    With b = c = 0 the correction pieces vanish and this is the pure Coulomb
    ground solution.
    """
    w, chi, epsilon = coulomb_ground(pot.a, dim, phys)
    dw, phi, delta = perturbation_ground_coulomb(pot, dim, phys)
    return GroundSolution(
        view="coulomb",
        w=w,
        dw=dw,
        dv=LaurentForm({1: pot.b, 2: pot.c}),
        chi=chi,
        phi=phi,
        psi=chi * phi,
        energy=EnergyBreakdown(epsilon=epsilon, delta_epsilon=delta),
    )


def oscillator_view_ground(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> GroundSolution:
    """Exact ground solution in the oscillator view.

    Here the solvable part is the quadratic term plus barrier and the
    correction is -a/r + br.  Matching the 1/r coefficient of the correction
    identity reproduces the same constraint surface, so the resulting psi is
    identical to the coulomb view's (same q, lam, kap).
    """
    if pot.c <= 0:
        raise ValueError("oscillator view undefined for c <= 0")
    require_constraint(pot, dim, phys)
    lp1 = dim.lam + 1.0
    sqrt_c = math.sqrt(pot.c)
    w = Superpotential(LaurentForm({1: sqrt_c, -1: _barrier_coeff(lp1, phys)}))
    kap = _kappa(pot.c, phys)
    chi = ClosedFormState(poly=(1.0,), q=lp1, lam=0.0, kap=kap)
    epsilon = phys.hbar * sqrt_c * (2.0 * dim.lam + 3.0) / math.sqrt(2.0 * phys.mass)

    dw = Superpotential(LaurentForm({0: pot.b / (2.0 * sqrt_c)}))
    lam = _oscillator_lambda(pot.b, pot.c, phys)
    phi = ClosedFormState(poly=(1.0,), q=0.0, lam=lam, kap=0.0)
    delta = -pot.b**2 / (4.0 * pot.c)
    return GroundSolution(
        view="oscillator",
        w=w,
        dw=dw,
        dv=LaurentForm({-1: -pot.a, 1: pot.b}),
        chi=chi,
        phi=phi,
        psi=chi * phi,
        energy=EnergyBreakdown(epsilon=epsilon, delta_epsilon=delta),
    )


def dual_view_check(coul: GroundSolution, osc: GroundSolution) -> dict[str, float]:
    """The absolute energy difference of ``ground_state``'s and
    ``oscillator_view_ground``'s solutions of one problem (which refuse one
    off the surface), and their largest relative difference in (q, lam, kap).
    """
    energy_diff = abs(coul.energy.total - osc.energy.total)
    param_diff = 0.0
    for name in ("q", "lam", "kap"):
        x = getattr(coul.psi, name)
        y = getattr(osc.psi, name)
        param_diff = max(param_diff, abs(x - y) / max(1.0, abs(x), abs(y)))
    return {"energy_diff": energy_diff, "psi_param_diff": param_diff}


def level_spacing(c: float, phys: PhysicalParams) -> float:
    """Uniform gap between consecutive levels: 2 hbar sqrt(c) / sqrt(2m)."""
    return 2.0 * phys.hbar * math.sqrt(c) / math.sqrt(2.0 * phys.mass)


def spectrum(
    b: float,
    c: float,
    dim: DimensionSpec,
    phys: PhysicalParams,
    n_max: int,
) -> list[SpectrumLevel]:
    """Levels n = 0..n_max with their linear-rule Coulomb strengths.

    E_n = -b^2/(4c) + (hbar sqrt(c)/sqrt(2m)) (2(n + Lambda) + 3); the
    sequence increases with uniform spacing ``level_spacing``.  For b = 0 the
    Coulomb strengths are identically zero (pure oscillator family).
    """
    if c <= 0:
        raise ValueError("spectrum requires a confining quadratic term (c > 0)")
    if b < 0:
        raise ValueError(f"linear coupling must be >= 0, got {b}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    levels = []
    for n in range(n_max + 1):
        a_n = 0.0 if b == 0 else constraint_a(b, c, dim, phys, n)
        levels.append(SpectrumLevel(n=n, a_n=a_n, e_n=level_energy(b, c, dim, phys, n)))
    return levels


def level_energy(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> float:
    """E_n = -b^2/(4c) + (hbar sqrt(c)/sqrt(2m)) (2(n + Lambda) + 3), for c > 0."""
    scale = phys.hbar * math.sqrt(c) / math.sqrt(2.0 * phys.mass)
    return -b**2 / (4.0 * c) + scale * (2.0 * (n + dim.lam) + 3.0)


def closed_level(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> tuple[float, float]:
    """(a used at level n, energy of level n) without the constraint gate.

    Level 0 is the coulomb view's epsilon + delta when a > 0, else E_0;
    level n >= 1 is E_n at the linear-rule a_n.  ``sweep`` prints it beside
    the numeric eigenvalue, so off-surface rows expose the formula's failure.
    A level with no closed form raises as ``solve`` does (level 0) or with
    ValueError (c = 0 at n >= 1).
    """
    if n == 0:
        if pot.a > 0:
            _, _, epsilon = coulomb_ground(pot.a, dim, phys)
            return pot.a, epsilon + _coulomb_delta(pot, dim, phys)
        require_view(pot, dim, phys)
        return pot.a, level_energy(pot.b, pot.c, dim, phys, 0)
    if pot.c <= 0:
        raise ValueError(f"level {n} has a closed form only for c > 0")
    a_n = constraint_a(pot.b, pot.c, dim, phys, n) if pot.b > 0 else 0.0
    return a_n, level_energy(pot.b, pot.c, dim, phys, n)


def level_superpotential(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> Superpotential:
    """Full ground superpotential of hierarchy level n.

    Level n carries barrier index Lambda + n and Coulomb strength a_n from
    the linear rule; its superpotential is

        S_n = -(Lambda+n+1) hbar / (sqrt(2m) r) + b/(2 sqrt(c)) + sqrt(c) r.

    The constant piece is level independent because a_n grows linearly with
    the barrier index.  b = 0 is the pure oscillator family (a_n = 0 for all
    levels).
    """
    if b < 0 or c <= 0:
        raise ValueError("hierarchy requires b >= 0 and c > 0")
    lp1 = dim.lam + n + 1.0
    return Superpotential(
        LaurentForm({
            -1: _barrier_coeff(lp1, phys),
            0: b / (2.0 * math.sqrt(c)),
            1: math.sqrt(c),
        })
    )


def hierarchy_ground(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> ClosedFormState:
    """Unnormalized ground state of hierarchy level n (nodeless closed form)."""
    lp1 = dim.lam + n + 1.0
    lam, kap = _oscillator_lambda(b, c, phys), _kappa(c, phys)
    return ClosedFormState(poly=(1.0,), q=lp1, lam=lam, kap=kap)


def hierarchy_states(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> ClosedFormState:
    """Candidate level-n state built by descending ladder applications.

    Seeds at the level-n ground state and applies the raising operator of
    levels n-1, ..., 0 in turn, so the polynomial degree of the result is 2n
    in the generic case.  The output is unnormalized, and no claim is made
    that it solves a fixed member of the potential family exactly; the exact
    residual norms of ``verify`` (``susy.hamiltonian_defect``) measure that.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if b < 0 or c <= 0:
        raise ValueError("hierarchy requires b >= 0 and c > 0")
    state = hierarchy_ground(b, c, dim, phys, n)
    for k in range(n - 1, -1, -1):
        state = ladder_apply(level_superpotential(b, c, dim, phys, k), state, phys)
    return state
