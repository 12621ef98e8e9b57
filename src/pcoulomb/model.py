"""Physical parameters, dimensional reduction, and exact potential construction.

The radial problem in N dimensions with angular momentum l reduces to a
three-dimensional form through M = N + 2l and Lambda = (M - 3) / 2.  Every
formula downstream consumes Lambda only, so two configurations with equal M
are interchangeable everywhere.

Potentials and superpotentials are finite sums of integer powers of r in the
range [-2, 2].  ``LaurentForm`` keeps those coefficients exactly, so algebraic
identities between them can be checked coefficient by coefficient instead of
on a grid.

All values are immutable after construction and all operations are pure
functions; they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MIN_POWER = -2
MAX_POWER = 2


def require_finite(**values: float) -> None:
    """Raise ``ValueError`` naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PhysicalParams:
    """Mass and reduced Planck constant carried explicitly (no hidden rescaling)."""

    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        require_finite(mass=self.mass, hbar=self.hbar)
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def kinetic(self) -> float:
        """hbar^2 / 2m, the coefficient of the second-derivative term."""
        return self.hbar**2 / (2.0 * self.mass)

    @property
    def deriv_scale(self) -> float:
        """hbar / sqrt(2m), the scale of first-order factorized operators."""
        return self.hbar / math.sqrt(2.0 * self.mass)


@dataclass(frozen=True)
class DimensionSpec:
    """Dimension N and angular momentum l with the derived pair (M, Lambda).

    M = N + 2l and Lambda = (M - 3)/2.  Lambda is half-integer for even M.
    M >= 2 is required so that Lambda + 1 >= 1/2 and r^(Lambda+1) stays
    normalizable at the origin.
    """

    n_dim: int
    ell: int
    m_index: int = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n_dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n_dim}")
        if self.ell < 0:
            raise ValueError(f"angular momentum must be >= 0, got {self.ell}")
        m_index = self.n_dim + 2 * self.ell
        if m_index < 2:
            raise ValueError(
                f"M = N + 2l = {m_index} < 2 has no normalizable regular solution"
            )
        object.__setattr__(self, "m_index", m_index)
        object.__setattr__(self, "lam", (m_index - 3) / 2.0)


def dimension_reduce(n_dim: int, ell: int) -> DimensionSpec:
    """Map (N, l) to the reduced bookkeeping (M, Lambda)."""
    return DimensionSpec(n_dim=n_dim, ell=ell)


@dataclass(frozen=True)
class PotentialParams:
    """Couplings of -a/r + b r + c r^2: finite, b and c >= 0, -0.0 stored as 0.0."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self) -> None:
        require_finite(a=self.a, b=self.b, c=self.c)
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, getattr(self, name) + 0.0)
        if self.b < 0:
            raise ValueError(f"linear coupling b must be >= 0, got {self.b}")
        if self.c < 0:
            raise ValueError(f"quadratic coupling c must be >= 0, got {self.c}")
        if self.a == 0 and self.b == 0 and self.c == 0:
            raise ValueError("at least one of a, b, c must be nonzero")


class LaurentForm:
    """Finite sum of real coefficients over integer powers r^p, p in [-2, 2].

    Coefficients that are exactly zero are not stored, so two forms are equal
    iff their stored coefficient maps are equal.  Constructing (or producing
    through arithmetic) a power outside [-2, 2] raises ``ValueError``; the
    hard bound catches bookkeeping mistakes early.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, float] | None = None):
        clean: dict[int, float] = {}
        for p, value in (coeffs or {}).items():
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"power must be an integer, got {p!r}")
            if p < MIN_POWER or p > MAX_POWER:
                raise ValueError(f"power {p} outside supported range [-2, 2]")
            value = float(value)
            if value != 0.0:
                clean[p] = value
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentForm is immutable")

    # -- access ----------------------------------------------------------

    def coeff(self, p: int) -> float:
        return self._coeffs.get(p, 0.0)

    def as_dict(self) -> dict[int, float]:
        return dict(sorted(self._coeffs.items()))

    def powers(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self._coeffs.values()), default=0.0)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "LaurentForm") -> "LaurentForm":
        coeffs = dict(self._coeffs)
        for p, v in other._coeffs.items():
            coeffs[p] = coeffs.get(p, 0.0) + v
        return LaurentForm(coeffs)

    def __sub__(self, other: "LaurentForm") -> "LaurentForm":
        coeffs = dict(self._coeffs)
        for p, v in other._coeffs.items():
            coeffs[p] = coeffs.get(p, 0.0) - v
        return LaurentForm(coeffs)

    def __neg__(self) -> "LaurentForm":
        return LaurentForm({p: -v for p, v in self._coeffs.items()})

    def __rmul__(self, scale: float) -> "LaurentForm":
        return LaurentForm({p: scale * v for p, v in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentForm):
            coeffs: dict[int, float] = {}
            for p, u in self._coeffs.items():
                for q, v in other._coeffs.items():
                    coeffs[p + q] = coeffs.get(p + q, 0.0) + u * v
            return LaurentForm(coeffs)
        return self.__rmul__(float(other))

    def squared(self) -> "LaurentForm":
        return self * self

    def derivative(self) -> "LaurentForm":
        """Term-by-term d/dr: c r^p -> c p r^(p-1)."""
        return LaurentForm({p - 1: p * v for p, v in self._coeffs.items() if p != 0})

    def constant_removed(self) -> "LaurentForm":
        return LaurentForm({p: v for p, v in self._coeffs.items() if p != 0})

    # -- evaluation ------------------------------------------------------

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = None
        for p, v in self._coeffs.items():
            # out = v * r**p + out, term by term in the stored order, summed
            # in the term's buffer, so one grid-size temporary lives beside
            # the sum.  Every power is a correctly rounded product or
            # quotient, r**-2 the square of 1/r, never numpy's pow: its
            # result moves by an ulp with the CPU's SIMD dispatch level
            if p == 0:
                term = np.full_like(r, v)
            elif p == 1:
                term = np.multiply(r, v)
            else:
                term = np.multiply(r, r) if p == 2 else np.reciprocal(r, out=np.empty_like(r))
                if p == -2:
                    np.multiply(term, term, out=term)
                term *= v
            if out is not None:
                term += out
            out = term
        if out is None:
            out = np.zeros_like(r)
        if out.ndim == 0:
            return float(out)
        return out

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentForm):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentForm({})"
        inner = ", ".join(f"{p}: {v!r}" for p, v in sorted(self._coeffs.items()))
        return f"LaurentForm({{{inner}}})"


def effective_potential(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> LaurentForm:
    """Full radial potential: barrier + Coulomb + linear + quadratic terms.

    The centrifugal barrier enters as Lambda(Lambda+1) hbar^2 / (2 m r^2);
    for M = 3 (Lambda = 0) it vanishes exactly.
    """
    barrier = dim.lam * (dim.lam + 1.0) * phys.kinetic
    return LaurentForm({-2: barrier, -1: -pot.a, 1: pot.b, 2: pot.c})


def length_scales(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> dict[str, float]:
    """The characteristic lengths of the problem's attractive and confining
    couplings, by name: the Coulomb length (Lambda+1) hbar^2/(m a), the
    oscillator length sqrt(hbar/sqrt(2mc)) and the linear length
    (hbar^2/(2m b))^(1/3), each where its coupling is positive."""
    scales = {}
    if pot.a > 0:
        scales["Coulomb length (Lambda+1) hbar^2/(m a)"] = (
            (dim.lam + 1.0) * phys.hbar**2 / (phys.mass * pot.a))
    if pot.c > 0:
        scales["oscillator length sqrt(hbar/sqrt(2mc))"] = (
            math.sqrt(phys.hbar / math.sqrt(2.0 * phys.mass * pot.c)))
    if pot.b > 0:
        scales["linear length (hbar^2/(2m b))^(1/3)"] = (
            (phys.kinetic / pot.b) ** (1.0 / 3.0))
    return scales


def classify_regime(pot: PotentialParams) -> str:
    """Advisory tag: which exactly solvable part dominates the problem.

    The tag never gates a computation; both solution views run whenever the
    coupling relation holds.
    """
    if pot.a > 0 and pot.a >= pot.b and pot.a >= pot.c:
        return "coulomb-dominant"
    return "oscillator-dominant"
