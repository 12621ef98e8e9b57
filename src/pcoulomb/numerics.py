"""Grid representation and the finite-difference radial eigensolver.

This is the tests' plain reference: no command builds a grid.  ``eig``,
``verify`` and ``sweep`` take their levels from ``spectral``, and the tests
cross-check that oracle, the closed forms and the ansatz states against the
three-point discretization of

    -T f'' + V(r) f = E f,     T = hbar^2 / 2m,

on a uniform grid r_i = i h, i = 1..count, with Dirichlet zeros at r = 0 and
r = r_max + h.  The scheme is O(h^2); Richardson extrapolation over (h, h/2)
is available where O(h^4) is wanted.  ``eigen_lowest`` solves one level per
call by ``scipy.linalg.eigh_tridiagonal`` (imported there) and takes its
value as the Rayleigh quotient of its vector; ``sturm_count`` exposes the
raw eigenvalue-counting recurrence so the solver can be cross-checked
independently.

The solver and ``hamiltonian_apply`` (so ``h_residual``) share one
three-point matrix, ``_matrix``, and one product, ``_product``.  The grid
helpers ``evaluate_state``, ``normalize``, ``hamiltonian_apply``,
``h_residual``, ``overlap`` and ``sturm_count`` are the tests' cross-check
references: ``verify`` and ``oracle --check`` take norms, overlaps and
residuals from exact moments.  Quadrature is the trapezoid rule with the
boundary zeros, h times the samples' pairwise ``np.add.reduce`` sum, as is
every sum here.  A grid computes its nodes once and keeps them read-only.

Validity note for half-integer Lambda (even M): the leading r^(Lambda+1)
behavior is non-smooth at the origin, so pointwise residual diagnostics
degrade there even though eigenvalues still converge for Lambda >= 1/2.
Lambda = -1/2 (M = 2) sits on the critical attractive-barrier edge where
this discretization does not converge to the closed forms' self-adjoint
extension at all; grid-based adjudication is restricted to M >= 3.
"""

from __future__ import annotations

import functools
import math

from dataclasses import dataclass, field

import numpy as np

from .model import DimensionSpec, LaurentForm, PhysicalParams, PotentialParams, length_scales
from .susy import ClosedFormState

#: nodes dropped at each end when measuring interior residuals
RESIDUAL_TRIM = 3

#: default number of steps when no step override is given
DEFAULT_STEPS = 20000

#: minimum number of default steps per characteristic length of the problem
STEPS_PER_LENGTH = 1200

#: most nodes a grid may have (128 MiB per stored array); the largest grids
#: built by default, Richardson h/2 grids included, stay under 2e6 nodes
MAX_NODES = 2**24


@dataclass(frozen=True)
class RadialGrid:
    """Uniform interior nodes r_i = i h, i = 1..count.

    The boundary zeros at r = 0 and r = r_max + h are implied, never stored.
    """

    r_max: float
    h: float
    count: int = field(init=False)

    def __post_init__(self) -> None:
        if not (self.h > 0 and self.r_max > 0):
            raise ValueError("grid extent and step must be positive")
        steps = self.r_max / self.h
        if steps >= MAX_NODES + 0.5:
            raise ValueError(
                f"grid of {steps:.3g} nodes (r_max = {self.r_max:g}, h = {self.h:.3g})"
                f" exceeds the budget of {MAX_NODES} nodes"
            )
        count = int(round(steps))
        if count < 100:
            raise ValueError(f"grid needs at least 100 nodes, got {count}")
        object.__setattr__(self, "count", count)

    @property
    def levels(self) -> int:
        """How many of the lowest levels the eigensolver resolves on this
        grid: ten nodes per level."""
        return self.count // 10

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """h * arange(1, count + 1), bit for bit: computed once per grid and
        read-only."""
        nodes = np.arange(1, self.count + 1, dtype=float)
        nodes *= self.h
        nodes.setflags(write=False)
        return nodes

    def halved(self) -> "RadialGrid":
        """The grid of step h/2 with 2 count + 1 nodes: its node 2i is node i
        of this grid, and both end at the far zero (count + 1) h."""
        return RadialGrid(r_max=self.h * (self.count + 0.5), h=self.h / 2.0)


@dataclass(frozen=True)
class GridFunction:
    """Samples at the grid nodes.  ``values`` is a read-only view that aliases
    a float array argument (no copy); the caller's array stays writeable."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).view()
        if values.shape != (self.grid.count,):
            raise ValueError(
                f"values shape {values.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """L2 norm sqrt(h sum f_i^2), trapezoid with the boundary zeros; overflow is inf."""
        with np.errstate(over="ignore"):
            return math.sqrt(self.grid.h * np.add.reduce(np.multiply(self.values, self.values)))


def build_grid(
    pot: PotentialParams,
    dim: DimensionSpec,
    phys: PhysicalParams,
    r_max: float | None = None,
    h: float | None = None,
) -> RadialGrid:
    """Grid sized from the problem's length scales; overrides win verbatim.

    The extent covers the classical turning radius of a rough energy guess
    plus ten characteristic lengths (``model.length_scales``), and never
    less than ten of any of them.
    The default step is r_max / 20000, refined where needed so the shortest
    characteristic length is resolved by at least 1200 steps (strong-Coulomb
    members of a family are much stiffer near the origin than their extent
    suggests).  A grid error names what set the extent and the step: an
    override, or the longest and the shortest length.
    """
    scales = length_scales(pot, dim, phys)
    if not scales:
        raise ValueError(
            "grid sizing needs an attractive or confining coupling (a, b, or c > 0)"
        )
    if r_max is None:
        longest = max(scales, key=scales.get)
        r_max = max(_turning_radius(pot, dim, phys) + 10.0 * scales[longest],
                    *(10.0 * s for s in scales.values()))
        extent_cause = f"the {longest} = {scales[longest]:.3g}"
    else:
        extent_cause = "the extent override"
    if h is None:
        shortest = min(scales, key=scales.get)
        h = min(r_max / DEFAULT_STEPS, scales[shortest] / STEPS_PER_LENGTH)
        step_cause = f"the {shortest} = {scales[shortest]:.3g} over {STEPS_PER_LENGTH}"
    else:
        step_cause = "the step override"
    try:
        return RadialGrid(r_max=r_max, h=h)
    except ValueError as exc:
        raise ValueError(
            f"{exc}; r_max is set by {extent_cause}, h by {step_cause}"
        ) from None


def _turning_radius(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams
) -> float:
    """Outer classical turning point of a cheap ground-energy estimate."""
    if pot.c > 0:
        scale = phys.hbar * math.sqrt(pot.c) / math.sqrt(2.0 * phys.mass)
        guess = max(-pot.b**2 / (4.0 * pot.c) + scale * (2.0 * dim.lam + 3.0), scale)
        return (-pot.b + math.sqrt(pot.b**2 + 4.0 * pot.c * guess)) / (2.0 * pot.c)
    if pot.b > 0:
        guess = (pot.b**2 * phys.kinetic) ** (1.0 / 3.0)
        return guess / pot.b
    # pure Coulomb: bound orbit closes at a / |epsilon0|
    lp1 = dim.lam + 1.0
    return 2.0 * lp1**2 * phys.hbar**2 / (phys.mass * pot.a)


def evaluate_state(state: ClosedFormState, grid: RadialGrid) -> GridFunction:
    """Pointwise values of a closed-form state on the grid nodes."""
    if state.q <= -0.5:
        raise ValueError(f"state with q = {state.q} <= -1/2 is not square integrable")
    return GridFunction(grid=grid, values=state.evaluate(grid.nodes))


def normalize(f: GridFunction) -> tuple[GridFunction, float]:
    """Scale to unit L2 norm; returns (scaled function, scale factor)."""
    norm = f.norm()
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite function")
    scale = 1.0 / norm
    return GridFunction(grid=f.grid, values=scale * f.values), scale


def hamiltonian_apply(
    v_eff: LaurentForm, f: GridFunction, phys: PhysicalParams
) -> GridFunction:
    """H f: the eigensolver's own matrix times f, bit for bit, with
    Dirichlet zeros at both ends; V comes as ``v_eff`` gives it."""
    with np.errstate(over="ignore", invalid="ignore"):  # _matrix refuses an inf or nan
        diag, off = _matrix(v_eff(f.grid.nodes), f.grid.h, phys)
    values = _product(diag, off, f.values, np.empty_like(f.values), diag)
    return GridFunction(grid=f.grid, values=values)


def _matrix(samples: np.ndarray, h: float, phys: PhysicalParams):
    """(diag, off) of the three-point Hamiltonian of step h and potential
    ``samples``: V + 2T/h^2 written over ``samples`` and the one
    off-diagonal value -T/h^2.  ValueError if one is not finite,
    or if off^2 is not: the Sturm counts of ``dstebz`` square it."""
    t = phys.kinetic
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.add(samples, 2.0 * t / h**2, out=samples)
    off = -t / h**2
    if not (np.all(np.isfinite(diag)) and math.isfinite(off)):
        raise ValueError("the grid Hamiltonian overflows: a matrix entry is not finite")
    if not math.isfinite(off * off):
        raise ValueError(f"the grid Hamiltonian overflows: T/h^2 = {-off:.3g} at h = {h:.3g}"
                         " squares beyond the float range")
    return diag, off


def _product(diag: np.ndarray, off: float, x: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """T x written into ``out``: diag x, plus off x_{i-1}, plus off x_{i+1};
    the off-diagonal products are formed in ``scratch``, n entries, which
    may be ``diag`` (read first)."""
    np.multiply(diag, x, out=out)
    np.add(out[1:], np.multiply(off, x[:-1], out=scratch[:-1]), out=out[1:])
    np.add(out[:-1], np.multiply(off, x[1:], out=scratch[:-1]), out=out[:-1])
    return out


def eigen_lowest(
    v_eff: LaurentForm,
    grid: RadialGrid,
    phys: PhysicalParams,
    level: int = 0,
    eigenvectors: bool = False,
    richardson: bool = False,
) -> float | tuple[float, np.ndarray]:
    """Eigenvalue ``level`` (0-based) of the discretized problem; with
    ``richardson`` the extrapolation (4 E_{h/2} - E_h) / 3 over the grid and
    ``grid.halved()``, which pushes the discretization error from O(h^2) to
    O(h^4).

    Each grid's level and its vector x are one ``eigh_tridiagonal`` call
    (``dstebz`` index bisection, then ``dstein``), and the value is the
    Rayleigh quotient x . (T x) of that unit vector, summed by
    ``np.add.reduce``.  The bisection alone stops at its tolerance
    ULP * ||T||_1, about 4 eps T / h^2, and its Sturm counts round at that
    size whatever tolerance is asked for; the quotient does not: at h = 1e-3
    on the reference problem, levels 0-2 are within 1.5e-11 of a
    tight-tolerance ``dstebz`` solve, where that tolerance is 4.4e-10.

    Returns the eigenvalue, or, when ``eigenvectors`` is set, (eigenvalue,
    vector): ``dstein``'s unit vector, its largest-magnitude component
    positive.  Eigenvectors are not available with ``richardson``.
    """
    if not 0 <= level < grid.levels:
        raise ValueError(f"level {level} out of range for {grid.count} nodes")
    if richardson and eigenvectors:
        raise ValueError("eigenvectors are not defined for extrapolated values")
    from scipy.linalg import eigh_tridiagonal

    values = []
    for link in (grid, grid.halved()) if richardson else (grid,):
        with np.errstate(over="ignore", invalid="ignore"):  # _matrix refuses an inf or nan
            diag, off = _matrix(v_eff(link.nodes), link.h, phys)
        # dstein's vectors are NaN once the entries pass about 1e150, so it
        # gets the matrix scaled by a power of two, exactly, to |off| < 1
        scale = math.ldexp(1.0, -math.frexp(off)[1])
        _, vectors = eigh_tridiagonal(scale * diag, np.full(link.count - 1, scale * off),
                                      select="i", select_range=(level, level),
                                      lapack_driver="stebz")
        vector = vectors[:, 0]
        tx = _product(diag, off, vector, np.empty_like(vector), diag)
        values.append(float(np.add.reduce(np.multiply(vector, tx, out=tx))))
    if richardson:
        return (4.0 * values[1] - values[0]) / 3.0
    return (values[0], vector) if eigenvectors else values[0]


def sturm_count(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below sigma.

    Counts negative pivots of the LDL^T factorization of (M - sigma I); tiny
    pivots are nudged to keep the recurrence finite, the standard safeguard.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    tiny = np.finfo(float).tiny
    count = 0
    d = 1.0
    for i in range(len(diag)):
        sq = off[i - 1] ** 2 if i > 0 else 0.0
        d = (diag[i] - sigma) - sq / d
        if d == 0.0:
            d = tiny
        if d < 0.0:
            count += 1
    return count


def h_residual(
    f: GridFunction, energy: float, v_eff: LaurentForm, phys: PhysicalParams
) -> float:
    """Relative grid defect ||H f - E f|| / ||f|| on interior nodes.

    ``f`` is a state sampled on its grid (``evaluate_state``); the ratio does
    not depend on its scale, so a caller can sample a state once and use the
    samples for residuals and overlaps alike.  Three nodes at each boundary
    are excluded so Dirichlet truncation does not pollute the measurement.
    Its norms are sums of squares as in ``norm``; an overflow is an inf.
    """
    sl = slice(RESIDUAL_TRIM, -RESIDUAL_TRIM)
    defect = (hamiltonian_apply(v_eff, f, phys).values - energy * f.values)[sl]
    with np.errstate(over="ignore"):
        num = math.sqrt(np.add.reduce(defect * defect))
        den = math.sqrt(np.add.reduce(f.values[sl] * f.values[sl]))
    if den == 0.0:
        raise ValueError("state vanishes on the interior nodes")
    return num / den


def overlap(f: GridFunction, g: GridFunction) -> float:
    """Normalized inner product h sum f_i g_i of two functions on one grid."""
    if f.grid != g.grid:
        raise ValueError("overlap requires both functions on the same grid")
    inner = f.grid.h * float(np.add.reduce(np.multiply(f.values, g.values)))
    return inner / (f.norm() * g.norm())
