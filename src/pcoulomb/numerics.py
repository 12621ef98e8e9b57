"""Grid representation and the finite-difference radial eigensolver.

This is the second independent oracle: every closed form produced elsewhere
is re-checked here against the three-point discretization of

    -T f'' + V(r) f = E f,     T = hbar^2 / 2m,

on a uniform grid r_i = i h, i = 1..count, with Dirichlet zeros at r = 0 and
r = r_max + h.  The scheme is O(h^2); Richardson extrapolation over (h, h/2)
is available where O(h^4) is wanted.  The lowest eigenvalues come from the
bisection (Sturm sequence) driver of the symmetric tridiagonal eigenproblem;
``sturm_count`` exposes the raw eigenvalue-counting recurrence so the solver
can be cross-checked independently.

Every grid solve runs one seeding chain, 4h -> h, extended to h/2 for a
Richardson pair.  The requested levels first .. first+k-1 are bisected on a
grid of step COARSEN * h (a quarter of the nodes) from the Gershgorin
interval; the h values are then bisected inside the windows E_j(4h) -+
COARSE_WINDOW * max(1, |E_j|), and the h/2 values inside E_j(h) -+ WINDOW *
max(1, |E_j|): about 22 and 18 Sturm sweeps per value instead of 57 (a
window 20 times wider costs log2(20) more).  Each window set is used only
when Sturm counts prove that window j holds eigenvalue first + j (Barth,
Martin & Wilkinson, Numer. Math. 9, 386 (1967)); otherwise, and when the 4h
grid would have fewer than 100 nodes, the unseeded index-range solve of the
h grid runs, so a bad seed costs time, never correctness.  An eigenvector
is found for one level, by inverse iteration on the h value the chain
produced, windowed or fallen back.  Seeds come from the coarse grid only,
never from a closed form, so this oracle stays independent of the
constructions it checks.

LAPACK comes from scipy's extension module ``scipy/linalg/_flapack``, which
``_lapack`` loads on its own (see there): the solver calls only ``dstebz``
(bisection) and ``dstein`` (inverse iteration), the routines behind
``scipy.linalg.eigh_tridiagonal(lapack_driver="stebz")``, so no command
imports the ``scipy.linalg`` package; one imported later binds ``_flapack``.

Quadrature is composite trapezoid throughout.

Validity note for half-integer Lambda (even M): the leading r^(Lambda+1)
behavior is non-smooth at the origin, so pointwise residual diagnostics
degrade there even though eigenvalues still converge for Lambda >= 1/2.
Lambda = -1/2 (M = 2) sits on the critical attractive-barrier edge where
this discretization does not converge to the closed forms' self-adjoint
extension at all; grid-based adjudication is restricted to M >= 3.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

from dataclasses import dataclass, field

import numpy as np

from .model import DimensionSpec, LaurentForm, PhysicalParams, PotentialParams
from .susy import ClosedFormState

#: nodes dropped at each end when measuring interior residuals
RESIDUAL_TRIM = 3

#: default number of steps when no step override is given
DEFAULT_STEPS = 20000

#: minimum number of default steps per characteristic length of the problem
STEPS_PER_LENGTH = 1200

#: most nodes a grid may have (128 MiB per stored array); the largest grids
#: built by default, strong-Coulomb oracle --check and Richardson h/2 grids,
#: stay under 2e6 nodes
MAX_NODES = 2**24

#: half-width of the window around each h eigenvalue, relative to
#: max(1, |E|), in which the h/2 eigenvalue of a Richardson pair is bisected
#: (the largest h -> h/2 shift measured on sweep rows is 8.5e-7 relative)
WINDOW = 1e-5

#: step ratio of the grid whose eigenvalues seed every h solve (a quarter
#: of the nodes)
COARSEN = 4

#: half-width of the windows around the 4h eigenvalues in which the h
#: eigenvalues are bisected: for an O(h^2) error the 4h -> h shift is
#: (16 - 1) / (1 - 1/4) = 20 times the h -> h/2 shift that WINDOW covers
#: (the largest 4h -> h shift measured on sweep rows is 1.5e-5 relative)
COARSE_WINDOW = 20 * WINDOW


@dataclass(frozen=True)
class RadialGrid:
    """Uniform interior nodes r_i = r_min + i h with r_min = h.

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
    def r_min(self) -> float:
        return self.h

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.count + 1)

    def halved(self) -> "RadialGrid":
        return RadialGrid(r_max=self.r_max, h=self.h / 2.0)


@dataclass(frozen=True)
class GridFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.count,):
            raise ValueError(
                f"values shape {values.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """L2 norm via composite trapezoid, including the boundary zeros."""
        return math.sqrt(_quad_with_ends(self.values**2, self.grid.h))


def _quad_with_ends(samples: np.ndarray, h: float) -> float:
    """Trapezoid over [0, r_max + h] with implied zero end values."""
    padded = np.concatenate(([0.0], samples, [0.0]))
    return float(np.trapezoid(padded, dx=h))


def build_grid(
    pot: PotentialParams,
    dim: DimensionSpec,
    phys: PhysicalParams,
    r_max: float | None = None,
    h: float | None = None,
) -> RadialGrid:
    """Grid sized from the problem's length scales; overrides win verbatim.

    The extent covers the classical turning radius of a rough energy guess
    plus ten characteristic lengths, and never less than ten Coulomb lengths
    (Lambda+1) hbar^2/(m a) or ten oscillator lengths sqrt(hbar/sqrt(2mc)).
    The default step is r_max / 20000, refined where needed so the shortest
    characteristic length is resolved by at least 1200 steps (strong-Coulomb
    members of a family are much stiffer near the origin than their extent
    suggests).  A grid error names what set the extent and the step: an
    override, or the longest and the shortest length.
    """
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
        extent_cause = "the extent override (--rmax)"
    if h is None:
        shortest = min(scales, key=scales.get)
        h = min(r_max / DEFAULT_STEPS, scales[shortest] / STEPS_PER_LENGTH)
        step_cause = f"the {shortest} = {scales[shortest]:.3g} over {STEPS_PER_LENGTH}"
    else:
        step_cause = "the step override (--h)"
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
    """-T (f_{i-1} - 2 f_i + f_{i+1}) / h^2 + V(r_i) f_i with Dirichlet ends."""
    t = phys.kinetic
    h = f.grid.h
    vals = f.values
    lap = np.empty_like(vals)
    lap[1:-1] = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    lap[0] = -2.0 * vals[0] + vals[1]
    lap[-1] = vals[-2] - 2.0 * vals[-1]
    return GridFunction(
        grid=f.grid, values=-t * lap / h**2 + v_eff(f.grid.nodes) * vals
    )


def _tridiagonal(
    v_eff: LaurentForm, grid: RadialGrid, phys: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    t = phys.kinetic
    diag = 2.0 * t / grid.h**2 + v_eff(grid.nodes)
    off = np.full(grid.count - 1, -t / grid.h**2)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise ValueError("the grid Hamiltonian overflows: a matrix entry is not finite")
    return diag, off


@functools.cache
def _lapack():
    """The module that holds LAPACK's ``dstebz`` and ``dstein``.

    Importing the ``scipy.linalg`` package costs about 300 ms after numpy;
    its extension file ``scipy/linalg/_flapack``, found without importing
    scipy, loads in a few ms.  The ``sys.modules`` entry the extension makes
    while it initialises is removed, so a later ``import scipy.linalg``
    loads it as usual (CPython reuses the initialised module's routines)
    and binds it to the package.  An extension already loaded is reused;
    when it cannot be found or loaded (an ImportError), the routines come
    from ``scipy.linalg.lapack``.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        spec = importlib.util.spec_from_file_location(name, _flapack_path())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        from scipy.linalg import lapack

        return lapack
    sys.modules.pop(name, None)
    return module


def _flapack_path() -> str:
    """Path of scipy's ``linalg/_flapack`` extension file; scipy is not imported."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    linalg = os.path.join(spec.submodule_search_locations[0], "linalg")
    found = importlib.machinery.PathFinder.find_spec("_flapack", [linalg])
    if found is None:
        raise ImportError(f"no _flapack extension under {linalg}")
    return found.origin


def _check(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info})")


def _index_solve(diag: np.ndarray, off: np.ndarray, first: int, k: int, vectors: bool = False):
    """Eigenvalues first .. first+k-1 by the unseeded index-range bisection.

    With ``vectors`` (k = 1 only), returns (values, vector in a column):
    inverse iteration on the bisected value, the steps of
    ``eigh_tridiagonal(lapack_driver="stebz")``.
    """
    # range=2 is RANGE='I' with 1-based indices, tolerance 0 is stebz's
    # default, "E" orders the values ascending
    m, w, iblock, isplit, info = _lapack().dstebz(
        diag, off, 2, 0.0, 0.0, first + 1, first + k, 0.0, "E")
    _check(info, "dstebz")
    if not vectors:
        return w[:m]
    return _inverse_iteration(diag, off, w[:m], iblock, isplit)


def _inverse_iteration(diag, off, w, iblock, isplit):
    """(values, vector in a column) by LAPACK ``dstein`` for the one value in
    ``w``; ``iblock`` and ``isplit`` are ``dstebz``'s for it."""
    vecs, info = _lapack().dstein(diag, off, w, iblock, isplit)
    _check(info, "dstein")
    return w, vecs


def _seeded_lowest(
    diag: np.ndarray, off: np.ndarray, seeds, first: int, window: float,
    vectors: bool = False,
):
    """Eigenvalues first .. first+k-1, each bisected in a window around a seed.

    Window j is (s_j - w_j, s_j + w_j] with w_j = window * max(1, |s_j|) and
    k = len(seeds).  The windows are used only when they are disjoint, each
    holds exactly one eigenvalue, exactly first + k eigenvalues lie at or
    below the top window edge and, when first > 0, exactly first lie at or
    below the lowest edge; then window j holds eigenvalue first + j.
    Otherwise the values come from the unseeded index-range bisection.  Both
    use stebz's default tolerance.  With ``vectors`` (one seed only), returns
    (values, vector in a column) as ``_index_solve`` does, by inverse
    iteration on whichever value was found.
    """
    dstebz = _lapack().dstebz

    def count(top: float) -> int:
        # range=1 is RANGE='V'.  Over (-inf, top] LAPACK raises the lower end
        # to its own Gershgorin bound, and an infinite tolerance stops the
        # bisection at once, so m is the exact Sturm count N(top)
        m, _, _, _, info = dstebz(diag, off, 1, -np.inf, top, 0, 0, np.inf, "E")
        return m if info == 0 else -1

    k = len(seeds)
    seeds = np.asarray(seeds, dtype=float)
    half = window * np.maximum(1.0, np.abs(seeds))
    lows, highs = seeds - half, seeds + half
    if (
        np.all(highs[:-1] < lows[1:])
        and count(highs[-1]) == first + k
        and (first == 0 or count(lows[0]) == first)
    ):
        values = []
        for low, high in zip(lows, highs):
            m, w, iblock, isplit, info = dstebz(diag, off, 1, low, high, 0, 0, 0.0, "E")
            if info != 0 or m != 1:
                break
            values.append(w[0])
        else:
            values = np.array(values)
            if not vectors:
                return values
            return _inverse_iteration(diag, off, values, iblock, isplit)
    return _index_solve(diag, off, first, k, vectors)


def eigen_lowest(
    v_eff: LaurentForm,
    grid: RadialGrid,
    phys: PhysicalParams,
    k: int = 1,
    eigenvectors: bool = False,
    richardson: bool = False,
    *,
    first: int = 0,
):
    """Eigenvalues first .. first+k-1 of the discretized problem, ascending.

    ``first`` = 0 (the default) gives the lowest k.  Every call runs the
    seeding chain of the module docstring: the levels are bisected from the
    Gershgorin interval on the grid of step COARSEN * h, then on this grid
    inside windows around those values; with ``richardson`` the h/2 values
    are bisected in windows around the h values, and the pair is
    extrapolated over (h, h/2), pushing the discretization error from O(h^2)
    to O(h^4).  A window set that fails its Sturm-count proof, or a coarse
    grid of fewer than 100 nodes, falls back to the unseeded index-range
    bisection of this grid.  The seeds come from the coarse grid alone, so
    the values are independent of any closed form.

    The LAPACK bisection driver (Sturm sequence) is deterministic.  It
    bisects to its default tolerance ULP * ||T||_1 (about 4 eps T / h^2), not
    to the roundoff of the eigenvalue itself: on the h and h/2 grids of the
    benchmark's sweeps the values are off by 5e-12 to 7e-9 against a
    tight-tolerance solve.  The last digits of a level depend on the window
    or index range it was bisected in, so ``k=1, first=n`` and ``k=n+1`` can
    differ in level n within that floor, and so can a window solve and the
    index-range fallback.  The extrapolation inherits the floor: on n = 0
    sweep rows with odd M its error against the closed form is 4e-11 to
    3.3e-9, and 1e-13 to 1.4e-9 with a tight tolerance.

    Returns a list of eigenvalues, or, when ``eigenvectors`` is set,
    ([eigenvalue], vector in a column) for the one level ``first`` (k = 1):
    inverse iteration (LAPACK dstein) on the chain's value, windowed or
    fallen back, of this grid.  dstein scales the vector to unit 2-norm with
    its largest-magnitude component positive.  Eigenvectors are not
    available with ``richardson``.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if eigenvectors and k != 1:
        raise ValueError(f"eigenvectors are found for one level (k = 1), got k = {k}")
    if first < 0:
        raise ValueError(f"need level first >= 0, got {first}")
    if first + k > grid.count // 10:
        raise ValueError(
            f"levels {first}..{first + k - 1} out of range for {grid.count} nodes"
        )
    if richardson and eigenvectors:
        raise ValueError("eigenvectors are not defined for extrapolated values")

    diag, off = _tridiagonal(v_eff, grid, phys)
    try:
        coarse = RadialGrid(r_max=grid.r_max, h=COARSEN * grid.h)
    except ValueError:
        solved = _index_solve(diag, off, first, k, eigenvectors)
    else:
        seeds = _index_solve(*_tridiagonal(v_eff, coarse, phys), first, k)
        solved = _seeded_lowest(diag, off, seeds, first, COARSE_WINDOW, eigenvectors)
    if eigenvectors:
        values, vecs = solved
        return [float(values[0])], vecs
    if not richardson:
        return [float(v) for v in solved]
    fine = _seeded_lowest(*_tridiagonal(v_eff, grid.halved(), phys), solved, first, WINDOW)
    return [float((4.0 * ef - ec) / 3.0) for ec, ef in zip(solved, fine)]


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
    """
    hf = hamiltonian_apply(v_eff, f, phys)
    defect = hf.values - energy * f.values
    sl = slice(RESIDUAL_TRIM, -RESIDUAL_TRIM)
    num = float(np.linalg.norm(defect[sl]))
    den = float(np.linalg.norm(f.values[sl]))
    if den == 0.0:
        raise ValueError("state vanishes on the interior nodes")
    return num / den


def overlap(f: GridFunction, g: GridFunction) -> float:
    """Normalized trapezoid inner product of two functions on one grid."""
    if f.grid != g.grid:
        raise ValueError("overlap requires both functions on the same grid")
    inner = _quad_with_ends(f.values * g.values, f.grid.h)
    return inner / (f.norm() * g.norm())
