"""Grid representation and the finite-difference radial eigensolver.

This is the second independent oracle: every closed form produced elsewhere
is re-checked here against the three-point discretization of

    -T f'' + V(r) f = E f,     T = hbar^2 / 2m,

on a uniform grid r_i = i h, i = 1..count, with Dirichlet zeros at r = 0 and
r = r_max + h.  The scheme is O(h^2); Richardson extrapolation over (h, h/2)
is available where O(h^4) is wanted.  ``sturm_count`` exposes the raw
eigenvalue-counting recurrence so the solver can be cross-checked
independently.

Every grid solve runs one seeding chain of grids, coarsest first: 16h ->
4h -> h, extended to h/2 for a Richardson pair (steps COARSEN**2 * h and
COARSEN * h).  Every step handles one level.  On the coarsest grid that
resolves the levels asked for (at least 100 nodes, ten per level), a
sixteenth of the nodes on default grids, each level is bisected (Sturm
sequence).  Its value is the shift of two steps of inverse iteration on the
next finer grid, both solved with one unpivoted LDL^T factorization of the
shifted matrix, and the Rayleigh quotient E of the unit iterate x is that
grid's value (Parlett, The Symmetric Eigenvalue Problem, ch. 4-5).  The
residual ||T x - E x|| puts an eigenvalue within it of E, and two Sturm
counts at the edges of the window around E prove that it is this level
(Barth, Martin & Wilkinson, Numer. Math. 9, 386 (1967)); see ``_refine``.
A value that fails the proof, or a level on an h grid with no coarser grid
to seed it, is refined from that level's own bisection on its grid instead,
so a bad seed costs time, never correctness.  An eigenvector is found for
one level: the iterate itself.  Seeds come from the coarser grids only,
never from a closed form, so this oracle stays independent of the
constructions it checks.

LAPACK comes from scipy's extension module ``scipy/linalg/_flapack``, which
``_lapack`` loads on its own (see there): the solver calls only ``dstebz``
(the index bisection), ``dpttrf`` (the LDL^T factorization whose pivots are
a Sturm count) and ``dpttrs`` (the shifted solves with its factors), so no
command imports the ``scipy.linalg`` package; one imported later binds
``_flapack``.

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

#: step ratio between neighbouring grids of the seeding chain 16h -> 4h -> h
COARSEN = 4

#: half-width, relative to max(1, |E|), of the window centred on each refined
#: eigenvalue that must hold its residual (near 1e-9 on default grids)
WINDOW = 1e-5


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
    """The module that holds LAPACK's ``dstebz``, ``dpttrf`` and ``dpttrs``.

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


def _index_solve(diag: np.ndarray, off: np.ndarray, level: int) -> float:
    """Eigenvalue ``level`` (0-based) by the unseeded index bisection."""
    # range=2 is RANGE='I' with 1-based indices, tolerance 0 is stebz's default
    _, w, _, _, info = _lapack().dstebz(
        diag, off, 2, 0.0, 0.0, level + 1, level + 1, 0.0, "E")
    _check(info, "dstebz")
    return w[0]


def _factor(diag: np.ndarray, off: np.ndarray, shift: float):
    """(d, l, count): T - shift I = L D L^T with D = diag(d) and L unit lower
    bidiagonal with subdiagonal l, and ``count`` the nonpositive pivots d_i,
    which is the Sturm count N(shift) of eigenvalues at or below ``shift``.

    ``dpttrf`` factors until the first nonpositive pivot d_i.  That pivot is
    kept, lowered to -pivmin when above it (pivmin as in ``dstebz``), so a
    zero pivot counts as negative and divides safely; then l_i = b_i / d_i
    and ``dpttrf`` resumes at row i + 1 with the diagonal
    (a_{i+1} - shift) - l_i b_i.  A -inf pivot (after a tiny positive one)
    gives l_i = 0 and leaves the plain diagonal.  The count is backward
    stable (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3, 1995), and ``dpttrs``
    solves with the factors as inverse iteration does (Dhillon & Parlett,
    Lin. Alg. Appl. 387, 1 (2004)).
    """
    lapack = _lapack()
    d, l = diag - shift, off.copy()
    # max |b_i| without a temporary array, which would raise the peak memory
    largest = max(float(np.max(off, initial=0.0)), -float(np.min(off, initial=0.0)))
    pivmin = sys.float_info.min * max(1.0, largest) ** 2
    count, start = 0, 0
    while start < len(d) - 1:
        # overwrite_d and overwrite_e: the slices are factored in place
        info = lapack.dpttrf(d[start:], l[start:], overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            return d, l, count
        count += 1
        row = start + info  # the row after the nonpositive pivot
        d[row - 1] = min(d[row - 1], -pivmin)
        if row == len(d):
            return d, l, count
        l[row - 1] /= d[row - 1]
        d[row] -= l[row - 1] * off[row - 1]
        start = row
    # a one-row tail: the wrapper rejects an off-diagonal of size 0
    if d[start] <= 0.0:
        count += 1
        d[start] = min(d[start], -pivmin)
    return d, l, count


def _count_at_or_below(diag: np.ndarray, off: np.ndarray, top: float) -> int:
    """Sturm count N(top): the nonpositive pivots of ``_factor`` at ``top``."""
    return _factor(diag, off, top)[2]


def _refine(diag: np.ndarray, off: np.ndarray, shift: float, level: int, margin: float):
    """(value, vector, proved): two steps of inverse iteration shifted to
    ``shift`` from a ones vector, each a ``dpttrs`` solve with the one
    factorization ``_factor`` gives, then the Rayleigh quotient E of the unit
    iterate x; None when x is not finite or its norm overflows (a shift on
    an eigenvalue of a diagonal matrix meets a zero pivot).

    ``proved`` is whether the window E -+ half, half = WINDOW * max(1, |E|),
    holds eigenvalue ``level``.  The residual ||T x - E x|| puts an
    eigenvalue within it of E, so a window wider than the residual plus
    ``margin`` (its roundoff and a Sturm count's) holds one; when exactly
    level + 1 eigenvalues lie at or below its top edge and, for level > 0,
    exactly ``level`` at or below its bottom edge, that one is eigenvalue
    ``level`` (Barth, Martin & Wilkinson).  Sums are ``np.add.reduce``
    (pairwise, in a fixed order), not BLAS ``dot``, so the bits do not
    depend on the CPU's dispatch level.
    """
    # the iterate outlives the factors: allocated before them, it does not
    # pin the heap above them once they are freed (peak RSS)
    x = np.ones(len(diag))
    d, l, _ = _factor(diag, off, shift)
    for _ in range(2):
        x, info = _lapack().dpttrs(d, l, x, overwrite_b=1)
        _check(info, "dpttrs")
        with np.errstate(over="ignore", invalid="ignore"):
            norm = math.sqrt(np.add.reduce(x * x))
        if not 0.0 < norm < math.inf:
            return None
        x /= norm
    del d, l  # freed before the proof's counts, which factor again
    tx = diag * x
    tx[1:] += off * x[:-1]
    tx[:-1] += off * x[1:]
    value = float(np.add.reduce(x * tx))
    defect = tx - value * x
    half = WINDOW * max(1.0, abs(value))
    proved = (
        math.sqrt(np.add.reduce(defect * defect)) + margin < half
        and _count_at_or_below(diag, off, value + half) == level + 1
        and (level == 0 or _count_at_or_below(diag, off, value - half) == level)
    )
    return value, x, proved


def _seeded_lowest(diag: np.ndarray, off: np.ndarray, seed, level: int):
    """(value, vector) of eigenvalue ``level``, refined from ``seed``.

    A value that ``_refine`` cannot prove, or no seed (None), is refined
    from this level's unseeded bisection instead.  If that fails its proof
    too, the bisected value is returned (its index proves it) with the
    iterate, or None when inverse iteration gave no finite iterate.
    """
    # 8 eps ||T||_1 bounds the roundoff of a residual and of a Sturm count
    norm = float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off)))
    margin = 8.0 * sys.float_info.epsilon * norm
    refined = None if seed is None else _refine(diag, off, seed, level, margin)
    if refined is None or not refined[2]:
        value = _index_solve(diag, off, level)
        # a bisected value can be an exact eigenvalue of the computed matrix
        # (a diagonal one, say), where a zero pivot overflows the iterate:
        # shift off it
        refined = _refine(diag, off, value + margin, level, margin)
        if refined is None or not refined[2]:
            return value, None if refined is None else refined[1]
    return refined[:2]


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
    seeding chain of the module docstring, 16h -> 4h -> h; with
    ``richardson`` also h -> h/2, and the pair is extrapolated over (h, h/2),
    pushing the discretization error from O(h^2) to O(h^4).  Each grid's
    matrix is built once and each level is solved on it alone, so a level's
    value does not depend on k or first while the same coarse grids resolve
    every requested level at ten nodes per level: on default grids (16h
    grids of 1,250 nodes or more), up to 125 levels.

    The values are not limited by the bisection tolerance ULP * ||T||_1
    (about 4 eps T / h^2): at h = 1e-3 on the reference problem they are
    within 1.5e-11 of a tight-tolerance dstebz solve, where it is 4.4e-10.
    On n = 0, odd-M sweep rows of the benchmark (seeds 1-10) the
    extrapolation is within 7.3e-11 of the closed form (median 8.5e-12).

    Returns a list of eigenvalues, or, when ``eigenvectors`` is set,
    ([eigenvalue], vector in a column) for the one level ``first`` (k = 1):
    the unit iterate, signed so that its largest-magnitude component is
    positive (dstein's convention).  Its angle to the eigenvector is at most
    the residual over the gap to the next level: about 1e-10 on default
    grids, 1e-6 at h = 0.01.  Eigenvectors are not available with
    ``richardson``.
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

    levels = range(first, first + k)
    chain = _coarse_grids(grid, first + k)
    values = [None] * k
    if chain:
        coarsest = _tridiagonal(v_eff, chain.pop(0), phys)  # one bisection per level
        values = [_index_solve(*coarsest, level) for level in levels]
    chain.append(grid)
    if richardson:
        chain.append(grid.halved())
    for link in chain:  # grids in the outer loop: each matrix is built once
        seeds, matrix = values, _tridiagonal(v_eff, link, phys)
        values, vectors = zip(*(_seeded_lowest(*matrix, seed, level)
                                for seed, level in zip(seeds, levels)))
    if eigenvectors:
        vector = vectors[0]
        if vector is None:
            raise np.linalg.LinAlgError("inverse iteration found no finite iterate at any shift")
        if vector[np.argmax(np.abs(vector))] < 0.0:
            vector = -vector
        return [float(values[0])], vector[:, np.newaxis]
    if not richardson:
        return [float(v) for v in values]
    return [float((4.0 * ef - ec) / 3.0) for ec, ef in zip(seeds, values)]


def _coarse_grids(grid: RadialGrid, levels: int) -> list[RadialGrid]:
    """The grids of step COARSEN**2 * h and COARSEN * h, coarsest first, that
    resolve the lowest ``levels`` levels as ``eigen_lowest`` asks of any grid:
    at least 100 nodes and ten per level."""
    coarse = []
    for power in (2, 1):
        try:
            candidate = RadialGrid(r_max=grid.r_max, h=COARSEN**power * grid.h)
        except ValueError:
            continue
        if levels <= candidate.count // 10:
            coarse.append(candidate)
    return coarse


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
