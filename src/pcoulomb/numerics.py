"""Grid representation and the finite-difference radial eigensolver.

This is the oracle of ``eig``, ``sweep`` and the tests (``verify`` takes
its energies from ``spectral``): the three-point discretization of

    -T f'' + V(r) f = E f,     T = hbar^2 / 2m,

on a uniform grid r_i = i h, i = 1..count, with Dirichlet zeros at r = 0 and
r = r_max + h.  The scheme is O(h^2); Richardson extrapolation over (h, h/2)
is available where O(h^4) is wanted.  ``sturm_count`` exposes the raw
eigenvalue-counting recurrence so the solver can be cross-checked
independently.

Every grid solve is of one level n and runs one seeding chain of grids,
coarsest first: 64h -> 16h -> 4h -> h, extended to h/2 for a Richardson
pair (steps COARSEN**k * h, k = 3, 2, 1).  The chain takes the coarse grids
that resolve level n: at least 100 nodes and ten per level up to n
(``RadialGrid.levels``), and the 64h grid only for the lowest
COARSEST_LEVELS levels; so a level's grids, and its value, depend on no
other level.  Several levels are several solves, each sampling the
potential and allocating its work arrays anew.  On the coarsest grid of
the chain, a 64th of the nodes on default grids, the level is bisected
(Sturm sequence).  Its value is the shift of three steps of inverse
iteration from a ones vector on the next finer grid, all solved with one
unpivoted LDL^T factorization of the shifted matrix, and the Rayleigh
quotient E of the unit iterate x is that grid's value (Parlett, The
Symmetric Eigenvalue Problem, ch. 4-5).  Every later grid starts from the
iterate of the grid before it, linearly interpolated (``_interpolate``),
which lies within O(h^2) of its eigenvector, and takes one step.  Its
shift is the value that the O(h^2) trend of the two values before
predicts, E_c + m with m = (E_c - E_cc)(1 - 1/q^2)/(q'^2 - 1) for step
ratios q' and q, plus the larger of |m| and twice the proof's margin: a
shift above the level, so that at level 0 the factorization at the shift
is the whole proof.  The residual
||T x - E x|| puts an eigenvalue within it of E, and two Sturm counts that
bracket that interval prove that it is this level (Barth, Martin &
Wilkinson, Numer. Math. 9, 386 (1967)); the factorization at the shift is
one of them when the shift lies beyond the interval with the right count,
and otherwise the edges of a window around E are counted; see ``_refine``.
A value that fails the proof, or a level on an h grid with no coarser grid
to seed it, is refined from the level's own bisection on its grid
instead, by two steps from a ones vector, so a bad seed costs time, never
correctness; the grid after it starts from that iterate, shifted to its
value.  An eigenvector is the iterate itself.  Seeds come from the coarser
grids only, never from a closed form, so this oracle stays independent of
the constructions it checks.

Every grid of the chain is every s-th node of its finest grid, s a power
of two: for an h grid of count nodes, the grid of step s h has count // s
nodes, and the h/2 grid has 2 count + 1, so the Richardson pair shares its
far zero (count + 1) h.  The potential is sampled once, at the finest
grid's nodes, and each coarser diagonal is a strided view of the samples,
bit for bit the grid's own (the finest grid's is written over them).  The
factors, iterates and T x of every refinement share work arrays allocated
once per ``eigen_lowest`` call, sized for its finest grid, with the
COARSEN - 1 entries more that an interpolation from its 4h grid writes,
and freed when it returns; they are written by in-place ufuncs in the
order of the plain expressions, so the bits do not depend on them.

LAPACK comes from scipy's extension module ``scipy/linalg/_flapack``, which
``_lapack`` loads on its own (see there): the solver calls only ``dstebz``
(the index bisection), ``dpttrf`` (the LDL^T factorization whose pivots are
a Sturm count) and ``dpttrs`` (the shifted solves with its factors), so no
command imports the ``scipy.linalg`` package; one imported later binds
``_flapack``.

The solver and ``hamiltonian_apply`` (so ``h_residual``) share one
three-point matrix, ``_matrix``, and one product, ``_product``.  No command
calls ``h_residual``: ``oracle --check`` takes its residuals from exact
moments, and the tests use it as the grid cross-check of the oracle
states.  Quadrature is the trapezoid rule with the boundary zeros, h times
the samples' pairwise ``np.add.reduce`` sum, as is every sum here.  A grid
computes its nodes once and keeps them read-only.

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

#: step ratio between neighbouring grids of the seeding chain 64h -> 16h ->
#: 4h -> h
COARSEN = 4

#: the levels 0 .. COARSEST_LEVELS - 1 are seeded from the 64h grid; higher
#: levels move too far from 64h to 16h for their windows and are bisected on
#: 16h instead (seeded from 64h, most would be bisected on both grids)
COARSEST_LEVELS = 11

#: inverse-iteration steps of the first grid refined from a bisected value,
#: from a ones vector, whose shift is farther from the level than a refined
#: one (two steps left some windows unproved on coarse grids); every later
#: grid takes one from the interpolated iterate of the grid before
BISECTED_STEPS = 3

#: half-width, relative to max(1, |E|), of the window centred on each refined
#: eigenvalue that must hold its residual (near 1e-9 on default grids)
WINDOW = 1e-5


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
    """H f: the eigensolver's own matrix times f, bit for bit, with
    Dirichlet zeros at both ends; V comes as ``v_eff`` gives it."""
    with np.errstate(over="ignore", invalid="ignore"):  # _matrix refuses an inf or nan
        diag, off = _matrix(v_eff(f.grid.nodes), f.grid.h, phys)
    values = _product(diag, off, f.values, np.empty_like(f.values), diag)
    return GridFunction(grid=f.grid, values=values)


def _matrix(samples: np.ndarray, h: float, phys: PhysicalParams, out: np.ndarray | None = None):
    """(diag, off) of the three-point Hamiltonian of step h and potential
    ``samples``: V + 2T/h^2 written into ``out`` (default: over ``samples``)
    and the one off-diagonal value -T/h^2.  ValueError if one is not finite,
    or if off^2 is not: the Sturm counts of ``_factor`` and ``dstebz``
    square it."""
    t = phys.kinetic
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.add(samples, 2.0 * t / h**2, out=samples if out is None else out)
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


def _chain_matrices(samples: np.ndarray, links: list[RadialGrid], phys: PhysicalParams):
    """Yields ``_matrix`` of each grid of ``links`` in turn from a strided
    view of ``samples``, the potential at the last grid's nodes (each grid
    is every s-th node of it).  The coarser grids' diagonals share one
    array; the last grid's is written over its own samples."""
    coarse = np.empty(max((link.count for link in links[:-1]), default=0))
    for link in links:
        stride = round(link.h / links[-1].h)
        target = samples if link is links[-1] else coarse
        yield _matrix(samples[stride - 1:stride * link.count:stride], link.h, phys,
                      target[:link.count])


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


def _index_solve(diag: np.ndarray, off: float, level: int) -> float:
    """Eigenvalue ``level`` (0-based) by the unseeded index bisection of the
    matrix whose n - 1 off-diagonal entries are all ``off``."""
    # range=2 is RANGE='I' with 1-based indices, tolerance 0 is stebz's default
    _, w, _, _, info = _lapack().dstebz(
        diag, np.broadcast_to(off, len(diag) - 1), 2, 0.0, 0.0, level + 1, level + 1, 0.0, "E")
    _check(info, "dstebz")
    return w[0]


def _margin(diag: np.ndarray, off: float) -> float:
    """8 eps ||T||_1: it bounds the roundoff of a residual and of a Sturm count."""
    norm = max(float(np.max(diag)), -float(np.min(diag))) + 2.0 * abs(off)
    return 8.0 * sys.float_info.epsilon * norm


def _factor(diag: np.ndarray, off: float, shift: float, work: np.ndarray):
    """(d, l, count): T - shift I = L D L^T with D = diag(d) and L unit lower
    bidiagonal with subdiagonal l, and ``count`` the nonpositive pivots d_i,
    which is the Sturm count N(shift) of eigenvalues at or below ``shift``.
    Every off-diagonal entry b_i of T is ``off``.  d and l are written into
    the first two rows of ``work`` (rows of at least n entries).

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
    n = len(diag)
    d, l = np.subtract(diag, shift, out=work[0, :n]), work[1, :n - 1]
    l.fill(off)
    pivmin = sys.float_info.min * max(1.0, abs(off)) ** 2
    count, start = 0, 0
    while start < n - 1:
        # overwrite_d and overwrite_e: the slices are factored in place
        info = lapack.dpttrf(d[start:], l[start:], overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            return d, l, count
        count += 1
        row = start + info  # the row after the nonpositive pivot
        d[row - 1] = min(d[row - 1], -pivmin)
        if row == n:
            return d, l, count
        b = l[row - 1]  # dpttrf stopped before dividing it
        l[row - 1] = b / d[row - 1]
        d[row] -= l[row - 1] * b
        start = row
    # a one-row tail: the wrapper rejects an off-diagonal of size 0
    if d[start] <= 0.0:
        count += 1
        d[start] = min(d[start], -pivmin)
    return d, l, count


def _refine(diag: np.ndarray, off: float, shift: float, level: int, margin: float,
            work: np.ndarray, steps: int = 2, start: bool = False):
    """(value, vector, proved): ``steps`` steps of inverse iteration shifted
    to ``shift``, each a ``dpttrs`` solve with the one factorization
    ``_factor`` gives, then the Rayleigh quotient E of the unit iterate x;
    None when x is not finite or its norm overflows (a shift on an
    eigenvalue of a diagonal matrix meets a zero pivot).  The iteration
    starts from row x of ``work`` as it stands with ``start`` (a coarser
    grid's iterate, ``_interpolate``), else from a ones vector.

    Everything is written into ``work``, rows d, l, x and T x of at least n
    entries, by in-place ufuncs in the order of the plain expressions, so
    the bits are theirs; the vector is the row x, which the next call
    overwrites.

    ``proved`` is whether the window E -+ half, half = WINDOW * max(1, |E|),
    holds eigenvalue ``level``.  The residual ||T x - E x|| puts an
    eigenvalue within bound = residual + ``margin`` (its roundoff and a
    Sturm count's) of E, so a window wider than bound holds one; when
    exactly level + 1 eigenvalues lie at or below a top edge at or above
    E + bound and, for level > 0, exactly ``level`` at or below a bottom
    edge below E - bound, that one is eigenvalue ``level`` (Barth, Martin &
    Wilkinson).  The edges are those of the window, except that the
    factorization at the shift has counted N(shift) already: a shift at or
    above E + bound with N(shift) = level + 1 is the top edge (level 0 then
    needs no other count), and one below E - bound with N(shift) = level the
    bottom edge.  Sums are ``np.add.reduce`` (pairwise, in a fixed order),
    not BLAS ``dot``, so the bits do not depend on the CPU's dispatch level.
    """
    n = len(diag)
    x, tx = work[2, :n], work[3, :n]
    if not start:
        x.fill(1.0)
    d, l, count = _factor(diag, off, shift, work)
    for _ in range(steps):
        x, info = _lapack().dpttrs(d, l, x, overwrite_b=1)
        _check(info, "dpttrs")
        with np.errstate(over="ignore", invalid="ignore"):
            norm = math.sqrt(np.add.reduce(np.multiply(x, x, out=tx)))
        if not 0.0 < norm < math.inf:
            return None
        x /= norm
    # T x, then the defect T x - E x, with the spent factors' row d as scratch
    _product(diag, off, x, tx, d)
    value = float(np.add.reduce(np.multiply(x, tx, out=d)))
    defect = np.subtract(tx, np.multiply(value, x, out=d), out=d)
    bound = math.sqrt(np.add.reduce(np.multiply(defect, defect, out=d))) + margin
    half = WINDOW * max(1.0, abs(value))
    top = shift >= value + bound and count == level + 1
    bottom = shift < value - bound and count == level
    proved = (
        bound < half
        and (top or _factor(diag, off, value + half, work)[2] == level + 1)
        and (level == 0 or bottom or _factor(diag, off, value - half, work)[2] == level)
    )
    return value, x, proved


def _seeded_lowest(diag: np.ndarray, off: float, seed, level: int, margin: float,
                   work: np.ndarray, steps: int = 2, start: bool = False):
    """(value, vector) of eigenvalue ``level``, refined from ``seed`` by
    ``steps`` steps of inverse iteration, from row x of ``work`` with
    ``start`` (see ``_refine``).

    A value that ``_refine`` cannot prove, or no seed (None), is refined
    from this level's unseeded bisection instead, by two steps from a ones
    vector.  If that fails its proof too, the bisected value is returned
    (its index proves it) with the iterate, or None when inverse iteration
    gave no finite iterate.  ``margin`` is ``_margin(diag, off)`` and
    ``work`` the rows ``_refine`` writes into.  The vector is a row of
    ``work``.
    """
    refined = None if seed is None else _refine(diag, off, seed, level, margin, work, steps,
                                                start)
    if refined is None or not refined[2]:
        value = _index_solve(diag, off, level)
        # a bisected value can be an exact eigenvalue of the computed matrix
        # (a diagonal one, say), where a zero pivot overflows the iterate:
        # shift off it
        refined = _refine(diag, off, value + margin, level, margin, work)
        if refined is None or not refined[2]:
            return value, None if refined is None else refined[1]
    return refined[:2]


def _interpolate(work: np.ndarray, count: int, stride: int) -> None:
    """Row x of ``work``, whose first ``count`` entries are a grid's
    iterate, becomes that iterate linearly interpolated onto the grid of
    1/``stride`` its step (2 or COARSEN), with the zeros at both ends.

    Each halving of the step writes 2 m + 1 entries from m: entry 2i + 1
    is x_i, and every other entry the mean of its two neighbours, a zero
    beyond each end.  The halvings alternate between rows x and T x and end
    in row x, so stride 2 writes 2 count + 1 entries and stride 4 writes
    4 count + 3, up to COARSEN - 1 beyond a finer grid of stride * count
    nodes."""
    rows = [work[2], work[3]]
    halvings = stride.bit_length() - 1
    if halvings % 2:  # start from row T x, so that the last halving writes row x
        np.copyto(rows[1][:count], rows[0][:count])
        rows.reverse()
    for _ in range(halvings):
        x, y = rows[0][:count], rows[1][:2 * count + 1]
        np.copyto(y[1::2], x)
        np.add(x[:-1], x[1:], out=y[2:-1:2])
        y[0], y[-1] = x[0], x[-1]
        np.multiply(y[::2], 0.5, out=y[::2])
        rows.reverse()
        count = len(y)


def eigen_lowest(
    v_eff: LaurentForm,
    grid: RadialGrid,
    phys: PhysicalParams,
    level: int = 0,
    eigenvectors: bool = False,
    richardson: bool = False,
) -> float | tuple[float, np.ndarray]:
    """Eigenvalue ``level`` (0-based) of the discretized problem.

    Every call solves one level along its own seeding chain of the module
    docstring, the coarse grids ``_coarse_grids`` gives for it, then h; with
    ``richardson`` also h -> h/2, and the pair is extrapolated over (h, h/2),
    pushing the discretization error from O(h^2) to O(h^4).  The grid after
    the coarsest takes BISECTED_STEPS steps of inverse iteration from a
    ones vector, shifted to the bisected value; every grid after it one
    step from the interpolated iterate of the grid before, shifted above
    the level along the trend of the two values before.  A default chain
    64h -> 16h -> 4h -> h -> h/2 thus solves with dpttrs 3 + 1 + 1 + 1
    times.  The potential is sampled once, at the finest grid's own nodes,
    and each grid's diagonal is a strided view of it (``_chain_matrices``).
    The factors, iterates and T x live in work arrays allocated once per
    call, sized for its finest grid and freed with it; a returned vector is
    a copy.  Several levels (``eig --k``) are one call each, each sampling
    the potential anew: about 0.2 ms per level on a default grid.

    The values are not limited by the bisection tolerance ULP * ||T||_1
    (about 4 eps T / h^2): at h = 1e-3 on the reference problem they are
    within 1.3e-11 of a tight-tolerance dstebz solve, where it is 4.4e-10.
    On n = 0, odd-M sweep rows of the benchmark (seeds 1-10) the
    extrapolation is within 6.1e-11 of the closed form (median 9.7e-12).

    Returns the eigenvalue, or, when ``eigenvectors`` is set, (eigenvalue,
    vector): the unit iterate, signed so that its largest-magnitude
    component is positive (dstein's convention).  Its angle to the
    eigenvector is at most the residual over the gap to the next level:
    about 1e-10 on default grids of the reference problem, 2e-8 (level 0)
    to 7e-7 (level 1) at h = 0.01.  Eigenvectors are not available with
    ``richardson``.
    """
    if not 0 <= level < grid.levels:
        raise ValueError(f"level {level} out of range for {grid.count} nodes")
    if richardson and eigenvectors:
        raise ValueError("eigenvectors are not defined for extrapolated values")

    coarse = _coarse_grids(grid, level + 1)
    links = [*coarse, grid, *([grid.halved()] if richardson else [])]
    with np.errstate(over="ignore", invalid="ignore"):  # _matrix refuses an inf or nan
        samples = v_eff(links[-1].nodes)
    # rows d, l, x and T x of _refine, as long as the last grid's, which has
    # the most nodes, and COARSEN - 1 more for _interpolate; made after the
    # sampling has freed its temporaries, and the samples are freed with
    # the generator
    work = np.empty((4, links[-1].count + COARSEN - 1))
    matrices = _chain_matrices(samples, links, phys)
    del samples
    values, vector = [], None
    for link, (diag, off) in enumerate(matrices):
        if link == 0 < len(coarse):  # the coarsest grid of the chain
            values.append(_index_solve(diag, off, level))
            continue
        shift = values[-1] if values else None
        steps, margin = 2, _margin(diag, off)
        if link == 1 <= len(coarse):
            steps = BISECTED_STEPS
        elif vector is not None:
            # the coarser grid's iterate is within O(h^2) of this grid's
            # eigenvector: one step from it.  With two values before, the
            # shift is the value their O(h^2) trend predicts plus the larger
            # of its move and twice the margin: above the level, so that
            # the factorization at the shift counts the top edge
            q = round(links[link - 1].h / links[link].h)
            _interpolate(work, len(vector), q)
            if len(values) > 1:
                q_prev = round(links[link - 2].h / links[link - 1].h)
                e_cc, e_c = values[-2:]
                move = (e_c - e_cc) * (1.0 - 1.0 / q**2) / (q_prev**2 - 1.0)
                shift = e_c + move + max(abs(move), 2.0 * margin)
            steps = 1
        value, vector = _seeded_lowest(diag, off, shift, level, margin, work, steps, steps == 1)
        values.append(value)
    if richardson:
        return float((4.0 * values[-1] - values[-2]) / 3.0)
    if not eigenvectors:
        return float(value)
    if vector is None:
        raise np.linalg.LinAlgError("inverse iteration found no finite iterate at any shift")
    # the iterate is a row of the work array: a new array either way, and
    # the spent factor row d holds |x|
    largest = np.argmax(np.abs(vector, out=work[0, :len(vector)]))
    return float(value), -vector if vector[largest] < 0.0 else vector.copy()


def _coarse_grids(grid: RadialGrid, levels: int) -> list[RadialGrid]:
    """The grids of step s h, s = COARSEN**3, COARSEN**2 and COARSEN,
    coarsest first, that resolve the lowest ``levels`` levels as
    ``eigen_lowest`` asks of any grid: at least 100 nodes, and
    ``RadialGrid.levels`` of at least ``levels``.  Each is every s-th node
    of ``grid``: ``grid.count // s`` nodes.  The grid of step COARSEN**3 * h
    is offered only up to COARSEST_LEVELS levels.  A coarser grid drops out
    first, so the grids for more levels are a tail of those for fewer."""
    coarse = []
    for power in (3, 2, 1) if levels <= COARSEST_LEVELS else (2, 1):
        stride = COARSEN**power
        try:
            candidate = RadialGrid(r_max=grid.count // stride * stride * grid.h, h=stride * grid.h)
        except ValueError:
            continue
        if levels <= candidate.levels:
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
    Its norms are sums of squares as in ``norm``; an overflow is an inf.
    """
    hf = hamiltonian_apply(v_eff, f, phys)
    defect = np.multiply(f.values, energy)
    np.subtract(hf.values, defect, out=defect)
    sl = slice(RESIDUAL_TRIM, -RESIDUAL_TRIM)
    with np.errstate(over="ignore"):
        num = math.sqrt(np.add.reduce(np.multiply(defect, defect, out=defect)[sl]))
        den = math.sqrt(np.add.reduce(np.multiply(f.values, f.values, out=defect)[sl]))
    if den == 0.0:
        raise ValueError("state vanishes on the interior nodes")
    return num / den


def overlap(f: GridFunction, g: GridFunction) -> float:
    """Normalized inner product h sum f_i g_i of two functions on one grid."""
    if f.grid != g.grid:
        raise ValueError("overlap requires both functions on the same grid")
    inner = f.grid.h * float(np.add.reduce(np.multiply(f.values, g.values)))
    return inner / (f.norm() * g.norm())
