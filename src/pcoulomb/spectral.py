"""The spectral oracle: one level of the radial Hamiltonian in a Laguerre basis.

This is the third independent oracle.  With x = r/s, alpha = 2 Lambda + 1
and p_k the Laguerre polynomials orthonormal for the weight x^alpha e^(-x),
the basis

    u_k(r) = x^(Lambda+1) e^(-x/2) p_k(x),        k = 0 .. N-1,

has the Gram matrix I for the weight 1/r, and every matrix of
-T d^2/dr^2 + Lambda (Lambda + 1) T / r^2 - a/r + b r + c r^2 in it is a
polynomial in the Jacobi matrix J of the p_k (J_kk = 2k + alpha + 1,
J_k,k+1 = sqrt((k + 1)(k + 1 + alpha))).  Divided by s, the eigenproblem is
the pencil H c = E S c with S = J and

    H = (T/s^2)(D - J/4) - (a/s) I + b s J^2 + c s^2 J^3,

D = diag(k + Lambda + 1), T = hbar^2/2m, where J^2 and J^3 are taken from
the Jacobi matrix of N + 3 polynomials and cut to N x N, so b s J^2 and
c s^2 J^3 are the exact matrices of b r and c r^2 (over s) in the basis.
By Hylleraas & Undheim (Z. Phys. 65, 759 (1930)) and MacDonald (Phys. Rev.
43, 830 (1933)) its k-th eigenvalue lies above level k and falls as N grows.

The pencil is reduced through the eigendecomposition J = Q X Q^T (Golub &
Welsch, Math. Comp. 23, 221 (1969)): X holds the Gauss points x_i of the
weight (``eigvalsh``), and Q[k, i] = p_k(x_i) sqrt(w_i) for the Gauss
weights w_i = 1 / sum_k p_k(x_i)^2.  Each column of Q is built by the
three-term recurrence of the p_k at x_i and normalized, so Q[0, i] > 0 and
every entry carries its relative accuracy.  LAPACK's eigenvectors of J carry
only an absolute one: at N = 45 their first row is off by factors up to
10^8 at the largest points, where Q[0, i] is below 1e-26, and with a generic
OpenBLAS kernel it holds exact zeros there.  In y = X^(1/2) Q^T c the
pencil is the symmetric matrix X^(-1/2) Q^T H Q X^(-1/2) (the basis of
Baye's Lagrange mesh, Phys. Rep. 565, 1 (2015)), y^T y = c^T J c is the
squared norm of the state in x, and y_i / sqrt(x_i) = sqrt(w_i) P(x_i) are
the values of P = sum_k c_k p_k at the Gauss points, never expanded in
monomials.  The bands, Q and the four reduced matrices depend on (alpha, N)
alone and are cached read-only.

The scale s minimizes the level at SEARCH_SIZE functions to within
SEARCH_WIDTH (0.5) in log s, by a golden-section search on log s over a
bracket set by the problem's length scales (``model.length_scales``, the
lengths the grid is sized by).  That is all the value needs: over the
benchmark's verify requests, levels 0 and 1 at VALUE_SIZE move by at most
4.1e-13 max(1, |E|) while log s moves 0.75 either side of the minimizer,
and levels 0 to MAX_LEVEL by at most 1.2e-11 max(1, |E|) within the 0.19
of it where the search stops (see SEARCH_WIDTH).  Only levels 0 to
MAX_LEVEL (5) are taken: above it VALUE_SIZE functions no longer hold the
level to 1e-12 (see MAX_LEVEL).  The value and its state are taken at
VALUE_SIZE functions; the evidence, at EVIDENCE_SIZE and the same s, is the
tests': ``test_evidence_on_every_benchmark_verify_request`` and
``test_overlap_holds_across_basis_sizes``.  A scale whose pencil leaves the
float range reads as +inf in the search and is refused as the value's.  No
closed form enters, so the oracle stays independent of the constructions it
checks.  ``verify`` takes its levels 0 and 1 from here, and ``sweep`` its
level n.

The level's value is ``numpy.linalg.eigvalsh`` of the reduced pencil and its
state, on first use, two steps of inverse iteration (``np.linalg.solve``).
They and the products of the reduction go through numpy's bundled OpenBLAS,
so the last bits move with its kernel (by up to 1.8e-15 in the ladder
overlap of ``verify``): callers print what this gives at the digits its
evidence supports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import DimensionSpec, PhysicalParams, PotentialParams, length_scales
from .susy import ClosedFormState

#: basis size of the golden-section search for the scale s
SEARCH_SIZE = 15

#: basis size of the value and its state
VALUE_SIZE = 45

#: basis size of the evidence the tests take, at the value's scale
EVIDENCE_SIZE = 30

#: the search brackets log s from the shortest length over BRACKET_BELOW to
#: the longest length; the scales it finds for the ladder overlaps of the
#: benchmark's verify requests lie within 0.07 to 1.1 shortest lengths
BRACKET_BELOW = 1000.0

#: the search stops once its bracket on log s is narrower than this, and
#: takes the better of its two inner points, so the scale lies within 0.382
#: SEARCH_WIDTH (0.19) of the SEARCH_SIZE minimizer t* where the level is
#: unimodal in log s (at most 0.114 away over the benchmark's verify
#: requests, levels 0 to 6).  Over those requests, at
#: the linear rule's a_n for level n, levels 0 to 4 at VALUE_SIZE stay
#: within 5.0e-13 max(1, |E|) of 90 functions over t* +- 0.19, and level 5
#: (MAX_LEVEL) within 1.2e-11, 1.4e-13 at the scale the search found; over
#: t* +- 0.5, levels 0 to 2 stay within 1.1e-13, level 3 within 2.4e-12,
#: level 4 within 6.8e-11 and level 5 within 9.8e-9.  Levels 0 and 1 stay
#: within 4.1e-13 of VALUE_SIZE + 15 functions over t* +- 0.75 and first
#: degrade at +- 1.0 (by up to 8.4e-9 at level 1)
SEARCH_WIDTH = 0.5

#: the highest level the oracle takes.  Over the surface points (a, c) of
#: the benchmark's strata and the reference (1, 0.5), at M 2..11 and the
#: linear rule's a_n, levels 0 to 5 at VALUE_SIZE are within 3.0e-13
#: max(1, |E|) of 90 functions at the same scale; level 6 is 4.3e-12 off,
#: level 7 1.6e-11, level 8 2.7e-9 and level 9 1.4e-7
MAX_LEVEL = 5

#: steps of inverse iteration that give the level's vector, from a ones
#: vector, at the level's eigenvalue plus INVERSE_SHIFT ||H||_1 (so that the
#: shifted matrix is never exactly singular).  LAPACK's ``eigh`` at N = 45
#: is divide and conquer, whose threaded BLAS calls took 3 to 20 ms a call
#: on a shared 2-vCPU host, against 0.05 ms for a solve and 0.15 ms for
#: ``eigvalsh``
INVERSE_STEPS = 2
INVERSE_SHIFT = 64.0 * math.ulp(1.0)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SpectralLevel:
    """One level of the pencil at scale ``scale`` with ``size`` functions.

    ``nodes`` are the Gauss points x_i and ``lead`` the first row Q[0, i] of
    the eigenvectors of J, so sqrt(w_i) = lead_i sqrt(Gamma(alpha + 1));
    ``values`` are sqrt(w_i) P(x_i) of the level's state, of unit norm in x,
    taken from the reduced ``pencil`` on first use.  All four are read-only.
    """

    level: int
    scale: float
    size: int
    energy: float
    alpha: float
    nodes: np.ndarray
    lead: np.ndarray
    pencil: np.ndarray

    @functools.cached_property
    def values(self) -> np.ndarray:
        shift = self.energy + INVERSE_SHIFT * np.abs(self.pencil).sum(axis=0).max()
        shifted = self.pencil - shift * np.eye(self.size)
        vector = np.ones(self.size)
        for _ in range(INVERSE_STEPS):
            vector = np.linalg.solve(shifted, vector)
            vector /= np.sqrt(np.add.reduce(vector * vector))
        values = vector / np.sqrt(self.nodes)
        values.setflags(write=False)
        return values

    def overlap(self, state: ClosedFormState) -> float:
        """<state, u> / (||state|| ||u||) for the level's state u, by the
        Gauss rule of the basis; its sign is that of ``values``.

        With state = P(r) r^q e^(-lam r - kap r^2) written in x = r/s as
        f(x) = P(s x) x^q e^(-lam s x - kap s^2 x^2) (s^q cancels), the
        overlap is sum_i w_i P_u(x_i) f(x_i) x_i^(-Lambda) e^(x_i/2) / ||f||,
        exact where f x^(-Lambda) e^(x/2) is a polynomial of degree below
        2N - alpha.  f = 2^-top s^-q state(s x) is ``state.rescaled(s)``, so
        log ||f|| = ``state.log_norm()`` - top ln 2 - (q + 1/2) ln s, and it,
        sqrt(Gamma(alpha + 1)) (``math.lgamma``) and every power and
        exponential enter as one exponent of one ``exp`` per point: no factor
        leaves the float range at large M or at extreme lengths.
        """
        s, x = self.scale, self.nodes
        f, top = state.rescaled(s)
        log_norm = state.log_norm() - top * math.log(2.0) - (f.q + 0.5) * math.log(s)
        exponent = (0.5 * math.lgamma(self.alpha + 1.0) - log_norm
                    + (f.q - (self.alpha - 1.0) / 2.0) * np.log(x)
                    + (0.5 - f.lam) * x - f.kap * x * x)
        polynomial = np.polynomial.polynomial.polyval(x, f.poly)
        return math.fsum(self.lead * self.values * polynomial * np.exp(exponent))


@functools.lru_cache(maxsize=64)
def _reduced(alpha: float, size: int) -> tuple[np.ndarray, ...]:
    """(x, lead, kinetic, linear, quadratic) for (alpha, N = size): the Gauss
    points, Q[0, :], and X^(-1/2) Q^T M Q X^(-1/2) for M = D - J/4, J^2 and
    J^3.  The Coulomb term's reduced matrix is diag(1 / x).  Read-only.

    Column i of Q is p_k(x_i) / p_0 for k < N by the recurrence
    x p_k = J_(k,k-1) p_(k-1) + J_kk p_k + J_(k,k+1) p_(k+1), scaled to
    unit norm."""
    n = size + 3
    k = np.arange(n, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt((k[:-1] + 1.0) * (k[:-1] + 1.0 + alpha))
    jacobi = _times_jacobi(diag, off, np.eye(n))
    square = _times_jacobi(diag, off, jacobi)
    cube = _times_jacobi(diag, off, square)
    jacobi, square, cube = (m[:size, :size] for m in (jacobi, square, cube))
    x = np.linalg.eigvalsh(jacobi)
    q = np.empty((size, size))
    q[0] = 1.0
    q[1] = (x - diag[0]) / off[0]
    for j in range(1, size - 1):
        q[j + 1] = ((x - diag[j]) * q[j] - off[j - 1] * q[j - 1]) / off[j]
    q /= np.sqrt(np.add.reduce(q * q))
    kinetic = -0.25 * jacobi
    kinetic[np.diag_indices(size)] += k[:size] + (alpha + 1.0) / 2.0
    root = 1.0 / np.sqrt(x)
    out = [x, q[0].copy()]
    for m in (kinetic, square, cube):
        reduced = q.T @ m @ q
        reduced *= root[:, None]
        reduced *= root[None, :]
        out.append(reduced)
    for a in out:
        a.setflags(write=False)
    return tuple(out)


def _times_jacobi(diag: np.ndarray, off: np.ndarray, a: np.ndarray) -> np.ndarray:
    """J a for the tridiagonal J of ``diag`` and ``off``, row by row."""
    out = diag[:, None] * a
    out[1:] += off[:, None] * a[:-1]
    out[:-1] += off[:, None] * a[1:]
    return out


def _pencil(pot: PotentialParams, phys: PhysicalParams, alpha: float, size: int, s: float):
    """The reduced pencil at scale ``s``, with the Gauss points and Q[0, :];
    None for the pencil where an entry is not finite, or where a term's
    coefficient is (it left the float range, or underflowed to 0 from a
    nonzero coupling; T is divided by s twice, as s^2 can leave the float
    range where T / s / s does not).  Call it under ``np.errstate(over="ignore",
    invalid="ignore")``: the entries may overflow."""
    x, lead, kinetic, linear, quadratic = _reduced(alpha, size)
    couplings = (phys.kinetic, pot.a, pot.b, pot.c)
    coefficients = (phys.kinetic / s / s, pot.a / s, pot.b * s, pot.c * s * s)
    if not all(math.isfinite(f) and (f != 0.0 or g == 0.0)
               for g, f in zip(couplings, coefficients)):
        return None, x, lead
    t, a, b, c = coefficients
    m = t * kinetic
    m.flat[::size + 1] -= a / x
    m += b * linear
    m += c * quadratic
    return (m if np.isfinite(m).all() else None), x, lead


def _scale(pot, phys, alpha: float, level: int, lengths) -> float:
    """The s that minimizes level ``level`` at SEARCH_SIZE functions, by a
    golden-section search on log s over [min(lengths) / BRACKET_BELOW,
    max(lengths)]; a scale whose pencil is not finite reads as +inf."""
    def value(t):
        m, _, _ = _pencil(pot, phys, alpha, SEARCH_SIZE, math.exp(t))
        return math.inf if m is None else np.linalg.eigvalsh(m)[level]

    lo, hi = math.log(min(lengths) / BRACKET_BELOW), math.log(max(lengths))
    t1, t2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    with np.errstate(over="ignore", invalid="ignore"):
        f1, f2 = value(t1), value(t2)
        while hi - lo > SEARCH_WIDTH:
            if f1 <= f2:
                hi, t2, f2 = t2, t1, f1
                t1 = hi - _GOLDEN * (hi - lo)
                f1 = value(t1)
            else:
                lo, t1, f1 = t1, t2, f2
                t2 = lo + _GOLDEN * (hi - lo)
                f2 = value(t2)
    return math.exp(t1 if f1 <= f2 else t2)


def _level(pot, phys, alpha: float, level: int, scale: float, size: int) -> SpectralLevel:
    """Level ``level`` at ``scale`` and ``size`` functions."""
    with np.errstate(over="ignore", invalid="ignore"):
        m, x, lead = _pencil(pot, phys, alpha, size, scale)
    if m is None:
        raise ValueError(f"the spectral Hamiltonian at scale {scale:.3g} is not finite")
    m.setflags(write=False)
    return SpectralLevel(level=level, scale=scale, size=size,
                         energy=float(np.linalg.eigvalsh(m)[level]),
                         alpha=alpha, nodes=x, lead=lead, pencil=m)


def spectral_lowest(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams, level: int = 0,
) -> SpectralLevel:
    """Level ``level`` (0-based, at most MAX_LEVEL) and its state, at
    VALUE_SIZE functions and the scale that minimizes the level at
    SEARCH_SIZE.  Its evidence, the same level at EVIDENCE_SIZE functions
    and that scale (``_level``), is taken by the tests, not here."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"spectral level must be in 0..{MAX_LEVEL}, got {level}")
    lengths = length_scales(pot, dim, phys)
    if not lengths:
        raise ValueError("the spectral basis needs an attractive or confining"
                         " coupling (a, b, or c > 0)")
    for name, length in lengths.items():
        if not 0.0 < length < math.inf:
            raise ValueError(f"the spectral basis needs lengths in the float range;"
                             f" the {name} is {length:.3g}")
    alpha = 2.0 * dim.lam + 1.0
    scale = _scale(pot, phys, alpha, level, lengths.values())
    return _level(pot, phys, alpha, level, scale, VALUE_SIZE)
