"""Polynomial-ansatz oracle for the constrained radial problem.

Substituting u(r) = P(r) r^(Lambda+1) exp(-lam r - kap r^2) with
P = sum_{k=0..n} p_k r^k into

    -T u'' + [-A/r + Lambda(Lambda+1) T / r^2 + b r + c r^2] u = E u,
    T = hbar^2 / 2m,

and fixing the exponent rates so the r^2 and r^1 function-level terms cancel,

    kap = sqrt(2 m c) / (2 hbar),      lam = sqrt(m/2) b / (hbar sqrt(c)),

forces the level energy from the top power,

    E = -b^2/(4c) + (hbar sqrt(c)/sqrt(2m)) (2(n + Lambda) + 3),

and leaves one linear condition per remaining power r^j, j = -1 .. n-1:

    T [(j+2)(j+1) + 2(Lambda+1)(j+2)] p_{j+2}
        + [A - a0 - 2 T lam (j+1)] p_{j+1}
        + 4 T kap (n - j) p_j  =  0,          a0 = 2 T lam (Lambda + 1),

with p_k = 0 outside 0..n.  Rows j = n-1 .. 0 determine p_{n-1} .. p_0 by
back-substitution from the monic normalization p_n = 1 (each p_k is a
polynomial of degree n-k in A); the leftover row j = -1 is the scalar
constraint

    D(A) = 2 T (Lambda+1) p_1(A) + (A - a0) p_0(A) = 0,

a real polynomial of degree n+1 whose roots are the admissible Coulomb
strengths for an exact level-n state.  For n = 0 the single condition is
A = a0, reproducing the ground-level coupling relation exactly.

The n+1 rows read together are a tridiagonal eigenproblem M p = A p, and
every product of opposite off-diagonals is positive, so M is similar to a
symmetric Jacobi matrix (the Bender-Dunne view of QES constraint polynomials
as orthogonal polynomials).  ``qes_solve`` takes the roots of D and the
coefficients p_k as its eigenpairs (Golub-Welsch) with numpy's symmetric
eigensolver, and ``qes_constraint_polynomial`` builds D from the same
eigenvalues: each back-substitution step divides by step[j] = 4 T kap (n-j)
and multiplies by -A, so D has the leading coefficient
(-1)^n / prod_{j=0..n-1} step[j], and up to that sign

    D(A) = prod_k (A - root_k) / prod_{j=0..n-1} step[j].

The roots are real and simple and accurate to ``ROOT_RTOL`` of
the level's largest |root|.  The p_k keep their accuracy where
back-substitution at a rounded root does not: at b = 5, c = 0.05, M = 11,
n = 8 that loses every digit of p_0.  A root near A = 0 carries the level's
absolute error too, so its own relative error can exceed ``ROOT_RTOL``
(2.9e-13 for the root -3.4e-4 at b = 0.3935, c = 0.229, M = 3, n = 1).  The
node count of a state is the rank of its root; see ``qes_solve``.

Everything here is independent of the closed-form construction: no
superpotential enters, only the ansatz reduction.  Root lists are returned in
ascending order and the whole pipeline is deterministic.  Nothing here needs
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import DimensionSpec, PhysicalParams
from .tolerances import ROOT_RTOL  # the stated root accuracy, see above

#: maximum supported polynomial degree of the ansatz
MAX_LEVEL = 8


@dataclass(frozen=True)
class RecursionSystem:
    """Banded linear system in (p_k) parameterized by the Coulomb strength A.

    Row j (j = -1 .. n-1) reads
        curvature[j] * p_{j+2} + (A + shift[j]) * p_{j+1} + step[j] * p_j = 0
    with curvature[j] = T[(j+2)(j+1) + 2(Lambda+1)(j+2)],
    shift[j] = -a0 - 2 T lam (j+1) and step[j] = 4 T kap (n-j).
    """

    n: int
    lam_exp: float
    kap_exp: float
    kinetic: float
    a0: float
    curvature: tuple[float, ...]
    shift: tuple[float, ...]
    step: tuple[float, ...]

    def row(self, j: int) -> tuple[float, float, float]:
        """Coefficients (of p_{j+2}, constant part on p_{j+1}, of p_j) for row j."""
        i = j + 1
        return self.curvature[i], self.shift[i], self.step[i]


@dataclass(frozen=True)
class OracleSolution:
    """One admissible Coulomb strength with its exact level-n state."""

    n: int
    a_root: float
    poly: tuple[float, ...]
    energy: float
    node_count: int


def _exponent_rates(
    b: float, c: float, phys: PhysicalParams
) -> tuple[float, float]:
    kap = math.sqrt(2.0 * phys.mass * c) / (2.0 * phys.hbar)
    lam = math.sqrt(phys.mass / 2.0) * b / (phys.hbar * math.sqrt(c))
    return lam, kap


def level_energy(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> float:
    """Energy forced by the top power of the reduced equation."""
    scale = phys.hbar * math.sqrt(c) / math.sqrt(2.0 * phys.mass)
    return -b**2 / (4.0 * c) + scale * (2.0 * (n + dim.lam) + 3.0)


def oracle_reduce(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> RecursionSystem:
    """Reduce the radial equation to the banded system described above."""
    if c <= 0:
        raise ValueError("oracle requires a confining quadratic term (c > 0)")
    if b < 0:
        raise ValueError(f"linear coupling must be >= 0, got {b}")
    if n < 0 or n > MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {n}")
    t = phys.kinetic
    lam, kap = _exponent_rates(b, c, phys)
    a0 = 2.0 * t * lam * (dim.lam + 1.0)
    curvature = []
    shift = []
    step = []
    for j in range(-1, n):
        curvature.append(t * ((j + 2) * (j + 1) + 2.0 * (dim.lam + 1.0) * (j + 2)))
        shift.append(-a0 - 2.0 * t * lam * (j + 1))
        step.append(4.0 * t * kap * (n - j))
    return RecursionSystem(
        n=n,
        lam_exp=lam,
        kap_exp=kap,
        kinetic=t,
        a0=a0,
        curvature=tuple(curvature),
        shift=tuple(shift),
        step=tuple(step),
    )


def qes_constraint_polynomial(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> np.ndarray:
    """Constraint polynomial D(A), ascending coefficients, degree n+1.

    D = prod_k (A - root_k) / prod_{j=0..n-1} step[j], with the roots the
    Jacobi eigenvalues ``qes_solve`` takes: the back-substituted D of the
    module docstring with its sign (-1)^n dropped, so the leading
    coefficient is positive.  A D that is not finite (the product of steps
    underflows at tiny couplings) is a ValueError, not a RuntimeWarning.
    """
    system = oracle_reduce(b, c, dim, phys, n)
    roots, _ = _eigenpairs(system)
    with np.errstate(all="ignore"):
        coefficients = npoly.polyfromroots(roots) / math.prod(system.step[1:])
    if not np.all(np.isfinite(coefficients)):
        raise ValueError(
            f"level n = {n}: a coefficient of the constraint polynomial D"
            " is not finite in double precision")
    return coefficients


def _eigenpairs(system: RecursionSystem) -> tuple[np.ndarray, np.ndarray]:
    """Roots of D, ascending, and the monic coefficient columns p_0 .. p_n.

    Row i = j+1 of the recursion reads
        A p_i = -shift[i] p_i - curvature[i] p_{i+1} - step[i] p_{i-1},
    so the admissible A are the eigenvalues of the tridiagonal matrix M with
    diagonal -shift and off-diagonals -curvature[i], -step[i+1], and p is
    the eigenvector.  Every product curvature[i] * step[i+1] is positive, so
    with scale_0 = 1, scale_{i+1} = scale_i sqrt(curvature[i] / step[i+1])
    the similarity diag(scale) M diag(scale)^-1 is the symmetric Jacobi
    matrix with off-diagonals -sqrt(curvature[i] * step[i+1]); its
    eigenvectors divided by scale are those of M.  A scale that overflows
    (tiny couplings, or a tiny hbar) is a ValueError, not a RuntimeWarning.
    """
    curvature = np.array(system.curvature[:-1])
    step = np.array(system.step[1:])
    off = -np.sqrt(curvature * step)
    jacobi = np.diag(np.negative(system.shift)) + np.diag(off, 1) + np.diag(off, -1)
    roots, vectors = np.linalg.eigh(jacobi)
    with np.errstate(all="ignore"):
        scale = np.concatenate(([1.0], np.cumprod(np.sqrt(curvature / step))))
        polys = vectors / scale[:, None]
        polys /= polys[-1]
    if not np.all(np.isfinite(polys)):
        raise ValueError(
            f"level n = {system.n}: a polynomial coefficient p_0 .. p_{system.n}"
            " is not finite in double precision")
    return roots, polys


def qes_solve(
    b: float, c: float, dim: DimensionSpec, phys: PhysicalParams, n: int
) -> list[OracleSolution]:
    """All n+1 constraint roots with their states, ascending in A.

    The roots and the coefficients p_0 .. p_n (monic, p_n = 1) are the
    eigenpairs of the Jacobi matrix of the recursion (``_eigenpairs``), so
    the roots are always real and simple and the list is never empty.  Every
    solution shares the level energy (the energy does not depend on which
    root is taken); they differ in the polynomial part and hence in node
    count.  The node count is the root's rank: A is the eigenvalue of the
    radial problem with weight 1/r, and by the oscillation theorem its n+1
    distinct eigenfunctions with at most n zeros have 0, 1, .., n zeros in
    ascending order of A.
    """
    system = oracle_reduce(b, c, dim, phys, n)
    energy = level_energy(b, c, dim, phys, n)
    roots, polys = _eigenpairs(system)
    return [
        OracleSolution(
            n=n, a_root=float(roots[k]), poly=tuple(float(p) for p in polys[:, k]),
            energy=energy, node_count=k,
        )
        for k in range(n + 1)
    ]


def oracle_state(
    solution: OracleSolution, dim: DimensionSpec, phys: PhysicalParams,
    b: float, c: float,
):
    """Closed-form state assembled from an oracle solution."""
    from .susy import ClosedFormState

    lam, kap = _exponent_rates(b, c, phys)
    return ClosedFormState(
        poly=solution.poly, q=dim.lam + 1.0, lam=lam, kap=kap
    )
