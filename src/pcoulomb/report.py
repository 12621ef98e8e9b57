"""What every command prints, built without argparse.

``solve_document`` and ``verify_document`` (with the verification battery)
take a problem (couplings, dimension, units) and the number of spectrum
levels; ``schema/report.schema.json`` describes them.  ``eig_document``
holds the lowest grid eigenvalues, ``oracle_document`` the ansatz solutions
of one level and ``sweep_row`` one level's closed-form and spectral values.
Each check is a plain dict ``{name, kind, value, tol, pass}``: an
``assert`` check carries its tolerance and verdict, an ``info`` check only
its value; each tolerance is a ``TOL_*`` constant below.

``psi.N0``, ``ground_vs_oracle_nodeless_overlap``, the two
``ladder_level1_residual_*`` checks and the ``h_residual`` of each
``oracle --check`` entry are exact: norms, overlaps and
||(H - E) psi|| / ||psi|| (``_relative_residual``) of closed-form states
from their moments (``ClosedFormState.norm`` and ``overlap``,
``susy.hamiltonian_defect``), in plain float arithmetic whose bits do not
depend on the host.  A residual whose (H - E) psi is not square integrable
at the origin is reported as the string ``DIVERGENT``, never as a number.
That happens only at M = 2, where the defect keeps an r^-1/2 term: the
ladder state's, and an oracle state's whose coefficient, the constraint
D(a_root) evaluated in float, is not exactly 0.  Only ``eig`` builds a
grid and solves its eigenproblem.

``verify``'s two numeric values and ``sweep``'s E_numeric come from the
spectral oracle (``spectral_lowest``), whose module is loaded on those paths
alone: ``eigen_lowest`` is its level 0, ``ladder_vs_numeric_overlap`` the
ladder state against its level-1 state by the Gauss rule of its Laguerre
basis, and a sweep row's E_numeric its level n at the row's a_n.  LAPACK
moves their last bits with the OpenBLAS kernel and numpy's exp/log with the
host CPU, so each is printed at ``SPECTRAL_DIGITS`` (10) significant digits:
the overlap of its own value, an energy of the scale max(|E|, T / l^2) that
the inputs fix (``_energy_lattice``).  With that, ``verify`` documents and
``sweep`` rows are the same at every numpy SIMD dispatch level and OpenBLAS
kernel the tests try; glibc's libm FMA variants cannot be switched off from
inside the process and stay untested.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .exact import (
    closed_level,
    constraint_a,
    constraint_residual,
    dual_view_check,
    ground_state,
    hierarchy_states,
    level_superpotential,
    oscillator_view_ground,
    require_view,
    spectrum,
)
from .model import (
    DimensionSpec,
    PhysicalParams,
    PotentialParams,
    classify_regime,
    effective_potential,
    length_scales,
)
from .numerics import build_grid, eigen_lowest
from .qes import oracle_state, qes_constraint_polynomial, qes_solve
from .susy import (
    hamiltonian_defect, partner_potential, perturbation_residual, riccati_residual,
    shape_invariance_compare,
)

#: coefficient identities, scaled by max(1, |E|)
TOL_RICCATI = 1e-12
#: agreement between the two solution views
TOL_DUAL_VIEW = 1e-12
#: spectral level 0 vs closed-form energy, absolute; where the lattice
#: ``_energy_lattice`` prints the level on is coarser, its step is the
#: tolerance (from |E| or T / l^2 of 1e6 up), so the check judges the level
#: and not the printed digits
TOL_EIGEN = 1e-4
#: oracle level-0 root vs the coupling inversion, relative
TOL_ORACLE_ROOT = 1e-13
#: significant digits of verify's values from ``spectral_lowest``, whose last
#: bits move with the host: basis sizes 30 and 45 agree on the ladder overlap
#: within 5e-11, and level 0 is within 1e-11 max(1, |E|) of the closed form
SPECTRAL_DIGITS = 10
#: the value of a residual check whose (H - E) psi has an infinite norm
DIVERGENT = "divergent"


# ---------------------------------------------------------------------------
# documents

def _inputs_block(pot, dim, phys) -> dict:
    return {"a": pot.a, "b": pot.b, "c": pot.c, "N": dim.n_dim, "l": dim.ell,
            "hbar": phys.hbar, "mass": phys.mass}


def _meta_block() -> dict:
    return {"package": "pcoulomb", "version": __version__}


#: most spectrum levels a document lists (a few hundred bytes each)
MAX_NMAX = 10_000


def _ground(pot, dim, phys, nmax):
    """Both views when defined and psi's exact scale N0 = 1 / ||psi||:
    (coulomb GroundSolution | None, oscillator | None, N0).

    ``nmax`` is checked first, so a ``nmax`` outside 0..``MAX_NMAX`` raises
    ``ValueError`` and then a problem with no view ``ConstraintViolation``.
    """
    if not 0 <= nmax <= MAX_NMAX:
        raise ValueError(f"nmax must be in 0..{MAX_NMAX}, got {nmax}")
    require_view(pot, dim, phys)
    coul = ground_state(pot, dim, phys) if pot.a > 0 else None
    osc = oscillator_view_ground(pot, dim, phys) if pot.c > 0 else None
    return coul, osc, 1.0 / (coul or osc).psi.norm()


def _view_block(sol) -> dict | None:
    if sol is None:
        return None
    return {
        "epsilon": sol.energy.epsilon,
        "delta_epsilon": sol.energy.delta_epsilon,
        "E": sol.energy.total,
    }


def _document(pot, dim, phys, coul, osc, n0: float, nmax: int) -> dict:
    psi = (coul or osc).psi
    return {
        "inputs": _inputs_block(pot, dim, phys),
        "regime": classify_regime(pot),
        "dimension": {"N": dim.n_dim, "l": dim.ell, "M": dim.m_index, "Lambda": dim.lam},
        "views": {"coulomb": _view_block(coul), "oscillator": _view_block(osc)},
        "psi": {"q": psi.q, "lambda": psi.lam, "kappa": psi.kap, "N0": n0},
        "spectrum": [
            {"n": lv.n, "a_n": lv.a_n, "E_n": lv.e_n}
            for lv in spectrum(pot.b, pot.c, dim, phys, nmax)
        ] if pot.c > 0 else [],
        "meta": _meta_block(),
    }


def solve_document(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams, nmax: int,
) -> dict:
    """The ``solve`` document: both views, psi with its exact scale N0, and
    the spectrum up to level ``nmax``; no grid is built."""
    coul, osc, n0 = _ground(pot, dim, phys, nmax)
    return _document(pot, dim, phys, coul, osc, n0, nmax)


def verify_document(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams, nmax: int,
) -> dict:
    """The ``solve`` document plus the verification checks."""
    coul, osc, n0 = _ground(pot, dim, phys, nmax)
    checks = _battery(pot, dim, phys, coul, osc)
    doc = _document(pot, dim, phys, coul, osc, n0, nmax)
    doc["checks"] = checks
    return doc


def eig_document(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams, k: int,
    richardson: bool, r_max: float | None = None, h: float | None = None,
) -> dict:
    """The ``eig`` document: the lowest ``k`` grid eigenvalues, one solve per
    level.  ``k`` is checked against the grid first, so an unresolved level
    fails before the levels below it are solved."""
    grid = build_grid(pot, dim, phys, r_max=r_max, h=h)
    v_eff = effective_potential(pot, dim, phys)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > grid.levels:
        raise ValueError(f"levels 0..{k - 1} out of range for {grid.count} nodes")
    values = [eigen_lowest(v_eff, grid, phys, level, richardson=richardson)
              for level in range(k)]
    return {"inputs": _inputs_block(pot, dim, phys),
            "grid": {"r_max": grid.r_max, "h": grid.h, "richardson": bool(richardson)},
            "eigenvalues": values, "meta": _meta_block()}


def oracle_document(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams, n: int, check: bool,
) -> list[dict]:
    """The ``oracle`` document: the level-``n`` solutions of the ansatz at
    (b, c), ascending in the root.  With ``check`` each carries the exact
    residual ||(H - E) psi|| / ||psi|| of its state in the potential with a
    set to its root, or ``DIVERGENT``."""
    entries = []
    for sol in qes_solve(pot.b, pot.c, dim, phys, n):
        entry = {"n": sol.n, "a_root": sol.a_root, "poly": list(sol.poly),
                 "E": sol.energy, "node_count": sol.node_count}
        if check:
            state = oracle_state(sol, dim, phys, pot.b, pot.c)
            pot_root = PotentialParams(a=sol.a_root, b=pot.b, c=pot.c)
            entry["h_residual"] = _relative_residual(
                state, sol.energy, effective_potential(pot_root, dim, phys), phys,
            )
        entries.append(entry)
    return entries


def sweep_row(
    pot: PotentialParams, dim: DimensionSpec, phys: PhysicalParams, n: int,
) -> tuple[float, float, float, float]:
    """One ``sweep`` row: (E_closed, E_numeric, abs_err, constraint_residual).
    Level ``n``'s closed form (``closed_level``), the spectral level ``n`` at
    its a on the lattice of E_closed (``_energy_lattice``), their distance,
    and the input's relative distance from the coupling surface.  ``n``
    above ``spectral.MAX_LEVEL`` raises ``ValueError``."""
    a_level, e_closed = closed_level(pot, dim, phys, n)
    pot_level = PotentialParams(a=a_level, b=pot.b, c=pot.c)
    from .spectral import spectral_lowest  # as in _battery
    level = spectral_lowest(pot_level, dim, phys, n).energy
    numeric, _ = _energy_lattice(level, e_closed, pot_level, dim, phys)
    return e_closed, numeric, abs(e_closed - numeric), constraint_residual(pot, dim, phys)


# ---------------------------------------------------------------------------
# the battery

def _check(name, kind, value, tol=None, ok=None) -> dict:
    return {"name": name, "kind": kind, "value": value, "tol": tol, "pass": ok}


def _assert_check(name, value, tol) -> dict:
    return _check(name, "assert", value, tol, bool(value <= tol))


def _rounded_info_check(name, value) -> dict:
    """Info check at the digits that are the same on every host
    (``SPECTRAL_DIGITS``)."""
    return _check(name, "info", float("%.*g" % (SPECTRAL_DIGITS, value)))


def _energy_lattice(energy, closed_e, pot, dim, phys) -> tuple[float, float]:
    """(``energy`` correctly rounded to SPECTRAL_DIGITS digits of
    max(|closed_e|, T / l / l), l the shortest length, the lattice's step):
    a lattice that the inputs alone fix.  T is divided by l twice, as l^2
    can leave the float range where T / l / l does not."""
    shortest = min(length_scales(pot, dim, phys).values())
    scale = max(abs(closed_e), phys.kinetic / shortest / shortest)
    digits = SPECTRAL_DIGITS - 1 - math.floor(math.log10(scale))
    return round(energy, digits), 10.0 ** -digits


def _battery(pot, dim, phys, coul, osc) -> list[dict]:
    checks: list[dict] = []
    v_eff = effective_potential(pot, dim, phys)

    for sol in (coul, osc):
        if sol is None:
            continue
        res = riccati_residual(sol.w + sol.dw, v_eff, sol.energy.total, phys)
        tol = TOL_RICCATI * max(1.0, abs(sol.energy.total))
        checks.append(_assert_check(f"riccati_{sol.view}_view", res.max_abs_coeff(), tol))
        pres = perturbation_residual(sol.w, sol.dw, sol.dv, sol.energy.delta_epsilon, phys)
        checks.append(
            _assert_check(f"perturbation_{sol.view}_view", pres.max_abs_coeff(), TOL_RICCATI)
        )
    if coul is not None and osc is not None:
        dual = dual_view_check(coul, osc)
        checks.append(_assert_check("dual_view_energy", dual["energy_diff"], TOL_DUAL_VIEW))
        checks.append(
            _assert_check("dual_view_psi_params", dual["psi_param_diff"], TOL_DUAL_VIEW)
        )

    # imported on the paths that need it: loading the module is 4-5 ms of a
    # cold start that solve, oracle and eig do not need to pay
    from .spectral import spectral_lowest

    psi, closed_e = (coul or osc).psi, (coul or osc).energy.total
    level0 = spectral_lowest(pot, dim, phys, 0).energy
    numeric, step = _energy_lattice(level0, closed_e, pot, dim, phys)
    checks.append(
        _assert_check("eigen_vs_closed", abs(numeric - closed_e), max(TOL_EIGEN, step))
    )
    checks.append(_check("eigen_lowest", "info", numeric))

    if pot.b > 0 and pot.c > 0:
        sols1 = qes_solve(pot.b, pot.c, dim, phys, n=1)
        a1, e1 = closed_level(pot, dim, phys, 1)
        checks.extend(_oracle_checks(pot, dim, phys, sols1, a1))
        checks.extend(_hierarchy_checks(pot, dim, phys, v_eff, sols1, psi, a1, e1))
    return checks


def _oracle_checks(pot, dim, phys, sols1, a1_linear) -> list[dict]:
    """The level-0 root against the formula, and the level-1 roots against
    ``a1_linear``, the linear rule's a_1."""
    checks = []
    a_formula = constraint_a(pot.b, pot.c, dim, phys, n=0)
    root0 = qes_solve(pot.b, pot.c, dim, phys, n=0)[0].a_root
    rel = abs(root0 - a_formula) / abs(a_formula)
    checks.append(_assert_check("oracle_level0_vs_formula", rel, TOL_ORACLE_ROOT))

    d1 = qes_constraint_polynomial(pot.b, pot.c, dim, phys, n=1)
    checks.append(_check("oracle_level1_roots", "info", [s.a_root for s in sols1]))
    checks.append(
        _check("oracle_level1_node_counts", "info", [s.node_count for s in sols1])
    )
    checks.append(_check("oracle_level1_linear_rule", "info", a1_linear))
    checks.append(
        _check(
            "oracle_level1_poly_at_linear_rule",
            "info",
            float(np.polynomial.polynomial.polyval(a1_linear, d1)),
        )
    )
    return checks


def _relative_residual(state, energy, v_eff, phys) -> float | str:
    """||(H - E) state|| / ||state|| from exact moments, or ``DIVERGENT``
    where (H - E) state is not square integrable."""
    defect = hamiltonian_defect(state, energy, v_eff, phys)
    if not defect.square_integrable:
        return DIVERGENT
    return defect.norm() / state.norm()


def _residual_check(name, state, energy, v_eff, phys) -> dict:
    return _check(name, "info", _relative_residual(state, energy, v_eff, phys))


def _hierarchy_checks(pot, dim, phys, v_eff, sols1, psi, a1, e1) -> list[dict]:
    """Shape-invariance, ladder-state, and non-orthogonality diagnostics.

    (``a1``, ``e1``) is level 1 under the linear rule (``closed_level``).

    ``psi`` is the exact ground state: the coulomb view's, or the
    oscillator view's when a <= 0 (both views give the same state where
    both exist).
    """
    checks = []
    s0 = level_superpotential(pot.b, pot.c, dim, phys, 0)
    s1 = level_superpotential(pot.b, pot.c, dim, phys, 1)
    si = shape_invariance_compare(s0, s1, phys)
    checks.append(_check("shape_invariance_R", "info", si.r_const))
    checks.append(
        _check("shape_invariance_mismatch_1_over_r", "info", si.mismatch.coeff(-1))
    )
    # the same partner compared against the barrier-advanced potential with
    # every coupling held fixed separates by a constant exactly
    v_plus = partner_potential(s0, "+", phys)
    dim_up = DimensionSpec(n_dim=dim.n_dim + 2, ell=dim.ell)
    fixed = v_plus - effective_potential(pot, dim_up, phys)
    checks.append(
        _check(
            "shape_invariance_fixed_couplings_mismatch",
            "info",
            fixed.constant_removed().max_abs_coeff(),
        )
    )

    ladder = hierarchy_states(pot.b, pot.c, dim, phys, n=1)
    pot_up = PotentialParams(a=a1, b=pot.b, c=pot.c)
    v_up = effective_potential(pot_up, dim, phys)
    checks.append(_residual_check("ladder_level1_residual_advanced_a", ladder, e1, v_up, phys))
    checks.append(_residual_check("ladder_level1_residual_fixed_a", ladder, e1, v_eff, phys))

    from .spectral import spectral_lowest  # as in _battery
    level1 = spectral_lowest(pot_up, dim, phys, 1)
    checks.append(
        _rounded_info_check("ladder_vs_numeric_overlap", abs(level1.overlap(ladder)))
    )

    nodeless = [s for s in sols1 if s.node_count == 0]
    if nodeless:
        other = oracle_state(nodeless[0], dim, phys, pot.b, pot.c)
        checks.append(_check("ground_vs_oracle_nodeless_overlap", "info", psi.overlap(other)))
    return checks
