"""Command-line orchestration: solve, verify, oracle, eig, sweep.

Usage:
    pcoulomb solve  --a 1 --c 0.5 --N 3 --l 0 --derive b
    pcoulomb verify --a 1 --c 0.5 --N 3 --l 0 --derive b --out json
    pcoulomb oracle --b 1 --c 0.5 --N 3 --l 0 --n 1
    pcoulomb eig    --a 1 --b 1 --c 0.5 --N 3 --l 0 --k 3 --richardson
    pcoulomb sweep  --sweep a=0.5,1,2 --c 0.5 --derive b

Exit codes: 0 ok, 1 usage error, 2 constraint violation, 3 verification
assert failure.  Output is byte-identical for identical inputs and flags;
floats are emitted with 17 significant digits.  A plain ``key = value``
config file (``--config PATH``) supplies defaults that explicit flags
override; environment variables are never consulted.

Four ``verify`` info checks sample closed-form states on the grid:
``ladder_level1_residual_advanced_a``, ``ladder_level1_residual_fixed_a``,
``ladder_vs_numeric_overlap`` and ``ground_vs_oracle_nodeless_overlap``.
numpy's vectorised exp/log, the 1/h^2 of the second difference and the
reduction order of norms and trapezoid sums move their last digits with the
host CPU (up to about 1e-13 relative), and they are only O(h^2) accurate, so
they are rounded to ``GRID_INFO_DIGITS`` (10) significant digits.  With that,
``verify`` documents are the same at every numpy SIMD dispatch level and
OpenBLAS kernel the tests try; glibc's libm FMA variants cannot be switched
off from inside the process and stay untested.  The ``h_residual`` values of
``oracle --check`` keep 17 digits and are byte-identical only on one host
(they move by about 3e-8 relative between dispatch levels).
"""

from __future__ import annotations

import argparse
import sys
from itertools import product

import numpy as np

from . import __version__
from .exact import (
    ConstraintViolation,
    constraint_a,
    constraint_b,
    constraint_residual,
    ground_state,
    hierarchy_states,
    level_superpotential,
    oscillator_view_ground,
    spectrum,
)
from .model import (
    DimensionSpec,
    LaurentForm,
    PhysicalParams,
    PotentialParams,
    classify_regime,
    dimension_reduce,
    effective_potential,
    require_finite,
)
from .numerics import (
    GridFunction,
    build_grid,
    eigen_lowest,
    evaluate_state,
    h_residual,
    normalize,
    overlap,
)
from .qes import level_energy, oracle_state, qes_constraint_polynomial, qes_solve
from .susy import (
    ground_energy_of,
    perturbation_residual,
    riccati_image,
    riccati_residual,
    shape_invariance_compare,
)
from .tolerances import DEFAULT_TOLS, GRID_INFO_DIGITS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRAINT = 2
EXIT_VERIFY = 3

#: assert-check tolerances used by the verification report
TOL_RICCATI = DEFAULT_TOLS.riccati
TOL_DUAL_VIEW = DEFAULT_TOLS.dual_view
TOL_EIGEN = DEFAULT_TOLS.eigen_vs_closed
TOL_ORACLE_ROOT = DEFAULT_TOLS.oracle_root_rel


# ---------------------------------------------------------------------------
# deterministic emission

def _fmt_float(x: float) -> str:
    return "%.17g" % x


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f'{inner}"{key}": {dump_json(value, indent + 1)}'
            for key, value in obj.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{dump_json(value, indent + 1)}" for value in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt_float(float(value))


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_config(path: str) -> dict:
    """Plain ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            values[key.strip()] = _coerce(text.strip())
    return values


def _coerce(text: str):
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _add_problem_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=float, default=0.0, help="Coulomb strength a")
    sub.add_argument("--b", type=float, default=0.0, help="linear coupling b")
    sub.add_argument("--c", type=float, default=0.0, help="quadratic coupling c")
    sub.add_argument("--N", type=int, default=3, help="space dimension (default 3)")
    sub.add_argument("--l", type=int, default=0, help="angular momentum (default 0)")
    sub.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1)")
    sub.add_argument("--mass", type=float, default=1.0, help="mass (default 1)")
    sub.add_argument(
        "--derive",
        choices=("a", "b", "c"),
        default=None,
        help="fill this coupling from the constraint surface",
    )
    sub.add_argument("--config", default=None, help="key = value defaults file")


def _add_grid_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rmax", type=float, default=None, help="grid extent override")
    sub.add_argument("--h", type=float, default=None, help="grid step override")
    sub.add_argument(
        "--richardson", action="store_true", help="extrapolate eigenvalues over (h, h/2)"
    )


def build_parser() -> tuple[_Parser, list[argparse.ArgumentParser]]:
    parser = _Parser(prog="pcoulomb", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    solve = commands.add_parser("solve", help="closed-form solution document")
    _add_problem_options(solve)
    _add_grid_options(solve)
    solve.add_argument("--nmax", type=int, default=2, help="levels in the spectrum block")
    solve.add_argument("--out", choices=("json", "table"), default="json")
    solve.set_defaults(func=cmd_solve)

    verify = commands.add_parser("verify", help="run the verification battery")
    _add_problem_options(verify)
    _add_grid_options(verify)
    verify.add_argument("--nmax", type=int, default=2, help="levels in the spectrum block")
    verify.add_argument("--out", choices=("json", "table"), default="table")
    verify.set_defaults(func=cmd_verify)

    oracle = commands.add_parser("oracle", help="polynomial-ansatz constraint roots")
    _add_problem_options(oracle)
    _add_grid_options(oracle)
    oracle.add_argument("--n", type=int, required=True, help="level (polynomial degree)")
    oracle.add_argument(
        "--check", action="store_true", help="attach grid residuals to each solution"
    )
    oracle.set_defaults(func=cmd_oracle)

    eig = commands.add_parser("eig", help="lowest numeric eigenvalues")
    _add_problem_options(eig)
    _add_grid_options(eig)
    eig.add_argument("--k", type=int, default=1, help="number of eigenvalues")
    eig.set_defaults(func=cmd_eig)

    sweep = commands.add_parser("sweep", help="CSV scan over one or two parameters")
    _add_problem_options(sweep)
    _add_grid_options(sweep)
    sweep.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="PARAM=V1,V2,...",
        help="parameter range (repeat for a second parameter)",
    )
    sweep.add_argument("--n", type=int, default=0, help="spectrum level per row")
    sweep.set_defaults(func=cmd_sweep)

    return parser, [solve, verify, oracle, eig, sweep]


def _apply_config(
    subparsers: list[argparse.ArgumentParser], argv: list[str]
) -> None:
    """Install config-file values as defaults on every command parser.

    Subcommands parse into their own namespace, so the defaults must be set
    where the options live.  Explicit flags still override.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return
    config = load_config(path)
    known = {
        action.dest
        for sub in subparsers
        for action in sub._actions
        if action.dest != "help"
    }
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for sub in subparsers:
        sub.set_defaults(**config)


def _couplings(
    a: float, b: float, c: float, derive: str | None,
    dim: DimensionSpec, phys: PhysicalParams,
) -> PotentialParams:
    """The couplings with the ``derive`` one filled from the constraint surface.

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
        c = (b * (dim.m_index - 1) * phys.hbar / (2.0 * a)) ** 2 / (2.0 * phys.mass)
    return PotentialParams(a=a, b=b, c=c)


def _problem(args) -> tuple[PotentialParams, DimensionSpec, PhysicalParams]:
    phys = PhysicalParams(mass=args.mass, hbar=args.hbar)
    dim = dimension_reduce(args.N, args.l)
    return _couplings(args.a, args.b, args.c, args.derive, dim, phys), dim, phys


def _inputs_block(pot, dim, phys) -> dict:
    return {
        "a": pot.a, "b": pot.b, "c": pot.c,
        "N": dim.n_dim, "l": dim.ell,
        "hbar": phys.hbar, "mass": phys.mass,
    }


def _dimension_block(dim) -> dict:
    return {"N": dim.n_dim, "l": dim.ell, "M": dim.m_index, "Lambda": dim.lam}


def _meta_block() -> dict:
    return {"package": "pcoulomb", "version": __version__}


# ---------------------------------------------------------------------------
# solve

def _solution_views(pot, dim, phys):
    """Both views when defined: (coulomb GroundSolution | None, oscillator | None)."""
    coul = ground_state(pot, dim, phys) if pot.a > 0 else None
    osc = oscillator_view_ground(pot, dim, phys) if pot.c > 0 else None
    if coul is None and osc is None:
        raise ConstraintViolation(
            "no solvable view: need a > 0 or c > 0 on the constraint surface",
            constraint_residual(pot, dim, phys),
        )
    return coul, osc


def _view_block(sol) -> dict | None:
    if sol is None:
        return None
    return {
        "epsilon": sol.energy.epsilon,
        "delta_epsilon": sol.energy.delta_epsilon,
        "E": sol.energy.total,
    }


def _psi_block(psi, pot, dim, phys, r_max, h) -> dict:
    grid = build_grid(pot, dim, phys, r_max=r_max, h=h)
    _, n0 = normalize(evaluate_state(psi, grid))
    return {"q": psi.q, "lambda": psi.lam, "kappa": psi.kap, "N0": n0}


def _spectrum_block(pot, dim, phys, nmax) -> list:
    if pot.c <= 0:
        return []
    return [
        {"n": lv.n, "a_n": lv.a_n, "E_n": lv.e_n}
        for lv in spectrum(pot.b, pot.c, dim, phys, nmax)
    ]


def solve_document(args) -> dict:
    pot, dim, phys = _problem(args)
    coul, osc = _solution_views(pot, dim, phys)
    psi = (coul or osc).psi
    return {
        "inputs": _inputs_block(pot, dim, phys),
        "regime": classify_regime(pot),
        "dimension": _dimension_block(dim),
        "views": {"coulomb": _view_block(coul), "oscillator": _view_block(osc)},
        "psi": _psi_block(psi, pot, dim, phys, args.rmax, args.h),
        "spectrum": _spectrum_block(pot, dim, phys, args.nmax),
        "meta": _meta_block(),
    }


def _print_solve_table(doc) -> None:
    dim = doc["dimension"]
    print(f"dimension: N={dim['N']} l={dim['l']}  ->  M={dim['M']} Lambda={dim['Lambda']:g}")
    print(f"regime:    {doc['regime']}")
    for name in ("coulomb", "oscillator"):
        view = doc["views"][name]
        if view is None:
            print(f"{name:<11}view: (not defined for these couplings)")
        else:
            print(
                f"{name:<11}view: epsilon={view['epsilon']:.12g}  "
                f"delta={view['delta_epsilon']:.12g}  E={view['E']:.12g}"
            )
    psi = doc["psi"]
    print(
        f"psi:       q={psi['q']:g}  lambda={psi['lambda']:.12g}  "
        f"kappa={psi['kappa']:.12g}  N0={psi['N0']:.12g}"
    )
    if doc["spectrum"]:
        print("spectrum:")
        for level in doc["spectrum"]:
            print(f"  n={level['n']}  a_n={level['a_n']:.12g}  E_n={level['E_n']:.12g}")


def cmd_solve(args) -> int:
    doc = solve_document(args)
    if args.out == "json":
        print(dump_json(doc))
    else:
        _print_solve_table(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _check(name, kind, value, tol=None, ok=None) -> dict:
    return {"name": name, "kind": kind, "value": value, "tol": tol, "pass": ok}


def _assert_check(name, value, tol) -> dict:
    return _check(name, "assert", value, tol, bool(value <= tol))


def _grid_info_check(name, value) -> dict:
    """Info check on closed-form states sampled on the grid, at the digits
    that are the same on every host (``GRID_INFO_DIGITS``)."""
    return _check(name, "info", float("%.*g" % (GRID_INFO_DIGITS, value)))


def verification_checks(pot, dim, phys, grid, richardson: bool) -> list[dict]:
    """The battery of assert and info checks for one problem instance."""
    checks: list[dict] = []
    v_eff = effective_potential(pot, dim, phys)
    coul, osc = _solution_views(pot, dim, phys)

    if coul is not None:
        res = riccati_residual(coul.w + coul.dw, v_eff, coul.energy.total, phys)
        tol = TOL_RICCATI * max(1.0, abs(coul.energy.total))
        checks.append(_assert_check("riccati_coulomb_view", res.max_abs_coeff(), tol))
        dv = LaurentForm({1: pot.b, 2: pot.c})
        pres = perturbation_residual(coul.w, coul.dw, dv, coul.energy.delta_epsilon, phys)
        checks.append(
            _assert_check("perturbation_coulomb_view", pres.max_abs_coeff(), TOL_RICCATI)
        )
    if osc is not None:
        res = riccati_residual(osc.w + osc.dw, v_eff, osc.energy.total, phys)
        tol = TOL_RICCATI * max(1.0, abs(osc.energy.total))
        checks.append(_assert_check("riccati_oscillator_view", res.max_abs_coeff(), tol))
        dv = LaurentForm({-1: -pot.a, 1: pot.b})
        pres = perturbation_residual(osc.w, osc.dw, dv, osc.energy.delta_epsilon, phys)
        checks.append(
            _assert_check("perturbation_oscillator_view", pres.max_abs_coeff(), TOL_RICCATI)
        )
    if coul is not None and osc is not None:
        ediff = abs(coul.energy.total - osc.energy.total)
        checks.append(_assert_check("dual_view_energy", ediff, TOL_DUAL_VIEW))
        pdiff = max(
            abs(getattr(coul.psi, f) - getattr(osc.psi, f)) for f in ("q", "lam", "kap")
        )
        checks.append(_assert_check("dual_view_psi_params", pdiff, TOL_DUAL_VIEW))

    closed_e = (coul or osc).energy.total
    numeric = eigen_lowest(v_eff, grid, phys, k=1, richardson=richardson)[0]
    if dim.m_index == 2:
        # Lambda = -1/2 sits on the critical attractive-barrier edge where
        # the Dirichlet three-point scheme does not converge to the same
        # self-adjoint extension as the closed form; report, don't gate
        checks.append(_check("eigen_vs_closed", "info", abs(numeric - closed_e)))
    else:
        checks.append(
            _assert_check("eigen_vs_closed", abs(numeric - closed_e), TOL_EIGEN)
        )
    checks.append(_check("eigen_lowest", "info", numeric))

    if pot.b > 0 and pot.c > 0:
        checks.extend(_oracle_checks(pot, dim, phys))
        checks.extend(_hierarchy_checks(pot, dim, phys, grid, v_eff))
    return checks


def _oracle_checks(pot, dim, phys) -> list[dict]:
    checks = []
    a_formula = constraint_a(pot.b, pot.c, dim, phys, n=0)
    roots0 = [s.a_root for s in qes_solve(pot.b, pot.c, dim, phys, n=0)]
    rel = min(abs(r - a_formula) for r in roots0) / abs(a_formula)
    checks.append(_assert_check("oracle_level0_vs_formula", rel, TOL_ORACLE_ROOT))

    sols1 = qes_solve(pot.b, pot.c, dim, phys, n=1)
    a1_linear = constraint_a(pot.b, pot.c, dim, phys, n=1)
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


def _hierarchy_checks(pot, dim, phys, grid, v_eff) -> list[dict]:
    """Shape-invariance, ladder-state, and non-orthogonality diagnostics."""
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
    v_plus = riccati_image(s0, "+", phys) + LaurentForm({0: ground_energy_of(s0, phys)})
    dim_up = DimensionSpec(n_dim=dim.n_dim + 2, ell=dim.ell)
    fixed = v_plus - effective_potential(pot, dim_up, phys)
    checks.append(
        _check(
            "shape_invariance_fixed_couplings_mismatch",
            "info",
            fixed.constant_removed().max_abs_coeff(),
        )
    )

    a1 = constraint_a(pot.b, pot.c, dim, phys, n=1)
    e1 = level_energy(pot.b, pot.c, dim, phys, n=1)
    ladder = hierarchy_states(pot.b, pot.c, dim, phys, n=1)
    pot_up = PotentialParams(a=a1, b=pot.b, c=pot.c)
    v_up = effective_potential(pot_up, dim, phys)
    checks.append(
        _grid_info_check(
            "ladder_level1_residual_advanced_a",
            h_residual(ladder, e1, v_up, phys, grid=grid),
        )
    )
    checks.append(
        _grid_info_check(
            "ladder_level1_residual_fixed_a",
            h_residual(ladder, e1, v_eff, phys, grid=grid),
        )
    )

    ladder_f, _ = normalize(evaluate_state(ladder, grid))
    _, vecs = eigen_lowest(v_up, grid, phys, k=2, eigenvectors=True)
    numeric_excited = GridFunction(grid=grid, values=vecs[:, 1])
    checks.append(
        _grid_info_check(
            "ladder_vs_numeric_overlap", abs(overlap(ladder_f, numeric_excited))
        )
    )

    sols1 = qes_solve(pot.b, pot.c, dim, phys, n=1)
    nodeless = [s for s in sols1 if s.node_count == 0]
    if nodeless:
        other = oracle_state(nodeless[0], dim, phys, pot.b, pot.c)
        ground_f, _ = normalize(evaluate_state(ground_state(pot, dim, phys).psi, grid))
        other_f, _ = normalize(evaluate_state(other, grid))
        checks.append(
            _grid_info_check(
                "ground_vs_oracle_nodeless_overlap", overlap(ground_f, other_f)
            )
        )
    return checks


def verify_document(args) -> dict:
    pot, dim, phys = _problem(args)
    grid = build_grid(pot, dim, phys, r_max=args.rmax, h=args.h)
    checks = verification_checks(pot, dim, phys, grid, args.richardson)
    doc = solve_document(args)
    doc["inputs"]["grid"] = {
        "r_max": grid.r_max, "h": grid.h, "richardson": bool(args.richardson),
    }
    doc["checks"] = checks
    return doc


def _print_verify_table(doc) -> None:
    print(f"{'check':<44}{'kind':<8}{'value':<26}{'tol':<12}status")
    for check in doc["checks"]:
        value = check["value"]
        if isinstance(value, list):
            text = "[" + ", ".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in value) + "]"
        elif isinstance(value, float):
            text = f"{value:.12g}"
        else:
            text = str(value)
        tol = f"{check['tol']:.3g}" if check["tol"] is not None else "-"
        status = "-" if check["pass"] is None else ("pass" if check["pass"] else "FAIL")
        print(f"{check['name']:<44}{check['kind']:<8}{text:<26}{tol:<12}{status}")
    failed = sum(1 for c in doc["checks"] if c["pass"] is False)
    total = sum(1 for c in doc["checks"] if c["kind"] == "assert")
    print(f"asserts: {total - failed}/{total} passed")


def cmd_verify(args) -> int:
    doc = verify_document(args)
    if args.out == "json":
        print(dump_json(doc))
    else:
        _print_verify_table(doc)
    if any(check["pass"] is False for check in doc["checks"]):
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    """Emit the level-n solutions as a JSON list, ascending in the root."""
    pot, dim, phys = _problem(args)
    if pot.c <= 0:
        raise ValueError("oracle requires c > 0")
    solutions = qes_solve(pot.b, pot.c, dim, phys, args.n)
    entries = []
    for sol in solutions:
        entry = {
            "n": sol.n,
            "a_root": sol.a_root,
            "poly": list(sol.poly),
            "E": sol.energy,
            "node_count": sol.node_count,
        }
        if args.check:
            state = oracle_state(sol, dim, phys, pot.b, pot.c)
            pot_root = PotentialParams(a=sol.a_root, b=pot.b, c=pot.c)
            grid = build_grid(pot_root, dim, phys, r_max=args.rmax, h=args.h)
            entry["h_residual"] = h_residual(
                state, sol.energy, effective_potential(pot_root, dim, phys),
                phys, grid=grid,
            )
        entries.append(entry)
    print(dump_json(entries))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eig

def cmd_eig(args) -> int:
    pot, dim, phys = _problem(args)
    grid = build_grid(pot, dim, phys, r_max=args.rmax, h=args.h)
    values = eigen_lowest(
        effective_potential(pot, dim, phys), grid, phys,
        k=args.k, richardson=args.richardson,
    )
    print(dump_json({
        "inputs": _inputs_block(pot, dim, phys),
        "grid": {"r_max": grid.r_max, "h": grid.h, "richardson": bool(args.richardson)},
        "eigenvalues": values,
        "meta": _meta_block(),
    }))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

_SWEEPABLE = ("a", "b", "c", "N", "l")


def _parse_sweeps(ranges: list[str] | None) -> list[tuple[str, list[float]]]:
    if not ranges:
        raise ValueError("sweep requires at least one --sweep PARAM=V1,V2,...")
    if len(ranges) > 2:
        raise ValueError("at most two sweep parameters are supported")
    sweeps = []
    for item in ranges:
        name, sep, text = item.partition("=")
        if not sep or name not in _SWEEPABLE:
            raise ValueError(f"malformed sweep {item!r}; expected PARAM=V1,V2,...")
        values = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            values.append(int(token) if name in ("N", "l") else float(token))
        sweeps.append((name, values))
    return sweeps


def _closed_level_energy(pot, dim, phys, n: int) -> tuple[float, float]:
    """(a used at level n, formula energy) without gating on the constraint.

    The sweep reports the formula value alongside the numeric eigenvalue, so
    off-surface rows expose the formula's failure instead of erroring out.
    """
    if n == 0:
        if pot.a > 0:
            lp1 = dim.lam + 1.0
            eps = -phys.mass * pot.a**2 / (2.0 * phys.hbar**2 * lp1**2)
            delta = 0.0
            if pot.b > 0 or pot.c > 0:
                delta = (
                    dim.m_index * (dim.m_index - 1) * pot.b * phys.hbar**2
                    / (4.0 * phys.mass * pot.a)
                )
            return pot.a, eps + delta
        return pot.a, level_energy(pot.b, pot.c, dim, phys, 0)
    a_n = constraint_a(pot.b, pot.c, dim, phys, n) if pot.b > 0 else 0.0
    return a_n, level_energy(pot.b, pot.c, dim, phys, n)


def cmd_sweep(args) -> int:
    sweeps = _parse_sweeps(args.sweep)
    phys = PhysicalParams(mass=args.mass, hbar=args.hbar)
    # every row is solved before any is printed, so a rejected row leaves
    # stdout empty instead of a truncated scan
    lines = ["a,b,c,N,l,n,E_closed,E_numeric,abs_err,constraint_residual"]
    names = [name for name, _ in sweeps]
    for combo in product(*(values for _, values in sweeps)):
        row = {"a": args.a, "b": args.b, "c": args.c, "N": args.N, "l": args.l}
        row.update(dict(zip(names, combo)))
        dim = dimension_reduce(int(row["N"]), int(row["l"]))
        pot = _couplings(
            float(row["a"]), float(row["b"]), float(row["c"]), args.derive, dim, phys
        )
        a, b, c = pot.a, pot.b, pot.c
        a_level, e_closed = _closed_level_energy(pot, dim, phys, args.n)
        pot_level = PotentialParams(a=a_level, b=b, c=c) if args.n > 0 else pot
        grid = build_grid(pot_level, dim, phys, r_max=args.rmax, h=args.h)
        numeric = eigen_lowest(
            effective_potential(pot_level, dim, phys), grid, phys,
            k=args.n + 1, richardson=args.richardson,
        )[args.n]
        cells = [
            _csv_cell(a), _csv_cell(b), _csv_cell(c),
            _csv_cell(int(row["N"])), _csv_cell(int(row["l"])), _csv_cell(args.n),
            _csv_cell(e_closed), _csv_cell(numeric),
            _csv_cell(abs(e_closed - numeric)),
            _csv_cell(constraint_residual(pot, dim, phys)),
        ]
        lines.append(",".join(cells))
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        _apply_config(subparsers, argv)
    except (OSError, ValueError) as exc:
        print(f"pcoulomb: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConstraintViolation as exc:
        print(f"pcoulomb: constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ValueError as exc:
        print(f"pcoulomb: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
