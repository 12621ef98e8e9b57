"""Command-line orchestration: solve, verify, oracle, eig, sweep.

Usage:
    pcoulomb solve  --a 1 --c 0.5 --N 3 --l 0 --derive b
    pcoulomb verify --a 1 --c 0.5 --N 3 --l 0 --derive b --out json
    pcoulomb oracle --b 1 --c 0.5 --N 3 --l 0 --n 1
    pcoulomb eig    --a 1 --b 1 --c 0.5 --N 3 --l 0 --k 3
    pcoulomb sweep  --sweep a=0.5,1,2 --c 0.5 --derive b

Exit codes: 0 ok, 1 usage error, 2 constraint violation, 3 verification
assert failure.  Output is byte-identical for identical inputs and flags;
floats are emitted with 17 significant digits.  A plain ``key = value``
config file (``--config PATH``) supplies flags that explicit flags
override; environment variables are never consulted.

This module parses flags and formats what ``pcoulomb.report`` builds as
JSON, a table or CSV.  ``main`` writes stdout once, after the command has
finished: a rejected input leaves it empty, and a stdout closed before the
write exits with code 1 and a message.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import product

from . import __version__
from .exact import ConstraintViolation, derive_couplings
from .model import DimensionSpec, PhysicalParams, PotentialParams, dimension_reduce
from .report import eig_document, oracle_document, solve_document, sweep_row, verify_document

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRAINT = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# deterministic emission

def _fmt_float(x: float) -> str:
    """17 significant digits.  A NaN or infinity raises ValueError: neither a
    strict JSON document nor a CSV row holding one is a result."""
    if not math.isfinite(x):
        raise ValueError(f"result {x} is not finite; nothing is printed")
    return "%.17g" % x


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 digits.

    A NaN or infinite float raises ValueError: strict JSON has no literal
    for it, and a document holding one is not a result.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
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
    if isinstance(value, int):
        return str(int(value))
    return _fmt_float(float(value))


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1.

    Options must be spelled out: an abbreviation such as ``--conf`` would
    parse as ``--config`` while ``_with_config``, which reads the literal
    tokens, skipped the file.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_config(path: str) -> list[tuple[str, str]]:
    """Plain ``key = value`` lines in file order; ``#`` starts a comment."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            pairs.append((key.strip(), text.strip()))
    return pairs


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
    sub.add_argument("--config", default=None, help="file of key = value flags")


@functools.cache
def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    """The parser and its command parsers by name, built once per process:
    parsing leaves them as they were, so every ``main`` call shares them."""
    parser = _Parser(prog="pcoulomb", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    solve = commands.add_parser("solve", help="closed-form solution document")
    _add_problem_options(solve)
    solve.add_argument("--nmax", type=int, default=2, help="levels in the spectrum block")
    solve.add_argument("--out", choices=("json", "table"), default="json")
    solve.set_defaults(func=cmd_solve)

    verify = commands.add_parser("verify", help="run the verification battery")
    _add_problem_options(verify)
    verify.add_argument("--nmax", type=int, default=2, help="levels in the spectrum block")
    verify.add_argument("--out", choices=("json", "table"), default="table")
    verify.set_defaults(func=cmd_verify)

    oracle = commands.add_parser("oracle", help="polynomial-ansatz constraint roots")
    _add_problem_options(oracle)
    oracle.add_argument("--n", type=int, required=True, help="level (polynomial degree)")
    oracle.add_argument(
        "--check", action="store_true",
        help="attach each state's exact residual ||(H - E) psi|| / ||psi||"
    )
    oracle.set_defaults(func=cmd_oracle)

    eig = commands.add_parser("eig", help="lowest spectral-oracle eigenvalues")
    _add_problem_options(eig)
    eig.add_argument("--k", type=int, default=1, help="number of eigenvalues")
    eig.set_defaults(func=cmd_eig)

    sweep = commands.add_parser("sweep", help="CSV scan over one or two parameters")
    _add_problem_options(sweep)
    sweep.add_argument(
        "--richardson", action="store_true",
        help="accepted and ignored: sweep takes each level from the spectral oracle"
    )
    sweep.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="PARAM=V1,V2,...",
        help="parameter range (repeat for a second parameter)",
    )
    sweep.add_argument("--n", type=int, default=0, help="spectrum level per row")
    sweep.set_defaults(func=cmd_sweep)

    return parser, commands.choices


def _with_config(commands: dict[str, argparse.ArgumentParser], argv: list[str]) -> list[str]:
    """``argv`` with the config file's lines as flags after the command name.

    A line ``key = value`` becomes ``--key=value``; a switch's line takes
    ``true`` (the switch) or ``false`` (nothing).  argparse thus converts and
    checks each value as it does the flag's, an explicit flag later on the
    command line overrides it, and a ``sweep`` line adds a range ahead of the
    ``--sweep`` flags.  Keys that only other commands take are skipped.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    pairs = load_config(path)
    known = {
        action.dest
        for sub in commands.values()
        for action in sub._actions
        if action.dest != "help"
    }
    unknown = sorted({key for key, _ in pairs} - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if argv[0] not in commands:
        return argv
    actions = {action.dest: action for action in commands[argv[0]]._actions}
    flags = []
    for key, text in pairs:
        action = actions.get(key)
        if action is None:
            continue
        option = action.option_strings[0]
        if action.nargs != 0:
            flags.append(f"{option}={text}")
        elif text not in ("true", "false"):
            raise ValueError(f"config key {key} takes true or false, not {text!r}")
        elif text == "true":
            flags.append(option)
    return argv[:1] + flags + argv[1:]


def _problem(args) -> tuple[PotentialParams, DimensionSpec, PhysicalParams]:
    phys = PhysicalParams(mass=args.mass, hbar=args.hbar)
    dim = dimension_reduce(args.N, args.l)
    return derive_couplings(args.a, args.b, args.c, args.derive, dim, phys), dim, phys


# ---------------------------------------------------------------------------
# solve

def _solve_table(doc):
    """The lines of the ``solve`` table."""
    dim = doc["dimension"]
    yield f"dimension: N={dim['N']} l={dim['l']}  ->  M={dim['M']} Lambda={dim['Lambda']:g}"
    yield f"regime:    {doc['regime']}"
    for name in ("coulomb", "oscillator"):
        view = doc["views"][name]
        if view is None:
            yield f"{name:<11}view: (not defined for these couplings)"
        else:
            yield (f"{name:<11}view: epsilon={view['epsilon']:.12g}  "
                   f"delta={view['delta_epsilon']:.12g}  E={view['E']:.12g}")
    psi = doc["psi"]
    yield (f"psi:       q={psi['q']:g}  lambda={psi['lambda']:.12g}  "
           f"kappa={psi['kappa']:.12g}  N0={psi['N0']:.12g}")
    if doc["spectrum"]:
        yield "spectrum:"
        for level in doc["spectrum"]:
            yield f"  n={level['n']}  a_n={level['a_n']:.12g}  E_n={level['E_n']:.12g}"


def cmd_solve(args) -> tuple[int, str]:
    pot, dim, phys = _problem(args)
    doc = solve_document(pot, dim, phys, args.nmax)
    return EXIT_OK, dump_json(doc) if args.out == "json" else "\n".join(_solve_table(doc))


# ---------------------------------------------------------------------------
# verify

def _verify_table(doc):
    """The lines of the ``verify`` table."""
    yield f"{'check':<44}{'kind':<8}{'value':<26}{'tol':<12}status"
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
        yield f"{check['name']:<44}{check['kind']:<8}{text:<26}{tol:<12}{status}"
    failed = sum(1 for c in doc["checks"] if c["pass"] is False)
    total = sum(1 for c in doc["checks"] if c["kind"] == "assert")
    yield f"asserts: {total - failed}/{total} passed"


def cmd_verify(args) -> tuple[int, str]:
    pot, dim, phys = _problem(args)
    doc = verify_document(pot, dim, phys, args.nmax)
    text = dump_json(doc) if args.out == "json" else "\n".join(_verify_table(doc))
    return EXIT_VERIFY if any(c["pass"] is False for c in doc["checks"]) else EXIT_OK, text


# ---------------------------------------------------------------------------
# oracle and eig

def cmd_oracle(args) -> tuple[int, str]:
    """The level-n solutions as a JSON list, ascending in the root."""
    doc = oracle_document(*_problem(args), args.n, args.check)
    return EXIT_OK, dump_json(doc)


def cmd_eig(args) -> tuple[int, str]:
    doc = eig_document(*_problem(args), args.k)
    return EXIT_OK, dump_json(doc)


# ---------------------------------------------------------------------------
# sweep

_SWEEPABLE = ("a", "b", "c", "N", "l")


def _parse_sweeps(ranges: list[str] | None, derive: str | None) -> list[tuple[str, list]]:
    """(parameter, values) per range.  A range needs a value and a parameter
    that no other range names and ``--derive`` does not fill."""
    if not ranges:
        raise ValueError("sweep requires at least one --sweep PARAM=V1,V2,...")
    if len(ranges) > 2:
        raise ValueError("at most two sweep parameters are supported")
    sweeps = []
    for item in ranges:
        name, sep, text = item.partition("=")
        if not sep or name not in _SWEEPABLE:
            raise ValueError(f"malformed sweep {item!r}; expected PARAM=V1,V2,...")
        if name in (swept for swept, _ in sweeps):
            raise ValueError(f"sweep parameter {name} is given twice")
        if name == derive:
            raise ValueError(f"cannot sweep {name}: --derive {name} sets it")
        kind = int if name in ("N", "l") else float
        values = [kind(token) for token in map(str.strip, text.split(",")) if token]
        if not values:
            raise ValueError(f"sweep of {name} has no values")
        sweeps.append((name, values))
    return sweeps


def cmd_sweep(args) -> tuple[int, str]:
    sweeps = _parse_sweeps(args.sweep, args.derive)
    lines = ["a,b,c,N,l,n,E_closed,E_numeric,abs_err,constraint_residual"]
    names = [name for name, _ in sweeps]
    for combo in product(*(values for _, values in sweeps)):
        pot, dim, phys = _problem(argparse.Namespace(**(vars(args) | dict(zip(names, combo)))))
        row = sweep_row(pot, dim, phys, args.n)
        cells = (pot.a, pot.b, pot.c, dim.n_dim, dim.ell, args.n, *row)
        lines.append(",".join(map(_csv_cell, cells)))
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------------------

def _fail(code: int, message: str) -> int:
    print(f"pcoulomb: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        argv = _with_config(commands, argv)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"error: {exc}")
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        code, text = EXIT_USAGE, parser.format_help().rstrip("\n")
    else:
        try:
            code, text = args.func(args)
        except ConstraintViolation as exc:
            return _fail(EXIT_CONSTRAINT, f"constraint violation: {exc}")
        except ValueError as exc:
            return _fail(EXIT_USAGE, f"error: {exc}")
        except OverflowError:
            # Python float ** raises where numpy would return inf: an input
            # whose closed forms leave the double range
            return _fail(EXIT_USAGE, "error: a result overflows the float range")
        except ZeroDivisionError:
            # likewise Python float / raises where numpy would return inf or nan
            return _fail(EXIT_USAGE, "error: a denominator underflows to zero")
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the unwritten bytes stay buffered; sent to devnull, the
        # interpreter's flush at exit finds no closed pipe to raise on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail(EXIT_USAGE, "error: stdout was closed before the output was written")
    return code


if __name__ == "__main__":
    sys.exit(main())
