"""Compare the CLI output of two checkouts on every benchmark request.

    python tools/compare_requests.py OLD_ROOT NEW_ROOT

Each ROOT is a checkout of this repository (a directory holding
``src/pcoulomb``).  The requests are every distinct argv of the three
benchmark workloads (``cli-cold``, ``verify-battery``, ``sweep-scan``) for
seeds 1-10, read from ``perfbench/workloads.py`` of the checkout this script
lives in, which is loaded by path and only read.  The fixed ``EXTRA``
argvs run after them as a group of their own (paths no benchmark request
takes).  For each root one fresh interpreter imports that root's
``pcoulomb.cli`` and runs every request in turn through ``main``, capturing
the exit code, stdout and stderr.  The two roots run side by side, one
process each.

Prints, per command, how many benchmark requests gave identical (exit code,
stdout, stderr), the same tally for the ``EXTRA`` group, then the first
differing line of each differing request, then, per numeric
field, how many differing requests moved it and its largest absolute and
relative moves over them, the ``EXTRA`` group's fields apart.  The fields
are the numbers of the ``solve`` and ``verify --out json`` documents
(``psi.*``, ``views.*`` and the ``spectrum``'s ``a_n`` and ``E_n`` by
dotted name, and the ``verify`` check values by check name), the ``eig``
eigenvalues, each ``oracle`` entry's ``a_root``, ``E`` and ``h_residual``,
and the ``sweep`` CSV columns.  A residual printed as ``"divergent"`` reads
as infinite, so a move between it and a number is an infinite move.  Exits
0 when every request of both groups is identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)

#: requests outside the benchmark: the README command lines; eig's k from 1 to
#: spectral.MAX_LEVEL + 1, whose levels must not depend on k; a strong-Coulomb
#: verify (a = 50, c = 1e-3) whose grid level 0 missed the closed form by
#: 2.2e-4; eig where T = hbar^2/2m underflows (hbar 1e-200, refused: the basis
#: needs a Coulomb length in the float range) and where it is subnormal (hbar
#: 1e-160); a level-12 sweep row; the two range errors of eig --k; the grid
#: flags --rmax, --h and --richardson, which eig no longer takes (exit 1); and
#: output paths of the formatting layer: the solve table, oracle without
#: --check, a verify table with a FAIL (exit 3, off the surface at b = 1e-11),
#: and two sweeps whose second row is rejected (a non-finite cell, and no
#: closed form at c = 0) with stdout left empty; ansatz paths: the b = 0
#: family, level 0, MAX_LEVEL without --check, a level above it, a level whose
#: p_k overflow at tiny couplings, and c = 0; battery paths: verify at a =
#: 1e-8, whose grid would exceed the node budget, M = 2, whose eigen_vs_closed
#: the grid could not judge (every benchmark stratum has M >= 3), with an M = 2
#: eig, and mass 1e-200, whose squared Coulomb length overflows; pure Coulomb
#: eig and sweep; exact moments: solve at M = 2, and at c = 0, whose moments
#: are p!/beta^(p+1); inputs no grid serves: oracle --check at M = 2 (numbers
#: and divergent residuals), at c = 1e307 (the grid Hamiltonian overflows), and
#: solve where a grid would exceed the node budget; the spectral oracle's basis
#: sizes and scale bracket: verify at M = 51, at hbar 0.3 with mass 2, and at c
#: = 50 and c = 0.005; inputs at the float range's ends: verify at c = 1e300,
#: whose level sits on an energy lattice of step 1e141, and at mass 1e-300,
#: whose linear length is inf (with mass 1e-200 above, where the pencil's s^2
#: overflows); the closed-form states' rescaling and moments at the float
#: range's ends: solve at a = 1e-200 with c = 1e-250, oracle --check at b = c =
#: 1e-150, and verify at mass 1e157, 1e160 and 1e200, where the pencil's s^2 is
#: subnormal or 0; a pencil whose Coulomb term a / s underflows to 0 from a =
#: 1e-320 (exit 1); and solve where the Gaussian carries no weight beside the
#: exponential, so x^2 of the moments' recurrence overflows; sweep rows from
#: the spectral oracle: M = 2 at levels 0 and 1, a level one above
#: spectral.MAX_LEVEL (refused, exit 1), and the grid flags, which sweep no
#: longer takes (exit 1).  The sweeps above that pass --rmax and --h, and the
#: level-12 sweep row, exit 1 as well
EXTRA = [argv.split() for argv in (
    "solve --a 1 --c 0.5 --N 3 --l 0 --derive b",
    "verify --a 1 --c 0.5 --N 3 --l 0 --derive b",
    "verify --a 1 --c 0.5 --N 3 --l 0 --derive b --out json",
    "oracle --b 1 --c 0.5 --N 3 --l 0 --n 1 --check",
    "eig --a 1 --b 1 --c 0.5 --k 3",
    "sweep --sweep a=0.5,1,2 --c 0.5 --derive b",
    "eig --a 1 --b 1 --c 0.5 --k 1",
    "eig --a 1 --b 1 --c 0.5 --k 2",
    "eig --a 1 --b 1 --c 0.5 --k 4",
    "eig --a 1 --b 1 --c 0.5 --k 5",
    "eig --a 1 --b 1 --c 0.5 --k 6",
    "verify --a 50 --c 1e-3 --derive b --out json",
    "sweep --sweep a=0.5,1 --c 0.5 --derive b --n 2 --rmax 19.992 --h 0.001 --richardson",
    "verify --a 1.64046 --c 0.40084 --N 4 --l 0 --derive b --out json",
    "eig --a 1 --b 1 --c 0.5 --hbar 1e-200 --k 3",
    "eig --a 1 --b 1 --c 0.5 --hbar 1e-160 --k 3",
    "sweep --sweep a=0.8,1.6 --c 0.5 --derive b --n 12 --richardson",
    "eig --a 1 --c 0.5 --derive b --k 0",
    "eig --a 1 --c 0.5 --derive b --k 7",
    "eig --a 1 --b 1 --c 0.5 --k 3 --rmax 40",
    "eig --a 1 --b 1 --c 0.5 --k 3 --h 0.002",
    "eig --a 1 --b 1 --c 0.5 --k 3 --richardson",
    "solve --a 1 --c 0.5 --derive b --out table",
    "oracle --b 1 --c 0.5 --n 2",
    "verify --b 1e-11 --c 0.5",
    "sweep --sweep b=1,3e4 --c 1e-300 --rmax 20 --h 0.01",
    "sweep --sweep c=0.5,0 --a 1 --derive b",
    "oracle --b 0 --c 0.5 --N 3 --l 0 --n 3",
    "oracle --b 1 --c 0.5 --N 3 --l 0 --n 0",
    "oracle --b 5 --c 0.05 --N 7 --l 2 --n 8",
    "oracle --b 1 --c 0.5 --n 9",
    "oracle --b 1e-300 --c 1e-300 --n 8",
    "oracle --b 1 --c 0 --n 1",
    "verify --a 1e-8 --c 0.5 --derive b --out json",
    "verify --a 1 --mass 1e-200",
    "verify --a 1 --c 0.5 --N 2 --derive b --out json",
    "eig --a 1 --c 0.5 --N 2 --derive b --k 3",
    "eig --a 1 --k 3",
    "sweep --sweep a=1,2 --richardson",
    "verify --a 1 --N 3 --l 1 --out json",
    "solve --a 1 --c 0.5 --N 2 --l 0 --derive b",
    "solve --a 1 --N 3 --l 0",
    "oracle --b 1 --c 0.5 --N 2 --l 0 --n 3 --check",
    "oracle --b 1 --c 1e307 --n 0 --check",
    "solve --a 1e-8 --c 0.5 --derive b",
    "verify --a 1 --c 0.5 --N 51 --l 0 --derive b --out json",
    "verify --a 1 --c 0.5 --hbar 0.3 --mass 2 --derive b --out json",
    "verify --a 1 --c 50 --derive b --out json",
    "verify --a 1 --c 0.005 --derive b --out json",
    "verify --c 1e300 --out json",
    "verify --mass 1e-300 --a 1 --c 0.5 --derive b",
    "solve --a 1e-200 --derive b --c 1e-250",
    "oracle --b 1e-150 --c 1e-150 --n 2 --check",
    "verify --a 1 --mass 1e157 --out json",
    "verify --a 1 --mass 1e160 --out json",
    "verify --a 1 --mass 1e200 --out json",
    "verify --a 1e-320 --mass 1e300",
    "solve --a 1e-50 --c 2e-220 --hbar 1e-100 --derive b",
    "sweep --sweep a=0.5,1 --c 0.5 --N 2 --derive b --richardson",
    "sweep --sweep a=0.5,1 --c 0.5 --N 2 --derive b --n 1 --richardson",
    "sweep --sweep a=0.5,1 --c 0.5 --derive b --n 6 --richardson",
    "sweep --sweep a=0.5,1 --c 0.5 --derive b --rmax 20 --h 0.01",
)]

# runs the argvs of stdin under ROOT's package and prints [exit code,
# stdout, stderr] per argv as one JSON list
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from pcoulomb.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def distinct_requests() -> list[list[str]]:
    """Every distinct request of the benchmark workloads, seeds 1-10, in
    first-seen order."""
    workloads = _workloads()
    seen = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for argv in workloads.requests(workload, seed):
                seen.setdefault(tuple(argv), list(argv))
    return list(seen.values())


def _start(root: Path, argvs: list[list[str]]) -> subprocess.Popen:
    src = root / "src"
    if not (src / "pcoulomb").is_dir():
        raise SystemExit(f"{root} holds no src/pcoulomb")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(src)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    child.stdin.write(json.dumps(argvs))
    child.stdin.close()
    return child


def _collect(child: subprocess.Popen, root: Path) -> list:
    text = child.stdout.read()
    if child.wait() != 0:
        raise SystemExit(f"the interpreter for {root} exited with {child.returncode}")
    return json.loads(text)


def _first_difference(old, new) -> str:
    if old[0] != new[0]:
        return f"exit code {old[0]} != {new[0]}"
    for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a == b:
            continue
        a_lines, b_lines = a.splitlines(), b.splitlines()
        for i in range(max(len(a_lines), len(b_lines))):
            a_line = a_lines[i] if i < len(a_lines) else "<end>"
            b_line = b_lines[i] if i < len(b_lines) else "<end>"
            if a_line != b_line:
                return f"{stream} line {i + 1}: {a_line!r} != {b_line!r}"
        return f"{stream} differs in line endings"
    return "identical"


#: the value of a residual whose (H - E) psi has an infinite norm
DIVERGENT = "divergent"


def _numbers(value) -> list[float]:
    """The numbers of one output value: a number or a list of them, with
    ``DIVERGENT`` as inf."""
    values = value if isinstance(value, list) else [value]
    return [math.inf if v == DIVERGENT else float(v)
            for v in values if isinstance(v, (int, float)) or v == DIVERGENT]


def _move(x: float, y: float) -> tuple[float, float]:
    """The absolute and relative move from x to y; inf when only one is."""
    if x == y:
        return 0.0, 0.0
    if math.isinf(x) or math.isinf(y):
        return math.inf, math.inf
    return abs(x - y), abs(x - y) / max(abs(x), abs(y))


def _document_fields(doc: dict) -> dict[str, list[float]]:
    """The numbers a ``solve`` document holds, which ``verify`` shares: psi,
    each view's energies and the spectrum's a_n and E_n, by dotted name."""
    fields = {f"psi.{name}": _numbers(value) for name, value in doc["psi"].items()}
    for view, block in doc["views"].items():
        for name, value in (block or {}).items():
            fields[f"views.{view}.{name}"] = _numbers(value)
    for name in ("a_n", "E_n"):
        fields[f"spectrum.{name}"] = _numbers([level[name] for level in doc["spectrum"]])
    return fields


def _fields(command: str, stdout: str) -> dict[str, list[float]]:
    """Numeric fields of one output, by name; {} for any other output."""
    try:
        if command == "solve":
            return _document_fields(json.loads(stdout))
        if command == "verify":
            doc = json.loads(stdout)
            return {**_document_fields(doc),
                    **{c["name"]: _numbers(c["value"]) for c in doc["checks"]}}
        if command == "eig":
            return {"eigenvalues": _numbers(json.loads(stdout)["eigenvalues"])}
        if command == "oracle":
            entries = json.loads(stdout)
            return {name: _numbers([entry.get(name) for entry in entries])
                    for name in ("a_root", "E", "h_residual")}
        if command == "sweep":
            header, *rows = csv.reader(stdout.splitlines())
            return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}
    except (ValueError, KeyError, TypeError):
        pass
    return {}


def _moves(command: str, old, new, moves: dict, prefix: str = "") -> None:
    """Adds to ``moves`` (field -> [requests moved, largest move, largest
    relative move]) the fields of one differing request whose values moved,
    each named ``prefix``, the command and the field."""
    old_fields, new_fields = _fields(command, old[1]), _fields(command, new[1])
    for name, a in old_fields.items():
        b = new_fields.get(name)
        if b is None or len(a) != len(b):
            continue
        moves_ab = [_move(x, y) for x, y in zip(a, b)]
        move = max((m for m, _ in moves_ab), default=0.0)
        if move > 0.0:
            relative = max(r for _, r in moves_ab)
            entry = moves.setdefault(f"{prefix}{command} {name}", [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], move)
            entry[2] = max(entry[2], relative)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    requests = distinct_requests()
    argvs = requests + EXTRA
    children = [_start(root, argvs) for root in roots]
    old, new = (_collect(child, root) for child, root in zip(children, roots))
    total, same, diffs, moves = Counter(), Counter(), [], {}
    for i, (request, a, b) in enumerate(zip(argvs, old, new)):
        group = request[0] if i < len(requests) else "extra"
        total[group] += 1
        if a == b:
            same[group] += 1
            continue
        diffs.append(f"{' '.join(request)}\n    {_first_difference(a, b)}")
        _moves(request[0], a, b, moves, "extra " if group == "extra" else "")
    extra = same.pop("extra", 0), total.pop("extra", 0)
    for command in sorted(total):
        print(f"{command:<8}{same[command]:>5} of {total[command]:>4} identical")
    print(f"{'all':<8}{sum(same.values()):>5} of {len(requests):>4} identical")
    print(f"{'extra':<8}{extra[0]:>5} of {extra[1]:>4} identical")
    for line in diffs:
        print(line)
    if diffs:
        print("fields moved (requests, largest absolute and relative moves):")
        for name, (count, move, relative) in sorted(moves.items()):
            print(f"    {name:<48}{count:>5}  {move:.3g}  {relative:.3g}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
