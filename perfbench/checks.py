"""Output checks and independent accuracy references.

A request *fails* when its exit code is not 0, its stderr holds a
traceback, its stdout does not parse or break the output contract (the
report schema for ``solve``/``verify``), or a ``verify`` assert reports
``pass: false``.  Failures are program errors.

Separately, numbers the program states to a tolerance are *checked* against
references computed here without any pcoulomb code.  An output outside its
tolerance is an accuracy *miss*: a measured defect of the program, reported
as a ratio and never turned into a failure.

References (hbar = mass = 1, so T = 1/2):

* ground energy on the coupling surface, b = 2 a sqrt(2c) / (M - 1) from the
  README and E = -b^2/(4c) + sqrt(c/2) (2 Lambda + 3), the n = 0 level energy
  of the qes docstring;
* QES constraint roots and node counts at 60 digits, from the recursion
  written in the qes module docstring: roots by mpmath root finding, node
  counts by Sturm's theorem on P(r).

Tolerances are the ones the program states: roots to a relative 1e-13
(qes.ROOT_RTOL), eigenvalues to 1e-4 of the closed form (eigen_vs_closed),
closed-form energies to 1e-12 * max(1, |E|) (the identity tolerance).
"""

from __future__ import annotations

import json
import math

import mpmath

ROOT_RTOL = 1e-13
EIGEN_TOL = 1e-4
ENERGY_RTOL = 1e-12

SWEEP_HEADER = "a,b,c,N,l,n,E_closed,E_numeric,abs_err,constraint_residual"
ORACLE_KEYS = {"n", "a_root", "poly", "E", "node_count"}
EIG_KEYS = {"inputs", "grid", "eigenvalues", "meta"}

_DPS = 60


# ---------------------------------------------------------------------------
# report schema (the subset of JSON Schema that report.schema.json uses)

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def schema_errors(value, schema: dict, root: dict, path: str = "$") -> list[str]:
    """Violations of ``schema`` by ``value``; an empty list means valid."""
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].lstrip("#/").split("/"):
            target = target[part]
        return schema_errors(value, target, root, path)
    if "anyOf" in schema:
        if all(schema_errors(value, sub, root, path) for sub in schema["anyOf"]):
            return [f"{path}: matches no alternative"]
        return []
    errors = []
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum")
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](value) for t in types):
            return errors + [f"{path}: not of type {types}"]
    if isinstance(value, dict):
        props = schema.get("properties", {})
        errors += [f"{path}: missing {key}" for key in schema.get("required", ())
                   if key not in value]
        for key, item in value.items():
            if key in props:
                errors += schema_errors(item, props[key], root, f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected {key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors += schema_errors(item, schema["items"], root, f"{path}[{i}]")
    return errors


# ---------------------------------------------------------------------------
# independent references

def _flags(argv: list[str]) -> dict[str, str]:
    """``--name value`` pairs of an argument vector; bare flags map to ''."""
    out: dict[str, str] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = ""
            i += 1
    return out


def surface_energy(a: str | float, c: str | float, n_dim: int, ell: int) -> float:
    """Closed-form ground energy at b derived from (a, c) on the coupling surface."""
    with mpmath.workdps(30):
        a, c = mpmath.mpf(a), mpmath.mpf(c)
        m_index = n_dim + 2 * ell
        lam = mpmath.mpf(m_index - 3) / 2
        b = 2 * a * mpmath.sqrt(2 * c) / (m_index - 1)
        return float(-b**2 / (4 * c) + mpmath.sqrt(c / 2) * (2 * lam + 3))


def _real_roots(coeffs_desc: list) -> list:
    """Real roots of a polynomial (descending mp coefficients), ascending."""
    if len(coeffs_desc) == 1:
        return []
    roots = mpmath.polyroots(coeffs_desc, maxsteps=400, extraprec=4 * _DPS)
    eps = mpmath.mpf(10) ** (-_DPS // 2)
    return sorted(mpmath.re(z) for z in roots if abs(mpmath.im(z)) <= eps * max(1, abs(z)))


def _positive_zero_count(p: list) -> int:
    """Distinct zeros in r > 0 of sum p_k r^k (ascending mp coefficients).

    Sturm's theorem: the sign changes of the Sturm chain at 0+ minus those at
    +infinity.  Remainders below 10^-(DPS/2) of the largest coefficient of
    their dividend count as zero.
    """
    def rem(a: list, b: list) -> list:
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k, coeff in enumerate(b):
                a[shift + k] -= q * coeff
            a.pop()
        return a

    def trim(q: list, scale) -> list:
        eps = mpmath.mpf(10) ** (-_DPS // 2) * scale
        while q and abs(q[-1]) <= eps:
            q.pop()
        return q

    def changes(values) -> int:
        signs = [v > 0 for v in values if v != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    if len(p) < 2:
        return 0
    chain = [list(p), [k * c for k, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        scale = max(abs(c) for c in chain[-2])
        r = trim(rem(chain[-2], chain[-1]), scale)
        if not r:
            break
        chain.append([-c for c in r])
    at_zero = []
    for q in chain:  # the lowest nonzero coefficient gives the sign at 0+
        at_zero.append(next((c for c in q if c != 0), mpmath.mpf(0)))
    return changes(at_zero) - changes(q[-1] for q in chain)


def _poly_mul_linear(p: list, shift) -> list:
    """(A + shift) * p for ascending coefficient lists in A."""
    out = [mpmath.mpf(0)] * (len(p) + 1)
    for k, coeff in enumerate(p):
        out[k] += shift * coeff
        out[k + 1] += coeff
    return out


def _poly_add(p: list, q: list) -> list:
    size = max(len(p), len(q))
    return [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(size)]


def qes_reference(b: str, c: str, n_dim: int, ell: int, n: int):
    """(roots, node counts, level energy) of the level-n constraint, at 60 digits.

    Row j of the recursion reads
      T[(j+2)(j+1) + 2(Lambda+1)(j+2)] p_{j+2} + [A - a0 - 2 T lam (j+1)] p_{j+1}
        + 4 T kap (n - j) p_j = 0,
    solved downward from p_n = 1; D(A) = 2 T (Lambda+1) p_1 + (A - a0) p_0.
    The node count of a root is the number of positive real zeros of
    P(r) = sum p_k r^k with the p_k evaluated at that root.
    """
    with mpmath.workdps(_DPS):
        b, c = mpmath.mpf(b), mpmath.mpf(c)
        t = mpmath.mpf(1) / 2
        lam_dim = mpmath.mpf(n_dim + 2 * ell - 3) / 2
        kap = mpmath.sqrt(2 * c) / 2
        lam = mpmath.sqrt(mpmath.mpf(1) / 2) * b / mpmath.sqrt(c)
        a0 = 2 * t * lam * (lam_dim + 1)

        def row(j):
            curv = t * ((j + 2) * (j + 1) + 2 * (lam_dim + 1) * (j + 2))
            return curv, -a0 - 2 * t * lam * (j + 1), 4 * t * kap * (n - j)

        polys = {n: [mpmath.mpf(1)], n + 1: [mpmath.mpf(0)]}
        for j in range(n - 1, -1, -1):
            curv, shift, step = row(j)
            acc = _poly_add(_poly_mul_linear(polys[j + 1], shift),
                            [curv * x for x in polys[j + 2]])
            polys[j] = [-x / step for x in acc]
        p1 = polys[1] if n >= 1 else [mpmath.mpf(0)]
        d = _poly_add([2 * t * (lam_dim + 1) * x for x in p1],
                      _poly_mul_linear(polys[0], -a0))
        roots = _real_roots(d[::-1])

        nodes = []
        for root in roots:
            p = [mpmath.mpf(0)] * (n + 2)
            p[n] = mpmath.mpf(1)
            for j in range(n - 1, -1, -1):
                curv, shift, step = row(j)
                p[j] = -((root + shift) * p[j + 1] + curv * p[j + 2]) / step
            nodes.append(_positive_zero_count(p[: n + 1]))
        energy = -b**2 / (4 * c) + mpmath.sqrt(c / 2) * (2 * (n + lam_dim) + 3)
        return [float(r) for r in roots], nodes, float(energy)


class References:
    """Per-request reference values, computed once per distinct request."""

    def __init__(self) -> None:
        self._qes: dict[tuple, tuple] = {}

    def qes(self, argv: list[str]):
        f = _flags(argv)
        key = (f["b"], f["c"], int(f["N"]), int(f["l"]), int(f["n"]))
        if key not in self._qes:
            self._qes[key] = qes_reference(*key)
        return self._qes[key]


# ---------------------------------------------------------------------------
# per-request verdict

class Verdict:
    """Failure reason (None when the request succeeded) and accuracy tallies."""

    __slots__ = ("failure", "checked", "misses")

    def __init__(self) -> None:
        self.failure: str | None = None
        self.checked = 0
        self.misses = 0

    def accuracy(self, ok: bool) -> None:
        self.checked += 1
        self.misses += 0 if ok else 1


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def check(argv: list[str], rc: int, out: bytes, err: str, schema: dict,
          refs: References) -> Verdict:
    verdict = Verdict()
    if rc != 0:
        verdict.failure = f"exit code {rc}"
    elif "Traceback" in err:
        verdict.failure = "traceback on stderr"
    else:
        try:
            _CHECKERS[argv[0]](argv, out.decode("utf-8"), schema, refs, verdict)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            verdict.failure = f"unparsable output: {type(exc).__name__}: {exc}"
    return verdict


def _check_report(doc, schema: dict, verdict: Verdict) -> bool:
    errors = schema_errors(doc, schema, schema)
    if errors:
        verdict.failure = "schema: " + "; ".join(errors[:3])
    return not errors


def _check_solve(argv, text, schema, refs, verdict) -> None:
    doc = json.loads(text)
    if not _check_report(doc, schema, verdict):
        return
    f = _flags(argv)
    ref = surface_energy(f["a"], f["c"], int(f["N"]), int(f["l"]))
    for view in doc["views"].values():
        if view is not None:
            verdict.accuracy(_close(view["E"], ref, ENERGY_RTOL))


def _check_verify(argv, text, schema, refs, verdict) -> None:
    doc = json.loads(text)
    if not _check_report(doc, schema, verdict):
        return
    failed = [c["name"] for c in doc.get("checks", ()) if c["pass"] is False]
    if failed or "checks" not in doc:
        verdict.failure = f"verify asserts failed: {failed}"
        return
    numeric = {c["name"]: c["value"] for c in doc["checks"]}["eigen_lowest"]
    f = _flags(argv)
    ref = surface_energy(f["a"], f["c"], int(f["N"]), int(f["l"]))
    verdict.accuracy(abs(numeric - ref) <= EIGEN_TOL)


def _check_oracle(argv, text, schema, refs, verdict) -> None:
    entries = json.loads(text)
    f = _flags(argv)
    n = int(f["n"])
    keys = ORACLE_KEYS | ({"h_residual"} if "check" in f else set())
    for e in entries:
        if (set(e) != keys or e["n"] != n or len(e["poly"]) != n + 1
                or not all(_finite(v) for v in (e["a_root"], e["E"], *e["poly"]))
                or not isinstance(e["node_count"], int)
                or ("check" in f and not (_finite(e["h_residual"]) and e["h_residual"] >= 0))):
            verdict.failure = f"malformed oracle entry {e!r}"
            return
    roots = [e["a_root"] for e in entries]
    if roots != sorted(roots):
        verdict.failure = "oracle roots not ascending"
        return
    ref_roots, ref_nodes, ref_energy = refs.qes(argv)
    unmatched = list(range(len(entries)))
    for ref_root, ref_node in zip(ref_roots, ref_nodes):
        near = min(unmatched, key=lambda i: abs(roots[i] - ref_root), default=None)
        if near is None or not _close(roots[near], ref_root, ROOT_RTOL):
            verdict.accuracy(False)  # root
            verdict.accuracy(False)  # its node count
            continue
        unmatched.remove(near)
        verdict.accuracy(True)
        verdict.accuracy(entries[near]["node_count"] == ref_node)
    for i in unmatched:  # roots with no reference root
        verdict.accuracy(False)
    for e in entries:
        verdict.accuracy(_close(e["E"], ref_energy, ENERGY_RTOL))


def _check_eig(argv, text, schema, refs, verdict) -> None:
    doc = json.loads(text)
    f = _flags(argv)
    values = doc["eigenvalues"]
    if (set(doc) != EIG_KEYS or len(values) != int(f.get("k", 1))
            or not all(_finite(v) for v in values) or values != sorted(values)):
        verdict.failure = "malformed eig document"
        return
    ref = surface_energy(f["a"], f["c"], int(f["N"]), int(f["l"]))
    verdict.accuracy(abs(values[0] - ref) <= EIGEN_TOL)


def _check_sweep(argv, text, schema, refs, verdict) -> None:
    lines = text.splitlines()
    sizes = [len(item.split("=", 1)[1].split(",")) for key, item in zip(argv, argv[1:])
             if key == "--sweep"]
    if lines[0] != SWEEP_HEADER or len(lines) != 1 + math.prod(sizes):
        verdict.failure = "malformed sweep table"
        return
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        if len(cells) != 10 or not all(math.isfinite(x) for x in cells):
            verdict.failure = f"malformed sweep row {line!r}"
            return
        a, _, c, n_dim, ell, n, _, numeric, _, _ = cells
        if n == 0:
            ref = surface_energy(a, c, int(n_dim), int(ell))
            verdict.accuracy(abs(numeric - ref) <= EIGEN_TOL)


_CHECKERS = {
    "solve": _check_solve,
    "verify": _check_verify,
    "oracle": _check_oracle,
    "eig": _check_eig,
    "sweep": _check_sweep,
}
