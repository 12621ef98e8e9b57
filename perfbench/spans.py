"""Span recording around the public functions of each pcoulomb module.

A ``Tracer`` wraps the functions listed in ``TARGETS``.  Each call through a
wrapper records a span: group name, start, end, parent span, request id and
the sizes the call worked on.  Spans stay in memory; ``layer_metrics`` turns
them into per-request figures for each layer (module).

Wrappers are installed at every attribute of every loaded ``pcoulomb``
module that holds the wrapped function object, found by identity, so names
bound by ``from ... import`` are covered wherever the function moves.

Conventions of the figures:
* ``<group>_ms`` is time inside the group, a call nested in another call of
  the same group counted once;
* ``<layer>.self_ms`` is time in the layer's spans not covered by a child
  span (of any layer);
* counts include nested calls, e.g. the h/2 eigensolve of a Richardson call.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("pkg", "cli", "model", "susy", "exact", "qes", "numerics")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _nbytes(x) -> int:
    """Bytes of the arrays a numerics call takes or returns."""
    if hasattr(x, "nbytes"):
        return int(x.nbytes)
    if hasattr(x, "values") and hasattr(x, "grid"):  # GridFunction
        return int(x.values.nbytes)
    if hasattr(x, "count") and hasattr(x, "h"):  # RadialGrid: its node array
        return 8 * int(x.count)
    if isinstance(x, (tuple, list)):
        return sum(_nbytes(item) for item in x)
    return 0


def _numerics_bytes(args, kwargs, result) -> dict:
    return {"bytes": sum(_nbytes(a) for a in (*args, *kwargs.values(), result))}


def _points(args, kwargs, result) -> dict:
    return {"points": _size(args[1]) if len(args) > 1 else 1}


def _eigen(args, kwargs, result) -> dict:
    info = _numerics_bytes(args, kwargs, result)
    info["nodes"] = int(_arg(args, kwargs, 1, "grid").count)
    info["vectors"] = bool(_arg(args, kwargs, 4, "eigenvectors", False))
    return info


def _grid(args, kwargs, result) -> dict:
    return {"nodes": int(result.count), "key": [result.r_max, result.h],
            "bytes": 8 * int(result.count)}


def _qes_solve(args, kwargs, result) -> dict:
    return {"roots": len(result), "levels": int(_arg(args, kwargs, 4, "n")) + 1}


#: (module, attribute, group, measure); "Class.method" patches the class
TARGETS = [
    ("pcoulomb.cli", "main", "cli.main", None),
    ("pcoulomb.cli", "build_parser", "cli.parse", None),
    ("pcoulomb.cli", "_Parser.parse_args", "cli.parse", None),
    ("pcoulomb.cli", "dump_json", "cli.emit", None),
    ("pcoulomb.model", "LaurentForm.__call__", "model.laurent_eval", _points),
    ("pcoulomb.susy", "ClosedFormState.evaluate", "susy.state_eval", _points),
    ("pcoulomb.susy", "riccati_residual", "susy.identity", None),
    ("pcoulomb.susy", "perturbation_residual", "susy.identity", None),
    ("pcoulomb.susy", "riccati_image", "susy.identity", None),
    ("pcoulomb.susy", "shape_invariance_compare", "susy.identity", None),
    *[("pcoulomb.exact", name, "exact.call", None) for name in (
        "constraint_a", "constraint_b", "constraint_residual", "require_constraint",
        "coulomb_ground", "perturbation_ground_coulomb", "ground_state",
        "oscillator_view_ground", "dual_view_check", "level_spacing", "spectrum",
        "level_superpotential", "hierarchy_ground", "hierarchy_states")],
    ("pcoulomb.qes", "qes_solve", "qes.solve", _qes_solve),
    ("pcoulomb.qes", "qes_constraint_polynomial", "qes.poly", None),
    ("pcoulomb.qes", "oracle_state", "qes.state", None),
    ("pcoulomb.numerics", "eigen_lowest", "numerics.eigen", _eigen),
    ("pcoulomb.numerics", "build_grid", "numerics.build_grid", _grid),
    ("pcoulomb.numerics", "h_residual", "numerics.residual", _numerics_bytes),
    ("pcoulomb.numerics", "hamiltonian_apply", "numerics.apply", _numerics_bytes),
    ("pcoulomb.numerics", "evaluate_state", "numerics.evaluate", _numerics_bytes),
    ("pcoulomb.numerics", "normalize", "numerics.quadrature", _numerics_bytes),
    ("pcoulomb.numerics", "overlap", "numerics.quadrature", _numerics_bytes),
]

#: groups whose recursive calls are folded into the outermost span
_FOLD_RECURSION = {"cli.emit"}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores.

    A span is the list [group, start, end, parent index, request id, info].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def wrap(self, group: str, fn, measure=None):
        spans, stack = self.spans, self._stack
        fold = group in _FOLD_RECURSION
        clock = time.perf_counter
        depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            if fold and depth:
                return fn(*args, **kwargs)
            span = [group, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            depth += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth -= 1
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pcoulomb" or name.startswith("pcoulomb."))]
        for module_name, attr, group, measure in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, meth)
                self._patched.append((cls, meth, original, meth in cls.__dict__))
                setattr(cls, meth, self.wrap(group, original, measure))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(group, original, measure)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original, True))
                        setattr(module, name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, name, original, owned in reversed(self._patched):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# aggregation

def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-request layer figures from the spans of ``requests`` requests.

    ``pkg`` figures come from fresh interpreters and are added by the caller.
    """
    per = 1.0 / max(requests, 1)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def nested_in_own_group(i: int) -> bool:
        group, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == group:
                return True
            parent = spans[parent][3]
        return False

    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, dict[str, float]] = {}
    self_ms = {layer: 0.0 for layer in LAYERS if layer != "pkg"}
    for i, s in enumerate(spans):
        group = s[0]
        calls[group] = calls.get(group, 0) + 1
        self_ms[group.split(".")[0]] += dur[i] - child_time[i]
        if not nested_in_own_group(i):
            busy[group] = busy.get(group, 0.0) + dur[i]
        for key, value in (s[5] or {}).items():
            if key != "key":
                bucket = info.setdefault(group, {})
                bucket[key] = bucket.get(key, 0) + value

    def ms(group):
        return 1e3 * busy.get(group, 0.0) * per

    def count(group, key=None):
        if key is None:
            return calls.get(group, 0) * per
        return info.get(group, {}).get(key, 0) * per

    # distinct grids per request over grids built
    distinct = len({(s[4], tuple(s[5]["key"])) for s in spans if s[0] == "numerics.build_grid"})
    builds = calls.get("numerics.build_grid", 0)
    qes_levels = info.get("qes.solve", {}).get("levels", 0)
    numerics_bytes = sum(v.get("bytes", 0) for g, v in info.items() if g.startswith("numerics."))

    out = {
        "cli.parse_ms": ms("cli.parse"),
        "cli.emit_ms": ms("cli.emit"),
        "model.laurent_eval_ms": ms("model.laurent_eval"),
        "model.laurent_eval_points": count("model.laurent_eval", "points"),
        "susy.state_eval_ms": ms("susy.state_eval"),
        "susy.state_eval_points": count("susy.state_eval", "points"),
        "susy.identity_ms": ms("susy.identity"),
        "exact.ms": ms("exact.call"),
        "exact.calls": count("exact.call"),
        "qes.solve_ms": ms("qes.solve"),
        "qes.poly_ms": ms("qes.poly"),
        "qes.solve_calls": count("qes.solve"),
        "qes.roots_found": count("qes.solve", "roots"),
        "qes.root_yield": (info.get("qes.solve", {}).get("roots", 0) / qes_levels
                           if qes_levels else 0.0),
        "numerics.eigen_ms": ms("numerics.eigen"),
        "numerics.eigen_calls": count("numerics.eigen"),
        "numerics.eigen_vector_calls": count("numerics.eigen", "vectors"),
        "numerics.eigen_nodes": count("numerics.eigen", "nodes"),
        "numerics.build_grid_calls": count("numerics.build_grid"),
        "numerics.grid_nodes": count("numerics.build_grid", "nodes"),
        "numerics.grid_reuse_ratio": distinct / builds if builds else 0.0,
        "numerics.residual_ms": ms("numerics.residual"),
        "numerics.apply_ms": ms("numerics.apply"),
        "numerics.evaluate_ms": ms("numerics.evaluate"),
        "numerics.quadrature_ms": ms("numerics.quadrature"),
        "numerics.bytes_computed": numerics_bytes * per,
    }
    for layer, total in self_ms.items():
        out[f"{layer}.self_ms"] = 1e3 * total * per
    out["trace.spans_per_request"] = len(spans) * per
    return out
