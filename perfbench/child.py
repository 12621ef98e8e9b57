"""Fresh-interpreter helper of the benchmark.

    python perfbench/child.py setup '<warm-up argv as JSON, or null>'
        Import pcoulomb.cli, run the warm-up request with its output
        discarded, then print one JSON line (import time, modules loaded,
        whether scipy.linalg is loaded) and exit.  The parent times the
        interval up to that line as set-up time.

    python perfbench/child.py trace ARGV...
        Import pcoulomb.cli, install the span wrappers, run ``cli.main`` on
        ARGV with stdout untouched, and write the spans as the last line of
        stderr, prefixed with ``SPANS_PREFIX``.  Exits with main's code.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

SPANS_PREFIX = "perfbench-spans: "


def _import_cli():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    from pcoulomb import cli
    return cli, 1e3 * (time.perf_counter() - t0), len(sys.modules)


def _setup(warmup) -> int:
    cli, import_ms, modules = _import_cli()
    if warmup:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(warmup)
        if rc != 0:
            print(f"warm-up request exited with {rc}", file=sys.stderr)
            return 1
    print(json.dumps({"import_ms": import_ms, "modules": modules,
                      "scipy_linalg": "scipy.linalg" in sys.modules}), flush=True)
    return 0


def _trace(argv: list[str]) -> int:
    cli, import_ms, modules = _import_cli()
    import spans

    tracer = spans.Tracer()
    with tracer:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    record = {"import_ms": import_ms, "modules": modules, "spans": tracer.spans}
    sys.stderr.write(SPANS_PREFIX + json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(_setup(json.loads(sys.argv[2])))
    sys.exit(_trace(sys.argv[2:]))
