"""Benchmark of the pcoulomb command line: one workload, one seed, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Load is a closed loop with one client: one request at a time, the next sent
when the previous one has returned.  A run measures whole passes over the
workload's request list for at least S seconds and at least MIN_REQUESTS
requests, so that the 90th percentile has ten samples beyond it, then
checks every output (see checks.py).

With ``--trace 0`` the result carries the end-to-end metrics, measured with
no wrappers installed.  With ``--trace 1`` each request runs twice in a row,
first untraced and then with span wrappers (spans.py), and the result
carries the per-layer metrics of the traced runs and the tracing overhead
(the median over the pairs of traced minus untraced latency).

Stdout holds a ``host:`` line with the facts of the machine, then the result
as a JSON object on the last line.  Metric names and units are those of
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import spans
import workloads
from child import SPANS_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fewest requests a timed run makes, whatever its length
MIN_REQUESTS = 100
#: a timed run stops here even short of MIN_REQUESTS, to end in bounded time
MAX_LOOP_SECONDS = 110.0
#: fresh interpreters started per run to measure set-up time
SETUP_REPEATS = 9
#: request whose scipy.linalg footprint ``pkg.scipy_linalg_loaded`` reports
SOLVE_PROBE = ["solve", "--a", "1", "--c", "0.5", "--N", "3", "--l", "0", "--derive", "b"]
#: environment variables that set thread counts or numpy's CPU dispatch
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")


@dataclass(slots=True)
class Sample:
    argv: list[str]
    rc: int
    out: bytes
    err: str
    latency: float
    traced: bool
    spans: list | None
    rss_mb: float | None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(cmd: list[str], env: dict[str, str], timeout: float):
    """(exit code, stdout, stderr, peak RSS in MB) of one child process.

    Reads both pipes from this thread and reaps the child with wait4, which
    reports the peak RSS of that child alone.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=ROOT) as proc:
        chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(max(deadline - time.monotonic(), 0.0))
                if not ready:
                    proc.kill()
                    raise TimeoutError(f"{cmd} ran over {timeout} s")
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[fd]) for fd in chunks)
    return proc.returncode, out, err.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0


class ColdRunner:
    """Each request is a fresh ``python -m pcoulomb.cli`` process.

    A traced request runs child.py instead, which records its spans itself.
    """

    tracer = None

    def __init__(self) -> None:
        self.env = _child_env()

    def run(self, argv: list[str], traced: bool):
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), "trace", *argv]
        else:
            cmd = [sys.executable, "-m", "pcoulomb.cli", *argv]
        rc, out, err, rss_mb = _run_child(cmd, self.env, timeout=150)
        lines = err.splitlines(keepends=True)
        span_list = None
        if traced and lines and lines[-1].startswith(SPANS_PREFIX):
            span_list = json.loads(lines.pop()[len(SPANS_PREFIX):])["spans"]
        return rc, out, "".join(lines), span_list, rss_mb


class WarmRunner:
    """Requests are ``cli.main`` calls in this process, after one warm-up."""

    def __init__(self, warmup: list[str]) -> None:
        sys.path.insert(0, str(SRC))
        from pcoulomb import cli

        if Path(cli.__file__).resolve().parent != SRC / "pcoulomb":
            raise RuntimeError(f"imported pcoulomb from {cli.__file__}, not from {SRC}")
        self.cli = cli
        self.tracer = spans.Tracer()
        rc, _, err, _, _ = self.run(warmup, False)
        if rc != 0:
            raise RuntimeError(f"warm-up request failed ({rc}): {err}")

    def run(self, argv: list[str], traced: bool):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed request, not a crash of the run
                rc = -1
                traceback.print_exc()
        return rc, out.getvalue().encode("utf-8"), err.getvalue(), None, None


def timed_loop(runner, reqs: list[list[str]], seconds: float,
               trace: bool) -> tuple[list[Sample], float]:
    """Closed loop over ``reqs`` for ``seconds`` and MIN_REQUESTS.

    The list is run in whole passes, so every request weighs the same in the
    figures of a run.  With ``trace`` each request runs twice in a row,
    untraced then traced, so the two latencies of a pair see the same state
    of the machine; span wrappers are installed and removed outside the
    timed interval.
    """
    samples: list[Sample] = []
    runs = 2 if trace else 1
    clock = time.perf_counter
    start = clock()
    while True:
        elapsed = clock() - start
        if len(samples) % runs == 0 and (
                (elapsed >= seconds and len(samples) >= MIN_REQUESTS
                 and len(samples) % (runs * len(reqs)) == 0)
                or elapsed >= MAX_LOOP_SECONDS):
            break
        traced = trace and len(samples) % 2 == 1
        argv = reqs[(len(samples) // runs) % len(reqs)]
        tracer = runner.tracer if traced else None
        if tracer is not None:
            tracer.request = len(samples)
            tracer.install()
        t0 = clock()
        rc, out, err, span_list, rss_mb = runner.run(argv, traced)
        latency = clock() - t0
        if tracer is not None:
            tracer.uninstall()
        samples.append(Sample(argv, rc, out, err, latency, traced, span_list, rss_mb))
    return samples, clock() - start


def setup_probe(warmup: list[str] | None) -> tuple[float, dict]:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", json.dumps(warmup)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT, env=_child_env()) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=150)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed: {err.decode('utf-8', 'replace')}")
    return ready, json.loads(line)


class Tally:
    """Failures, accuracy checks and determinism over the samples of a run."""

    def __init__(self, schema: dict) -> None:
        self.schema = schema
        self.refs = checks.References()
        self.first: dict[tuple, bytes] = {}
        self._verdicts: dict[tuple, checks.Verdict] = {}
        self.attempted = self.failed = self.checked = self.misses = 0
        self.reasons: dict[str, int] = {}

    def add(self, samples: list[Sample]) -> None:
        for s in samples:
            key = tuple(s.argv)
            vkey = (key, s.rc, s.out, s.err)
            if vkey not in self._verdicts:
                self._verdicts[vkey] = checks.check(s.argv, s.rc, s.out, s.err,
                                                    self.schema, self.refs)
            verdict = self._verdicts[vkey]
            failure = verdict.failure
            if key not in self.first:  # accuracy counts each distinct request once
                self.first[key] = s.out
                self.checked += verdict.checked
                self.misses += verdict.misses
            elif failure is None and self.first[key] != s.out:
                failure = "stdout differs from the first run of the same request"
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                reason = f"{' '.join(s.argv)}: {failure}"
                self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def _peak_rss_mb(samples: list[Sample], cold: bool) -> float:
    """Peak RSS of this process, or on cli-cold the median over request processes."""
    if cold:
        return statistics.median(s.rss_mb for s in samples)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_spans(samples: list[Sample]) -> list[list]:
    """Spans recorded in child processes, re-indexed into one list."""
    out: list[list] = []
    for i, s in enumerate(samples):
        base = len(out)
        for span in s.spans or ():
            parent = span[3] + base if span[3] >= 0 else -1
            out.append([span[0], span[1], span[2], parent, i, span[5]])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Metrics of one run as {name: value}, plus the tally of its requests."""
    reqs = workloads.requests(name, seed)
    warmup = workloads.WARMUP[name]
    schema = json.loads((SRC / "pcoulomb" / "schema" / "report.schema.json").read_text())
    # half of the set-up probes before the timed loop and half after, so that
    # their median spans the run and not only its first seconds
    probes = [setup_probe(warmup) for _ in range(SETUP_REPEATS // 2)]
    cold = name == "cli-cold"
    runner = ColdRunner() if cold else WarmRunner(warmup)
    samples, wall = timed_loop(runner, reqs, seconds, trace)
    probes += [setup_probe(warmup) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    tally = Tally(schema)
    tally.add(samples)

    if not trace:
        latencies = [1e3 * s.latency for s in samples]
        return {
            "setup_s": statistics.median(p[0] for p in probes),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": _p90(latencies),
            "throughput_rps": (tally.attempted - tally.failed) / wall,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "accuracy_ok_ratio": 1.0 - tally.misses / tally.checked if tally.checked else 1.0,
            "peak_rss_mb": _peak_rss_mb(samples, cold),
        }, tally

    untraced = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    span_list = _child_spans(traced) if cold else runner.tracer.spans
    metrics = spans.layer_metrics(span_list, len(traced))
    solve_probe = setup_probe(SOLVE_PROBE)[1]
    metrics.update({
        "pkg.import_ms": statistics.median(p[1]["import_ms"] for p in probes),
        "pkg.modules_loaded": statistics.median(p[1]["modules"] for p in probes),
        "pkg.scipy_linalg_loaded": float(solve_probe["scipy_linalg"]),
        "cli.doc_bytes": statistics.fmean(len(s.out) for s in traced),
        "trace.untraced_p50_ms": statistics.median(1e3 * s.latency for s in untraced),
        "trace.traced_p50_ms": statistics.median(1e3 * s.latency for s in traced),
        "trace.overhead_ms": statistics.median(
            1e3 * (t.latency - u.latency) for u, t in zip(untraced, traced)),
    })
    return metrics, tally


def host_facts(workload: str, seed: int) -> dict:
    import numpy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "numpy_simd_baseline": list(umath.__cpu_baseline__),
        "numpy_simd_found": sorted(k for k, on in umath.__cpu_features__.items() if on),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def result_line(metrics: dict[str, float], tally: Tally, section: str) -> str:
    """The result object; names and units must match BENCHMARK.json exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"differ from BENCHMARK.json {section}")
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pcoulomb" / "cli.py").is_file():
        print(f"run.py: no pcoulomb sources under {SRC}", file=sys.stderr)
        return 2

    print("host: " + json.dumps(host_facts(args.workload, args.seed)), flush=True)
    metrics, tally = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason, count in sorted(tally.reasons.items()):
        print(f"failed x{count}: {reason}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    print(result_line(metrics, tally, section))
    return 0


if __name__ == "__main__":
    sys.exit(main())
