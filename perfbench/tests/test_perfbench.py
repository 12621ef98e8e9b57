"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = workloads.requests(workload, 7)
    assert first == workloads.requests(workload, 7)
    assert first != workloads.requests(workload, 8)
    assert len(first) >= 12


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stdout_identical_with_spans_on_and_off(workload):
    reqs = workloads.requests(workload, 3)
    if workload == "cli-cold":
        runner = run.ColdRunner()
        sample = [next(r for r in reqs if r[0] == cmd) for cmd in ("verify", "oracle")]
        for argv in sample:
            plain = runner.run(argv, traced=False)
            traced = runner.run(argv, traced=True)
            assert plain[0] == traced[0] == 0
            assert plain[1] == traced[1]
            assert traced[3], "child recorded no spans"
        return
    runner = run.WarmRunner(workloads.WARMUP[workload])
    for argv in reqs[:3]:
        plain = runner.run(argv, traced=False)
        with runner.tracer:
            traced = runner.run(argv, traced=True)
        assert plain[0] == traced[0] == 0
        assert plain[1] == traced[1]
    assert runner.tracer.spans


def test_spans_cover_from_import_bindings_and_uninstall():
    run.WarmRunner(workloads.WARMUP["verify-battery"])
    import pcoulomb
    from pcoulomb import cli, numerics

    original = numerics.eigen_lowest
    tracer = spans.Tracer()
    with tracer:
        assert cli.eigen_lowest is numerics.eigen_lowest is pcoulomb.eigen_lowest
        assert cli.eigen_lowest is not original
    assert cli.eigen_lowest is original and pcoulomb.eigen_lowest is original
    assert "parse_args" not in vars(cli._Parser)


def test_metric_names_are_declared():
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[section]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {"setup_s"} <= {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, trace, monkeypatch):
    full = workloads.requests
    monkeypatch.setattr(workloads, "requests", lambda name, seed: full(name, seed)[:2])
    monkeypatch.setattr(run, "MIN_REQUESTS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    metrics, tally = run.run_workload(workload, 1, seconds=0.0, trace=trace)
    line = json.loads(run.result_line(metrics, tally, "per_layer" if trace else "end_to_end"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_references_reproduce_readme_values():
    # README: at a=1, c=0.5 (b=1, N=3) E = 1; the level-1 roots are
    # (3 -+ sqrt 5)/2 with 0 and 1 nodes at E = 2
    assert checks.surface_energy("1", "0.5", 3, 0) == pytest.approx(1.0, abs=1e-15)
    roots, nodes, energy = checks.qes_reference("1", "0.5", 3, 0, 1)
    assert roots == pytest.approx([(3 - 5**0.5) / 2, (3 + 5**0.5) / 2], rel=1e-15)
    assert nodes == [0, 1]
    assert energy == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("roots, expected", [
    ([1, 2, -3], 2), ([-1, -2], 0), ([0.5, 0.5001, 7], 3), ([1e-3, 40], 2),
])
def test_positive_zero_count(roots, expected):
    poly = [mpmath.mpf(1)]
    for r in roots:  # multiply by (x - r), ascending coefficients
        poly = [-r * poly[0]] + [poly[k - 1] - r * poly[k] for k in range(1, len(poly))] + [poly[-1]]
    assert checks._positive_zero_count(poly) == expected
    assert checks._positive_zero_count([mpmath.mpf(1), 0, 1]) == 0  # 1 + x^2


def test_schema_check_rejects_a_broken_report():
    schema = json.loads((ROOT / "src/pcoulomb/schema/report.schema.json").read_text())
    runner = run.WarmRunner(workloads.WARMUP["verify-battery"])
    _, out, _, _, _ = runner.run(workloads.WARMUP["verify-battery"], traced=False)
    doc = json.loads(out)
    assert checks.schema_errors(doc, schema, schema) == []
    doc["views"]["coulomb"]["E"] = "1"
    doc["extra"] = 1
    assert len(checks.schema_errors(doc, schema, schema)) == 2
