"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads cli-cold,sweep-scan --seeds 1-10 \\
        --seconds 15

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the bound BENCHMARK.json fixes.  Runs go one at
a time, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}",
                      file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, v in values.items():
            s = summarise(v)
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(f"{workload:15} {name:18} median {s['median']:.4g} "
                  f"[{s['q1']:.4g}, {s['q3']:.4g}]  IQR/median {s['spread']:.3f}  "
                  f"bound {bounds[name]}{flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
