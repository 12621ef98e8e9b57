"""Seeded request lists for the benchmark workloads.

Each workload is a fixed design of strata: dimension (N, l), coupling point
and, where it applies, level n.  The seed jitters every coupling of every
stratum by up to JITTER (relative) and shuffles the order.  Two seeds thus
run different inputs with the same mix of problem sizes, so their figures
are comparable, while the same seed always gives the same list.

A run cycles through its list; every request after the first pass is a
repeat whose output is byte-compared with its first run.  Warm-up requests
are the README reference invocations and do not depend on the seed, so
set-up time measures the same work on every run.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-cold", "verify-battery", "sweep-scan")

#: relative half-width of the seeded jitter applied to every coupling
JITTER = 0.03

#: every (N, l) with N in 3..7 and l in 0..2, i.e. M = N + 2l in 3..11
DIMS = [(n_dim, ell) for n_dim in range(3, 8) for ell in range(3)]

#: (a, c) points on the coupling surface (b is derived), from closer to the
#: oscillator limit to closer to the Coulomb limit.  Their verify costs
#: differ by up to 4x; a middle point keeps the median off the gap between
#: the two ends, where it would jump from seed to seed.
SURFACE_POINTS = [(0.7, 0.8), (1.1, 0.6), (1.6, 0.4)]

#: (b, c) of the oracle coupling classes, from mild to strong Coulomb.  The
#: cold oracle requests use the mildest at n 0..3.  The battery adds the
#: other two at n 5..8: root finding at high n, where the program misses its
#: stated root tolerance, and --check on grids of 0.8 to 2.7 x 10^5 nodes
#: with no eigensolve.  They cost no more than a verify request, so the
#: battery's percentiles stay those of its verify requests.  (At n = 4 the
#: grid of the middle class jumps from 10^5 to 10^6 nodes for some seeds.)
ORACLE_CLASSES = [(0.8, 0.8), (1.5, 0.4), (2.2, 0.2)]

WARMUP = {
    "cli-cold": None,
    "verify-battery": ["verify", "--a", "1", "--c", "0.5", "--N", "3", "--l", "0",
                       "--derive", "b", "--out", "json"],
    "sweep-scan": ["sweep", "--sweep", "a=0.5,1,2", "--c", "0.5", "--derive", "b",
                   "--richardson"],
}


class _Draw:
    def __init__(self, seed_text: str) -> None:
        self.rng = random.Random(seed_text)

    def __call__(self, centre: float) -> str:
        """``centre`` jittered by up to JITTER, as a flag value."""
        return f"{centre * (1.0 + JITTER * (2.0 * self.rng.random() - 1.0)):.5f}"


def _dim_flags(i: int) -> list[str]:
    n_dim, ell = DIMS[i % len(DIMS)]
    return ["--N", str(n_dim), "--l", str(ell)]


def _surface(draw: _Draw, command: str, point: int, dim: int, extra: list[str]) -> list[str]:
    a, c = SURFACE_POINTS[point % len(SURFACE_POINTS)]
    return [command, "--a", draw(a), "--c", draw(c), *_dim_flags(dim), "--derive", "b", *extra]


def _oracle(draw: _Draw, classes: list[tuple[float, float]], levels: range) -> list[list[str]]:
    return [
        ["oracle", "--b", draw(b), "--c", draw(c), *_dim_flags(4 * n + 7 * k),
         "--n", str(n), "--check"]
        for k, (b, c) in enumerate(classes) for n in levels
    ]


def _sweep(draw: _Draw, i: int, richardson: bool) -> list[str]:
    a_pair = f"a={draw(0.8)},{draw(1.6)}"
    if not richardson:
        return ["sweep", "--sweep", a_pair, "--c", draw(0.5), *_dim_flags(i), "--derive", "b"]
    return ["sweep", "--sweep", a_pair, "--sweep", f"c={draw(0.4)},{draw(0.8)}",
            *_dim_flags(4 * i), "--derive", "b", "--n", str(i % 3), "--richardson"]


def requests(workload: str, seed: int) -> list[list[str]]:
    """The request list of ``workload`` for ``seed``, in the order it is run."""
    draw = _Draw(f"{workload}:{seed}")
    if workload == "cli-cold":
        reqs = [_surface(draw, "solve", i, 4 * i, []) for i in range(4)]
        reqs += [_surface(draw, "verify", i + 1, 4 * i + 1, ["--out", "json"]) for i in range(4)]
        reqs += [_surface(draw, "eig", i + 2, 4 * i + 2, ["--k", "2"]) for i in range(4)]
        reqs += _oracle(draw, ORACLE_CLASSES[:1], range(4))
        reqs += [_sweep(draw, 4 * i + 3, richardson=False) for i in range(4)]
    elif workload == "verify-battery":
        reqs = [_surface(draw, "verify", point, dim, ["--out", "json"])
                for point in range(len(SURFACE_POINTS)) for dim in range(len(DIMS))]
        reqs += _oracle(draw, ORACLE_CLASSES[1:], range(5, 9))
    elif workload == "sweep-scan":
        reqs = [_sweep(draw, i, richardson=True) for i in range(len(DIMS))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    draw.rng.shuffle(reqs)
    return reqs
