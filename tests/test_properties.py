"""Property tests: any coupling, dimension, derive mode and level ends in an
exit code 0-3 with no exception escaping, and exit 0 means strict JSON.

``cli.main`` runs in-process.  ``solve`` gets ``--rmax 20 --h 0.01``, so no
grid exceeds 2,000 nodes; ``oracle`` runs without ``--check`` and builds
none.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pcoulomb.cli import main  # noqa: E402

#: the edges of the double range, zero, the reference couplings and the
#: non-finite values, plus any finite float
COUPLINGS = st.one_of(
    st.sampled_from(
        [0.0, 1e-300, -1e-300, 0.5, 1e8, 1e200, 1e300, math.nan, math.inf, -math.inf]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
DERIVE = st.sampled_from([None, "a", "b", "c"])

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()),
          np.errstate(all="ignore")):
        code = main(argv)
    return code, out.getvalue()


def _problem_flags(a, b, c, n_dim, ell, derive) -> list[str]:
    # the --flag=value form, so argparse reads "-1e-300" as a value
    flags = [f"--a={a!r}", f"--b={b!r}", f"--c={c!r}", f"--N={n_dim}", f"--l={ell}"]
    return flags + ([f"--derive={derive}"] if derive else [])


def _check_exit(argv: list[str]) -> None:
    code, out = _run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


@PROPERTY_SETTINGS
@given(a=COUPLINGS, b=COUPLINGS, c=COUPLINGS, n_dim=st.integers(1, 9),
       ell=st.integers(0, 3), derive=DERIVE)
@example(a=1e300, b=0.0, c=0.5, n_dim=3, ell=0, derive="b")
@example(a=1.0, b=1.0, c=0.0, n_dim=3, ell=0, derive="c")
def test_solve_exits_cleanly(a, b, c, n_dim, ell, derive):
    argv = ["solve", *_problem_flags(a, b, c, n_dim, ell, derive)]
    _check_exit(argv + ["--rmax=20", "--h=0.01"])


@PROPERTY_SETTINGS
@given(b=COUPLINGS, c=COUPLINGS, n_dim=st.integers(1, 9), ell=st.integers(0, 3),
       derive=DERIVE, n=st.integers(-1, 9), a=COUPLINGS)
@example(b=1e200, c=0.5, n_dim=3, ell=0, derive=None, n=2, a=0.0)
@example(b=1e-300, c=1e-300, n_dim=3, ell=0, derive=None, n=8, a=0.0)
def test_oracle_exits_cleanly(b, c, n_dim, ell, derive, n, a):
    _check_exit(["oracle", *_problem_flags(a, b, c, n_dim, ell, derive), f"--n={n}"])
