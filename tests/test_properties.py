"""Property tests: any coupling, unit, dimension, derive mode and level ends
in an exit code 0-3 with no exception escaping; exit 0 means strict JSON, or
for ``sweep`` a CSV whose cells are all finite.

``cli.main`` runs in-process.  ``eig``, the one command that builds a grid,
gets ``--rmax 20 --h 0.01``, so no grid exceeds 2,000 nodes (4,000 for the
h/2 grid of ``--richardson``); one example in about ten gets ``--h 1e-9``
instead, which exceeds the 2^24-node budget and is refused before any array
is allocated.  ``eig``, ``sweep``, ``verify`` and ``oracle --check`` draw
couplings and units mostly of order one, so that most examples reach the
eigensolves, the battery and the exact residuals.
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
#: nine draws in ten a float of order one, one in ten from COUPLINGS: units
#: and couplings of the grid commands, so that most examples get past the
#: unit and coupling checks into the eigensolves and the battery, while the
#: edges and the rejection of zero, negative and non-finite values stay
#: covered
MODERATE = st.integers(0, 9).flatmap(
    lambda i: COUPLINGS if i == 0 else st.floats(min_value=0.25, max_value=4.0)
)
DERIVE = st.sampled_from([None, "a", "b", "c"])
STEP = st.sampled_from(["0.01"] * 9 + ["1e-9"])

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


def _unit_flags(hbar, mass) -> list[str]:
    return [f"--hbar={hbar!r}", f"--mass={mass!r}"]


def _unit_and_grid_flags(hbar, mass, step, richardson) -> list[str]:
    flags = [*_unit_flags(hbar, mass), "--rmax=20", f"--h={step}"]
    return flags + (["--richardson"] if richardson else [])


def _check_exit(argv: list[str]) -> None:
    code, out = _run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


@st.composite
def _sweep_ranges(draw) -> list[str]:
    """One or two --sweep flags of one or two values each."""
    flags = []
    for name in draw(st.lists(st.sampled_from("abcNl"), min_size=1, max_size=2)):
        values = {"N": st.integers(1, 9), "l": st.integers(0, 3)}.get(name, MODERATE)
        drawn = draw(st.lists(values, min_size=1, max_size=2))
        flags.append(f"--sweep={name}=" + ",".join(repr(v) for v in drawn))
    return flags


@PROPERTY_SETTINGS
@given(a=COUPLINGS, b=COUPLINGS, c=COUPLINGS, n_dim=st.integers(1, 9),
       ell=st.integers(0, 3), derive=DERIVE)
@example(a=1e300, b=0.0, c=0.5, n_dim=3, ell=0, derive="b")
@example(a=1.0, b=1.0, c=0.0, n_dim=3, ell=0, derive="c")
def test_solve_exits_cleanly(a, b, c, n_dim, ell, derive):
    _check_exit(["solve", *_problem_flags(a, b, c, n_dim, ell, derive)])


@PROPERTY_SETTINGS
@given(b=COUPLINGS, c=COUPLINGS, n_dim=st.integers(1, 9), ell=st.integers(0, 3),
       derive=DERIVE, n=st.integers(-1, 9), a=COUPLINGS)
@example(b=1e200, c=0.5, n_dim=3, ell=0, derive=None, n=2, a=0.0)
@example(b=1e-300, c=1e-300, n_dim=3, ell=0, derive=None, n=8, a=0.0)
def test_oracle_exits_cleanly(b, c, n_dim, ell, derive, n, a):
    _check_exit(["oracle", *_problem_flags(a, b, c, n_dim, ell, derive), f"--n={n}"])


@PROPERTY_SETTINGS
@given(a=MODERATE, b=MODERATE, c=MODERATE, n_dim=st.integers(1, 9),
       ell=st.integers(0, 3), derive=DERIVE, hbar=MODERATE, mass=MODERATE)
@example(a=1e-300, b=1.0, c=1e200, n_dim=1, ell=3, derive="b", hbar=1e-300, mass=1.0)
@example(a=1e8, b=3.86, c=1e200, n_dim=1, ell=3, derive=None, hbar=1.0, mass=1e200)
@example(a=1.0, b=0.0, c=0.5, n_dim=3, ell=0, derive="b", hbar=1.0, mass=1.0)
@example(a=1.0, b=0.0, c=0.5, n_dim=3, ell=0, derive="b", hbar=1.0, mass=1e-300)
def test_verify_exits_cleanly(a, b, c, n_dim, ell, derive, hbar, mass):
    _check_exit(["verify", *_problem_flags(a, b, c, n_dim, ell, derive),
                 *_unit_flags(hbar, mass), "--out=json"])


@PROPERTY_SETTINGS
@given(a=MODERATE, b=MODERATE, c=MODERATE, n_dim=st.integers(1, 9),
       ell=st.integers(0, 3), derive=DERIVE, hbar=MODERATE, mass=MODERATE,
       step=STEP, richardson=st.booleans(), k=st.integers(0, 4))
@example(a=1.0, b=0.0, c=1e-300, n_dim=3, ell=0, derive=None, hbar=1.0, mass=1e-300,
         step="0.01", richardson=False, k=1)
@example(a=1.0, b=0.0, c=0.5, n_dim=3, ell=0, derive="b", hbar=1.0, mass=1.0,
         step="0.01", richardson=True, k=3)
def test_eig_exits_cleanly(a, b, c, n_dim, ell, derive, hbar, mass, step, richardson, k):
    _check_exit(["eig", *_problem_flags(a, b, c, n_dim, ell, derive),
                 *_unit_and_grid_flags(hbar, mass, step, richardson), f"--k={k}"])


@PROPERTY_SETTINGS
@given(b=MODERATE, c=MODERATE, n_dim=st.integers(1, 9), ell=st.integers(0, 3),
       derive=DERIVE, n=st.integers(-1, 9), a=MODERATE, hbar=MODERATE,
       mass=MODERATE)
@example(b=1.0, c=0.5, n_dim=3, ell=0, derive=None, n=2, a=0.0, hbar=1.0, mass=1.0)
@example(b=0.0, c=0.5, n_dim=3, ell=0, derive=None, n=8, a=0.0, hbar=1.0, mass=1e-150)
@example(b=0.0, c=1e307, n_dim=2, ell=0, derive=None, n=8, a=0.0, hbar=1.0, mass=1e-150)
def test_oracle_check_exits_cleanly(b, c, n_dim, ell, derive, n, a, hbar, mass):
    _check_exit(["oracle", *_problem_flags(a, b, c, n_dim, ell, derive), f"--n={n}",
                 *_unit_flags(hbar, mass), "--check"])


@PROPERTY_SETTINGS
@given(ranges=_sweep_ranges(), a=MODERATE, b=MODERATE, c=MODERATE,
       derive=DERIVE, hbar=MODERATE, mass=MODERATE,
       richardson=st.booleans(), n=st.integers(0, 3))
@example(ranges=["--sweep=a=1.0,2.0"], a=0.0, b=0.0, c=0.0, derive=None, hbar=1.0,
         mass=1.0, richardson=False, n=1)
@example(ranges=["--sweep=c=0.0,0.5"], a=0.0, b=1.0, c=0.0, derive=None, hbar=1.0,
         mass=1.0, richardson=False, n=0)
@example(ranges=["--sweep=b=26816.0"], a=0.0, b=0.0, c=1e-300, derive=None, hbar=1e-300,
         mass=1.0, richardson=False, n=0)
@example(ranges=["--sweep=a=0.5,1.0", "--sweep=l=0,1"], a=0.0, b=0.0, c=0.5,
         derive="b", hbar=1.0, mass=1.0, richardson=True, n=2)
def test_sweep_exits_cleanly(ranges, a, b, c, derive, hbar, mass, richardson, n):
    argv = ["sweep", *ranges, *_problem_flags(a, b, c, 3, 0, derive),
            *_unit_flags(hbar, mass), *(["--richardson"] if richardson else []), f"--n={n}"]
    code, out = _run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        header, *rows = out.strip().split("\n")
        assert header.startswith("a,b,c,N,l,n,")
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))
