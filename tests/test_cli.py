import functools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pcoulomb
from pcoulomb import cli
from pcoulomb.cli import EXIT_CONSTRAINT, EXIT_OK, EXIT_USAGE, dump_json, main
from pcoulomb.exact import constraint_a, constraint_b, ground_state
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce, effective_potential
from pcoulomb.numerics import build_grid, eigen_lowest
from pcoulomb.qes import qes_solve

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solve -------------------------------------------------------------------

def test_solve_derive_b_reference_case(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--a", "1", "--c", "0.5", "--N", "3", "--l", "0",
        "--derive", "b", "--nmax", "2",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["inputs"]["b"] == 1.0
    assert doc["views"]["coulomb"]["E"] == 1.0
    assert doc["views"]["oscillator"]["E"] == 1.0
    assert [level["E_n"] for level in doc["spectrum"]] == [1.0, 2.0, 3.0]
    assert doc["psi"]["q"] == 1.0
    assert doc["psi"]["lambda"] == 1.0
    assert doc["psi"]["kappa"] == 0.5


def test_solve_constraint_violation_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--a", "1", "--b", "2", "--c", "0.5", "--N", "3", "--l", "0"
    )
    assert code == EXIT_CONSTRAINT
    assert "violation 1" in err


def test_solve_hydrogen_limit(capsys):
    code, out, _ = run_cli(capsys, "solve", "--a", "1", "--N", "3", "--l", "0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["views"]["coulomb"]["E"] == -0.5
    assert doc["views"]["oscillator"] is None
    assert doc["spectrum"] == []


def test_solve_table_output(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--a", "1", "--c", "0.5", "--derive", "b", "--out", "table"
    )
    assert code == EXIT_OK
    assert "E=1" in out
    assert "coulomb-dominant" in out


def test_solve_derive_a(capsys):
    code, out, _ = run_cli(capsys, "solve", "--b", "1", "--c", "0.5", "--derive", "a")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["inputs"]["a"] == 1.0
    assert doc["views"]["coulomb"]["E"] == 1.0


def test_solve_derive_c(capsys):
    code, out, _ = run_cli(capsys, "solve", "--a", "1", "--b", "1", "--derive", "c")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["inputs"]["c"] == pytest.approx(0.5, rel=1e-14)


def test_verify_m2_demotes_eigen_check(capsys):
    # the critical-barrier case: algebra is exact, the grid oracle is not
    # applicable, so the eigen comparison is reported instead of gated
    code, out, _ = run_cli(
        capsys, "verify", "--a", "1", "--c", "0.5", "--N", "2", "--l", "0",
        "--derive", "b", "--out", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["eigen_vs_closed"]["kind"] == "info"
    assert by_name["riccati_coulomb_view"]["pass"] is True


def test_solve_dimension_equivalence(capsys):
    _, out_a, _ = run_cli(
        capsys, "solve", "--a", "1", "--c", "0.5", "--N", "3", "--l", "1", "--derive", "b"
    )
    _, out_b, _ = run_cli(
        capsys, "solve", "--a", "1", "--c", "0.5", "--N", "5", "--l", "0", "--derive", "b"
    )
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    for key in ("views", "psi", "spectrum"):
        assert doc_a[key] == doc_b[key]


# -- verify -------------------------------------------------------------------

def test_verify_reference_case(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a", "1", "--c", "0.5", "--derive", "b", "--out", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    asserts = [c for c in doc["checks"] if c["kind"] == "assert"]
    assert asserts and all(c["pass"] for c in asserts)
    by_name = {c["name"]: c for c in doc["checks"]}
    roots = by_name["oracle_level1_roots"]["value"]
    assert roots == pytest.approx([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    assert by_name["ladder_level1_residual_advanced_a"]["value"] > 0.0
    assert by_name["shape_invariance_mismatch_1_over_r"]["value"] == pytest.approx(-1.0)


def test_verify_hydrogen_reduces_to_coulomb_checks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a", "1", "--N", "3", "--l", "0", "--out", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert "riccati_coulomb_view" in names
    assert "riccati_oscillator_view" not in names
    assert "oracle_level1_roots" not in names
    asserts = [c for c in doc["checks"] if c["kind"] == "assert"]
    assert all(c["pass"] for c in asserts)


def test_verify_m5_case(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a", "1", "--c", "0.5", "--N", "5", "--l", "0",
        "--derive", "b", "--out", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["views"]["coulomb"]["E"] == 2.375
    asserts = [c for c in doc["checks"] if c["kind"] == "assert"]
    assert all(c["pass"] for c in asserts)


def test_verify_constraint_violation_exit(capsys):
    code, _, _ = run_cli(capsys, "verify", "--a", "1", "--b", "2", "--c", "0.5")
    assert code == EXIT_CONSTRAINT


def test_verify_assert_failure_exits_three(capsys):
    # a deliberately coarse grid pushes the eigensolver outside its assert
    # tolerance; the report must fail with the dedicated exit code
    code, out, _ = run_cli(
        capsys, "verify", "--a", "1", "--c", "0.5", "--derive", "b",
        "--rmax", "10", "--h", "0.05", "--out", "json",
    )
    assert code == 3
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["eigen_vs_closed"]["pass"] is False
    assert by_name["riccati_coulomb_view"]["pass"] is True


def test_verify_table_lists_all_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "1", "--c", "0.5", "--derive", "b")
    assert code == EXIT_OK
    assert "asserts:" in out
    assert "FAIL" not in out


def test_verify_table_marks_failures(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--a", "1", "--c", "0.5", "--derive", "b",
        "--rmax", "10", "--h", "0.05",
    )
    assert code == 3
    assert "FAIL" in out


# -- oracle ---------------------------------------------------------------------

def test_oracle_level1(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--b", "1", "--c", "0.5", "--N", "3", "--l", "0", "--n", "1"
    )
    assert code == EXIT_OK
    solutions = json.loads(out)
    assert isinstance(solutions, list)
    roots = [s["a_root"] for s in solutions]
    assert roots == pytest.approx([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    assert [s["node_count"] for s in solutions] == [0, 1]


def test_oracle_level0_matches_inversion(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--b", "1", "--c", "0.5", "--N", "3", "--l", "0", "--n", "0"
    )
    assert code == EXIT_OK
    solutions = json.loads(out)
    assert len(solutions) == 1
    assert solutions[0]["a_root"] == pytest.approx(1.0, rel=1e-13)


def test_oracle_check_attaches_residuals(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--b", "1", "--c", "0.5", "--n", "3", "--check"
    )
    assert code == EXIT_OK
    solutions = json.loads(out)
    assert len(solutions) == 4
    assert all(s["h_residual"] <= 1e-6 for s in solutions)


def test_oracle_requires_n(capsys):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--b", "1", "--c", "0.5"])
    assert err.value.code == EXIT_USAGE
    capsys.readouterr()


# -- eig -------------------------------------------------------------------------

def test_units_flags_honored(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--a", "1", "--c", "0.5", "--derive", "b",
        "--mass", "2", "--hbar", "1",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    # b = 2 a sqrt(2 m c)/((M-1) hbar) = sqrt(2) for m=2, c=0.5, M=3
    assert doc["inputs"]["b"] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert doc["views"]["coulomb"]["E"] == pytest.approx(
        doc["views"]["oscillator"]["E"], abs=1e-12
    )


def test_eig_flags_honored(capsys):
    code, out, _ = run_cli(
        capsys, "eig", "--a", "1", "--b", "1", "--c", "0.5", "--k", "3",
        "--rmax", "40", "--h", "0.002", "--richardson",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["grid"] == {"r_max": 40.0, "h": 0.002, "richardson": True}
    assert len(doc["eigenvalues"]) == 3
    assert doc["eigenvalues"][0] == pytest.approx(1.0, abs=1e-4)


# -- sweep -----------------------------------------------------------------------

def test_sweep_reference_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--sweep", "a=0.5,1,2", "--c", "0.5", "--derive", "b"
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "a,b,c,N,l,n,E_closed,E_numeric,abs_err,constraint_residual"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[8]) <= 1e-4  # abs_err
        assert float(cells[9]) <= 1e-12  # constraint_residual


def test_sweep_empty_range_header_only(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep", "a=", "--c", "0.5")
    assert code == EXIT_OK
    assert out.strip() == "a,b,c,N,l,n,E_closed,E_numeric,abs_err,constraint_residual"


def test_sweep_over_dimension_derives_b_per_row(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--sweep", "N=3,5", "--a", "1", "--c", "0.5", "--derive", "b"
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [float(r[1]) for r in rows] == [1.0, 0.5]


def test_sweep_malformed_range_exits_one(capsys):
    code, _, err = run_cli(capsys, "sweep", "--sweep", "bogus", "--c", "0.5")
    assert code == EXIT_USAGE
    assert "malformed sweep" in err


def test_sweep_derive_c_rejects_zero_a(capsys):
    code, _, err = run_cli(capsys, "sweep", "--sweep", "a=0,1", "--b", "1", "--derive", "c")
    assert code == EXIT_USAGE
    assert "--derive c requires a > 0 and b > 0" in err
    assert "Traceback" not in err


def test_sweep_rejected_row_leaves_stdout_empty(capsys):
    # the first row is valid; the second is rejected, and no row is printed
    code, out, err = run_cli(capsys, "sweep", "--sweep", "a=1,0", "--b", "1", "--derive", "c")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--derive c requires a > 0 and b > 0" in err


def test_sweep_derive_c_matches_solve(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sweep", "a=1", "--b", "1", "--derive", "c")
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    _, doc, _ = run_cli(capsys, "solve", "--a", "1", "--b", "1", "--derive", "c")
    assert float(row[2]) == json.loads(doc)["inputs"]["c"]
    assert float(row[9]) <= 1e-12


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--a", "nan", "--c", "0.5", "--derive", "b"], "a"),
        (["--b", "inf", "--c", "0.5", "--derive", "a"], "b"),
        (["--a", "1", "--c", "inf", "--derive", "b"], "c"),
        (["--a", "1", "--b", "1", "--c=-inf"], "c"),
        (["--a", "1", "--c", "0.5", "--derive", "b", "--hbar", "nan"], "hbar"),
        (["--a", "1", "--c", "0.5", "--derive", "b", "--mass", "inf"], "mass"),
    ],
)
def test_non_finite_inputs_named(capsys, flags, field):
    for command in ("solve", "sweep"):
        extra = ["--sweep", "N=3"] if command == "sweep" else []
        code, _, err = run_cli(capsys, command, *extra, *flags)
        assert code == EXIT_USAGE
        assert f"{field} must be finite" in err


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["verify", "--a", "1e-8", "--c", "0.5", "--derive", "b"], "the Coulomb length"),
        (["eig", "--a", "1", "--c", "0.5", "--derive", "b", "--h", "1e-9"], "(--h)"),
    ],
)
def test_grid_over_budget_exits_one(capsys, argv, cause):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert out == ""
    assert "exceeds the budget" in err
    assert cause in err
    assert "Traceback" not in err
    assert peak < 2**24  # refused before any grid array exists


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--a", "1e300", "--c", "0.5", "--derive", "b"],
        ["eig", "--a", "1e300", "--c", "0.5", "--derive", "b"],
        ["sweep", "--sweep", "a=1e300", "--c", "0.5", "--derive", "b"],
        ["verify", "--a", "1e300", "--c", "0.5", "--derive", "b"],
        ["oracle", "--b", "1e200", "--c", "0.5", "--n", "2"],
        ["solve", "--a", "1", "--b", "1", "--derive", "c", "--hbar", "1e200"],
    ],
)
def test_float_overflow_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "pcoulomb: error: a result overflows the float range" in err
    assert "Traceback" not in err


def test_oracle_non_finite_result_exits_one(capsys):
    # the level-8 polynomials of these couplings overflow to inf and nan
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "oracle", "--b", "1e-300", "--c", "1e-300", "--n", "8")
    assert code == EXIT_USAGE
    assert out == ""
    assert "is not finite" in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_dump_json_rejects_non_finite(value):
    with pytest.raises(ValueError, match="not finite"):
        dump_json({"x": [1.0, value]})


def _sweep_level(capsys, n):
    code, out, _ = run_cli(
        capsys, "sweep", "--sweep", "a=1", "--c", "0.5", "--derive", "b", "--n", str(n)
    )
    assert code == EXIT_OK
    return float(out.strip().split("\n")[1].split(",")[7])


def test_sweep_row_is_the_single_level_solve(capsys):
    # n = 0 is the k = 1 solve, as before; n = 1 solves level 1 alone
    phys = PhysicalParams()
    dim = dimension_reduce(3, 0)
    pot = PotentialParams(a=1.0, b=constraint_b(1.0, 0.5, dim, phys), c=0.5)
    grid = build_grid(pot, dim, phys)
    v_eff = effective_potential(pot, dim, phys)
    assert _sweep_level(capsys, 0) == eigen_lowest(v_eff, grid, phys, k=1)[0]
    pot1 = PotentialParams(a=constraint_a(pot.b, pot.c, dim, phys, n=1), b=pot.b, c=pot.c)
    grid1 = build_grid(pot1, dim, phys)
    v_eff1 = effective_potential(pot1, dim, phys)
    assert _sweep_level(capsys, 1) == eigen_lowest(v_eff1, grid1, phys, k=1, first=1)[0]


def test_sweep_requires_a_range(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--a", "1", "--c", "0.5")
    assert code == EXIT_USAGE


def test_sweep_two_parameters_lexicographic(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--sweep", "a=1,2", "--sweep", "c=0.5,1", "--derive", "b"
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [(float(r[0]), float(r[2])) for r in rows] == [
        (1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0),
    ]


def test_sweep_level_one_measures_linear_rule(capsys):
    # at n=1 the row uses the linearly advanced Coulomb strength; the gap
    # between the formula energy and the numeric eigenvalue is the measured
    # failure of that rule (exactly zero only at n=0)
    code, out, _ = run_cli(
        capsys, "sweep", "--sweep", "a=1", "--c", "0.5", "--derive", "b", "--n", "1"
    )
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    assert int(row[5]) == 1
    assert float(row[6]) == 2.0  # formula level energy
    assert float(row[8]) > 0.01  # measured discrepancy, genuinely nonzero


# -- config ----------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("a = 1\nc = 0.5\nderive = b  # stay on the surface\n")
    code, out, _ = run_cli(capsys, "solve", "--config", str(config))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["inputs"]["b"] == 1.0


def test_cli_flags_override_config(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("a = 1\nc = 0.5\nderive = b\nN = 3\n")
    code, out, _ = run_cli(capsys, "solve", "--config", str(config), "--N", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["dimension"]["M"] == 5
    assert doc["inputs"]["b"] == 0.5


def test_config_rejects_malformed_lines(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("this is not a config\n")
    code, _, err = run_cli(capsys, "solve", "--config", str(config))
    assert code == EXIT_USAGE
    assert "expected 'key = value'" in err


def test_config_equals_form_and_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("a = 1\nc = 0.5\nderive = b\n")
    code, out, _ = run_cli(capsys, "solve", f"--config={config}")
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["b"] == 1.0

    config.write_text("a = 1\nbogus_key = 2\n")
    code, _, err = run_cli(capsys, "solve", f"--config={config}")
    assert code == EXIT_USAGE
    assert "unknown config keys: bogus_key" in err


# -- determinism and schema --------------------------------------------------------

def test_verify_byte_identical(capsys):
    args = ["verify", "--a", "1", "--c", "0.5", "--derive", "b", "--out", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_byte_identical(capsys):
    args = ["sweep", "--sweep", "a=0.5,1,2", "--c", "0.5", "--derive", "b"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_json_floats_have_full_precision():
    text = dump_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1.0 / 3.0


def test_report_schema_validates_solve_and_verify(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).parent.parent / "src/pcoulomb/schema/report.schema.json").read_text()
    )
    for args in (
        ["solve", "--a", "1", "--c", "0.5", "--derive", "b"],
        ["verify", "--a", "1", "--c", "0.5", "--derive", "b", "--out", "json"],
        ["verify", "--a", "1", "--out", "json"],
    ):
        _, out, _ = run_cli(capsys, *args)
        jsonschema.validate(json.loads(out), schema)


def test_golden_p1_verify(capsys):
    golden = (GOLDEN_DIR / "verify_p1.json").read_text()
    _, out, _ = run_cli(
        capsys, "verify", "--a", "1", "--c", "0.5", "--N", "3", "--l", "0",
        "--derive", "b", "--out", "json",
    )
    assert out == golden


def test_golden_hydrogen_verify(capsys):
    golden = (GOLDEN_DIR / "verify_hydrogen.json").read_text()
    _, out, _ = run_cli(
        capsys, "verify", "--a", "1", "--N", "3", "--l", "0", "--out", "json"
    )
    assert out == golden


GRID_INFO_CHECKS = (
    "ladder_level1_residual_advanced_a",
    "ladder_level1_residual_fixed_a",
    "ladder_vs_numeric_overlap",
    "ground_vs_oracle_nodeless_overlap",
)


def test_verification_checks_round_only_grid_info_values(monkeypatch):
    phys = PhysicalParams()
    dim = dimension_reduce(3, 0)
    pot = PotentialParams(a=1.0, b=constraint_b(1.0, 0.5, dim, phys), c=0.5)
    grid = build_grid(pot, dim, phys)
    reported = cli.verification_checks(pot, dim, phys, grid, False)
    monkeypatch.setattr(cli, "GRID_INFO_DIGITS", 17)
    full = cli.verification_checks(pot, dim, phys, grid, False)

    assert [c["name"] for c in reported] == [c["name"] for c in full]
    for rep, raw in zip(reported, full):
        assert (rep["kind"], rep["tol"], rep["pass"]) == (raw["kind"], raw["tol"], raw["pass"])
        if rep["name"] in GRID_INFO_CHECKS:
            assert rep["value"] == float("%.10g" % raw["value"])
            assert rep["value"] != raw["value"]
        else:
            assert rep["value"] == raw["value"]
    assert all(c["pass"] for c in reported if c["kind"] == "assert")

    # the eigensolver and oracle values stay at full precision
    by_name = {c["name"]: c["value"] for c in reported}
    numeric = eigen_lowest(effective_potential(pot, dim, phys), grid, phys, k=1)[0]
    closed = ground_state(pot, dim, phys).energy.total
    roots = [s.a_root for s in qes_solve(pot.b, pot.c, dim, phys, n=1)]
    assert by_name["eigen_lowest"] == numeric
    assert by_name["eigen_vs_closed"] == abs(numeric - closed)
    assert by_name["oracle_level1_roots"] == roots
    for value in (numeric, abs(numeric - closed), *roots):
        assert float("%.10g" % value) != value


def _dispatch_settings() -> list[tuple[str, dict]]:
    """numpy's default dispatch, then each dispatched level disabled from the
    top down, then (on x86_64) a generic OpenBLAS kernel."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its config and returns nothing
        config = {}
    found = config.get("SIMD Extensions", {}).get("found", [])
    settings = [("default", {})]
    for k in range(1, len(found) + 1):
        disabled = " ".join(found[-k:])
        settings.append((f"no-{found[-k]}", {"NPY_DISABLE_CPU_FEATURES": disabled}))
    if platform.machine().lower() in ("x86_64", "amd64"):
        settings.append(("openblas-prescott", {"OPENBLAS_CORETYPE": "Prescott"}))
    return settings


_GOLDEN_RUNS = (
    ("verify_p1.json",
     ["verify", "--a", "1", "--c", "0.5", "--N", "3", "--l", "0", "--derive", "b", "--out", "json"]),
    ("verify_hydrogen.json",
     ["verify", "--a", "1", "--N", "3", "--l", "0", "--out", "json"]),
)

# runs each argv through the CLI in one interpreter; prints [[code, stdout], ...]
_CHILD = """
import contextlib, io, json, sys
from pcoulomb.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
sys.stdout.write(json.dumps(results))
"""


#: compared with their own output at default dispatch, not with a golden file
_UNGOLDEN_RUNS = (
    ["oracle", "--b", "2.2", "--c", "0.2", "--N", "4", "--l", "2", "--n", "8"],
    ["eig", "--a", "1", "--b", "1", "--c", "0.5", "--k", "3", "--rmax", "40", "--h", "0.002",
     "--richardson"],
)


def _child_env(extra_env: dict) -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
    }
    package_root = str(Path(pcoulomb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.update(extra_env)
    return env


@functools.cache
def _child_results(extra_env: tuple) -> list:
    """[[code, stdout], ...] of the golden runs and the ungolden runs, in a
    fresh interpreter with ``extra_env`` (key, value pairs) set."""
    argvs = [argv for _, argv in _GOLDEN_RUNS] + list(_UNGOLDEN_RUNS)
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(dict(extra_env)),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "extra_env", [pytest.param(env, id=name) for name, env in _dispatch_settings()]
)
def test_goldens_under_dispatch_settings(extra_env):
    results = _child_results(tuple(sorted(extra_env.items())))
    for (golden, _), (code, out) in zip(_GOLDEN_RUNS, results):
        assert code == EXIT_OK
        assert out == (GOLDEN_DIR / golden).read_text(), golden
    defaults = _child_results(())[len(_GOLDEN_RUNS):]
    for argv, result, default in zip(_UNGOLDEN_RUNS, results[len(_GOLDEN_RUNS):], defaults):
        assert result[0] == EXIT_OK, argv[0]
        assert result == default, f"{argv[0]} output moved with dispatch"


# prints, after each argv, whether scipy.linalg has been imported so far
_LAPACK_CHILD = """
import contextlib, io, json, sys
from pcoulomb.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("scipy.linalg" in sys.modules)
sys.stdout.write(json.dumps(loaded))
"""


def test_scipy_linalg_loaded_only_by_eigensolves():
    argvs = [
        ["solve", "--a", "1", "--c", "0.5", "--derive", "b"],
        ["oracle", "--b", "1", "--c", "0.5", "--n", "3", "--check"],
        ["eig", "--a", "1", "--c", "0.5", "--derive", "b"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _LAPACK_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env({}),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [False, False, True]


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "pcoulomb.cli", "solve", "--a", "1", "--c", "0.5", "--derive", "b"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["views"]["coulomb"]["E"] == 1.0
