import functools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pcoulomb
from pcoulomb import cli, exact, report
from pcoulomb.cli import EXIT_CONSTRAINT, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, dump_json, main
from pcoulomb.exact import constraint_a, constraint_b, derive_couplings, ground_state
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce, effective_potential
from pcoulomb.numerics import RadialGrid, build_grid, eigen_lowest
from pcoulomb.qes import qes_solve
from pcoulomb.susy import ClosedFormState

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
    # r e^(-r): ||psi||^2 = 2!/2^3 = 1/4 exactly, where the grid gave
    # N0 = 2.0000000118096577
    assert doc["psi"]["N0"] == 2.0 and '"N0": 2\n' in out


@pytest.mark.parametrize("command", [["solve"], ["verify", "--out", "json"]])
def test_negative_zero_coupling_is_zero(command, capsys):
    # --b -0 used to print "b": -0, and a different document from --b 0
    for problem in (["--a", "1", "--b", "{}"], ["--a", "{}", "--c", "0.5"]):
        outs = [
            run_cli(capsys, *command, *(arg.format(zero) for arg in problem))
            for zero in ("-0", "0")
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == EXIT_OK


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


def test_verify_m2_gates_eigen_check(capsys):
    # the critical-barrier case Lambda = -1/2: the grid converged to another
    # self-adjoint extension (0.959 off), the spectral level 0 does not
    code, out, err = run_cli(
        capsys, "verify", "--a", "1", "--c", "0.5", "--N", "2", "--l", "0",
        "--derive", "b", "--out", "json",
    )
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["eigen_vs_closed"]["kind"] == "assert"
    assert by_name["eigen_vs_closed"]["pass"] is True
    assert by_name["eigen_vs_closed"]["value"] <= 1e-10
    assert by_name["eigen_lowest"]["value"] == -1.0
    assert by_name["riccati_coulomb_view"]["pass"] is True
    # the ladder state's defect has an r^(-1/2) term: its norm is infinite
    for name in ("ladder_level1_residual_advanced_a", "ladder_level1_residual_fixed_a"):
        assert (by_name[name]["kind"], by_name[name]["value"]) == ("info", "divergent")


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
    # b = 1e-11 lies off the coupling surface of a = 0 by more than the
    # oscillator view's Riccati tolerance: the report fails with the
    # dedicated exit code, and the checks that hold still pass
    code, out, _ = run_cli(capsys, "verify", "--b", "1e-11", "--c", "0.5", "--out", "json")
    assert code == 3
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["riccati_oscillator_view"]["pass"] is False
    assert by_name["eigen_vs_closed"]["pass"] is True


@pytest.mark.parametrize("b, exit_code", [("1e-13", EXIT_OK), ("1e-11", 3)])
def test_verify_oscillator_view_only_runs_the_battery(capsys, b, exit_code):
    # a = 0 on the coupling surface to within its 1e-10 gate: only the
    # oscillator view exists, and the nodeless overlap uses its ground state;
    # at b = 1e-11 the view's Riccati residual |b| exceeds its 1.5e-12 assert
    code, out, _ = run_cli(capsys, "verify", "--b", b, "--c", "0.5", "--out", "json")
    assert code == exit_code
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert "riccati_coulomb_view" not in by_name
    assert by_name["riccati_oscillator_view"]["pass"] is (exit_code == EXIT_OK)
    assert by_name["ground_vs_oracle_nodeless_overlap"]["value"] == pytest.approx(0.976, abs=1e-3)


def test_verify_table_lists_all_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "1", "--c", "0.5", "--derive", "b")
    assert code == EXIT_OK
    assert "asserts:" in out
    assert "FAIL" not in out


def test_verify_table_marks_failures(capsys):
    code, out, _ = run_cli(capsys, "verify", "--b", "1e-11", "--c", "0.5")
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


def test_oracle_check_residuals_of_the_benchmark_strata(capsys):
    # every oracle request of cli-cold and verify-battery, seeds 1-10 (M 3..11,
    # n 0..3 and 5..8): each exact residual is a finite number >= 0
    argvs = {tuple(argv) for workload in ("cli-cold", "verify-battery")
             for argv in _benchmark_requests(workload, range(1, 11)) if argv[0] == "oracle"}
    assert len(argvs) == 120
    for argv in sorted(argvs):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv
        for entry in json.loads(out):
            value = entry["h_residual"]
            # a zero residual prints as the JSON integer 0
            assert isinstance(value, (int, float)) and math.isfinite(value) and value >= 0, argv


@pytest.mark.parametrize("b, c", [(1.0, 0.5), (0.0, 0.5), (2.2, 0.2), (5.0, 0.05)])
def test_oracle_check_at_m2_is_a_number_or_divergent(capsys, b, c):
    # the defect's r^-1/2 coefficient is D(a_root) evaluated in float: where
    # it is not exactly zero the residual is divergent, never a garbage number
    for n in range(9):
        code, out, err = run_cli(capsys, "oracle", "--b", str(b), "--c", str(c),
                                 "--N", "2", "--l", "0", "--n", str(n), "--check")
        assert (code, err) == (EXIT_OK, "")
        for entry in json.loads(out):
            value = entry["h_residual"]
            assert value == report.DIVERGENT or (isinstance(value, (int, float)) and value >= 0)


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


def test_eig_of_a_diagonal_grid_matrix(capsys):
    # T = hbar^2/2m underflows to 0 at hbar = 1e-200: the grid matrix is
    # diagonal, so its lowest levels are the lowest potential samples, bit
    # for bit
    code, out, _ = run_cli(
        capsys, "eig", "--a", "1", "--b", "1", "--c", "0.5", "--hbar", "1e-200",
        "--rmax", "20", "--h", "0.01", "--k", "3",
    )
    assert code == EXIT_OK
    phys = PhysicalParams(hbar=1e-200)
    assert phys.kinetic == 0.0
    v_eff = effective_potential(PotentialParams(a=1.0, b=1.0, c=0.5), dimension_reduce(3, 0), phys)
    samples = np.sort(v_eff(RadialGrid(r_max=20.0, h=0.01).nodes))
    assert json.loads(out)["eigenvalues"] == samples[:3].tolist()


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


def test_sweep_empty_range_exits_one(capsys):
    # a range with no values used to print the header alone and exit 0
    for text in ("a=", "a=,"):
        code, out, err = run_cli(capsys, "sweep", "--sweep", text, "--c", "0.5")
        assert (code, out) == (EXIT_USAGE, "")
        assert "sweep of a has no values" in err


def test_sweep_of_the_derived_coupling_exits_one(capsys):
    # the swept a = 5 used to be overwritten by the derived a = 1
    code, out, err = run_cli(
        capsys, "sweep", "--sweep", "a=5", "--derive", "a", "--b", "1", "--c", "0.5")
    assert (code, out) == (EXIT_USAGE, "")
    assert "cannot sweep a: --derive a sets it" in err


def test_sweep_of_one_parameter_twice_exits_one(tmp_path, capsys):
    # the second range used to override the first, row by row
    base = ["--c", "0.5", "--derive", "b"]
    code, out, err = run_cli(capsys, "sweep", "--sweep", "a=1,2", "--sweep", "a=3", *base)
    assert (code, out) == (EXIT_USAGE, "")
    assert "sweep parameter a is given twice" in err
    config = tmp_path / "run.conf"
    config.write_text("sweep = a=1,2\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(config), "--sweep", "a=3", *base)
    assert (code, out) == (EXIT_USAGE, "")
    assert "sweep parameter a is given twice" in err


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
        (["eig", "--a", "1e-8", "--c", "0.5", "--derive", "b"], "the Coulomb length"),
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


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--a", "-1", "--b", "0", "--c", "0"],
        # a linear coupling the spectral oracle could size its basis by:
        # the views come first
        ["--a", "-1", "--b", "1"],
    ],
)
def test_no_solvable_view_exits_two_before_the_grid(capsys, command, flags):
    code, out, err = run_cli(capsys, command, *flags)
    assert (code, out) == (EXIT_CONSTRAINT, "")
    assert "no solvable view" in err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("flags", [["--a", "1"], ["--a", "1", "--c", "0.5", "--derive", "b"]])
@pytest.mark.parametrize("nmax", ["-5", str(report.MAX_NMAX + 1), "100000000"])
def test_nmax_out_of_range_exits_one(capsys, command, flags, nmax):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, command, *flags, "--nmax", nmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_USAGE, "")
    assert f"nmax must be in 0..{report.MAX_NMAX}, got {nmax}" in err
    assert peak < 2**24  # refused before any grid array or level list exists


def _count_samples(monkeypatch) -> tuple[list, list, list]:
    """Lists that collect each state sampled by ``ClosedFormState.evaluate``,
    each grid whose nodes are computed and each ``RadialGrid`` constructed,
    from now on."""
    sampled, gridded, built = [], [], []
    evaluate, nodes = ClosedFormState.evaluate, RadialGrid.nodes.func
    post_init = RadialGrid.__post_init__

    def counting_evaluate(self, r):
        sampled.append(self)
        return evaluate(self, r)

    def counting_nodes(self):
        gridded.append(self)
        return nodes(self)

    def counting_post_init(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(ClosedFormState, "evaluate", counting_evaluate)
    monkeypatch.setattr(RadialGrid, "nodes", property(counting_nodes))
    monkeypatch.setattr(RadialGrid, "__post_init__", counting_post_init)
    return sampled, gridded, built


def test_verify_samples_no_state(capsys, monkeypatch):
    # psi's norm, the nodeless overlap and the ladder residuals are exact
    # moments, and the ladder overlap takes the spectral oracle's Gauss points
    sampled, _, _ = _count_samples(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", "--a", "1", "--c", "0.5", "--derive", "b")
    assert code == EXIT_OK
    assert sampled == []


@pytest.mark.parametrize("flags", [["--a", "1", "--c", "0.5", "--derive", "b"],
                                   ["--a", "1", "--N", "3", "--l", "0"]])
def test_solve_samples_no_state_and_computes_no_nodes(capsys, monkeypatch, flags):
    # N0 is exact, and solve builds no grid at all
    sampled, gridded, built = _count_samples(monkeypatch)
    code, out, _ = run_cli(capsys, "solve", *flags)
    assert code == EXIT_OK and json.loads(out)["psi"]["N0"] > 0.0
    assert (sampled, gridded, built) == ([], [], [])


@pytest.mark.parametrize("argv", [
    ["--b", "1", "--c", "0.5", "--N", "3", "--l", "0", "--n", "1"],
    ["--b", "2.2", "--c", "0.2", "--N", "4", "--l", "2", "--n", "8"],
    ["--b", "1", "--c", "0.5", "--N", "2", "--l", "0", "--n", "3"],
])
def test_oracle_check_samples_no_state_and_builds_no_grid(capsys, monkeypatch, argv):
    # each residual is a sum of exact moments
    sampled, gridded, built = _count_samples(monkeypatch)
    code, out, _ = run_cli(capsys, "oracle", *argv, "--check")
    assert code == EXIT_OK and all("h_residual" in entry for entry in json.loads(out))
    assert (sampled, gridded, built) == ([], [], [])


@pytest.mark.parametrize("flags", [
    ["--a", "1", "--c", "0.5", "--derive", "b"],
    ["--a", "1", "--N", "3", "--l", "0"],
    ["--a", "1", "--c", "0.5", "--N", "2", "--l", "0", "--derive", "b"],
    ["--b", "1e-11", "--c", "0.5"],
])
def test_verify_builds_no_grid_and_runs_no_grid_eigensolve(capsys, monkeypatch, flags):
    # level 0 and the ladder overlap's level 1 come from the spectral oracle:
    # building a grid, a grid eigensolve and loading its LAPACK all raise
    from pcoulomb import numerics

    def refused(*_args, **_kwargs):
        raise AssertionError("a grid or a grid eigensolve was asked for")

    _, gridded, built = _count_samples(monkeypatch)
    for name in ("build_grid", "eigen_lowest"):
        monkeypatch.setattr(numerics, name, refused)
        monkeypatch.setattr(report, name, refused)
    monkeypatch.setattr(numerics, "_lapack", refused)
    code, out, err = run_cli(capsys, "verify", *flags, "--out", "json")
    assert (code, err) == (EXIT_VERIFY if "--b" in flags else EXIT_OK, "")
    assert "grid" not in json.loads(out)["inputs"]
    assert (gridded, built) == ([], [])


def test_solve_and_verify_build_no_grid_where_eig_is_over_budget(capsys):
    # the Coulomb length is 1e8 oscillator lengths: eig's grid exceeds the
    # node budget, but solve and verify need no grid
    flags = ["--a", "1e-8", "--c", "0.5", "--derive", "b"]
    code, out, err = run_cli(capsys, "solve", *flags)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["psi"]["N0"] > 0.0
    code, out, err = run_cli(capsys, "verify", *flags, "--out", "json")
    assert (code, err) == (EXIT_OK, "")
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert by_name["eigen_vs_closed"]["value"] <= 1e-10
    code, out, err = run_cli(capsys, "eig", *flags)
    assert (code, out) == (EXIT_USAGE, "")
    assert "exceeds the budget" in err


def test_verify_strong_coulomb_point_passes(capsys):
    # a = 50, c = 1e-3: the Coulomb length is 1/2500 of the oscillator
    # length, and the grid's level 0 missed the closed form by 2.2e-4
    # (exit 3); the spectral level 0 is within its printed lattice
    code, out, err = run_cli(capsys, "verify", "--a", "50", "--c", "1e-3", "--derive", "b",
                             "--out", "json")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["eigen_vs_closed"]["pass"] is True
    assert by_name["eigen_vs_closed"]["value"] <= 1e-6
    assert abs(by_name["eigen_lowest"]["value"] - doc["views"]["coulomb"]["E"]) <= 1e-6


@pytest.mark.parametrize("command", ["solve", "oracle", "verify"])
@pytest.mark.parametrize("flag", ["--rmax", "--h"])
def test_grid_flags_only_on_grid_eigenvalue_commands(capsys, command, flag):
    problem = (["--b", "1", "--c", "0.5", "--n", "1", "--check"] if command == "oracle"
               else ["--a", "1", "--c", "0.5", "--derive", "b"])
    code, out, err = run_cli_usage(capsys, command, *problem, flag, "20")
    assert (code, out) == (EXIT_USAGE, "")
    assert f"unrecognized arguments: {flag} 20" in err


def test_verify_builds_each_view_once(capsys, monkeypatch):
    # the dual-view checks compare the views the document prints
    built = {"ground_state": 0, "oscillator_view_ground": 0}
    for name in built:
        view = getattr(exact, name)

        def counting(*args, _name=name, _view=view):
            built[_name] += 1
            return _view(*args)

        for module in (exact, report):
            monkeypatch.setattr(module, name, counting)
    code, _, _ = run_cli(capsys, "verify", "--a", "1", "--c", "0.5", "--derive", "b")
    assert code == EXIT_OK
    assert built == {"ground_state": 1, "oscillator_view_ground": 1}


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


@pytest.mark.parametrize(
    "argv",
    [
        # hbar**2 underflows in the coulomb view's epsilon
        ["verify", "--a", "1e-300", "--b", "1", "--c", "1e200", "--N", "1", "--l", "3",
         "--derive", "b", "--hbar", "1e-300"],
        # sqrt(2mc) underflows in the oscillator length of the grid sizing
        ["eig", "--a", "1", "--c", "1e-300", "--mass", "1e-300", "--rmax", "20", "--h", "0.01"],
        # m c overflows, so the ground state vanishes on the grid and the
        # level-0 formula a of the oracle check underflows
        ["verify", "--a", "1e8", "--b", "3.86", "--c", "1e200", "--N", "1", "--l", "3",
         "--mass", "1e200"],
    ],
)
def test_denominator_underflow_exits_one(capsys, argv):
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("pcoulomb: error: ")
    assert "Traceback" not in err


def test_sweep_level_without_closed_form_exits_with_message(capsys):
    # c = 0 has no level n >= 1; a = c = 0 has no view at n = 0, as in solve
    code, out, err = run_cli(capsys, "sweep", "--sweep", "a=1,2", "--n", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "only for c > 0" in err
    code, out, err = run_cli(capsys, "sweep", "--sweep", "c=0,0.5", "--b", "1")
    assert (code, out) == (EXIT_CONSTRAINT, "")
    _, _, solve_err = run_cli(capsys, "solve", "--b", "1")
    assert err == solve_err
    assert "no solvable view: need a > 0 or c > 0" in err


def test_oracle_non_finite_result_exits_one(capsys):
    # the polynomials of tiny couplings, or of a tiny hbar, overflow to inf
    # and nan: one error line, and no numpy RuntimeWarning on the way
    for argv in (["--b", "1e-300", "--c", "1e-300", "--n", "8"],
                 ["--b", "1", "--c", "0.5", "--n", "3", "--check", "--hbar", "1e-100"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "oracle", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "is not finite" in err
        assert len(err.splitlines()) == 1


def test_overflowing_grid_hamiltonian_exits_one(capsys):
    # c r^2 overflows at the far nodes: eig and sweep refuse the one matrix
    # with one message, and no numpy RuntimeWarning on the way
    grid = ["--rmax", "20", "--h", "0.01"]
    for argv in (["eig", "--a", "1", "--c", "1e307", *grid],
                 ["sweep", "--sweep", "a=1", "--c", "1e307", *grid]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == ("pcoulomb: error: the grid Hamiltonian overflows:"
                       " a matrix entry is not finite\n"), argv


def test_oracle_check_needs_no_grid_hamiltonian(capsys):
    # the grid Hamiltonian of c = 1e307 overflows, but the exact residual
    # needs no grid: a finite number, relative to E = 6.7e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "oracle", "--b", "1", "--c", "1e307", "--n", "0",
                                 "--check")
    assert (code, err) == (EXIT_OK, "")
    (entry,) = json.loads(out)
    assert 0.0 <= entry["h_residual"] <= 1e-14 * entry["E"]


@pytest.mark.parametrize("argv, cause", [
    # T = 5e149: a coefficient of the defect itself overflows
    (["oracle", "--b", "0", "--c", "0.5", "--mass", "1e-150", "--N", "3", "--l", "0",
      "--n", "8", "--check"],
     "an integral of closed-form states is not representable: a coefficient"
     " overflows the float range"),
])
def test_unrepresentable_exact_integral_names_its_cause(capsys, argv, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"pcoulomb: error: {cause}\n")


@pytest.mark.parametrize("argv, code", [
    # the ladder state's defect has coefficients 2^-1074 apart, and its
    # squared p_0 carries the residual's norm: written in r / 2^k, they stay
    # in range
    (["--a", "1e-300", "--c", "1e-6", "--hbar", "1e-100", "--N", "2", "--l", "0"], EXIT_OK),
    # coefficient products beyond 1e308, and an integral in range; the
    # coefficient identities fail by rounding at Lambda(Lambda+1)T = 1.1e150
    (["--a", "1", "--c", "1e8", "--N", "4", "--l", "2", "--hbar", "0.5", "--mass", "1e-150"],
     EXIT_VERIFY),
], ids=["hbar1e-100", "mass1e-150"])
def test_exact_integrals_fail_only_beyond_the_float_range(capsys, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(capsys, "verify", *argv, "--derive", "b", "--out", "json")
    assert (result[0], result[2]) == (code, "")
    checks = {c["name"]: c["value"] for c in json.loads(result[1])["checks"]}
    for name in ("ladder_level1_residual_advanced_a", "ladder_level1_residual_fixed_a",
                 "ladder_vs_numeric_overlap", "ground_vs_oracle_nodeless_overlap"):
        assert math.isfinite(checks[name]), name
    assert 0.0 < checks["ladder_vs_numeric_overlap"] <= 1.0
    if code == EXIT_VERIFY:
        assert checks["riccati_coulomb_view"] > 1e100


@pytest.mark.parametrize("argv, message", [
    # curvature * step overflows in the Jacobi off-diagonal: once a numpy
    # RuntimeWarning, and at n = 8 then "Eigenvalues did not converge"
    (["--b", "0", "--c", "1e307", "--N", "3", "--n", "1"],
     "level n = 1: an off-diagonal of the Jacobi matrix"),
    (["--b", "0", "--c", "1e307", "--N", "2", "--n", "8"],
     "level n = 8: an off-diagonal of the Jacobi matrix"),
    # T lam overflows, and times j + 1 = 0 in the shift of row -1 is nan
    (["--b", "1e307", "--c", "1", "--N", "2", "--n", "1"],
     "level n = 1: a coefficient of the ansatz recursion"),
])
def test_oracle_recursion_overflow_exits_one_naming_the_level(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "oracle", *argv, "--l", "0", "--mass", "1e-150")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"pcoulomb: error: {message} is not finite in double precision\n"


def test_off_diagonal_whose_square_overflows_exits_one(capsys):
    # at --rmax 20 --h 0.01, T/h^2 squares beyond the float range below a
    # mass of about 3.5e-151: eig and sweep refuse the matrix with one
    # message naming T/h^2, where mass 1e-151 overflowed in a Sturm count
    # and 1e-300 failed in dstebz; mass 1e-150 still solves
    grid = ["--rmax", "20", "--h", "0.01"]
    commands = (["eig", "--a", "1", "--b", "1", "--c", "0.5"],
                ["sweep", "--sweep", "a=1,2", "--c", "0.5", "--derive", "b"])
    for argv in commands:
        for mass in ("1e-151", "1e-300"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, *argv, "--mass", mass, *grid)
            assert (code, out) == (EXIT_USAGE, ""), (argv, mass)
            assert err.startswith("pcoulomb: error: the grid Hamiltonian overflows: T/h^2 = ")
            assert err.endswith(" squares beyond the float range\n"), (argv, mass)
        code, out, err = run_cli(capsys, *argv, "--mass", "1e-150", *grid)
        assert (code, err) == (EXIT_OK, ""), argv
        assert out


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
    assert _sweep_level(capsys, 0) == eigen_lowest(v_eff, grid, phys)
    pot1 = PotentialParams(a=constraint_a(pot.b, pot.c, dim, phys, n=1), b=pot.b, c=pot.c)
    grid1 = build_grid(pot1, dim, phys)
    v_eff1 = effective_potential(pot1, dim, phys)
    assert _sweep_level(capsys, 1) == eigen_lowest(v_eff1, grid1, phys, 1)


def test_level_bits_do_not_depend_on_k(capsys):
    # each level is solved on its own on every grid of its own chain, so a
    # level is the same double whichever k asks for it: also where the
    # higher levels fall back to their own bisection on coarse grids (--h
    # 0.05: levels 1..4 on the 400-node h grid; --h 0.01 --k 10: levels
    # 5..9 on 1600), and on the default grid, where levels 0..10 are
    # bisected on 64h and levels 11 and up on 16h
    grids = {("--rmax", "40", "--h", "0.002"): ("1", "2", "3"),
             ("--rmax", "20", "--h", "0.05"): ("1", "3", "5"),
             ("--rmax", "16", "--h", "0.01"): ("1", "10"),
             (): ("1", "12", "16")}
    for flags, ks in grids.items():
        runs = []
        for k in ks:
            code, out, _ = run_cli(capsys, "eig", "--a", "1", "--b", "1", "--c", "0.5",
                                   *flags, "--k", k)
            assert code == EXIT_OK
            runs.append(json.loads(out)["eigenvalues"])
        assert all(run == runs[-1][:len(run)] for run in runs), flags


@pytest.mark.parametrize("flags, message", [
    (["--k", "0"], "need k >= 1, got 0"),
    (["--rmax", "1", "--h", "0.01", "--k", "11"], "levels 0..10 out of range for 100 nodes"),
])
def test_eig_k_is_checked_before_any_solve(flags, message, capsys, monkeypatch):
    # a k the grid cannot resolve fails at once, not after solving the
    # levels below it one by one
    from pcoulomb import numerics

    def no_solve(*_args):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(numerics, "_chain_matrices", no_solve)
    monkeypatch.setattr(numerics, "_index_solve", no_solve)
    code, out, err = run_cli(capsys, "eig", "--a", "1", "--c", "0.5", "--derive", "b", *flags)
    assert (code, out, err) == (EXIT_USAGE, "", f"pcoulomb: error: {message}\n")


@pytest.mark.parametrize("argv, coarse_nodes", [
    (["eig", "--a", "1", "--b", "1", "--c", "0.5", "--k", "4", "--rmax", "15", "--h", "0.005"],
     750),
    (["eig", "--a", "1", "--c", "0.5", "--derive", "b", "--rmax", "20", "--h", "0.01"], 500),
])
def test_coarse_user_grids_do_not_fall_back(argv, coarse_nodes, capsys, monkeypatch):
    # each level's window on the 4h and h grids (coarse_nodes, and 3000 and
    # 2000 nodes) proves itself even where a level moves by 2.2e-4 relative
    # from 4h to h: the 4h grid takes three steps from the bisected value,
    # so only the chain's coarsest grid (16h; 64h has under 100 nodes) is
    # bisected, never 4h or h
    from pcoulomb import numerics

    flags = dict(zip(argv[1::2], argv[2::2]))
    grid = numerics.RadialGrid(r_max=float(flags["--rmax"]), h=float(flags["--h"]))
    coarsest, coarse = numerics._coarse_grids(grid, 4)
    assert (coarsest.h, coarse.count) == (numerics.COARSEN**2 * grid.h, coarse_nodes)
    sizes = []
    index_solve = numerics._index_solve

    def recording(diag, off, level):
        sizes.append(len(diag))
        return index_solve(diag, off, level)

    monkeypatch.setattr(numerics, "_index_solve", recording)
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert sizes and set(sizes) == {coarsest.count}


def _benchmark_requests(workload, seeds):
    """The benchmark's request lists, read from ``perfbench/workloads.py``."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv for seed in seeds for argv in module.requests(workload, seed)]


def test_richardson_sweep_rows_match_closed_form(capsys):
    # n = 0 rows with odd M of the sweep-scan requests, seeds 1-3: the
    # extrapolated value is within 1e-10 of the closed form (measured up to
    # 4.7e-11; 3.8e-9 when each grid value was bisected to ULP * ||T||_1)
    rows = 0
    for argv in _benchmark_requests("sweep-scan", range(1, 4)):
        flags = dict(zip(argv[1::2], argv[2::2]))
        if flags["--n"] != "0" or (int(flags["--N"]) + 2 * int(flags["--l"])) % 2 == 0:
            continue
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[8]) <= 1e-10, (argv, line)
            rows += 1
    assert rows == 36


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


def run_cli_usage(capsys, *argv):
    """``run_cli`` for argv that argparse rejects: its SystemExit code is the exit code."""
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


_SURFACE_CONFIG = "a = 1\nc = 0.5\nderive = b\n"
_SURFACE_FLAGS = ("--a", "1", "--c", "0.5", "--derive", "b")


@pytest.mark.parametrize("command, line, message", [
    ("solve", "a = true", "argument --a: invalid float value: 'true'"),
    ("solve", "N = 3.5", "argument --N: invalid int value: '3.5'"),
    ("eig", "k = 2.5", "argument --k: invalid int value: '2.5'"),
    ("solve", "out = xml", "argument --out: invalid choice: 'xml'"),
    ("solve", "derive = d", "argument --derive: invalid choice: 'd'"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, line, message):
    config = tmp_path / "run.conf"
    config.write_text(_SURFACE_CONFIG + line + "\n")
    code, out, err = run_cli_usage(capsys, command, "--config", str(config))
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err


def test_config_switch_takes_true_or_false(tmp_path, capsys):
    config = tmp_path / "run.conf"
    argv = ["eig", "--config", str(config)]
    for text, expected in (("true", True), ("false", False)):
        config.write_text(_SURFACE_CONFIG + f"richardson = {text}\n")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["grid"]["richardson"] is expected

    config.write_text(_SURFACE_CONFIG + "richardson = yes\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "config key richardson takes true or false, not 'yes'" in err


def test_config_skips_keys_of_other_commands(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(_SURFACE_CONFIG + "k = 2\nrichardson = true\nsweep = a=1,2\n")
    code, out, _ = run_cli(capsys, "solve", "--config", str(config))
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["b"] == 1.0


@pytest.mark.parametrize("argv", [["solve"], ["oracle", "--n", "1", "--check"],
                                  ["verify", "--out", "json"]])
def test_config_grid_keys_are_skipped_by_commands_without_a_grid(tmp_path, capsys, argv):
    # eig's rmax, h and richardson lines still serve a config file that
    # solve, oracle and verify read
    config = tmp_path / "run.conf"
    config.write_text(_SURFACE_CONFIG + "rmax = 20\nh = 0.01\nrichardson = true\n")
    code, out, _ = run_cli(capsys, *argv, "--config", str(config))
    assert code == EXIT_OK
    config.write_text(_SURFACE_CONFIG)
    assert run_cli(capsys, *argv, "--config", str(config)) == (code, out, "")


def test_config_sweep_line_adds_a_range_ahead_of_the_flags(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("c = 0.5\nderive = b\nsweep = a=0.5,1\n")
    base = ["--c", "0.5", "--derive", "b"]
    code, out, _ = run_cli(capsys, "sweep", "--config", str(config))
    assert (code, out) == run_cli(capsys, "sweep", "--sweep", "a=0.5,1", *base)[:2]
    assert code == EXIT_OK and len(out.splitlines()) == 3

    code, out, _ = run_cli(capsys, "sweep", "--config", str(config), "--sweep", "c=0.5,1")
    expected = run_cli(capsys, "sweep", "--sweep", "a=0.5,1", "--sweep", "c=0.5,1", *base)
    assert (code, out) == expected[:2]
    assert code == EXIT_OK and len(out.splitlines()) == 5

    code, out, err = run_cli(
        capsys, "sweep", "--config", str(config), "--sweep", "c=0.5,1", "--sweep", "l=0,1"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert "at most two sweep parameters" in err


def test_option_abbreviations_are_refused(tmp_path, capsys):
    # "--conf" used to parse as --config while the file was never read
    config = tmp_path / "run.conf"
    config.write_text(_SURFACE_CONFIG)
    for argv in (["--config", str(config)], [f"--config={config}"]):
        code, out, _ = run_cli(capsys, "solve", *argv)
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["b"] == 1.0
    for argv in (["--conf", str(config)], [f"--conf={config}"]):
        code, out, err = run_cli_usage(capsys, "solve", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"unrecognized arguments: {' '.join(argv)}" in err
    code, out, err = run_cli_usage(capsys, "verify", *_SURFACE_FLAGS, "--rich")
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --rich" in err


def _exit_and_output(capsys, *argv):
    """(exit code, stdout, stderr) of one ``main`` call, usage errors included."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


def test_parser_is_built_once_and_shared(tmp_path, capsys):
    # main calls in one process share one parser; a call after another, with
    # or without --config, exits and prints as a fresh process would
    config = tmp_path / "run.conf"
    config.write_text(_SURFACE_CONFIG + "N = 5\n")
    calls = [
        ("solve", *_SURFACE_FLAGS),
        ("solve", "--config", str(config)),
        ("solve", "--conf", str(config)),
        ("verify", *_SURFACE_FLAGS, "--out", "json", "--rich"),
        ("sweep", "--config", str(config), "--sweep", "c=0.5,1"),
        ("eig", "--config", str(config), "--k", "2"),
        ("solve", *_SURFACE_FLAGS, "--N", "7"),
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_exit_and_output(capsys, *argv))
    assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_USAGE,
                                              EXIT_OK, EXIT_OK, EXIT_OK]
    assert json.loads(fresh[1][1])["dimension"]["M"] == 5
    assert "unrecognized arguments: --conf" in fresh[2][2]
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    shared = []
    for argv in calls:
        shared.append(_exit_and_output(capsys, *argv))
        assert cli.build_parser() is parser
    assert shared == fresh


@pytest.mark.parametrize("argv", [
    ["solve", "--a", "1", "--c", "0.5", "--derive", "b"],
    ["oracle", "--b", "1", "--c", "0.5", "--n", "1"],
    ["verify", "--a", "1", "--c", "0.5", "--derive", "b"],
])
def test_richardson_only_on_grid_eigenvalue_commands(capsys, argv):
    code, out, err = run_cli_usage(capsys, *argv, "--richardson")
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --richardson" in err


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
        ["verify", "--a", "1", "--c", "0.5", "--N", "2", "--derive", "b", "--out", "json"],
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


@pytest.mark.parametrize("c, derive", [(0.5, "b"), (0.0, None)])
def test_library_verify_document_matches_cli(capsys, c, derive):
    # the golden cases: the battery runs without argparse and gives the
    # document the CLI prints
    argv = ["--a", "1", "--c", str(c), "--N", "3", "--l", "0", "--out", "json"]
    _, out, _ = run_cli(capsys, "verify", *argv, *(["--derive", derive] if derive else []))
    phys = PhysicalParams()
    dim = dimension_reduce(3, 0)
    pot = derive_couplings(1.0, 0.0, c, derive, dim, phys)
    doc = report.verify_document(pot, dim, phys, nmax=2)
    assert doc == json.loads(out)


def _reference_problem():
    phys = PhysicalParams()
    dim = dimension_reduce(3, 0)
    return derive_couplings(1.0, 0.0, 0.5, "b", dim, phys), dim, phys


def test_library_eig_document_is_the_cli_output(capsys):
    _, out, _ = run_cli(capsys, "eig", "--a", "1", "--b", "1", "--c", "0.5", "--k", "3",
                        "--rmax", "40", "--h", "0.002", "--richardson")
    _, dim, phys = _reference_problem()
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    doc = report.eig_document(pot, dim, phys, 3, True, r_max=40.0, h=0.002)
    assert dump_json(doc) + "\n" == out


def test_library_oracle_document_is_the_cli_output(capsys):
    _, out, _ = run_cli(capsys, "oracle", "--b", "1", "--c", "0.5", "--N", "3", "--l", "0",
                        "--n", "1", "--check")
    _, dim, phys = _reference_problem()
    doc = report.oracle_document(PotentialParams(b=1.0, c=0.5), dim, phys, 1, check=True)
    assert dump_json(doc) + "\n" == out


def test_library_sweep_row_is_the_cli_row(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--sweep", "a=1", "--c", "0.5", "--derive", "b",
                        "--n", "1", "--richardson")
    pot, dim, phys = _reference_problem()
    row = report.sweep_row(pot, dim, phys, 1, True)
    cells = [cli._csv_cell(value) for value in (1.0, 1.0, 0.5, 3, 0, 1, *row)]
    assert out.splitlines()[1] == ",".join(cells)


def test_documents_hold_plain_python_leaves():
    # dump_json and _csv_cell serialize these seven types and no numpy
    # scalar: every value report builds is one of them
    plain = {int, float, str, bool, type(None), list, dict}

    def walk(obj):
        assert type(obj) in plain, (type(obj), obj)
        for value in obj.values() if type(obj) is dict else obj if type(obj) is list else ():
            walk(value)

    pot, dim, phys = _reference_problem()
    walk(report.solve_document(pot, dim, phys, 2))
    walk(report.verify_document(pot, dim, phys, 2))
    dim2 = dimension_reduce(2, 0)  # its residuals are DIVERGENT strings
    walk(report.verify_document(derive_couplings(1.0, 0.0, 0.5, "b", dim2, phys), dim2, phys, 0))
    walk(report.oracle_document(PotentialParams(b=1.0, c=0.5), dim, phys, 2, check=True))
    walk(report.eig_document(pot, dim, phys, 3, True))
    walk(list(report.sweep_row(pot, dim, phys, 1, True)))


def test_cli_computes_nothing_itself():
    # the grid and ansatz oracles are reached through report only
    import ast

    tree = ast.parse(Path(cli.__file__).read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert not {m for m in modules if m and m.split(".")[-1] in ("numerics", "qes")}
    assert {"report", "exact", "model"} <= modules


def test_oracles_import_nothing_of_the_construction():
    # qes, numerics and spectral take from the package only the model and
    # the state type, so none sees how a closed-form claim was built
    import ast

    import pcoulomb

    package = Path(pcoulomb.__file__).parent
    for module in ("qes", "numerics", "spectral"):
        tree = ast.parse((package / f"{module}.py").read_text())
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        local = {node.module: {alias.name for alias in node.names}
                 for node in imports if isinstance(node, ast.ImportFrom) and node.level}
        assert set(local) <= {"model", "susy"}, module
        assert local.get("susy", {"ClosedFormState"}) == {"ClosedFormState"}, module
        names = {alias.name for node in imports for alias in node.names}
        names |= {node.module for node in imports
                  if isinstance(node, ast.ImportFrom) and node.module}
        assert not {n for n in names if n.split(".")[-1] in ("exact", "report", "cli")}, module


def test_verification_checks_round_only_spectral_values(monkeypatch):
    # the level-0 energy and the ladder overlap come from the spectral oracle
    # and are printed at SPECTRAL_DIGITS; every other value keeps 17 digits
    from pcoulomb.spectral import spectral_lowest

    phys = PhysicalParams()
    dim = dimension_reduce(3, 0)
    pot = PotentialParams(a=1.0, b=constraint_b(1.0, 0.5, dim, phys), c=0.5)
    reported = report.verify_document(pot, dim, phys, 2)["checks"]
    monkeypatch.setattr(report, "SPECTRAL_DIGITS", 17)
    full = report.verify_document(pot, dim, phys, 2)["checks"]

    assert [c["name"] for c in reported] == [c["name"] for c in full]
    for rep, raw in zip(reported, full):
        assert (rep["kind"], rep["tol"], rep["pass"]) == (raw["kind"], raw["tol"], raw["pass"])
        if rep["name"] == "ladder_vs_numeric_overlap":
            assert rep["value"] == float("%.10g" % raw["value"])
            assert rep["value"] != raw["value"]
        elif rep["name"] not in ("eigen_lowest", "eigen_vs_closed"):
            assert rep["value"] == raw["value"]
    assert all(c["pass"] for c in reported if c["kind"] == "assert")

    # the energy scale is max(|E|, T / l^2) = 1: the lattice step is 1e-9,
    # and the closed form E = 1 lies on it
    by_name = {c["name"]: c["value"] for c in reported}
    level0 = spectral_lowest(pot, dim, phys, 0).energy
    closed = ground_state(pot, dim, phys).energy.total
    assert level0 != closed and abs(level0 - closed) <= 1e-11
    assert by_name["eigen_lowest"] == round(level0, 9) == closed
    assert by_name["eigen_vs_closed"] == 0.0
    # the oracle values stay at full precision
    roots = [s.a_root for s in qes_solve(pot.b, pot.c, dim, phys, n=1)]
    assert by_name["oracle_level1_roots"] == roots
    assert all(float("%.10g" % root) != root for root in roots)


def _dispatch_settings() -> list[tuple[str, dict]]:
    """numpy's default dispatch, then each dispatched level disabled from the
    top down, then (on x86_64) a generic OpenBLAS kernel and Haswell's, under
    which the spectral level 0 of a verify request moved across a 10-digit
    rounding boundary of its own value."""
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
        settings.append(("openblas-haswell", {"OPENBLAS_CORETYPE": "Haswell"}))
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


#: compared with their own output at default dispatch, not with a golden
#: file, with the verify requests of verify-battery's seed 1
_UNGOLDEN_RUNS = (
    ["verify", "--a", "1", "--c", "0.5", "--N", "2", "--l", "0", "--derive", "b", "--out", "json"],
    ["oracle", "--b", "2.2", "--c", "0.2", "--N", "4", "--l", "2", "--n", "8"],
    ["oracle", "--b", "2.2", "--c", "0.2", "--N", "4", "--l", "2", "--n", "8", "--check"],
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
    argvs = [argv for _, argv in _GOLDEN_RUNS] + _ungolden_runs()
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(dict(extra_env)),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _ungolden_runs() -> list[list[str]]:
    battery = [argv for argv in _benchmark_requests("verify-battery", [1]) if argv[0] == "verify"]
    return list(_UNGOLDEN_RUNS) + battery


@pytest.mark.parametrize(
    "extra_env", [pytest.param(env, id=name) for name, env in _dispatch_settings()]
)
def test_goldens_under_dispatch_settings(extra_env):
    results = _child_results(tuple(sorted(extra_env.items())))
    for (golden, _), (code, out) in zip(_GOLDEN_RUNS, results):
        assert code == EXIT_OK
        assert out == (GOLDEN_DIR / golden).read_text(), golden
    defaults = _child_results(())[len(_GOLDEN_RUNS):]
    argvs = _ungolden_runs()
    assert len(argvs) == len(_UNGOLDEN_RUNS) + 45
    for argv, result, default in zip(argvs, results[len(_GOLDEN_RUNS):], defaults):
        assert result[0] == EXIT_OK, argv[0]
        assert result == default, f"{' '.join(argv)}: output moved with dispatch"


# prints a digest of the potential samples of M = 4 and M = 6 problems,
# whose barrier terms r^-2 differ from M = 3's, on 300,000 nodes
_POTENTIAL_CHILD = """
import hashlib
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce, effective_potential
from pcoulomb.numerics import RadialGrid
phys = PhysicalParams()
nodes = RadialGrid(r_max=40.0, h=40.0 / 300000).nodes
digest = hashlib.sha256()
for n_dim in (4, 6):
    pot = PotentialParams(a=1.1, b=0.9, c=0.6)
    digest.update(effective_potential(pot, dimension_reduce(n_dim, 0), phys)(nodes).tobytes())
print(digest.hexdigest())
"""


@functools.cache
def _potential_digest(extra_env: tuple) -> str:
    result = subprocess.run(
        [sys.executable, "-c", _POTENTIAL_CHILD],
        capture_output=True, text=True, env=_child_env(dict(extra_env)),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize(
    "extra_env", [pytest.param(env, id=name) for name, env in _dispatch_settings()]
)
def test_potential_samples_do_not_move_with_dispatch(extra_env):
    # every power is a correctly rounded product or quotient, so the samples
    # keep their bits at every SIMD dispatch level (numpy's pow for r^-2
    # moved 1 ulp in about 5% of them)
    assert _potential_digest(tuple(sorted(extra_env.items()))) == _potential_digest(())


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86_64 kernel")
def test_oracle_check_does_not_move_with_the_openblas_kernel():
    # the residuals are exact moments in plain float arithmetic; an oracle
    # --check run is also among the dispatch settings' ungolden runs
    argv = ["oracle", "--b", "1", "--c", "0.5", "--n", "2", "--check"]
    outputs = []
    for extra_env in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        result = subprocess.run(
            [sys.executable, "-m", "pcoulomb.cli", *argv],
            capture_output=True, text=True, env=_child_env(extra_env),
        )
        assert result.returncode == EXIT_OK, result.stderr
        outputs.append(result.stdout)
    assert "h_residual" in outputs[0]
    assert outputs[0] == outputs[1]


# prints, after each argv, whether the scipy.linalg package and the LAPACK
# routines of pcoulomb.numerics have been loaded so far
_LAPACK_CHILD = """
import contextlib, io, json, sys
from pcoulomb import numerics
from pcoulomb.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append(["scipy.linalg" in sys.modules, numerics._lapack.cache_info().currsize > 0])
sys.stdout.write(json.dumps(loaded))
"""


def test_commands_load_lapack_without_scipy_linalg():
    argvs = [
        ["solve", "--a", "1", "--c", "0.5", "--derive", "b"],
        ["oracle", "--b", "1", "--c", "0.5", "--n", "3", "--check"],
        ["verify", "--a", "1", "--c", "0.5", "--derive", "b"],
        ["eig", "--a", "1", "--c", "0.5", "--derive", "b"],
        ["sweep", "--sweep", "a=1,2", "--c", "0.5", "--derive", "b", "--richardson"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _LAPACK_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env({}),
    )
    assert result.returncode == 0, result.stderr
    linalg, flapack = zip(*json.loads(result.stdout))
    assert linalg == (False,) * 5
    # verify needs no LAPACK beyond numpy's; the first grid eigensolve (eig)
    # loads the extension on its own
    assert flapack == (False, False, False, True, True)


# runs eig, then imports scipy.linalg as a library user would
_IMPORT_AFTER_EIG_CHILD = """
import contextlib, io
from pcoulomb import numerics
from pcoulomb.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["eig", "--a", "1", "--c", "0.5", "--derive", "b"]) == 0
import scipy.linalg
assert scipy.linalg._flapack.dstebz is numerics._lapack().dstebz
assert scipy.linalg.lapack.dpttrs is numerics._lapack().dpttrs
assert scipy.linalg.lapack.dpttrf is numerics._lapack().dpttrf
print("ok")
"""


def test_import_scipy_linalg_after_an_eigensolve_binds_flapack():
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_AFTER_EIG_CHILD],
        capture_output=True, text=True, env=_child_env({}),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


@pytest.mark.parametrize("argv", [
    ["oracle", "--b", "1", "--c", "0.5", "--N", "3", "--l", "0", "--n", "1", "--check"],
    ["verify", "--a", "1", "--c", "0.5", "--derive", "b"],
    ["sweep", "--sweep", "a=0.5,1", "--c", "0.5", "--derive", "b"],
], ids=["json", "table", "csv"])
def test_closed_stdout_exits_one_with_a_message(argv):
    # the read end is closed before the command starts: the one write of
    # the output meets a closed pipe, whatever its size
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pcoulomb.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_child_env({}),
        )
    finally:
        os.close(write_end)
    assert result.returncode == EXIT_USAGE
    assert result.stderr == "pcoulomb: error: stdout was closed before the output was written\n"
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


def test_spectral_oracle_out_of_range_prints_one_message():
    # T = 5e199: at every scale of the search s^2 overflows, so T / s^2 is 0
    # from a nonzero T; the pencil without its kinetic term is refused, not
    # solved, and the spectral level 0 needs no state, so no inverse
    # iteration warns
    result = subprocess.run(
        [sys.executable, "-m", "pcoulomb.cli", "verify", "--a", "1", "--mass", "1e-200"],
        capture_output=True, text=True, env=_child_env({}),
    )
    assert (result.returncode, result.stdout) == (EXIT_USAGE, "")
    assert result.stderr == (
        "pcoulomb: error: the spectral Hamiltonian at scale 1.16e+197 is not finite\n")


def test_spectral_length_out_of_range_prints_one_message():
    # T = 5e299: the linear length (T / b)^(1/3) is inf, and the search
    # bracket is refused before its log is taken
    result = subprocess.run(
        [sys.executable, "-m", "pcoulomb.cli", "verify", "--mass", "1e-300", "--a", "1",
         "--c", "0.5", "--derive", "b"],
        capture_output=True, text=True, env=_child_env({}),
    )
    assert (result.returncode, result.stdout) == (EXIT_USAGE, "")
    assert result.stderr.count("\n") == 1 and "nan" not in result.stderr
    assert result.stderr.startswith("pcoulomb: error: the spectral basis needs lengths")


def test_eigen_tolerance_is_the_energy_lattice_step_at_large_energy(capsys):
    # E = 2.1e150 is printed on a lattice of step 1e141, which an absolute
    # 1e-4 cannot judge; the level passes, and the oscillator view's Riccati
    # identity, which loses its digits there, still fails
    code, out, _ = run_cli(capsys, "verify", "--c", "1e300", "--out", "json")
    assert code == EXIT_VERIFY
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    eigen = checks["eigen_vs_closed"]
    assert (eigen["tol"], eigen["pass"]) == (1e141, True)
    assert eigen["value"] <= 0.5e141
    assert [n for n, c in checks.items() if c["pass"] is False] == ["riccati_oscillator_view"]


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "pcoulomb.cli", "solve", "--a", "1", "--c", "0.5", "--derive", "b"],
        capture_output=True, text=True, env=_child_env({}),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["views"]["coulomb"]["E"] == 1.0


def test_version_lives_in_the_package_only():
    # the metadata reads pcoulomb.__version__; pyproject.toml spells no copy
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        raw = read_configuration(pyproject, expand=False)
        resolved = read_configuration(pyproject)
    assert "version" not in raw["project"]
    assert raw["project"]["dynamic"] == ["version"]
    assert resolved["project"]["version"] == pcoulomb.__version__
