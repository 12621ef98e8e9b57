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
from pcoulomb.exact import closed_level, constraint_a, constraint_b, derive_couplings, ground_state
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce, effective_potential
from pcoulomb.numerics import RadialGrid, build_grid, eigen_lowest
from pcoulomb.qes import qes_solve
from pcoulomb.spectral import MAX_LEVEL, VALUE_SIZE, spectral_lowest
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
    # the lowest k spectral levels, each on the lattice of its own energy:
    # 10 digits of max(|E|, T / l^2)
    code, out, _ = run_cli(capsys, "eig", "--a", "1", "--b", "1", "--c", "0.5", "--k", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"inputs", "grid", "eigenvalues", "meta"}
    assert doc["grid"] == {"method": "spectral", "size": VALUE_SIZE}
    pot, dim, phys = PotentialParams(a=1.0, b=1.0, c=0.5), dimension_reduce(3, 0), PhysicalParams()
    expected = []
    for level in range(3):
        energy = spectral_lowest(pot, dim, phys, level).energy
        expected.append(report._energy_lattice(energy, energy, pot, dim, phys)[0])
    assert doc["eigenvalues"] == expected
    assert doc["eigenvalues"][0] == 1.0


def test_eig_level_zero_at_m2_is_the_closed_form(capsys):
    # M = 2, where the grid's level 0 missed the closed form E = -1 by 0.96:
    # the spectral level 0 is within one lattice step of it
    code, out, _ = run_cli(capsys, "eig", "--a", "1", "--c", "0.5", "--N", "2", "--derive", "b",
                           "--k", "2")
    assert code == EXIT_OK
    values = json.loads(out)["eigenvalues"]
    assert len(values) == 2
    dim, phys = dimension_reduce(2, 0), PhysicalParams()
    pot = derive_couplings(1.0, 0.0, 0.5, "b", dim, phys)
    e_closed = closed_level(pot, dim, phys, 0)[1]
    _, step = report._energy_lattice(values[0], values[0], pot, dim, phys)
    assert e_closed == -1.0
    assert abs(values[0] - e_closed) <= step


def test_eig_benchmark_levels_agree_with_the_closed_form_and_the_grid(capsys):
    # every cli-cold eig request of seeds 1-10, each on the coupling surface:
    # level 0 is within one lattice step of the closed form, and level 1 is
    # within the grid's Richardson correction |E_R - E_h| of E_R
    argvs = {tuple(argv) for argv in _benchmark_requests("cli-cold", range(1, 11))
             if argv[0] == "eig"}
    assert len(argvs) == 40
    phys = PhysicalParams()
    for argv in sorted(argvs):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        values = json.loads(out)["eigenvalues"]
        flags = dict(zip(argv[1::2], argv[2::2]))
        dim = dimension_reduce(int(flags["--N"]), int(flags["--l"]))
        pot = derive_couplings(float(flags["--a"]), 0.0, float(flags["--c"]), "b", dim, phys)
        e_closed = closed_level(pot, dim, phys, 0)[1]
        _, step = report._energy_lattice(values[0], values[0], pot, dim, phys)
        assert abs(values[0] - e_closed) <= step, argv
        v_eff, grid = effective_potential(pot, dim, phys), build_grid(pot, dim, phys)
        e_h, e_r = (eigen_lowest(v_eff, grid, phys, 1, richardson=r) for r in (False, True))
        assert abs(values[1] - e_r) <= abs(e_r - e_h), argv


def test_eig_of_a_diagonal_grid_matrix(capsys):
    # T = hbar^2/2m underflows to 0 at hbar = 1e-200: the grid matrix is
    # diagonal, so the reference solver's lowest levels are the lowest
    # potential samples, bit for bit; eig, whose basis needs a Coulomb
    # length in the float range, refuses the input with one message
    phys = PhysicalParams(hbar=1e-200)
    assert phys.kinetic == 0.0
    v_eff = effective_potential(PotentialParams(a=1.0, b=1.0, c=0.5), dimension_reduce(3, 0), phys)
    grid = RadialGrid(r_max=20.0, h=0.01)
    samples = np.sort(v_eff(grid.nodes))
    assert [eigen_lowest(v_eff, grid, phys, level) for level in range(3)] == samples[:3].tolist()
    code, out, err = run_cli(capsys, "eig", "--a", "1", "--b", "1", "--c", "0.5",
                             "--hbar", "1e-200", "--k", "3")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("pcoulomb: error: the spectral basis needs lengths in the float range")


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
    "overrides, cause",
    [({}, "the Coulomb length"), ({"h": 1e-9}, "the step override")],
)
def test_build_grid_over_budget_names_its_cause(overrides, cause):
    # the grid that eig sized before it took the spectral oracle's levels:
    # refused before any grid array exists, naming what set the step
    dim, phys = dimension_reduce(3, 0), PhysicalParams()
    a = 1e-8 if not overrides else 1.0
    pot = PotentialParams(a=a, b=constraint_b(a, 0.5, dim, phys), c=0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            build_grid(pot, dim, phys, **overrides)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "exceeds the budget" in str(err.value)
    assert cause in str(err.value)
    assert "--" not in str(err.value)
    assert peak < 2**24


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
    # building a grid and a grid eigensolve both raise
    from pcoulomb import numerics

    def refused(*_args, **_kwargs):
        raise AssertionError("a grid or a grid eigensolve was asked for")

    _, gridded, built = _count_samples(monkeypatch)
    for name in ("build_grid", "eigen_lowest"):
        monkeypatch.setattr(numerics, name, refused)
    code, out, err = run_cli(capsys, "verify", *flags, "--out", "json")
    assert (code, err) == (EXIT_VERIFY if "--b" in flags else EXIT_OK, "")
    assert "grid" not in json.loads(out)["inputs"]
    assert (gridded, built) == ([], [])


def test_solve_and_verify_build_no_grid_where_eig_is_over_budget(capsys):
    # the Coulomb length is 1e8 oscillator lengths: the grid eig used to
    # size exceeds the node budget, but solve, verify and eig need no grid
    flags = ["--a", "1e-8", "--c", "0.5", "--derive", "b"]
    dim, phys = dimension_reduce(3, 0), PhysicalParams()
    pot = PotentialParams(a=1e-8, b=constraint_b(1e-8, 0.5, dim, phys), c=0.5)
    with pytest.raises(ValueError, match="exceeds the budget"):
        build_grid(pot, dim, phys)
    code, out, err = run_cli(capsys, "solve", *flags)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["psi"]["N0"] > 0.0
    code, out, err = run_cli(capsys, "verify", *flags, "--out", "json")
    assert (code, err) == (EXIT_OK, "")
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert by_name["eigen_vs_closed"]["value"] <= 1e-10
    code, out, err = run_cli(capsys, "eig", *flags)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["eigenvalues"] == [by_name["eigen_lowest"]["value"]]


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


@pytest.mark.parametrize("command", ["solve", "oracle", "verify", "eig", "sweep"])
@pytest.mark.parametrize("flag", ["--rmax", "--h"])
def test_grid_flags_only_on_grid_eigenvalue_commands(capsys, command, flag):
    # no command takes the grid flags
    problem = (["--b", "1", "--c", "0.5", "--n", "1", "--check"] if command == "oracle"
               else ["--a", "1", "--c", "0.5", "--derive", "b"])
    if command == "sweep":
        problem = ["--sweep", "a=1,2", "--c", "0.5", "--derive", "b"]
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
        ["eig", "--a", "1", "--b", "1", "--derive", "c", "--hbar", "1e200"],
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
        # sqrt(2mc) underflows in the oscillator length the spectral basis
        # is sized by
        ["eig", "--a", "1", "--c", "1e-300", "--mass", "1e-300"],
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
    # c r^2 overflows at the far nodes: the grid reference refuses the one
    # matrix with one message, and no numpy RuntimeWarning on the way; eig
    # builds no grid and prints the spectral level 0, and the grid flags are
    # a usage error on eig and sweep alike
    pot, dim = PotentialParams(a=1.0, c=1e307), dimension_reduce(3, 0)
    v_eff = effective_potential(pot, dim, PhysicalParams())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            eigen_lowest(v_eff, RadialGrid(r_max=20.0, h=0.01), PhysicalParams())
        code, out, _ = run_cli(capsys, "eig", "--a", "1", "--c", "1e307")
    assert str(err.value) == "the grid Hamiltonian overflows: a matrix entry is not finite"
    assert code == EXIT_OK
    assert json.loads(out)["eigenvalues"][0] > 0.0
    grid = ["--rmax", "20", "--h", "0.01"]
    for argv in (["eig", "--a", "1"], ["sweep", "--sweep", "a=1"]):
        code, out, err = run_cli_usage(capsys, *argv, "--c", "1e307", *grid)
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --rmax 20 --h 0.01" in err


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
    # at r_max 20, h 0.01, T/h^2 squares beyond the float range below a mass
    # of about 3.5e-151: the grid reference refuses the matrix with one
    # message naming T/h^2; mass 1e-150 still solves.  eig and sweep build
    # no grid, and their grid flags are a usage error
    dim, grid = dimension_reduce(3, 0), RadialGrid(r_max=20.0, h=0.01)
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    for mass in (1e-151, 1e-300):
        phys = PhysicalParams(mass=mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                eigen_lowest(effective_potential(pot, dim, phys), grid, phys)
        message = str(err.value)
        assert message.startswith("the grid Hamiltonian overflows: T/h^2 = "), mass
        assert message.endswith(" squares beyond the float range"), mass
    phys = PhysicalParams(mass=1e-150)
    assert math.isfinite(eigen_lowest(effective_potential(pot, dim, phys), grid, phys))
    grid_flags = ["--rmax", "20", "--h", "0.01"]
    for argv in (["eig", "--a", "1", "--b", "1", "--c", "0.5"],
                 ["sweep", "--sweep", "a=1,2", "--c", "0.5", "--derive", "b"]):
        for mass in ("1e-151", "1e-150"):
            code, out, err = run_cli_usage(capsys, *argv, "--mass", mass, *grid_flags)
            assert (code, out) == (EXIT_USAGE, ""), mass
            assert "unrecognized arguments: --rmax 20 --h 0.01" in err


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
    # row n is the spectral level n at the linear rule's a_n, on the lattice
    # of E_n: 10 digits of max(|E_n|, T / l^2)
    phys = PhysicalParams()
    dim = dimension_reduce(3, 0)
    pot = PotentialParams(a=1.0, b=constraint_b(1.0, 0.5, dim, phys), c=0.5)
    for n, e_closed in ((0, 1.0), (1, 2.0)):
        pot_n = PotentialParams(a=constraint_a(pot.b, pot.c, dim, phys, n=n), b=pot.b, c=pot.c)
        level = spectral_lowest(pot_n, dim, phys, n).energy
        expected, step = report._energy_lattice(level, e_closed, pot_n, dim, phys)
        assert step == 1e-9
        assert _sweep_level(capsys, n) == expected == round(level, 9)


def test_level_bits_do_not_depend_on_k(capsys):
    # each level is its own spectral solve, with its own scale search, so a
    # level is the same double whichever k asks for it
    for flags in (["--a", "1", "--b", "1", "--c", "0.5"], ["--a", "1", "--c", "0.5", "--N", "2",
                                                           "--derive", "b"]):
        runs = []
        for k in ("1", "3", str(MAX_LEVEL + 1)):
            code, out, _ = run_cli(capsys, "eig", *flags, "--k", k)
            assert code == EXIT_OK
            runs.append(json.loads(out)["eigenvalues"])
        assert all(run == runs[-1][:len(run)] for run in runs), flags


@pytest.mark.parametrize("flags, message", [
    (["--k", "0"], "need k >= 1, got 0"),
    (["--k", str(MAX_LEVEL + 2)],
     f"levels 0..{MAX_LEVEL + 1} out of range: the spectral oracle takes levels 0..{MAX_LEVEL}"),
])
def test_eig_k_is_checked_before_any_solve(flags, message, capsys, monkeypatch):
    # a k the spectral oracle cannot take fails at once, not after solving
    # the levels below it one by one
    from pcoulomb import spectral

    def no_solve(*_args):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(spectral, "spectral_lowest", no_solve)
    code, out, err = run_cli(capsys, "eig", "--a", "1", "--c", "0.5", "--derive", "b", *flags)
    assert (code, out, err) == (EXIT_USAGE, "", f"pcoulomb: error: {message}\n")


@pytest.mark.parametrize("command", ["solve", "verify", "oracle", "eig", "sweep"])
def test_no_command_builds_a_grid_or_runs_a_grid_eigensolve(command, capsys, monkeypatch):
    from pcoulomb import numerics

    def refused(*_args, **_kwargs):
        raise AssertionError("a grid or a grid eigensolve was asked for")

    for name in ("build_grid", "eigen_lowest"):
        monkeypatch.setattr(numerics, name, refused)
    argv = {"oracle": ["--b", "1", "--c", "0.5", "--n", "2", "--check"],
            "sweep": ["--sweep", "a=1,2", "--c", "0.5", "--derive", "b", "--n", "1"],
            "eig": ["--a", "1", "--c", "0.5", "--derive", "b", "--k", "3"]}.get(
                command, ["--a", "1", "--c", "0.5", "--derive", "b"])
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out


def _benchmark_requests(workload, seeds):
    """The benchmark's request lists, read from ``perfbench/workloads.py``."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv for seed in seeds for argv in module.requests(workload, seed)]


def test_richardson_sweep_rows_match_closed_form(capsys):
    # every n = 0 row of the sweep-scan requests, seeds 1-3, odd and even M:
    # the printed spectral level is within one step of its lattice of the
    # closed form (the unrounded level is within 1.4e-13 max(1, |E|) of
    # it, where FD Richardson was up to 3.0e-8 away at even M)
    rows = 0
    for argv in _benchmark_requests("sweep-scan", range(1, 4)):
        flags = dict(zip(argv[1::2], argv[2::2]))
        if flags["--n"] != "0":
            continue
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            a, b, c = map(float, cells[:3])
            dim = dimension_reduce(int(cells[3]), int(cells[4]))
            pot = PotentialParams(a=a, b=b, c=c)
            _, step = report._energy_lattice(0.0, float(cells[6]), pot, dim, PhysicalParams())
            assert float(cells[8]) <= step, (argv, line)
            rows += 1
    assert rows == 60


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


def test_sweep_rows_at_m2_are_the_closed_form(capsys):
    # at M = 2 the grid did not converge to the closed form (E_numeric
    # 0.858 against E_closed 0.5); the spectral level 0 is on its lattice
    code, out, _ = run_cli(capsys, "sweep", "--sweep", "a=0.5,1", "--c", "0.5", "--N", "2",
                           "--derive", "b", "--richardson")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [float(r[6]) for r in rows] == [0.5, -1.0]
    assert [float(r[7]) for r in rows] == [0.5, -1.0]
    assert all(float(r[8]) <= 1e-9 for r in rows)


def test_sweep_richardson_flag_changes_nothing(capsys):
    base = ["sweep", "--sweep", "a=0.5,1", "--sweep", "c=0.4,0.8", "--N", "4", "--derive", "b"]
    for n in ("0", "2"):
        plain = run_cli(capsys, *base, "--n", n)
        assert plain[0] == EXIT_OK
        assert run_cli(capsys, *base, "--n", n, "--richardson") == plain


def test_sweep_level_above_the_spectral_bound_exits_one(capsys):
    # the basis resolves levels 0..5; level 6 is refused before any row prints
    argv = ["sweep", "--sweep", "a=0.5,1", "--c", "0.5", "--derive", "b", "--richardson"]
    code, out, _ = run_cli(capsys, *argv, "--n", "5")
    assert code == EXIT_OK and len(out.splitlines()) == 3
    code, out, err = run_cli(capsys, *argv, "--n", "6")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "pcoulomb: error: spectral level must be in 0..5, got 6\n"


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
    argv = ["oracle", "--config", str(config)]
    for text, expected in (("true", True), ("false", False)):
        config.write_text(f"b = 1\nc = 0.5\nn = 1\ncheck = {text}\n")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert all(("h_residual" in entry) is expected for entry in json.loads(out))

    config.write_text("b = 1\nc = 0.5\nn = 1\ncheck = yes\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "config key check takes true or false, not 'yes'" in err


def test_config_skips_keys_of_other_commands(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(_SURFACE_CONFIG + "k = 2\nrichardson = true\nsweep = a=1,2\n")
    code, out, _ = run_cli(capsys, "solve", "--config", str(config))
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["b"] == 1.0


@pytest.mark.parametrize("argv", [["solve"], ["oracle", "--n", "1", "--check"],
                                  ["verify", "--out", "json"], ["eig", "--k", "2"],
                                  ["sweep", "--sweep", "a=1,2"]])
def test_config_grid_keys_are_refused_and_richardson_is_skipped(tmp_path, capsys, argv):
    # no command takes rmax or h, so either line is an unknown key (exit 1);
    # a richardson line is skipped by every command but sweep, which takes
    # it and ignores it
    config = tmp_path / "run.conf"
    for line, key in (("rmax = 20", "rmax"), ("h = 0.01", "h")):
        config.write_text(_SURFACE_CONFIG + line + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"pcoulomb: error: unknown config keys: {key}\n"
    config.write_text(_SURFACE_CONFIG + "richardson = true\n")
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
    _, out, _ = run_cli(capsys, "eig", "--a", "1", "--b", "1", "--c", "0.5", "--k", "3")
    _, dim, phys = _reference_problem()
    pot = PotentialParams(a=1.0, b=1.0, c=0.5)
    doc = report.eig_document(pot, dim, phys, 3)
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
    row = report.sweep_row(pot, dim, phys, 1)
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
    walk(report.eig_document(pot, dim, phys, 3))
    walk(list(report.sweep_row(pot, dim, phys, 1)))


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
    ["eig", "--a", "1", "--b", "1", "--c", "0.5", "--k", "3"],
    ["sweep", "--sweep", "a=0.5,1", "--c", "0.5", "--N", "2", "--derive", "b", "--richardson"],
    ["sweep", "--sweep", "a=0.5,1", "--c", "0.5", "--N", "2", "--derive", "b", "--n", "1",
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


# runs each argv in turn and prints, after each, whether scipy is loaded
_SCIPY_CHILD = """
import contextlib, io, json, sys
from pcoulomb.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
sys.stdout.write(json.dumps(loaded))
"""


def test_commands_load_no_scipy():
    # every command's LAPACK is numpy's own; scipy serves the tests' grid
    # reference alone
    argvs = [
        ["solve", "--a", "1", "--c", "0.5", "--derive", "b"],
        ["oracle", "--b", "1", "--c", "0.5", "--n", "3", "--check"],
        ["verify", "--a", "1", "--c", "0.5", "--derive", "b"],
        ["sweep", "--sweep", "a=1,2", "--c", "0.5", "--derive", "b", "--richardson"],
        ["eig", "--a", "1", "--c", "0.5", "--derive", "b", "--k", "2"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env({}),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [False] * 5


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


@pytest.mark.parametrize("mass", ["1e-200", "1e157", "1e160", "1e200"])
def test_verify_where_the_scale_squared_leaves_the_float_range(mass, capsys):
    # the spectral scale s is near the Coulomb length 1 / mass: s^2
    # overflows at mass 1e-200 and is subnormal or 0 from 1e157 up, while
    # T / s / s stays in range
    code, out, _ = run_cli(capsys, "verify", "--a", "1", "--mass", mass, "--out", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    checks = {check["name"]: check["value"] for check in doc["checks"]}
    assert checks["eigen_lowest"] == doc["views"]["coulomb"]["E"] == -float(mass) / 2.0


@pytest.mark.parametrize("c", ["2e-220", "2e-225", "2e-300"])
def test_solve_where_the_gaussian_carries_no_weight(c, capsys):
    # psi = r exp(-1e150 r - kappa r^2) with kappa 1e-10 or less: kappa's
    # relative weight in the moments is below 1e-300, and N0 is that of a
    # larger kappa, 3.2e-8 at c = 2e-215
    def n0(c):
        code, out, _ = run_cli(capsys, "solve", "--a", "1e-50", "--c", c, "--hbar", "1e-100",
                               "--derive", "b")
        assert code == EXIT_OK
        return json.loads(out)["psi"]["N0"]

    assert n0(c) == n0("2e-215") == 2.0000000000000002e225


def test_spectral_oracle_out_of_range_prints_one_message():
    # a = 1e-320 puts the Coulomb length at 1e20: at every scale of the
    # search a / s underflows to 0 from a nonzero a; the pencil without its
    # Coulomb term is refused, not solved, and the spectral level 0 needs no
    # state, so no inverse iteration warns
    result = subprocess.run(
        [sys.executable, "-m", "pcoulomb.cli", "verify", "--a", "1e-320", "--mass", "1e300"],
        capture_output=True, text=True, env=_child_env({}),
    )
    assert (result.returncode, result.stdout) == (EXIT_USAGE, "")
    assert result.stderr == (
        "pcoulomb: error: the spectral Hamiltonian at scale 1.16e+17 is not finite\n")


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
