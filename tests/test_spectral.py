"""The spectral oracle: its levels, and the level-0 energy and ladder
overlap ``verify`` takes from it.

Level 0 is checked against the closed form at every benchmark surface point
and at M = 2.  The ladder state is checked against the level-1 state of the
Laguerre pencil: at b = 0 the two are one state, across basis sizes the
overlap holds its digits, and at odd M the grid's h -> h/2 Richardson
overlap agrees with it.  The levels ``sweep`` prints are checked against the
grid's Richardson values, and the highest level taken, MAX_LEVEL, against a
basis twice as large.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from pcoulomb import cli, report, spectral
from pcoulomb.exact import closed_level, constraint_b, ground_state, hierarchy_states
from pcoulomb.model import PhysicalParams, PotentialParams, dimension_reduce, effective_potential
from pcoulomb.numerics import GridFunction, build_grid, eigen_lowest, evaluate_state, overlap
from pcoulomb.spectral import (
    EVIDENCE_SIZE, MAX_LEVEL, SEARCH_SIZE, VALUE_SIZE, _level, spectral_lowest,
)

PHYS = PhysicalParams()
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _ladder_problem(a, c, dim, phys):
    """(potential at the linear rule's a_1, ladder state) of the surface
    point (a, c) in ``dim``."""
    pot = PotentialParams(a=a, b=constraint_b(a, c, dim, phys), c=c)
    a1, _ = closed_level(pot, dim, phys, 1)
    return PotentialParams(a=a1, b=pot.b, c=c), hierarchy_states(pot.b, c, dim, phys, n=1)


@pytest.mark.parametrize("m_index", [2, 3, 5])
def test_pure_coulomb_levels(m_index):
    # E_n = -a^2 / (4 T (Lambda + n + 1)^2)
    dim = dimension_reduce(m_index, 0)
    for n in range(3):
        level = spectral_lowest(PotentialParams(a=1.0), dim, PHYS, n)
        expected = -1.0 / (2.0 * (dim.lam + n + 1.0) ** 2)
        assert level.energy == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m_index", [2, 3, 6, 11])
def test_ladder_state_is_the_level_at_b_zero(m_index):
    # the b = 0 family is the oscillator, whose level 1 the ladder builds
    # exactly: E_1 = hbar omega (Lambda + 7/2), and hbar omega = 1 at c = 1/2
    dim = dimension_reduce(m_index, 0)
    pot = PotentialParams(a=0.0, b=0.0, c=0.5)
    ladder = hierarchy_states(0.0, 0.5, dim, PHYS, n=1)
    level = spectral_lowest(pot, dim, PHYS, 1)
    assert level.energy == pytest.approx(dim.lam + 3.5, rel=1e-12)
    assert abs(abs(level.overlap(ladder)) - 1.0) <= 1e-12


@pytest.mark.parametrize("phys", [PhysicalParams(), PhysicalParams(hbar=0.3, mass=2.0)],
                         ids=["default", "hbar0.3-mass2"])
@pytest.mark.parametrize("c", [0.5, 50.0, 0.005])
@pytest.mark.parametrize("m_index", [2, 3, 4, 8, 11, 51])
def test_overlap_holds_across_basis_sizes(phys, c, m_index):
    dim = dimension_reduce(m_index, 0)
    pot_up, ladder = _ladder_problem(1.0, c, dim, phys)
    value = spectral_lowest(pot_up, dim, phys, 1)
    assert (value.size, value.level) == (VALUE_SIZE, 1)
    overlaps = [abs(_level(pot_up, phys, value.alpha, 1, value.scale, size).overlap(ladder))
                for size in (EVIDENCE_SIZE, VALUE_SIZE, 60)]
    assert 0.0 < overlaps[1] <= 1.0 + 1e-12
    assert max(overlaps) - min(overlaps) <= 1e-12


@pytest.mark.parametrize("m_index", [3, 5])
def test_overlap_is_the_grid_richardson_limit(m_index):
    # odd M: the grid overlap converges as h^2, and h -> h/2 extrapolates it
    dim = dimension_reduce(m_index, 0)
    pot_up, ladder = _ladder_problem(1.0, 0.5, dim, PHYS)
    v_up = effective_potential(pot_up, dim, PHYS)
    grid = build_grid(pot_up, dim, PHYS)
    grid_overlaps = []
    for g in (grid, grid.halved()):
        _, vector = eigen_lowest(v_up, g, PHYS, 1, eigenvectors=True)
        grid_overlaps.append(abs(overlap(evaluate_state(ladder, g), GridFunction(g, vector))))
    richardson = (4.0 * grid_overlaps[1] - grid_overlaps[0]) / 3.0
    spectral = abs(spectral_lowest(pot_up, dim, PHYS, 1).overlap(ladder))
    assert abs(spectral - richardson) <= 1e-10


def test_verify_overlap_does_not_depend_on_the_grid(monkeypatch):
    # verify builds no grid: its overlap is the spectral one, whatever the
    # grid code does
    def refused(*_args, **_kwargs):
        raise AssertionError("verify built a grid")

    monkeypatch.setattr(report, "build_grid", refused)
    dim = dimension_reduce(3, 0)
    pot = PotentialParams(a=1.0, b=constraint_b(1.0, 0.5, dim, PHYS), c=0.5)
    doc = report.verify_document(pot, dim, PHYS, 0)
    by_name = {c["name"]: c["value"] for c in doc["checks"]}
    assert by_name["ladder_vs_numeric_overlap"] == 0.9699532827


def test_level_out_of_range_is_refused():
    for level in (-1, MAX_LEVEL + 1, SEARCH_SIZE):
        with pytest.raises(ValueError, match=f"spectral level must be in 0..5, got {level}"):
            spectral_lowest(PotentialParams(a=1.0), dimension_reduce(3, 0), PHYS, level)


def test_max_level_holds_at_value_size():
    # at the surface points of the benchmark's strata and the reference
    # point, M 2..11, level MAX_LEVEL at the linear rule's a_n holds within
    # 1e-12 max(1, |E|) of twice the basis at the same scale (measured up to
    # 1.7e-13; level 6 is 4.3e-12 off, level 9 1.4e-7)
    worst = 0.0
    for a, c in ((0.7, 0.8), (1.1, 0.6), (1.6, 0.4), (1.0, 0.5)):
        for m_index in range(2, 12):
            dim = dimension_reduce(m_index, 0)
            pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
            pot_top = PotentialParams(a=closed_level(pot, dim, PHYS, MAX_LEVEL)[0], b=pot.b, c=c)
            value = spectral_lowest(pot_top, dim, PHYS, MAX_LEVEL)
            double = _level(pot_top, PHYS, value.alpha, MAX_LEVEL, value.scale, 2 * VALUE_SIZE)
            worst = max(worst, abs(value.energy - double.energy) / max(1.0, abs(double.energy)))
    assert worst <= 1e-12


def test_state_arrays_are_read_only():
    level = spectral_lowest(PotentialParams(a=1.0, c=0.5), dimension_reduce(3, 0), PHYS, 1)
    for array in (level.nodes, level.lead, level.values):
        assert not array.flags.writeable


def test_problem_with_no_length_is_refused():
    with pytest.raises(ValueError, match="attractive or confining"):
        spectral_lowest(PotentialParams(a=-1.0), dimension_reduce(3, 0), PHYS, 0)


def test_coulomb_term_underflowing_to_zero_is_refused():
    # a = 1e-320 at T = 5e-301 puts the bracket at s ~ 1e17..1e20, where
    # a / s underflows to 0 from a nonzero a: the pencil without its Coulomb
    # term is refused, not solved
    with pytest.raises(ValueError, match="not finite"):
        spectral_lowest(PotentialParams(a=1e-320), dimension_reduce(3, 0),
                        PhysicalParams(mass=1e300), 0)


def test_length_out_of_the_float_range_is_refused():
    # the linear length (T / b)^(1/3) is inf at T = 5e299, b = 1e-10
    with pytest.raises(ValueError, match="lengths in the float range.* is inf"):
        spectral_lowest(PotentialParams(a=1.0, b=1e-10), dimension_reduce(3, 0),
                        PhysicalParams(mass=1e-300), 0)


def test_search_forms_eight_pencils_per_level(monkeypatch):
    # both brackets of this request (7.1 and 7.6 wide in log s) narrow to
    # under SEARCH_WIDTH in 8 evaluations, each followed by the value's pencil
    sizes = []
    pencil = spectral._pencil

    def counting(pot, phys, alpha, size, s):
        sizes.append(size)
        return pencil(pot, phys, alpha, size, s)

    monkeypatch.setattr(spectral, "_pencil", counting)
    dim = dimension_reduce(3, 0)
    pot = PotentialParams(a=1.0, b=constraint_b(1.0, 0.5, dim, PHYS), c=0.5)
    report.verify_document(pot, dim, PHYS, 0)
    assert sizes == 2 * ([SEARCH_SIZE] * 8 + [VALUE_SIZE])


def _workloads():
    """``perfbench/workloads.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_requests(workloads, seeds):
    """Every request of ``workloads`` for ``seeds``, in run order."""
    module = _workloads()
    return [argv for workload in workloads for seed in seeds
            for argv in module.requests(workload, seed)]


def _benchmark_verify_points():
    """(a, c, N, l) of every verify request of the benchmark, seeds 1-10."""
    points = set()
    for argv in _benchmark_requests(_workloads().WORKLOADS, range(1, 11)):
        if argv[0] == "verify":
            flags = dict(zip(argv[1::2], argv[2::2]))
            points.add((float(flags["--a"]), float(flags["--c"]),
                        int(flags["--N"]), int(flags["--l"])))
    return sorted(points)


def test_evidence_on_every_benchmark_verify_request():
    # the 10 printed digits of ladder_vs_numeric_overlap need 5e-11
    worst = 0.0
    for a, c, n_dim, ell in _benchmark_verify_points():
        dim = dimension_reduce(n_dim, ell)
        pot_up, ladder = _ladder_problem(a, c, dim, PHYS)
        value = spectral_lowest(pot_up, dim, PHYS, 1)
        evidence = _level(pot_up, PHYS, value.alpha, 1, value.scale, EVIDENCE_SIZE)
        worst = max(worst, abs(abs(value.overlap(ladder)) - abs(evidence.overlap(ladder))))
    assert worst <= 5e-11


def test_value_is_flat_around_the_searched_scale():
    # the search stops within SEARCH_WIDTH of the minimizing log s; levels 0
    # and 1 at VALUE_SIZE hold their value 0.75 either side of where it stopped
    worst = 0.0
    for a, c, n_dim, ell in _benchmark_verify_points():
        dim = dimension_reduce(n_dim, ell)
        pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
        for level, problem in ((0, pot), (1, _ladder_problem(a, c, dim, PHYS)[0])):
            value = spectral_lowest(problem, dim, PHYS, level)
            for shift in (-0.75, 0.75):
                moved = _level(problem, PHYS, value.alpha, level,
                               value.scale * math.exp(shift), VALUE_SIZE)
                worst = max(worst, abs(moved.energy - value.energy)
                            / max(1.0, abs(value.energy)))
    assert worst <= 1e-12


def test_level0_on_every_benchmark_verify_request():
    # verify's eigen_lowest is this value on a lattice of 10 digits of the
    # energy scale; unrounded it is within 1e-11 max(1, |E|) of the closed
    # form, at M = 2 too, where the grid was 0.959 off
    points = _benchmark_verify_points() + [(1.0, 0.5, 2, 0)]
    for a, c, n_dim, ell in points:
        dim = dimension_reduce(n_dim, ell)
        pot = PotentialParams(a=a, b=constraint_b(a, c, dim, PHYS), c=c)
        closed = ground_state(pot, dim, PHYS).energy.total
        level0 = spectral_lowest(pot, dim, PHYS, 0)
        assert abs(level0.energy - closed) <= 1e-11 * max(1.0, abs(closed)), (a, c, n_dim, ell)
        assert "values" not in vars(level0)  # the state is built only when read


def test_sweep_rows_agree_with_grid_richardson(capsys):
    # every row of the sweep-scan requests, seeds 1-3, levels 0..2 at M
    # 3..11.  Level 0 is within 1e-12 max(1, |E|) of the closed form
    # (measured up to 1.4e-13), where the grid's h -> h/2 Richardson value
    # is up to 3.6e-11 off at odd M and 2.9e-8 at even M; levels 1 and 2 are
    # within 1e-11 max(1, |E|) of that Richardson value at odd M (measured
    # up to 3.5e-12).  At every M the printed E_numeric is within the grid's
    # own |E_R - E_h| of the Richardson value (measured up to 0.028 of it)
    rows = 0
    for argv in _benchmark_requests(["sweep-scan"], range(1, 4)):
        assert cli.main(argv) == 0
        for line in capsys.readouterr().out.strip().split("\n")[1:]:
            a, b, c, n_dim, ell, n, closed, printed = map(float, line.split(",")[:8])
            dim, n = dimension_reduce(int(n_dim), int(ell)), int(n)
            pot = PotentialParams(a=closed_level(PotentialParams(a=a, b=b, c=c), dim, PHYS, n)[0],
                                  b=b, c=c)
            v_eff, grid = effective_potential(pot, dim, PHYS), build_grid(pot, dim, PHYS)
            grid_h = eigen_lowest(v_eff, grid, PHYS, n)
            grid_r = eigen_lowest(v_eff, grid, PHYS, n, richardson=True)
            level = spectral_lowest(pot, dim, PHYS, n).energy
            if n == 0:
                assert abs(level - closed) <= 1e-12 * max(1.0, abs(closed)), line
            elif dim.m_index % 2:
                assert abs(level - grid_r) <= 1e-11 * max(1.0, abs(grid_r)), line
            assert abs(printed - grid_r) <= abs(grid_r - grid_h), line
            rows += 1
    assert rows == 180
