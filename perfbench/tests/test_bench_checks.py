"""Tests of the benchmark's independent checks.

The checks must agree with the program's own reference LP where both
apply, and must reject each kind of corrupted output they exist for.
Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
for path in (BENCH, REPO / "src", REPO / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# The checks solve their LPs with scipy, which the program does not need.
pytest.importorskip("scipy")

import checks  # noqa: E402
import study  # noqa: E402
from conftest import small_synth, small_unit_set  # noqa: E402
from varsched import cli, treefiles  # noqa: E402
from varsched.reference import solve_primal_reference  # noqa: E402

SHAPES = [(5, (2, 4)), (4, (1, 3)), (6, (2, 4))]


@pytest.mark.parametrize("with_ejp", [False, True])
@pytest.mark.parametrize("horizon,branch_days", SHAPES)
def test_tree_lp_matches_reference(with_ejp, horizon, branch_days):
    units = small_unit_set(with_ejp=with_ejp)
    tree, _ = small_synth(units, seed=horizon, horizon=horizon,
                          branch_days=branch_days)
    ref = solve_primal_reference(tree, units,
                                 with_ejp="relax" if with_ejp else "exclude")
    assert ref.ok
    assert checks.tree_lp(tree, units) == pytest.approx(ref.cost, rel=1e-8)


def test_derated_lp_matches_reference_on_derated_plants():
    units = small_unit_set(with_ejp=True)
    tree, _ = small_synth(units)
    derate = checks.thermal_derate(units, 0.1)
    assert all(0.0 < d < 1.0 for d in derate)
    shrunk = dataclasses.replace(units, thermal=[
        dataclasses.replace(u, p_max=u.p_max * d)
        for u, d in zip(units.thermal, derate)])
    ref = solve_primal_reference(tree, shrunk, with_ejp="relax")
    assert checks.tree_lp(tree, units, derate) == pytest.approx(ref.cost,
                                                                rel=1e-8)


def test_number_reads_numpy_scalar_spelling():
    assert checks.number("np.float64(1.5)") == 1.5
    assert checks.number("-2.25") == -2.25


SMALL = study.Workload("small", "demo", None, years=4,
                       modes=("nominal", "var_benef"), levels=((0.05, 0.1),),
                       tol=1e-7)


@pytest.fixture(scope="module")
def small_study(tmp_path_factory):
    """One round of the study on a conftest tree, through the CLI."""
    root = tmp_path_factory.mktemp("study")
    units = small_unit_set(with_ejp=True)
    tree, scenarios = small_synth(units, scenarios=SMALL.years)
    inst, out = root / "inst", root / "round1"
    inst.mkdir()
    treefiles.save_tree(tree, inst / "tree.json")
    treefiles.save_units(units, inst / "units.json")
    treefiles.save_scenarios(scenarios, inst / "scenarios.json")
    for _, argv in study.commands(SMALL, str(inst), str(out)):
        assert cli.main(argv) == 0
    return tree, units, scenarios, out


def _failures(small_study, out):
    tree, units, scenarios, _ = small_study
    verdicts = checks.judge(SMALL, tree, units, scenarios, str(out))
    return {key: r for key, r in verdicts.ops.items() if r is not None}


def _copy(src: Path, dst: Path) -> Path:
    for path in src.rglob("*"):
        if path.is_file():
            target = dst / path.relative_to(src)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    return dst


def _mode_dir(out, mode):
    return out / study.level_dir(SMALL.levels[0]) / mode


def test_clean_outputs_pass(small_study):
    out = small_study[3]
    assert _failures(small_study, out) == {}
    assert len(checks.judge(SMALL, *small_study[:3], str(out)).ops) == \
        len(SMALL.modes) * (1 + SMALL.years)


def test_theta_above_lp_is_rejected(small_study, tmp_path):
    out = _copy(small_study[3], tmp_path)
    path = _mode_dir(out, "nominal") / "dual.json"
    dual = json.loads(path.read_text())
    dual["theta"] *= 1.01
    path.write_text(json.dumps(dual))
    level = SMALL.levels[0]
    assert _failures(small_study, out) == {
        ("solve", level, "nominal", None): "weak duality"}


def test_theta_short_of_lp_is_rejected(small_study, tmp_path):
    out = _copy(small_study[3], tmp_path)
    path = _mode_dir(out, "var_benef") / "dual.json"
    dual = json.loads(path.read_text())
    dual["theta"] *= 1.0 - 1e-3
    path.write_text(json.dumps(dual))
    assert list(_failures(small_study, out).values()) == ["shortfall"]
    # A solve asked for a coarser tolerance may end that far short.
    coarse = dataclasses.replace(SMALL, tol=1e-2)
    ops = checks.judge(coarse, *small_study[:3], str(out)).ops
    assert not any(ops.values())


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_cost_below_clairvoyant_bound_is_rejected(small_study, tmp_path):
    tree, units, scenarios, _ = small_study
    out = _copy(small_study[3], tmp_path)
    bound = checks.clairvoyant_cost(scenarios[2], checks.day_frame(tree),
                                    units, study.PENALTY)
    costs = _mode_dir(out, "nominal") / "costs.csv"
    cheat = bound - 1e-3 * abs(bound)

    def push(rows):
        rows[3][1] = repr(cheat)          # scenario 2 (row 0 is the header)
    _rewrite_csv(costs, push)
    # keep stats.csv consistent so only the clairvoyant bound can object
    values = checks.simulated_costs(_mode_dir(out, "nominal"))
    stats = checks.recompute_stats(values)
    _rewrite_csv(_mode_dir(out, "nominal") / "stats.csv",
                 lambda rows: rows.__setitem__(1, [
                     str(stats[k]) if k == "num_scenarios" else repr(stats[k])
                     for k in rows[0]]))
    failed = _failures(small_study, out)
    assert list(failed) == [("year", SMALL.levels[0], "nominal", 2)]
    assert "below clairvoyant" in failed["year", SMALL.levels[0], "nominal", 2]


def test_perturbed_stats_is_rejected(small_study, tmp_path):
    out = _copy(small_study[3], tmp_path)
    stats = _mode_dir(out, "var_benef") / "stats.csv"

    def nudge(rows):
        col = rows[0].index("std")
        rows[1][col] = repr(float(rows[1][col]) * (1.0 + 1e-6))
    _rewrite_csv(stats, nudge)
    failed = _failures(small_study, out)
    assert {key[:3] for key in failed} == {("year", SMALL.levels[0],
                                            "var_benef")}
    assert len(failed) == SMALL.years
    assert all("std" in reason for reason in failed.values())


def test_trajectory_outside_bounds_is_rejected(small_study, tmp_path):
    tree, units, scenarios, _ = small_study
    out = _copy(small_study[3], tmp_path)
    traj = _mode_dir(out, "nominal") / "trajectory.csv"
    _rewrite_csv(traj, lambda rows: rows[2].__setitem__(
        1, repr(units.hydro[0].x_max * 1.01)))
    failed = _failures(small_study, out)
    assert len(failed) == SMALL.years
    assert all("leaves" in reason for reason in failed.values())


def test_later_round_must_repeat_round_one(small_study, tmp_path):
    first = small_study[3]
    other = _copy(first, tmp_path / "round2")
    path = _mode_dir(other, "nominal") / "trace.csv"
    path.write_text(path.read_text() + "\n")
    base = {key: None for key in checks.judge(
        SMALL, *small_study[:3], str(first)).ops}
    again = checks.same_outputs(str(first), str(other), SMALL, base)
    assert {key[2] for key, r in again.items() if r is not None} == {"nominal"}
    assert os.path.isdir(_mode_dir(other, "var_benef"))
