"""Command line pipeline: artifacts, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from varsched.cli import main

MODE_FILES = ("lambda.json", "dual.json", "trace.csv")
SIM_FILES = ("costs.csv", "stats.csv", "trajectory.csv", "weeks.csv")


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert main(["generate", "--preset", "demo", "--out", str(out)]) == 0
    return out


def instance_flags(d, scenarios=True):
    flags = ["--tree", str(d / "tree.json"), "--units", str(d / "units.json")]
    if scenarios:
        flags += ["--scenarios", str(d / "scenarios.json")]
    return flags


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_generate_writes_instance_files(demo_dir):
    for name in ("tree.json", "units.json", "scenarios.json"):
        assert (demo_dir / name).stat().st_size > 0


def test_generate_same_seed_same_bytes(demo_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["generate", "--preset", "demo", "--out", str(again)]) == 0
    for name in ("tree.json", "units.json", "scenarios.json"):
        assert read_bytes(again / name) == read_bytes(demo_dir / name)
    other = tmp_path / "other"
    assert main(["generate", "--preset", "demo", "--seed", "7",
                 "--out", str(other)]) == 0
    assert read_bytes(other / "scenarios.json") != read_bytes(
        demo_dir / "scenarios.json")


def test_validate_accepts_generated_instance(demo_dir):
    assert main(["validate"] + instance_flags(demo_dir)) == 0


def test_validate_rejects_unit_count_mismatch(demo_dir, tmp_path):
    units = json.loads((demo_dir / "units.json").read_text())
    units["thermal"] = units["thermal"][:-1]
    bad = tmp_path / "units.json"
    bad.write_text(json.dumps(units))
    code = main(["validate", "--tree", str(demo_dir / "tree.json"),
                 "--units", str(bad)])
    assert code == 2


def test_validate_rejects_malformed_units(demo_dir, tmp_path):
    units = json.loads((demo_dir / "units.json").read_text())
    units["thermal"] = 5
    bad = tmp_path / "units.json"
    bad.write_text(json.dumps(units))
    code = main(["validate", "--tree", str(demo_dir / "tree.json"),
                 "--units", str(bad)])
    assert code == 2


def test_validate_rejects_malformed_scenario_inflows(demo_dir, tmp_path):
    scens = json.loads((demo_dir / "scenarios.json").read_text())
    scens["records"][0]["inflows"] = 5
    bad = tmp_path / "scenarios.json"
    bad.write_text(json.dumps(scens))
    code = main(["validate", "--tree", str(demo_dir / "tree.json"),
                 "--scenarios", str(bad)])
    assert code == 2


def nan_demand(tree):
    tree["nodes"][0]["demand"][0] = float("nan")


def infinite_cost(units):
    units["thermal"][0]["cost"] = float("inf")


@pytest.mark.parametrize("name, corrupt", [("tree.json", nan_demand),
                                           ("units.json", infinite_cost)],
                         ids=["nan-demand", "infinite-cost"])
def test_non_finite_literals_are_config_errors(demo_dir, tmp_path, name,
                                               corrupt):
    obj = json.loads((demo_dir / name).read_text())
    corrupt(obj)
    for other in ("tree.json", "units.json"):
        (tmp_path / other).write_bytes(read_bytes(demo_dir / other))
    (tmp_path / name).write_text(json.dumps(obj))   # NaN / Infinity literals
    flags = instance_flags(tmp_path, False)
    assert main(["validate"] + flags) == 2
    assert main(["optimize"] + flags + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def benchmark_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("benchmark")
    assert main(["generate", "--preset", "benchmark", "--scenarios", "2",
                 "--out", str(out)]) == 0
    return out


def test_optimize_rejects_units_of_another_instance(demo_dir, benchmark_dir,
                                                    tmp_path):
    out = tmp_path / "out"
    code = main(["optimize", "--tree", str(demo_dir / "tree.json"),
                 "--units", str(benchmark_dir / "units.json"),
                 "--max-iter", "5", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_simulate_rejects_scenarios_of_another_instance(demo_dir,
                                                        benchmark_dir,
                                                        tmp_path):
    out = tmp_path / "out"
    assert main(["optimize"] + instance_flags(demo_dir, False)
                + ["--max-iter", "5", "--out", str(out)]) == 0
    code = main(["simulate"] + instance_flags(demo_dir, False)
                + ["--scenarios", str(benchmark_dir / "scenarios.json"),
                   "--out", str(out)])
    assert code == 2
    assert not (out / "nominal" / "costs.csv").exists()


def test_validate_rejects_missing_file(tmp_path):
    code = main(["validate", "--tree", str(tmp_path / "nope.json")])
    assert code == 2


def test_simulate_before_optimize_is_config_error(demo_dir, tmp_path):
    code = main(["simulate"] + instance_flags(demo_dir)
                + ["--out", str(tmp_path / "sim")])
    assert code == 2


def test_missing_out_flag_is_config_error(demo_dir):
    assert main(["optimize"] + instance_flags(demo_dir, False)) == 2


def test_optimize_then_simulate_artifacts(demo_dir, tmp_path):
    out = tmp_path / "out"
    code = main(["optimize"] + instance_flags(demo_dir, False)
                + ["--mode", "nominal", "--max-iter", "80", "--out", str(out)])
    assert code == 0
    for name in MODE_FILES:
        assert (out / "nominal" / name).stat().st_size > 0
    dual = json.loads((out / "nominal" / "dual.json").read_text())
    assert dual["format"] == "dual-v1"
    assert np.isfinite(dual["theta"])
    assert set(dual["components"]) == {"demand", "thermal", "hydro", "ejp"}

    code = main(["simulate"] + instance_flags(demo_dir)
                + ["--mode", "nominal", "--out", str(out)])
    assert code == 0
    for name in SIM_FILES:
        assert (out / "nominal" / name).stat().st_size > 0
    rows = (out / "nominal" / "costs.csv").read_text().strip().split("\n")
    scens = json.loads((demo_dir / "scenarios.json").read_text())
    assert len(rows) == 1 + scens["num_scenarios"]
    for name in ("costs.csv", "stats.csv"):
        lines = (out / "nominal" / name).read_text().strip().split("\n")
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)   # plain numbers, whatever NumPy's repr


def run_flags(demo_dir, out, *modes, eps=()):
    flags = ["run"] + instance_flags(demo_dir) + ["--max-iter", "80",
                                                  "--out", str(out)]
    for m in modes:
        flags += ["--mode", m]
    return flags + list(eps)


def test_run_pipeline_is_byte_deterministic(demo_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(run_flags(demo_dir, out, "nominal", "var_benef")) == 0
    for kind in ("nominal", "var_benef"):
        for name in MODE_FILES + SIM_FILES:
            assert read_bytes(a / kind / name) == read_bytes(b / kind / name)


def test_zero_kappa_modes_reproduce_nominal_reports(demo_dir, tmp_path):
    # eps 0.5 under the gaussian model makes both robustifications
    # vanish: every mode directory must be byte-identical to nominal
    out = tmp_path / "out"
    code = main(run_flags(demo_dir, out, "nominal", "var_fa", "var_benef",
                          "mixt", eps=["--eps1", "0.5", "--eps2", "0.5",
                                       "--kappa-mode", "gaussian"]))
    assert code == 0
    for kind in ("var_fa", "var_benef", "mixt"):
        for name in MODE_FILES + SIM_FILES:
            assert read_bytes(out / kind / name) == read_bytes(
                out / "nominal" / name), (kind, name)


def test_mode_env_variable_selects_modes(demo_dir, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("VARSCHED_MODE", "var_benef")
    code = main(["optimize"] + instance_flags(demo_dir, False)
                + ["--max-iter", "40", "--out", str(out)])
    assert code == 0
    assert (out / "var_benef" / "lambda.json").exists()
    assert not (out / "nominal").exists()


def test_unknown_mode_in_env_is_config_error(demo_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("VARSCHED_MODE", "bogus")
    code = main(["optimize"] + instance_flags(demo_dir, False)
                + ["--out", str(tmp_path / "out")])
    assert code == 2


def test_unserveable_robust_instance_is_numerical_failure(demo_dir, tmp_path):
    # at eps2 near zero every thermal unit fails the dispatch threshold,
    # leaving demand unmeetable: the dual diverges and the run reports a
    # numerical failure instead of writing artifacts
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = main(["optimize"] + instance_flags(demo_dir, False)
                    + ["--mode", "var_benef", "--eps2", "1e-6",
                       "--kappa-mode", "general", "--max-iter", "150",
                       "--out", str(out)])
    assert code == 3
    assert not (out / "var_benef" / "lambda.json").exists()


def test_dual_above_cost_ceiling_is_numerical_failure(demo_dir, tmp_path):
    # the general kappa at eps2 0.02 refuses every thermal unit; within 30
    # iterations theta climbs to about 2e15, far above the 3.7e7 cost of
    # running every plant flat out, which no feasible problem's dual can pass
    out = tmp_path / "out"
    code = main(["optimize"] + instance_flags(demo_dir, False)
                + ["--mode", "var_benef", "--eps2", "0.02",
                   "--kappa-mode", "general", "--max-iter", "30",
                   "--out", str(out)])
    assert code == 3
    assert not (out / "var_benef" / "lambda.json").exists()
