"""Command line front end.

Subcommands mirror the pipeline stages so each artifact can be produced
and inspected on its own:

  generate   write a preset instance (tree, units, scenarios) to a directory
  validate   check instance files against the structural invariants
  optimize   maximize the dual for each requested mode, persist multipliers
  simulate   build value tables from persisted multipliers and run Monte Carlo
  run        optimize then simulate in one go

Every flag has a VARSCHED_* environment override (flag beats variable
beats default).  Exit codes: 0 success, 2 configuration error, 3
numerical failure.  All emitted files are plain JSON/CSV and depend
only on the inputs and the seed, never on wall clock or process ids.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, treefiles
from .bundle import BundleParams, maximize_dual
from .oracles import MODES, RiskConfig, RunMode, default_multiplier, dual_oracle
from .simulate import (ReservoirStats, SimOptions, compute_bellman,
                       run_monte_carlo)
from .synth import generate_synthetic
from .tree import check_scenario, validate_tree

DIVERGENCE_LIMIT = 1e18


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


def _env(name: str, default=None):
    return os.environ.get("VARSCHED_" + name, default)


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))   # NumPy 2 reprs its scalars as np.float64(x)
    return str(x)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(c) for c in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


# ------------------------------------------------------------- parser

def _add_instance_flags(p, scenarios=False):
    p.add_argument("--tree", default=_env("TREE"), help="tree JSON file")
    p.add_argument("--units", default=_env("UNITS"), help="units JSON file")
    if scenarios:
        p.add_argument("--scenarios", default=_env("SCENARIOS"),
                       help="scenarios JSON file")


def _add_mode_flags(p):
    p.add_argument("--mode", action="append", choices=MODES, default=None,
                   help="run mode, repeatable (default: nominal)")
    p.add_argument("--eps1", type=float,
                   default=float(_env("EPS1", "0.05")),
                   help="demand ellipsoid risk level")
    p.add_argument("--eps2", type=float,
                   default=float(_env("EPS2", "0.1")),
                   help="thermal availability risk level")
    p.add_argument("--kappa-mode", choices=("gaussian", "general"),
                   default=_env("KAPPA_MODE", "gaussian"),
                   help="quantile coefficient model")


def _add_optimize_flags(p):
    p.add_argument("--max-iter", type=int,
                   default=int(_env("MAX_ITER", "400")))
    p.add_argument("--tol", type=float, default=float(_env("TOL", "1e-6")))


def _add_simulate_flags(p):
    p.add_argument("--grid", type=int, default=int(_env("GRID", "101")),
                   help="stock grid points per value table")
    p.add_argument("--workers", type=int,
                   default=int(_env("WORKERS", "1")))
    p.add_argument("--penalty", type=float,
                   default=float(_env("PENALTY", "10.0")),
                   help="unserved price as a multiple of the dearest fuel")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="varsched",
        description="Yearly generation scheduling with risk-robust duals")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a preset instance")
    g.add_argument("--preset", choices=bench.PRESETS,
                   default=_env("PRESET", "benchmark"))
    g.add_argument("--seed", type=int, default=int(_env("SEED", "0")))
    g.add_argument("--scenarios", type=int, default=None,
                   help="number of simulation scenarios")
    g.add_argument("--difficulty", type=float,
                   default=float(_env("DIFFICULTY", "0.5")))
    g.add_argument("--out", default=_env("OUT"), required=_env("OUT") is None)

    v = sub.add_parser("validate", help="check instance files")
    _add_instance_flags(v, scenarios=True)

    o = sub.add_parser("optimize", help="maximize the dual per mode")
    _add_instance_flags(o)
    _add_mode_flags(o)
    _add_optimize_flags(o)
    o.add_argument("--out", default=_env("OUT"), required=_env("OUT") is None)

    s = sub.add_parser("simulate", help="Monte Carlo dispatch per mode")
    _add_instance_flags(s, scenarios=True)
    s.add_argument("--mode", action="append", choices=MODES, default=None)
    _add_simulate_flags(s)
    s.add_argument("--out", default=_env("OUT"), required=_env("OUT") is None)

    r = sub.add_parser("run", help="optimize then simulate")
    _add_instance_flags(r, scenarios=True)
    _add_mode_flags(r)
    _add_optimize_flags(r)
    _add_simulate_flags(r)
    r.add_argument("--out", default=_env("OUT"), required=_env("OUT") is None)
    return ap


def _modes(args) -> list:
    if args.mode:
        return list(dict.fromkeys(args.mode))
    env = _env("MODE")
    if env:
        modes = [m.strip() for m in env.split(",") if m.strip()]
        bad = [m for m in modes if m not in MODES]
        if bad:
            raise ConfigError(f"unknown mode(s) in VARSCHED_MODE: {bad}")
        return list(dict.fromkeys(modes))
    return ["nominal"]


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name} is required (or set VARSCHED_{name.upper()})")


def _load_instance(args, scenarios=False):
    _require(args, ["tree", "units"] + (["scenarios"] if scenarios else []))
    try:
        tree = treefiles.load_tree(args.tree)
        units = treefiles.load_units(args.units)
        scens = treefiles.load_scenarios(args.scenarios) if scenarios else None
    except (OSError, treefiles.FormatError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return tree, units, scens


# ----------------------------------------------------------- commands

def cmd_generate(args) -> int:
    try:
        cfg = bench.preset_config(args.preset, seed=args.seed,
                                  num_scenarios=args.scenarios,
                                  difficulty=args.difficulty)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tree, scens = generate_synthetic(cfg)
    os.makedirs(args.out, exist_ok=True)
    treefiles.save_tree(tree, os.path.join(args.out, "tree.json"))
    treefiles.save_units(cfg.units, os.path.join(args.out, "units.json"))
    treefiles.save_scenarios(scens, os.path.join(args.out, "scenarios.json"))
    print(f"wrote {args.preset} instance to {args.out}: "
          f"{tree.num_nodes} nodes, {len(scens)} scenarios")
    return 0


def cmd_validate(args) -> int:
    _require(args, ["tree"])
    try:
        tree = treefiles.load_tree(args.tree)
    except (OSError, treefiles.FormatError, ValueError) as exc:
        raise ConfigError(f"tree: {exc}") from exc
    problems = validate_tree(tree)
    if args.units:
        try:
            units = treefiles.load_units(args.units)
        except (OSError, treefiles.FormatError, ValueError) as exc:
            raise ConfigError(f"units: {exc}") from exc
        if units.num_thermal != tree.num_thermal:
            problems.append("units: thermal count differs from tree")
        if units.num_hydro != tree.num_hydro:
            problems.append("units: hydro count differs from tree")
    if args.scenarios:
        try:
            scens = treefiles.load_scenarios(args.scenarios)
        except (OSError, treefiles.FormatError, ValueError) as exc:
            raise ConfigError(f"scenarios: {exc}") from exc
        for i, s in enumerate(scens):
            for msg in check_scenario(tree, s):
                problems.append(f"scenario {i}: {msg}")
    if problems:
        for msg in problems:
            print(f"invalid: {msg}", file=sys.stderr)
        raise ConfigError(f"{len(problems)} problem(s) found")
    print("ok")
    return 0


def _optimize_mode(tree, units, kind, risk, params, outdir) -> None:
    oracle = dual_oracle(tree, units, RunMode(kind=kind, risk=risk))
    lam0 = default_multiplier(tree, units)
    res = maximize_dual(oracle, lam0, params)
    if not np.isfinite(res.theta) or abs(res.theta) > DIVERGENCE_LIMIT:
        raise NumericalError(
            f"optimize:{kind}: dual appears unbounded (theta={res.theta:.3e}); "
            "demand likely exceeds the mode's usable capacity")
    os.makedirs(outdir, exist_ok=True)
    treefiles.save_multiplier(res.lam, tree, os.path.join(outdir, "lambda.json"))
    comp = {k: float(v) for k, v in res.evaluation.components.items()}
    _write_json(os.path.join(outdir, "dual.json"), {
        "format": "dual-v1",
        "theta": res.theta,
        "status": res.status,
        "iterations": res.iterations,
        "oracle_calls": res.oracle_calls,
        "components": comp,
    })
    with open(os.path.join(outdir, "trace.csv"), "w") as fh:
        fh.write(res.trace_csv())


def cmd_optimize(args) -> int:
    tree, units, _ = _load_instance(args)
    modes = _modes(args)
    risk = _risk(args)
    params = BundleParams(max_iter=args.max_iter, tol=args.tol)
    for kind in modes:
        _optimize_mode(tree, units, kind, risk, params,
                       os.path.join(args.out, kind))
        print(f"optimized {kind} -> {os.path.join(args.out, kind)}")
    return 0


def _risk(args) -> RiskConfig:
    try:
        return RiskConfig(eps_demand=args.eps1, eps_thermal=args.eps2,
                          kappa_mode=args.kappa_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _simulate_mode(tree, units, scens, kind, args, outdir) -> None:
    lam_path = os.path.join(outdir, "lambda.json")
    if not os.path.exists(lam_path):
        raise ConfigError(
            f"simulate:{kind}: {lam_path} not found (run optimize first)")
    lam = treefiles.load_multiplier(lam_path, tree)
    tables = compute_bellman(tree, lam, units, grid_size=args.grid)
    opts = SimOptions(penalty_factor=args.penalty)
    report, stats, results = run_monte_carlo(
        scens, tree, units, tables, opts, workers=args.workers)
    if not np.isfinite(report.mean):
        raise NumericalError(f"simulate:{kind}: non-finite simulated cost")
    _write_csv(os.path.join(outdir, "costs.csv"),
               ["scenario", "cost", "fuel_cost", "unserved_cost",
                "unserved_energy", "terminal_credit"],
               [[i, r.cost, r.fuel_cost, r.unserved_cost, r.unserved_energy,
                 r.terminal_credit] for i, r in enumerate(results)])
    _write_csv(os.path.join(outdir, "stats.csv"),
               ["num_scenarios", "mean", "std", "var1", "var5", "min", "max"],
               [[report.num_scenarios, report.mean, report.std, report.var1,
                 report.var5, report.min, report.max]])
    T1 = stats.mean_stock.shape[1]
    _write_csv(os.path.join(outdir, "trajectory.csv"),
               ["day"] + list(stats.names),
               [[t] + [float(stats.mean_stock[h, t])
                       for h in range(len(stats.names))]
                for t in range(T1)])
    rows = []
    for h, name in enumerate(stats.names):
        for level, table in (("low", stats.weeks_low[h]),
                             ("high", stats.weeks_high[h])):
            for threshold, count in sorted(table.items()):
                rows.append([name, level, threshold, count])
    _write_csv(os.path.join(outdir, "weeks.csv"),
               ["reservoir", "level", "weeks", "scenarios"], rows)


def cmd_simulate(args) -> int:
    tree, units, scens = _load_instance(args, scenarios=True)
    for kind in _modes(args):
        outdir = os.path.join(args.out, kind)
        _simulate_mode(tree, units, scens, kind, args, outdir)
        print(f"simulated {kind} -> {outdir}")
    return 0


def cmd_run(args) -> int:
    tree, units, scens = _load_instance(args, scenarios=True)
    modes = _modes(args)
    risk = _risk(args)
    params = BundleParams(max_iter=args.max_iter, tol=args.tol)
    for kind in modes:
        outdir = os.path.join(args.out, kind)
        _optimize_mode(tree, units, kind, risk, params, outdir)
        _simulate_mode(tree, units, scens, kind, args, outdir)
        print(f"completed {kind} -> {outdir}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "validate": cmd_validate,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "run": cmd_run,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"varsched: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"varsched: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
