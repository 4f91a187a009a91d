"""The three study workloads and the CLI commands of one round.

A round is the study a user runs: ``varsched optimize`` then
``varsched simulate`` for every mode at every risk level of the
workload, each level into its own output directory.  Nothing here
imports the checks' own dependencies, so they stay out of the set-up
time and peak memory.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

MODES = ("nominal", "var_fa", "var_benef", "mixt")
PENALTY = 10.0      # unserved price as a multiple of the dearest fuel
GRID = 101          # stock grid points per value table
MAX_ITER = 400


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                 # instance preset of the program
    branch_days: tuple | None   # replaces the preset's branching days
    years: int                  # simulated scenario-years per level and mode
    modes: tuple
    levels: tuple               # (eps1, eps2) pairs, one optimize+simulate each
    tol: float                  # requested dual tolerance
    known_fault: str | None = None   # mode whose solves may fall short of the LP

    def config(self, preset_config, seed: int):
        cfg = preset_config(self.preset, seed=seed, num_scenarios=self.years)
        if self.branch_days is not None:
            cfg = dataclasses.replace(cfg, branch_days=self.branch_days)
        return cfg


WORKLOADS = {w.name: w for w in (
    # The desk preset's units and calendar, branching at day 105 (2 leaves,
    # 147 nodes): the reservoir recursion dominates.
    Workload("desk-solve", "benchmark", (105,), years=20,
             modes=("nominal",), levels=((0.05, 0.1),), tol=1e-5),
    # The same tree, var_benef only and at a coarse tolerance: a short
    # solve and many simulated years, so Monte Carlo dispatch takes most
    # of a round, and rounds are short enough to repeat several times.
    Workload("coarse-mc", "benchmark", (105,), years=48,
             modes=("var_benef",), levels=((0.05, 0.1),), tol=1e-2),
    # Many small solves of every mode over a grid of risk levels.
    Workload("risk-sweep", "demo", None, years=16, modes=MODES,
             levels=((0.02, 0.02), (0.3, 0.3)), tol=1e-6,
             known_fault="var_benef"),
)}


def level_dir(level) -> str:
    return f"eps{level[0]:g}-{level[1]:g}"


def commands(w: Workload, inst: str, out: str):
    """(kind, argv) of every CLI command of one round, in order.

    Each mode is optimized and then simulated before the next mode
    starts, so both kinds of command are spread over the round rather
    than one of them sitting in a single window at its end.
    """
    files = ["--tree", os.path.join(inst, "tree.json"),
             "--units", os.path.join(inst, "units.json")]
    for level in w.levels:
        dest = os.path.join(out, level_dir(level))
        for mode in w.modes:
            yield "optimize", (["optimize"] + files + [
                "--mode", mode, "--eps1", repr(level[0]),
                "--eps2", repr(level[1]), "--kappa-mode", "gaussian",
                "--tol", repr(w.tol), "--max-iter", str(MAX_ITER),
                "--out", dest])
            yield "simulate", (["simulate"] + files + [
                "--scenarios", os.path.join(inst, "scenarios.json"),
                "--mode", mode, "--grid", str(GRID), "--workers", "1",
                "--penalty", repr(PENALTY), "--out", dest])
