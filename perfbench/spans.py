"""Spans and counters recorded around the program's layers.

The program is not edited: ``Tracer.install`` rebinds, for the life of
one traced run, the module attributes through which callers reach each
layer (``cli.maximize_dual``, ``oracles.evaluate_dual``,
``oracles.theta_hydro``, ``simulate.simulate_scenario``, ...).  Spans
(name, start, end, parent) stay in memory and are written out when the
run ends.  ``pwl`` functions run hundreds of thousands of times per
round, so they are counted, not spanned.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# (module, attribute, span name); the module's attribute is what callers use
SPANNED = (
    ("synth", "generate_synthetic", "synth.generate"),
    ("cli", "dual_oracle", "oracles.dual_oracle"),
    ("cli", "maximize_dual", "bundle.maximize_dual"),
    ("oracles", "evaluate_dual", "oracles.evaluate_dual"),
    ("oracles", "theta_demand", "oracles.demand"),
    ("oracles", "theta_demand_robust", "oracles.demand"),
    ("oracles", "theta_thermal", "oracles.thermal"),
    ("oracles", "theta_thermal_var", "oracles.thermal"),
    ("oracles", "theta_hydro", "oracles.hydro"),
    ("oracles", "theta_ejp", "oracles.ejp"),
    ("cli", "compute_bellman", "simulate.bellman"),
    ("cli", "run_monte_carlo", "simulate.monte_carlo"),
    ("simulate", "simulate_scenario", "simulate.year"),
)
TREEFILES = ("save_tree", "save_units", "save_scenarios", "save_multiplier",
             "load_tree", "load_units", "load_scenarios", "load_multiplier")
PWL = ("from_breakpoints", "scale", "shift_x", "add", "add_many", "sup_conv",
       "clip", "monotone_hull")


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, phase]
        self.stack = []
        self.phase = "setup"
        self.counts = defaultdict(lambda: defaultdict(float))  # phase -> name
        self.results = []        # (phase, BundleResult) of each solve
        self._saved = []

    # -------------------------------------------------------- recording

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[self.phase][name] += amount

    def _rebind(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.count(name + ".calls")
            self.count(name + ".segments", out.slopes.size)
            return out
        return wrapper

    def install(self, modules: dict) -> None:
        """Rebind the layer entry points of ``modules`` (name -> module)."""
        for mod, attr, name in SPANNED:
            after = self._solved if attr == "maximize_dual" else None
            fn = getattr(modules[mod], attr)
            self._rebind(modules[mod], attr, self._spanned(fn, name, after))
        treefiles = modules["treefiles"]
        for attr in TREEFILES:
            fn = getattr(treefiles, attr)
            kind = attr.split("_")[0]
            self._rebind(treefiles, attr, self._spanned(
                fn, "treefiles." + kind, self._file_bytes))
        for attr in PWL:
            self._rebind(modules["pwl"], attr,
                         self._counted(getattr(modules["pwl"], attr), "pwl"))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _solved(self, args, result) -> None:
        self.results.append((self.phase, result))

    def _file_bytes(self, args, out) -> None:
        path = next(a for a in args if isinstance(a, (str, os.PathLike)))
        self.count("treefiles.bytes", os.path.getsize(path))

    # --------------------------------------------------------- analysis

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": self.spans}, fh)
            fh.write("\n")

    def metrics(self, rounds: int, max_shortfall: float) -> dict:
        """Per-layer figures: set-up once, timed rounds averaged per round."""
        total = defaultdict(float)      # name -> seconds, outermost of a family
        selfs = defaultdict(float)      # name -> self seconds
        calls = defaultdict(int)
        for name, start, end, parent, phase in self.spans:
            dur = (end - start) * (1.0 if phase == "setup" else 1.0 / rounds)
            if parent < 0 or self.spans[parent][0] != name:
                total[name] += dur
                calls[name] += 1
            selfs[name] += dur
            if parent >= 0:
                selfs[self.spans[parent][0]] -= dur
        counts = defaultdict(float)
        for phase, table in self.counts.items():
            share = 1.0 if phase == "setup" else 1.0 / rounds
            for name, value in table.items():
                counts[name] += value * share
        solves = [r for phase, r in self.results if phase != "setup"]
        iters = sum(r.iterations for r in solves) / rounds
        serious = sum(sum(row.step == "serious" for row in r.trace)
                      for r in solves) / rounds
        evals = calls["oracles.evaluate_dual"]
        years = calls["simulate.year"]
        return {
            "synth.generate_s": (total["synth.generate"], "s"),
            "treefiles.save_s": (total["treefiles.save"], "s"),
            "treefiles.load_s": (total["treefiles.load"], "s"),
            "treefiles.mb": (counts["treefiles.bytes"] / 2 ** 20, "MB"),
            "cli.self_s": (selfs["cli.optimize"] + selfs["cli.simulate"], "s"),
            "oracles.evals": (evals / rounds, "count"),
            "oracles.eval_ms": (1e3 * total["oracles.evaluate_dual"] * rounds
                                / max(evals, 1), "ms"),
            "oracles.hydro_s": (total["oracles.hydro"], "s"),
            "oracles.thermal_s": (total["oracles.thermal"], "s"),
            "oracles.ejp_s": (total["oracles.ejp"], "s"),
            "oracles.demand_s": (total["oracles.demand"], "s"),
            "pwl.calls": (counts["pwl.calls"], "count"),
            "pwl.segments": (counts["pwl.segments"], "count"),
            "bundle.iterations": (iters, "count"),
            "bundle.serious_steps": (serious, "count"),
            "bundle.self_s": (selfs["bundle.maximize_dual"], "s"),
            "bundle.max_shortfall": (max_shortfall, "ratio"),
            "simulate.bellman_s": (total["simulate.bellman"], "s"),
            "simulate.years": (years / rounds, "count"),
            "simulate.year_ms": (1e3 * total["simulate.year"] * rounds
                                 / max(years, 1), "ms"),
        }
