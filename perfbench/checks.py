"""Checks of the study's outputs, made apart from the program.

Nothing here calls the program's solvers or statistics.  The tree
problem and each simulated year are written as sparse linear programs
from the instance data and solved by scipy's HiGHS; the quantile
factor of the thermal margin comes from ``scipy.stats``; the cost
statistics are recomputed from ``costs.csv``.

- Tree LP: the dispatch problem whose Lagrangian dual the program
  maximizes.  Contracts are relaxed to fractional days; their path
  counts form an interval matrix, so the relaxation is exact and the
  LP optimum equals the dual optimum.  For ``var_benef`` each plant's
  capacity is derated by ``1 - rho`` with ``rho = kappa *
  sqrt((1 - alpha) / (alpha * n))``.
- Clairvoyant LP: one simulated year dispatched with perfect
  foresight over the same plants, availability, inflows, unserved
  penalty and terminal credits.  The simulated policy is one feasible
  point of it, so no simulated cost may fall below its optimum.

The operations of a round are its dual solves (one per level and mode)
and its simulated scenario-years (one per level, mode and scenario);
``judge`` gives each a failure reason, or None when every check passed.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import norm

from study import PENALTY, Workload, level_dir

SHORTFALL_BOUND = 1e-4   # a dual value may sit this far (relative) below the
                         # LP, or by the solve's requested tolerance if larger
DUALITY_SLACK = 1e-6     # and this far above it: the LP solver's own accuracy
SIM_SLACK = 1e-6         # relative slack of a simulated cost below its LP bound
STATS_RTOL = 1e-9        # recomputed statistics, relative to the largest |cost|


class LpError(RuntimeError):
    pass


class _Lp:
    """Minimal sparse LP assembler: variable blocks, rows as COO triplets."""

    def __init__(self):
        self.cost, self.lo, self.hi = [], [], []
        self.n = 0
        self.rows = {"eq": [], "ub": []}   # (row ids, col ids, values, rhs)
        self.count = {"eq": 0, "ub": 0}

    def var(self, shape, cost=0.0, lo=0.0, hi=np.inf) -> np.ndarray:
        size = int(np.prod(shape))
        idx = np.arange(self.n, self.n + size).reshape(shape)
        self.n += size
        for store, value in ((self.cost, cost), (self.lo, lo), (self.hi, hi)):
            store.append(np.broadcast_to(np.asarray(value, dtype=float),
                                         shape).ravel())
        return idx

    def add(self, kind, cols, vals, rhs):
        """Add rows: ``cols`` and ``vals`` are (rows, k), ``rhs`` (rows,)."""
        cols = np.atleast_2d(cols)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        vals = np.broadcast_to(np.asarray(vals, dtype=float), cols.shape)
        ids = self.count[kind] + np.repeat(np.arange(rhs.size), cols.shape[1])
        self.rows[kind].append((ids, cols.ravel(), vals.ravel(), rhs))
        self.count[kind] += rhs.size

    def _matrix(self, kind):
        if not self.rows[kind]:
            return None, None
        ids, cols, vals, rhs = (np.concatenate(p) for p in zip(*self.rows[kind]))
        return sparse.csr_matrix((vals, (ids, cols)),
                                 shape=(rhs.size, self.n)), rhs

    def minimize(self) -> float:
        a_eq, b_eq = self._matrix("eq")
        a_ub, b_ub = self._matrix("ub")
        bounds = np.column_stack([np.concatenate(self.lo),
                                  np.concatenate(self.hi)])
        res = linprog(np.concatenate(self.cost), A_ub=a_ub, b_ub=b_ub,
                      A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if res.status != 0:
            raise LpError(f"LP not solved: {res.message}")
        return float(res.fun)


def _cuts(xs, ys):
    """Slopes and intercepts of the segments of a concave piecewise-linear map."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slopes = np.diff(ys) / np.diff(xs)
    if np.any(np.diff(slopes) > 1e-9 * max(1.0, float(np.abs(slopes).max()))):
        raise ValueError("value function is not concave")
    return slopes, ys[:-1] - slopes * xs[:-1]


def _hypograph(lp, z, x, xs, ys, offset=0.0, sign=1.0):
    """Rows ``z <= cut(offset + sign * x)`` for every segment of the map."""
    slopes, intercepts = _cuts(xs, ys)
    for s, c in zip(slopes, intercepts):
        # z - s * sign * x <= c + s * offset
        lp.add("ub", np.column_stack([z, x]), [1.0, -s * sign],
               np.full(z.size, c + s * offset))


def thermal_derate(units, eps_thermal: float | None) -> np.ndarray:
    """Usable share ``1 - rho`` of each plant (1 without the thermal margin)."""
    if eps_thermal is None:
        return np.ones(units.num_thermal)
    kap = float(norm.ppf(1.0 - eps_thermal))   # gaussian quantile factor
    out = []
    for u in units.thermal:
        rho = math.inf if u.alpha <= 0.0 else \
            kap * math.sqrt((1.0 - u.alpha) / (u.alpha * u.n_groups))
        out.append(max(0.0, 1.0 - rho))
    return np.array(out)


def tree_lp(tree, units, derate=None) -> float:
    """Optimal expected cost of the tree dispatch LP, contracts relaxed."""
    N, L = tree.num_nodes, tree.num_posts
    derate = np.ones(units.num_thermal) if derate is None else derate
    pi = tree.prob
    lp = _Lp()
    bal_cols, bal_vals = [], []
    for u, unit in enumerate(units.thermal):
        cap = (derate[u] * tree.thermal_programmed[:, u:u + 1] * unit.p_max
               * tree.durations)
        g = lp.var((N, L), cost=pi[:, None] * unit.cost, hi=cap)
        bal_cols.append(g)
        bal_vals.append(np.ones((N, L)))
    father = tree.father_index
    root = int(np.flatnonzero(father < 0)[0])
    leaves = tree.leaves
    for h, unit in enumerate(units.hydro):
        cap = tree.hydro_programmed[:, h:h + 1] * unit.p_max * tree.durations
        v = lp.var((N, L), hi=cap)
        end = lp.var((N,), lo=unit.x_min, hi=unit.x_max)
        spill = lp.var((N,))
        bal_cols.append(v)
        bal_vals.append(np.ones((N, L)))
        inflow = tree.inflows[h].sum(axis=1)
        # end[n] + sum_p v[n] + spill[n] - end[father] = inflow[n] (+ x0 at root)
        rest = np.flatnonzero(father >= 0)
        lp.add("eq", np.column_stack([end[rest], v[rest], spill[rest],
                                      end[father[rest]]]),
               [1.0] + [1.0] * L + [1.0, -1.0], inflow[rest])
        lp.add("eq", np.concatenate([[end[root]], v[root], [spill[root]]]),
               1.0, [inflow[root] + unit.x0])
        z = lp.var((leaves.size,), cost=-pi[leaves], lo=-np.inf)
        xs, ys = zip(*unit.value_points)
        _hypograph(lp, z, end[leaves], xs, ys)
    paths = _leaf_paths(tree)
    for k, c in enumerate(units.ejp):
        t = lp.var((N,), hi=1.0)
        bal_cols.append(np.repeat(t[:, None], L, axis=1))
        bal_vals.append(c.power * tree.durations)
        used = lp.var((leaves.size,), hi=float(c.days))
        lp.add("eq", np.column_stack([used, t[paths]]),
               [1.0] + [-1.0] * paths.shape[1], np.zeros(leaves.size))
        z = lp.var((leaves.size,), cost=-pi[leaves], lo=-np.inf)
        _hypograph(lp, z, used, np.arange(c.days + 1), c.value_table,
                   offset=float(c.days), sign=-1.0)
    cols = np.stack(bal_cols, axis=-1).reshape(N * L, -1)
    vals = np.stack(bal_vals, axis=-1).reshape(N * L, -1)
    lp.add("eq", cols, vals, tree.demand.ravel())
    return lp.minimize()


def _leaf_paths(tree) -> np.ndarray:
    """(leaves, days) node indices from the root to each leaf."""
    rows = []
    for leaf in tree.leaves:
        path, n = [], int(leaf)
        while n >= 0:
            path.append(n)
            n = int(tree.father_index[n])
        rows.append(path[::-1])
    return np.array(rows, dtype=int)


def day_frame(tree):
    """Probability-weighted per-day durations and programmed rates."""
    T = tree.num_days
    dur = np.empty((T, tree.num_posts))
    tpr = np.empty((T, tree.num_thermal))
    hpr = np.empty((T, tree.num_hydro))
    for t in range(T):
        idx = np.flatnonzero(tree.times == t)
        w = tree.prob[idx]
        dur[t] = w @ tree.durations[idx]
        tpr[t] = w @ tree.thermal_programmed[idx]
        hpr[t] = w @ tree.hydro_programmed[idx]
    return dur, tpr, hpr


def clairvoyant_cost(scenario, frame, units, penalty_factor: float) -> float:
    """Least cost of one year with perfect foresight (contract days relaxed)."""
    dur, tpr, hpr = frame
    T, L = scenario.demand.shape
    lp = _Lp()
    bal_cols, bal_vals = [], []
    costs = [u.cost for u in units.thermal]
    for u, unit in enumerate(units.thermal):
        cap = (scenario.thermal_avail[u][:, None] * tpr[:, u:u + 1]
               * unit.p_max * dur)
        bal_cols.append(lp.var((T, L), cost=unit.cost, hi=cap))
    for h, unit in enumerate(units.hydro):
        v = lp.var((T, L), hi=hpr[:, h:h + 1] * unit.p_max * dur)
        end = lp.var((T,), lo=unit.x_min, hi=unit.x_max)
        spill = lp.var((T,))
        bal_cols.append(v)
        inflow = scenario.inflows[h].sum(axis=1)
        lp.add("eq", np.column_stack([end[1:], v[1:], spill[1:], end[:-1]]),
               [1.0] + [1.0] * L + [1.0, -1.0], inflow[1:])
        lp.add("eq", np.concatenate([[end[0]], v[0], [spill[0]]]), 1.0,
               [inflow[0] + unit.x0])
        z = lp.var((1,), cost=-1.0, lo=-np.inf)
        xs, ys = zip(*unit.value_points)
        _hypograph(lp, z, end[-1:], xs, ys)
    for c in units.ejp:
        on = lp.var((T,), hi=1.0)
        energy = lp.var((T, L))
        bal_cols.append(energy)
        lp.add("ub", np.column_stack([energy.ravel(), np.repeat(on, L)]),
               np.column_stack([np.ones(T * L), -c.power * dur.ravel()]),
               np.zeros(T * L))
        used = lp.var((1,), hi=float(c.days))
        lp.add("eq", np.concatenate([used, on]), [1.0] + [-1.0] * T, [0.0])
        z = lp.var((1,), cost=-1.0, lo=-np.inf)
        _hypograph(lp, z, used, np.arange(c.days + 1), c.value_table,
                   offset=float(c.days), sign=-1.0)
    pen = penalty_factor * (max(costs) if costs else 1.0)
    bal_cols.append(lp.var((T, L), cost=pen))
    cols = np.stack(bal_cols, axis=-1).reshape(T * L, -1)
    lp.add("eq", cols, 1.0, scenario.demand.ravel())
    return lp.minimize()


# ------------------------------------------------------------ file checks

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def number(cell: str) -> float:
    """A CSV cell as a float.  The CLI writes NumPy scalars through
    ``repr``, which NumPy 2 spells ``np.float64(x)``; the value is read
    from inside that wrapper so the checks judge numbers, not spelling."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def recompute_stats(costs) -> dict:
    xs = sorted(costs)
    n = len(xs)
    mean = math.fsum(xs) / n
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (n - 1)) \
        if n > 1 else 0.0

    def rank(q):
        return xs[min(max(math.ceil(q * n), 1), n) - 1]

    return {"num_scenarios": n, "mean": mean, "std": std, "var1": rank(0.99),
            "var5": rank(0.95), "min": xs[0], "max": xs[-1]}


def stats_problems(mode_dir) -> list[str]:
    """Compare ``stats.csv`` with statistics recomputed from ``costs.csv``."""
    _, rows = read_csv(os.path.join(mode_dir, "costs.csv"))
    costs = [number(r[1]) for r in rows]
    header, srows = read_csv(os.path.join(mode_dir, "stats.csv"))
    if len(srows) != 1:
        return ["stats.csv must hold one row"]
    got = dict(zip(header, srows[0]))
    want = recompute_stats(costs)
    scale = max(abs(c) for c in costs)
    bad = []
    for key, value in want.items():
        if key not in got:
            bad.append(f"stats.csv lacks {key}")
        elif key == "num_scenarios":
            if int(got[key]) != value:
                bad.append(f"num_scenarios {got[key]} != {value}")
        elif abs(number(got[key]) - value) > STATS_RTOL * scale:
            bad.append(f"{key} {got[key]} != recomputed {value!r}")
    return bad


def trajectory_problems(mode_dir, units) -> list[str]:
    """``trajectory.csv`` starts at x0 and stays within [x_min, x_max]."""
    header, rows = read_csv(os.path.join(mode_dir, "trajectory.csv"))
    bad = []
    for h, unit in enumerate(units.hydro):
        if header[h + 1] != unit.name:
            bad.append(f"trajectory column {header[h + 1]} != {unit.name}")
            continue
        series = [number(r[h + 1]) for r in rows]
        tol = 1e-9 * unit.x_max
        if abs(series[0] - unit.x0) > tol:
            bad.append(f"{unit.name} starts at {series[0]}, not x0 {unit.x0}")
        if min(series) < unit.x_min - tol or max(series) > unit.x_max + tol:
            bad.append(f"{unit.name} leaves [{unit.x_min}, {unit.x_max}]")
    return bad


def simulated_costs(mode_dir) -> list[float]:
    _, rows = read_csv(os.path.join(mode_dir, "costs.csv"))
    return [number(r[1]) for r in rows]


def below_bound(cost: float, bound: float) -> bool:
    """True when a simulated cost falls below its clairvoyant lower bound."""
    return cost < bound - SIM_SLACK * max(1.0, abs(bound))


def shortfall_bound(w: Workload) -> float:
    """Relative distance below the LP that a solve of ``w`` may end at."""
    return max(SHORTFALL_BOUND, w.tol)


def dual_verdict(theta: float, lp_opt: float, bound: float):
    """(reason or None, relative shortfall) of a dual value against the LP."""
    scale = max(1.0, abs(lp_opt))
    shortfall = (lp_opt - theta) / scale
    if theta > lp_opt + DUALITY_SLACK * scale:
        return "weak duality", shortfall
    if shortfall > bound:
        return "shortfall", shortfall
    return None, shortfall


def not_above(a: float, b: float, bound: float) -> bool:
    """``a <= b`` within the shortfall bound."""
    return a <= b + bound * max(1.0, abs(b))


# ------------------------------------------------------------- verdicts

@dataclass
class Verdicts:
    """Failure reason (None when passed) of every operation of one round."""

    ops: dict           # (kind, level, mode, year) -> reason or None
    max_shortfall: float


def judge(w: Workload, tree, units, scenarios, out: str) -> Verdicts:
    """Check one round's outputs under ``out`` against the independent LPs."""
    ops = {}
    lp_cache = {}
    bound = shortfall_bound(w)

    def lp_optimum(mode, level):
        eps2 = level[1] if mode == "var_benef" else None
        if eps2 not in lp_cache:
            lp_cache[eps2] = tree_lp(
                tree, units, thermal_derate(units, eps2))
        return lp_cache[eps2]

    thetas = {}
    worst = 0.0
    for level in w.levels:
        for mode in w.modes:
            key = ("solve", level, mode, None)
            path = os.path.join(out, level_dir(level), mode, "dual.json")
            try:
                with open(path) as fh:
                    dual = json.load(fh)
                theta, status = float(dual["theta"]), dual["status"]
            except (OSError, ValueError, KeyError, TypeError):
                ops[key] = "no readable dual.json"
                continue
            thetas[level, mode] = theta
            reason = None if status == "converged" else f"status {status}"
            if mode in ("nominal", "var_benef"):
                lp_reason, shortfall = dual_verdict(
                    theta, lp_optimum(mode, level), bound)
                worst = max(worst, shortfall)
                reason = reason or lp_reason
            ops[key] = reason

    def order(level, lo, hi, blamed, why):
        a, b = thetas.get((level, lo)), thetas.get((level, hi))
        key = ("solve", level, blamed, None)
        if a is not None and b is not None and not not_above(a, b, bound) \
                and ops[key] is None:
            ops[key] = why

    for level in w.levels:
        order(level, "var_fa", "nominal", "var_fa", "theta_fa > theta_nominal")
        order(level, "nominal", "var_benef", "var_benef",
              "theta_nominal > theta_benef")
        order(level, "var_fa", "mixt", "mixt", "theta_fa > theta_mixt")
        order(level, "mixt", "var_benef", "mixt", "theta_mixt > theta_benef")

    def trend(mode, eps_index, rising, why):
        levels = sorted(w.levels, key=lambda lv: lv[eps_index])
        for prev, cur in zip(levels, levels[1:]):
            a, b = thetas.get((prev, mode)), thetas.get((cur, mode))
            key = ("solve", cur, mode, None)
            if a is None or b is None or ops[key] is not None:
                continue
            if not (not_above(a, b, bound) if rising
                    else not_above(b, a, bound)):
                ops[key] = why

    trend("var_fa", 0, True, "theta_fa falls as eps1 grows")
    trend("var_benef", 1, False, "theta_benef rises as eps2 grows")

    frame = day_frame(tree)
    bounds = [clairvoyant_cost(s, frame, units, PENALTY)
              for s in scenarios]
    for level in w.levels:
        for mode in w.modes:
            mode_dir = os.path.join(out, level_dir(level), mode)
            try:
                problems = (stats_problems(mode_dir)
                            + trajectory_problems(mode_dir, units))
                costs = simulated_costs(mode_dir)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problems, costs = [f"unreadable output: {exc}"], []
            if not problems and len(costs) != len(scenarios):
                problems = [f"{len(costs)} costs for {len(scenarios)} years"]
            for s, floor in enumerate(bounds):
                reason = "; ".join(problems) or None
                if reason is None and below_bound(costs[s], floor):
                    reason = f"cost {costs[s]!r} below clairvoyant {floor!r}"
                ops["year", level, mode, s] = reason
    return Verdicts(ops=ops, max_shortfall=worst)


def same_outputs(first: str, other: str, w: Workload, ops: dict) -> dict:
    """Verdicts of a later round: round one's, unless its files differ."""
    out = dict(ops)
    for level in w.levels:
        for mode in w.modes:
            a = os.path.join(first, level_dir(level), mode)
            b = os.path.join(other, level_dir(level), mode)
            names = sorted(os.listdir(a)) if os.path.isdir(a) else []
            same = os.path.isdir(b) and names == sorted(os.listdir(b))
            if same:
                _, mismatch, errors = filecmp.cmpfiles(a, b, names,
                                                       shallow=False)
                same = not mismatch and not errors
            if not same:
                for key in out:
                    if key[1] == level and key[2] == mode:
                        out[key] = "outputs differ from round 1"
    return out


def allowed(w: Workload, key, reason) -> bool:
    """Whether a failure is the known fault this workload keeps."""
    return (reason == "shortfall" and key[0] == "solve"
            and key[2] == w.known_fault)
