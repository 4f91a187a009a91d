"""Bellman value tables from optimal multipliers, and Monte Carlo dispatch.

Once the dual is maximized, the multipliers induce water values: the
dual oracle's own backward recursions price each reservoir's stock
(the exact concave value functions of ``oracles.hydro_value_functions``)
and each contract's remaining days (``oracles.ejp_value_table``).  The
tables sample those value functions on a stock grid and divide each
node's row by its probability, which turns the probability-weighted
values of the dual into node-conditional ones.  Aggregating node rows
per day gives the management strategy used in simulation: each
simulated day dispatches thermal units, water tranches and contract
days against realized demand by marginal cost, where water's marginal
cost is the slope of the next day's aggregated row.  Simulated cost is
fuel plus unserved-energy penalty minus terminal stock credits; water
itself is free, its opportunity cost only steers the merit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oracles import ejp_value_table, hydro_value_functions
from .tree import Scenario, ScenarioTree
from .units import EjpContract, HydroUnit, UnitSet


@dataclass
class BellmanTable:
    """Stock value per node and per day on a fixed grid.

    ``node_values[i, j]`` is the value of entering node i's day with
    stock ``grid[j]``, the leaf days included, conditional on reaching
    node i (zero for nodes of probability zero).  ``step_values[t]``
    aggregates day t's nodes by probability; the extra last row is the
    terminal value.  The value used after day t's dispatch is
    ``continuation(t)``: the next day's aggregated row, or the terminal
    row after the last day.  ``step_slopes`` holds each step row's
    slopes across the grid bands, clipped at zero.
    """

    kind: str                 # hydro | ejp
    name: str
    grid: np.ndarray
    node_values: np.ndarray   # (N, G)
    step_values: np.ndarray   # (T + 1, G)
    step_slopes: np.ndarray = field(init=False)   # (T + 1, G - 1)

    def __post_init__(self):
        self.step_slopes = np.maximum(
            np.diff(self.step_values, axis=1) / np.diff(self.grid), 0.0)

    def _next(self, day: int) -> int:
        return min(day + 1, self.step_values.shape[0] - 1)

    def continuation(self, day: int) -> np.ndarray:
        return self.step_values[self._next(day)]

    def continuation_slopes(self, day: int) -> np.ndarray:
        return self.step_slopes[self._next(day)]


@dataclass
class Tables:
    hydro: list = field(default_factory=list)
    ejp: list = field(default_factory=list)


def _table(tree: ScenarioTree, kind: str, name: str, grid: np.ndarray,
           weighted: np.ndarray, terminal: np.ndarray) -> BellmanTable:
    """Table from probability-weighted node rows and the terminal row."""
    node_values = np.zeros_like(weighted)
    np.divide(weighted, tree.prob[:, None], out=node_values,
              where=tree.prob[:, None] > 0.0)
    steps = np.empty((tree.num_days + 1, grid.size))
    for t, idx in enumerate(tree.nodes_at_time):
        steps[t] = tree.prob[idx] @ node_values[idx]
    steps[-1] = terminal
    return BellmanTable(kind=kind, name=name, grid=grid,
                        node_values=node_values, step_values=steps)


def compute_bellman_hydro(tree: ScenarioTree, lam: np.ndarray, unit: HydroUnit,
                          h: int, grid_size: int = 101) -> BellmanTable:
    """Water value table: the oracle's exact value functions on a grid.

    Row i samples the concave value-to-go ``W[i]`` of the reservoir
    subproblem at ``grid_size`` stocks evenly spaced over [x_min, x_max].
    """
    grid = np.linspace(unit.x_min, unit.x_max, grid_size)
    W = hydro_value_functions(lam, tree, unit, h)[0]
    return _table(tree, "hydro", unit.name, grid,
                  np.array([w(grid) for w in W]), unit.terminal_value(grid))


def compute_bellman_ejp(tree: ScenarioTree, lam: np.ndarray,
                        contract: EjpContract) -> BellmanTable:
    """Contract-day value table: the oracle's DP on the grid 0..days."""
    grid = np.arange(contract.days + 1, dtype=float)
    best = ejp_value_table(lam, tree, contract)[0]
    return _table(tree, "ejp", contract.name, grid, best,
                  np.array(contract.value_table))


def compute_bellman(tree: ScenarioTree, lam: np.ndarray, units: UnitSet,
                    grid_size: int = 101) -> Tables:
    return Tables(
        hydro=[compute_bellman_hydro(tree, lam, u, h, grid_size)
               for h, u in enumerate(units.hydro)],
        ejp=[compute_bellman_ejp(tree, lam, u) for u in units.ejp])


# --------------------------------------------------------------- frame

@dataclass
class SimFrame:
    """Per-day deterministic data for simulation, averaged over the tree."""

    durations: np.ndarray            # (T, L)
    thermal_programmed: np.ndarray   # (T, U)
    hydro_programmed: np.ndarray     # (T, H)


def expected_frame(tree: ScenarioTree) -> SimFrame:
    T = tree.num_days
    dur = np.empty((T, tree.num_posts))
    tpr = np.empty((T, tree.num_thermal))
    hpr = np.empty((T, tree.num_hydro))
    for t in range(T):
        idx = tree.nodes_at_time[t]
        w = tree.prob[idx]
        dur[t] = w @ tree.durations[idx]
        tpr[t] = w @ tree.thermal_programmed[idx]
        hpr[t] = w @ tree.hydro_programmed[idx]
    return SimFrame(durations=dur, thermal_programmed=tpr, hydro_programmed=hpr)


# ------------------------------------------------------------ dispatch

@dataclass
class SimResult:
    cost: float
    fuel_cost: float
    unserved_cost: float
    unserved_energy: float
    terminal_credit: float
    stocks: np.ndarray          # (H, T+1) start-of-day stocks, final last
    ejp_remaining: np.ndarray   # (K,)
    thermal_energy: np.ndarray  # (U,) total MWh over the year


def _tranches(pool: float, grid: np.ndarray, slopes: np.ndarray):
    """Water tranches from the top of the pool down to the floor grid[0].

    Returns parallel lists (amount, price): the grid bands below the
    pool level whose top lies more than 1e-9 above the floor, the top
    one cut at the level, read from the top down after a free tranche
    for any surplus above the cap.  A tranche's price is its band's
    entry of ``slopes``: the continuation row's slope across the band,
    clipped at zero (``BellmanTable.continuation_slopes``).  Consumption
    must follow list order: water comes off the top whatever the prices
    do.
    """
    level = min(pool, grid[-1])
    lo, hi = grid[:-1], np.minimum(grid[1:], level)
    keep = (lo < level) & (hi > grid[0] + 1e-9)
    amounts = (hi - lo)[keep][::-1].tolist()
    prices = slopes[keep][::-1].tolist()
    if pool > grid[-1]:  # above the cap: surplus water is free
        amounts.insert(0, pool - grid[-1])
        prices.insert(0, 0.0)
    return amounts, prices


def _dispatch_day(demand, tcaps, hydro_caps, order, tcosts, pools, tranches,
                  extra):
    """Serve one day's posts by marginal price.

    ``order`` lists the thermal units by (cost, index) and ``tranches``
    holds each reservoir's ``_tranches`` of its start ``pools``; neither
    is modified.  ``extra`` is per-post must-take energy (contract
    days).  Thermal wins price ties, then reservoirs in unit order.
    Energy goes unserved (priced at the penalty) only once every
    physical source is empty: a water tranche above the penalty is a
    table artifact, not a reason to shed load while the reservoir still
    holds something.  Returns (fuel, unserved, thermal_used, ends):
    the fuel cost, the unserved energy, the (U, L) thermal energy per
    post and each reservoir's pool after the day.
    """
    U, L = tcaps.shape
    ends = list(pools)
    amounts = [list(a) for a, _ in tranches]
    prices = [p for _, p in tranches]
    heads = [0] * len(ends)
    fuel = 0.0
    unserved = 0.0
    thermal_used = np.zeros((U, L))
    for p in range(L):
        need = demand[p] - min(extra[p], demand[p])
        tcap = tcaps[:, p].copy()
        hcap = hydro_caps[:, p].copy()
        while need > 1e-9:
            unit, water = None, False
            best = np.inf
            for u in order:
                if tcap[u] > 1e-12:
                    if tcosts[u] < best:
                        best, unit = tcosts[u], u
                    break
            for h, a in enumerate(amounts):
                if hcap[h] <= 1e-12:
                    continue
                i = heads[h]
                while i < len(a) and a[i] <= 1e-12:
                    i += 1
                heads[h] = i
                if i < len(a) and prices[h][i] < best:
                    best, unit, water = prices[h][i], h, True
            if unit is None:
                unserved += need
                break
            if water:
                a, i = amounts[unit], heads[unit]
                qty = min(need, hcap[unit], a[i])
                a[i] -= qty
                hcap[unit] -= qty
                ends[unit] -= qty
            else:
                qty = min(need, tcap[unit])
                tcap[unit] -= qty
                fuel += qty * tcosts[unit]
                thermal_used[unit, p] += qty
            need -= qty
    return fuel, unserved, thermal_used, ends


def simulate_scenario(scenario: Scenario, frame: SimFrame, units: UnitSet,
                      tables: Tables, penalty_factor: float = 10.0
                      ) -> SimResult:
    """Dispatch one simulated year against the value tables.

    Contract days are whole-day decisions: the day is dispatched with
    and without each live contract and the variant with the lower score
    (dispatch cost minus continuation values) wins, ties resolving to
    keeping the day.  With several contracts the decisions are taken
    greedily in unit order; the winning dispatch is the day's outcome.
    Unserved energy is priced at ``penalty_factor`` times the dearest
    fuel cost.
    """
    T, L = scenario.demand.shape
    U, H, K = units.num_thermal, units.num_hydro, units.num_ejp
    tcosts = np.array([u.cost for u in units.thermal])
    order = sorted(range(U), key=lambda u: (tcosts[u], u))
    pen = penalty_factor * (tcosts.max() if U else 1.0)
    tpmax = np.array([u.p_max for u in units.thermal])
    hpmax = np.array([u.p_max for u in units.hydro])
    grids = [tb.grid for tb in tables.hydro]    # each spans [x_min, x_max]

    stocks = np.empty((H, T + 1))
    stocks[:, 0] = [u.x0 for u in units.hydro]
    remaining = np.array([c.days for c in units.ejp], dtype=int)
    fuel_total = 0.0
    unserved_total = 0.0
    thermal_energy = np.zeros(U)

    for t in range(T):
        dur = frame.durations[t]
        tcaps = np.outer(scenario.thermal_avail[:, t]
                         * frame.thermal_programmed[t] * tpmax, dur)
        hydro_caps = np.outer(frame.hydro_programmed[t] * hpmax, dur)
        pools = [stocks[h, t] + scenario.inflows[h, t].sum() for h in range(H)]
        rows = [tb.continuation(t) for tb in tables.hydro]
        tranches = [_tranches(p, g, tb.continuation_slopes(t))
                    for p, g, tb in zip(pools, grids, tables.hydro)]

        def dispatch(on):
            """Day dispatch with contracts ``on``, scored without contracts."""
            extra = np.zeros(L)
            for k in range(K):
                if on[k]:
                    extra += units.ejp[k].power * dur
            fuel, short, tused, ends = _dispatch_day(
                scenario.demand[t], tcaps, hydro_caps, order, tcosts, pools,
                tranches, extra)
            ends = [min(e, g[-1]) for e, g in zip(ends, grids)]
            score = fuel + short * pen
            for e, g, r in zip(ends, grids, rows):
                score -= float(np.interp(e, g, r))
            return score, fuel, short, tused, ends

        # the day as dispatched so far is each contract's choice-0 trial
        on = np.zeros(K, dtype=int)
        day = dispatch(on)
        for k in range(K):
            if remaining[k] < 1:
                continue
            crow = tables.ejp[k].continuation(t)
            on[k] = 1
            trial = dispatch(on)
            if (trial[0] - float(crow[remaining[k] - 1])
                    < day[0] - float(crow[remaining[k]])):
                day = trial
                remaining[k] -= 1
            else:
                on[k] = 0

        _, fuel, short, tused, ends = day
        fuel_total += fuel
        unserved_total += short
        thermal_energy += tused.sum(axis=1)
        stocks[:, t + 1] = ends

    credit = 0.0
    for h, u in enumerate(units.hydro):
        credit += float(u.terminal_value(stocks[h, T]))
    for k, c in enumerate(units.ejp):
        credit += c.value_table[remaining[k]]
    cost = fuel_total + unserved_total * pen - credit
    return SimResult(cost=cost, fuel_cost=fuel_total,
                     unserved_cost=unserved_total * pen,
                     unserved_energy=unserved_total, terminal_credit=credit,
                     stocks=stocks, ejp_remaining=remaining,
                     thermal_energy=thermal_energy)


# ------------------------------------------------------------ statistics

def empirical_quantile(values, q: float) -> float:
    """Order statistic of rank ceil(q * N) (the standard empirical VaR)."""
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    n = xs.size
    if n == 0:
        raise ValueError("no values")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    rank = int(np.ceil(q * n))
    return float(xs[min(max(rank, 1), n) - 1])


@dataclass
class CostReport:
    num_scenarios: int
    mean: float
    std: float          # sample standard deviation
    var1: float         # 1% Value-at-Risk: 99% empirical quantile
    var5: float         # 5% Value-at-Risk: 95% empirical quantile
    min: float
    max: float

    @classmethod
    def from_costs(cls, costs) -> "CostReport":
        xs = np.asarray(costs, dtype=float).ravel()
        return cls(num_scenarios=xs.size, mean=float(xs.mean()),
                   std=float(xs.std(ddof=1)) if xs.size > 1 else 0.0,
                   var1=empirical_quantile(xs, 0.99),
                   var5=empirical_quantile(xs, 0.95),
                   min=float(xs.min()), max=float(xs.max()))


def week_runs(flags: np.ndarray, week_len: int = 7) -> int:
    """Number of whole weeks inside consecutive runs of True days."""
    total = 0
    run = 0
    for f in flags:
        run = run + 1 if f else 0
        if f and run % week_len == 0:
            total += 1
    return total


def reservoir_week_stats(stocks: np.ndarray, unit: HydroUnit,
                         thresholds=(1, 2, 3, 4), week_len: int = 7):
    """Scenario counts spending at least X weeks at extreme levels.

    A day is low when the start-of-day stock is within 5% of x_max
    above the floor, high when within 5% of x_max below the initial
    stock; weeks must be consecutive runs of 7 such days.  Returns
    ``(weeks_low, weeks_high)`` dicts: threshold -> scenario count.
    """
    stocks = np.asarray(stocks, dtype=float)
    low_line = unit.x_min + 0.05 * unit.x_max
    high_line = unit.x0 - 0.05 * unit.x_max
    lows = np.array([week_runs(s <= low_line, week_len) for s in stocks])
    highs = np.array([week_runs(s >= high_line, week_len) for s in stocks])
    weeks_low = {x: int((lows >= x).sum()) for x in thresholds}
    weeks_high = {x: int((highs >= x).sum()) for x in thresholds}
    return weeks_low, weeks_high


@dataclass
class ReservoirStats:
    names: list
    mean_stock: np.ndarray          # (H, T+1)
    weeks_low: list                 # per reservoir: {threshold: count}
    weeks_high: list

    @classmethod
    def from_results(cls, results, units: UnitSet,
                     thresholds=(1, 2, 3, 4)) -> "ReservoirStats":
        H = units.num_hydro
        if not results:
            raise ValueError("no simulation results")
        stacked = np.stack([r.stocks for r in results])   # (S, H, T+1)
        lows, highs = [], []
        for h, u in enumerate(units.hydro):
            wl, wh = reservoir_week_stats(stacked[:, h], u, thresholds)
            lows.append(wl)
            highs.append(wh)
        return cls(names=[u.name for u in units.hydro],
                   mean_stock=stacked.mean(axis=0),
                   weeks_low=lows, weeks_high=highs)


def _simulate_args(args):
    return simulate_scenario(*args)


def run_monte_carlo(scenarios, tree: ScenarioTree, units: UnitSet,
                    tables: Tables, penalty_factor: float = 10.0,
                    workers: int = 1):
    """Simulate every scenario; returns (CostReport, ReservoirStats, results).

    Results keep the scenario order whatever ``workers`` is, so reports
    do not depend on parallelism.
    """
    frame = expected_frame(tree)
    jobs = [(s, frame, units, tables, penalty_factor) for s in scenarios]
    if workers <= 1:
        results = [simulate_scenario(*j) for j in jobs]
    else:
        # imported here: multiprocessing is slow to import, and only a
        # parallel run needs it
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(jobs) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_args, jobs, chunksize=chunk))
    costs = [r.cost for r in results]
    report = CostReport.from_costs(costs)
    stats = ReservoirStats.from_results(results, units)
    return report, stats, results
