"""Reference solve of the full scheduling problem as one linear program.

Builds the whole-tree dispatch LP (thermal bounds, reservoir dynamics
with terminal value hypograph cuts, demand equality per (node, post))
as sparse blocks and solves it with scipy's HiGHS.  This is the
independent route used to certify the decomposition: its optimal cost
bounds the dual from above, and its demand-row duals are admissible
multipliers.  scipy is imported only when a solve is asked for.

EJP contracts use whole-day 0/1 decisions, which an LP cannot carry;
they are excluded by default or relaxed to [0, 1] on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import ScenarioTree
from .units import UnitSet

_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible",
           3: "unbounded"}


@dataclass
class ReferenceSolution:
    status: str
    cost: float | None = None
    thermal: np.ndarray | None = None       # (U, N, L) MWh
    hydro: np.ndarray | None = None         # (H, N, L) MWh
    spill: np.ndarray | None = None         # (H, N) MWh per day
    stocks: np.ndarray | None = None        # (H, N) stock entering each day
    terminal: np.ndarray | None = None      # (H, num_leaves)
    ejp_on: np.ndarray | None = None        # (K, N) in [0, 1], relaxed
    duals_demand: np.ndarray | None = None  # (N, L)
    kkt: dict | None = None
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _value_cuts(points):
    """Segment lines (slope, intercept) whose min reproduces a concave PWL."""
    xs, ys = np.asarray(points, dtype=float).T
    slopes = np.diff(ys) / np.diff(xs)
    return slopes, ys[:-1] - slopes * xs[:-1]


class _Lp:
    """min c'x  s.t.  A x = b,  lo <= x <= hi, assembled block by block."""

    def __init__(self):
        self.size = 0
        self.cost, self.lo, self.hi = [], [], []
        self.rows, self.cols, self.vals, self.rhs = [], [], [], []

    def var(self, shape, cost=0.0, lo=0.0, hi=np.inf) -> np.ndarray:
        """Columns for a block of variables, as an index array of ``shape``."""
        idx = self.size + np.arange(int(np.prod(shape))).reshape(shape)
        self.size += idx.size
        for out, value in ((self.cost, cost), (self.lo, lo), (self.hi, hi)):
            out.append(np.broadcast_to(value, shape).ravel())
        return idx

    def eq(self, cols, vals, rhs) -> None:
        """One row per row of ``cols``: sum of vals * x[cols] == rhs."""
        cols = np.asarray(cols)
        first = sum(r.size for r in self.rhs)
        self.rows.append(np.repeat(first + np.arange(cols.shape[0]),
                                   cols.shape[1]))
        self.cols.append(cols.ravel())
        self.vals.append(np.broadcast_to(vals, cols.shape).ravel())
        self.rhs.append(np.asarray(rhs, dtype=float).ravel())

    def arrays(self):
        from scipy.sparse import coo_matrix

        b = np.concatenate(self.rhs)
        a = coo_matrix((np.concatenate(self.vals),
                        (np.concatenate(self.rows), np.concatenate(self.cols))),
                       shape=(b.size, self.size)).tocsr()
        return (np.concatenate(self.cost), a, b, np.concatenate(self.lo),
                np.concatenate(self.hi))


def _kkt(c, a, b, lo, hi, x, y) -> dict:
    """Absolute feasibility and complementary-slackness residuals.

    ``row``: max |Ax - b|; ``bound``: worst bound violation; ``slack``:
    worst |z_j| * gap_j with z the reduced costs and gap the distance to
    the bound the sign of z_j calls for (|z_j| alone if that is infinite).
    """
    z = c - a.T @ y
    gap = np.where(z > 0.0, x - lo, hi - x)
    gap = np.where(np.isfinite(gap), gap, 1.0)
    return {"row": float(np.abs(a @ x - b).max(initial=0.0)),
            "bound": float(np.maximum(lo - x, x - hi).max(initial=0.0)),
            "slack": float((np.abs(z) * gap).max(initial=0.0))}


def check_capacity(tree: ScenarioTree, units: UnitSet,
                   with_ejp: bool = False) -> None:
    """Raise if installed capacity cannot cover demand in some cell."""
    cap = np.zeros((tree.num_nodes, tree.num_posts))
    for i, u in enumerate(units.thermal):
        cap += tree.thermal_programmed[:, i:i + 1] * u.p_max * tree.durations
    for i, u in enumerate(units.hydro):
        cap += tree.hydro_programmed[:, i:i + 1] * u.p_max * tree.durations
    if with_ejp:
        for u in units.ejp:
            cap += u.power * tree.durations
    short = tree.demand > cap + 1e-9
    if np.any(short):
        n, p = np.argwhere(short)[0]
        raise ValueError(
            f"demand exceeds installed capacity at node {tree.nodes[n].id} "
            f"post {p}: {tree.demand[n, p]:.6g} > {cap[n, p]:.6g} MWh")


def solve_primal_reference(tree: ScenarioTree, units: UnitSet,
                           with_ejp: str = "exclude") -> ReferenceSolution:
    """Solve the tree dispatch LP; ``with_ejp`` is 'exclude' or 'relax'."""
    from scipy.optimize import linprog

    if with_ejp not in ("exclude", "relax"):
        raise ValueError("with_ejp must be 'exclude' or 'relax'")
    relax = with_ejp == "relax" and units.num_ejp > 0
    check_capacity(tree, units, with_ejp=relax)

    N, L = tree.num_nodes, tree.num_posts
    U, H = units.num_thermal, units.num_hydro
    contracts = units.ejp if relax else []
    K = len(contracts)
    leaves = tree.leaves
    NV = leaves.size
    pi = tree.prob
    dur = tree.durations
    father = tree.father_index
    root = int(np.flatnonzero(father < 0)[0])
    sons = np.flatnonzero(father >= 0)
    fathers = father[sons]
    day_inflow = tree.inflows.sum(axis=2)        # (H, N)

    ejp_cuts = []
    for unit in contracts:
        if np.any(np.diff(unit.value_table, 2) > 1e-9):
            raise ValueError(f"{unit.name}: relaxed contract needs a concave "
                             "value table")
        ejp_cuts.append(_value_cuts(list(enumerate(unit.value_table))))

    def along(values):
        """Per-unit scalars as a column broadcasting over trailing axes."""
        return np.array(values, dtype=float).reshape(-1, 1)

    lp = _Lp()
    th_cost = along([u.cost for u in units.thermal])
    th_pmax = along([u.p_max for u in units.thermal])
    u = lp.var((U, N, L), cost=(th_cost * pi)[:, :, None],
               hi=(th_pmax * tree.thermal_programmed.T)[:, :, None] * dur)
    hy_pmax = along([h.p_max for h in units.hydro])
    x_min = along([h.x_min for h in units.hydro])
    x_max = along([h.x_max for h in units.hydro])
    v = lp.var((H, N, L),
               hi=(hy_pmax * tree.hydro_programmed.T)[:, :, None] * dur)
    dev = lp.var((H, N))
    s_lo = np.repeat(x_min, N, axis=1)
    s_hi = np.repeat(x_max, N, axis=1)
    s_lo[:, root] = s_hi[:, root] = [h.x0 for h in units.hydro]
    s = lp.var((H, N), lo=s_lo, hi=s_hi)
    y = lp.var((H, NV), lo=x_min, hi=x_max)
    z = lp.var((H, NV), cost=-pi[leaves], lo=-np.inf)
    cuts = [_value_cuts(h.value_points) for h in units.hydro]
    cut_slack = [lp.var((NV, slopes.size)) for slopes, _ in cuts]
    days = along([k.days for k in contracts])
    t = lp.var((K, N), hi=1.0)
    q_lo = np.zeros((K, N))
    q_lo[:, root:root + 1] = days
    q = lp.var((K, N), lo=q_lo, hi=days)
    w = lp.var((K, NV), hi=days)
    zj = lp.var((K, NV), cost=-pi[leaves], lo=-np.inf)
    ejp_slack = [lp.var((NV, slopes.size)) for slopes, _ in ejp_cuts]

    # demand equality per cell, first so its duals lead the row order
    power = np.array([k.power for k in contracts], dtype=float)
    lp.eq(np.concatenate([u.reshape(U, N * L).T, v.reshape(H, N * L).T,
                          np.repeat(t.T, L, axis=0)], axis=1),
          np.concatenate([np.ones((N * L, U + H)),
                          dur.reshape(N * L, 1) * power], axis=1),
          tree.demand)

    def hypograph(value, level, slack, slopes, intercepts):
        """value <= intercept + slope * level, one row per (leaf, segment)."""
        k = slopes.size
        lp.eq(np.column_stack([np.repeat(value, k), np.repeat(level, k),
                               slack.ravel()]),
              np.column_stack([np.ones(NV * k), -np.tile(slopes, NV),
                               np.ones(NV * k)]),
              np.tile(intercepts, NV))

    # reservoir dynamics: son stock = father stock + inflow - release - spill
    step = np.concatenate([[1.0, -1.0], np.ones(L + 1)])
    for h in range(H):
        lp.eq(np.column_stack([s[h, sons], s[h, fathers], v[h, fathers],
                               dev[h, fathers]]),
              step, day_inflow[h, fathers])
        lp.eq(np.column_stack([y[h], s[h, leaves], v[h, leaves],
                               dev[h, leaves]]),
              step, day_inflow[h, leaves])
        hypograph(z[h], y[h], cut_slack[h], *cuts[h])
    # contract days left: son = father - used by the father
    for k in range(K):
        lp.eq(np.column_stack([q[k, sons], q[k, fathers], t[k, fathers]]),
              [1.0, -1.0, 1.0], np.zeros(sons.size))
        lp.eq(np.column_stack([w[k], q[k, leaves], t[k, leaves]]),
              [1.0, -1.0, 1.0], np.zeros(NV))
        hypograph(zj[k], w[k], ejp_slack[k], *ejp_cuts[k])

    c, a, b, lo, hi = lp.arrays()
    res = linprog(c, A_eq=a, b_eq=b, bounds=np.column_stack([lo, hi]),
                  method="highs")
    if res.status != 0:
        return ReferenceSolution(status=_STATUS.get(res.status, "numerical"),
                                 iterations=res.nit)
    x, duals = res.x, res.eqlin.marginals
    return ReferenceSolution(
        status="optimal", cost=float(res.fun), thermal=x[u], hydro=x[v],
        spill=x[dev], stocks=x[s], terminal=x[y],
        ejp_on=x[t] if relax else None,
        duals_demand=duals[:N * L].reshape(N, L),
        kkt=_kkt(c, a, b, lo, hi, x, duals), iterations=res.nit)
