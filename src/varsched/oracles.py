"""Exact oracles for the dual function and its robust variants.

Dualizing the per-cell demand balance with multipliers ``lam`` (one per
node and post, probability-weighted) splits the dual function into a
demand pairing plus one independent subproblem per unit:

    theta(lam) = lam.d + sum_units inf over the unit's feasible set

Thermal subproblems are bang-bang, reservoirs reduce to a concave
piecewise-linear dynamic program, EJP contracts to a small integer DP.
A supergradient is the demand-term gradient minus the production the
subproblems answer with.  Two robustifications replace pieces of the
dual by Value-at-Risk estimates: the demand pairing by the support
function of an uncertainty ellipsoid, and the thermal subproblems by a
safety-margin version that refuses units whose outage dispersion is too
high relative to the margin kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pwl
from .risk import CovarianceModel, calibrate_sigma, ellipsoid_support, kappa
from .tree import ScenarioTree
from .units import EjpContract, HydroUnit, ThermalUnit, UnitSet

MODES = ("nominal", "var_fa", "var_benef", "mixt")


@dataclass(frozen=True)
class RiskConfig:
    eps_demand: float = 0.05      # tail level of the demand ellipsoid
    eps_thermal: float = 0.1      # tail level of the availability margin
    kappa_mode: str = "gaussian"


@dataclass(frozen=True)
class RunMode:
    """Which robustifications are active, and at what safety level.

    ``kind`` is one of nominal / var_fa / var_benef / mixt; the kappa
    factors of the active robustifications come from the risk config.
    """

    kind: str = "nominal"
    risk: RiskConfig = RiskConfig()

    def __post_init__(self):
        if self.kind not in MODES:
            raise ValueError(f"unknown mode {self.kind!r}, expected one of {MODES}")

    @property
    def robust_demand(self) -> bool:
        return self.kind in ("var_fa", "mixt")

    @property
    def robust_thermal(self) -> bool:
        return self.kind in ("var_benef", "mixt")

    def kappa_demand(self) -> float:
        if not self.robust_demand:
            return 0.0
        return kappa(self.risk.eps_demand, self.risk.kappa_mode)

    def kappa_thermal(self) -> float:
        if not self.robust_thermal:
            return 0.0
        return kappa(self.risk.eps_thermal, self.risk.kappa_mode)


@dataclass
class DualEvaluation:
    theta: float
    supergradient: np.ndarray
    components: dict = field(default_factory=dict)
    thermal_dispatch: np.ndarray | None = None   # (U, N, L) commanded MWh
    thermal_effective: np.ndarray | None = None  # (U, N, L) MWh net of margin
    hydro_release: np.ndarray | None = None      # (H, N, L)
    hydro_spill: np.ndarray | None = None        # (H, N)
    hydro_terminal: np.ndarray | None = None     # (H, num_leaves)
    ejp_on: np.ndarray | None = None             # (K, N) 0/1


# ------------------------------------------------------------- demand

def theta_demand(lam: np.ndarray, tree: ScenarioTree):
    d = tree.demand_vector()
    return float(lam @ d), d


def theta_demand_robust(lam: np.ndarray, cov: CovarianceModel, kap: float):
    return ellipsoid_support(lam, cov, kap)


def calibrate_tree_covariance(tree: ScenarioTree) -> CovarianceModel:
    """Diagonal demand covariance from the tree's daily cross-sections.

    Each (day, post) group of nodes gets half-gap sigmas; days carrying
    a single node (near-term demand, treated as known) get sigma 0.
    """
    sig = np.zeros((tree.num_nodes, tree.num_posts))
    for idx in tree.nodes_at_time:
        if idx.size >= 2:
            for p in range(tree.num_posts):
                sig[idx, p] = calibrate_sigma(tree.demand[idx, p])
    return CovarianceModel.from_sigma(tree.demand_vector(), sig.ravel())


# ------------------------------------------------------------ thermal

def theta_thermal(lam: np.ndarray, tree: ScenarioTree, unit: ThermalUnit,
                  unit_index: int):
    """Bang-bang plant subproblem: run flat out where lam beats the fuel cost.

    Returns ``(value, dispatch)`` with ties (zero margin) resolved to no
    production.
    """
    coef = tree.prob[:, None] * unit.cost - tree.cells(lam)
    bound = (tree.thermal_programmed[:, unit_index:unit_index + 1]
             * unit.p_max * tree.durations)
    dispatch = np.where(coef < 0.0, bound, 0.0)
    return float((coef * dispatch).sum()), dispatch


def var_margin(unit: ThermalUnit, kap: float) -> float:
    """Relative availability margin rho; dispatch requires rho < 1."""
    if kap == 0.0:
        return 0.0
    if unit.alpha <= 0.0:
        return math.inf
    return kap * math.sqrt((1.0 - unit.alpha) / (unit.alpha * unit.n_groups))


def theta_thermal_var(lam: np.ndarray, tree: ScenarioTree, unit: ThermalUnit,
                      unit_index: int, kap: float):
    """Availability-robust plant subproblem.

    The profit margin of a cell is discounted by the outage dispersion
    of the plant: production happens only where lam beats the fuel cost
    AND alpha > kap^2 / (kap^2 + n), i.e. rho < 1.  Returns ``(value,
    dispatch, effective_factor)`` where the effective factor ``1 - rho``
    converts commanded energy into the energy the demand balance can
    count on (the supergradient uses that).  kap = 0 reproduces
    ``theta_thermal`` exactly.
    """
    if kap < 0.0:
        raise ValueError("kappa must be nonnegative")
    if kap == 0.0:
        value, dispatch = theta_thermal(lam, tree, unit, unit_index)
        return value, dispatch, 1.0
    rho = var_margin(unit, kap)
    if rho >= 1.0:
        z = np.zeros((tree.num_nodes, tree.num_posts))
        return 0.0, z, 0.0
    value, dispatch = theta_thermal(lam, tree, unit, unit_index)
    return (1.0 - rho) * value, dispatch, 1.0 - rho


# -------------------------------------------------------------- hydro

@dataclass
class HydroDual:
    value: float
    release: np.ndarray     # (N, L) MWh
    spill: np.ndarray       # (N,) MWh per day
    terminal: np.ndarray    # stock after each leaf day, tree.leaves order


def hydro_value_functions(lam: np.ndarray, tree: ScenarioTree,
                          unit: HydroUnit, h: int):
    """Backward pass: exact concave value-to-go of stock at each node.

    ``W[i]`` values stock entering node i's day; ``G[i]`` values stock
    left at the end of it (sum of sons' W, or the probability-weighted
    terminal value at leaves).  One day is a supremal convolution of
    the post offers (slope lam, width = release capacity) with the
    monotone hull of G (surplus water can always be spilled), computed
    by ``pwl.offer_hull_clip``.  Only live posts make offers: those
    with a positive price and capacity, marked in the returned ``live``.
    Returns ``(W, G, prices, caps, a, live)``.
    """
    prices = tree.cells(lam)
    caps = tree.hydro_programmed[:, h:h + 1] * unit.p_max * tree.durations
    a = tree.inflows[h].sum(axis=1)
    live = (prices > 0.0) & (caps > 0.0)
    # node i's offers, in post order, are entries bounds[i]:bounds[i + 1]
    bounds = [0] + np.cumsum(live.sum(axis=1)).tolist()
    offer_s, offer_w = prices[live], caps[live]
    vh = pwl.clip(pwl.from_breakpoints([p[0] for p in unit.value_points],
                                       [p[1] for p in unit.value_points]),
                  unit.x_min, unit.x_max)
    lo, hi = (unit.x_min + a).tolist(), (unit.x_max + a).tolist()
    N = tree.num_nodes
    W: list = [None] * N
    G: list = [None] * N
    for i in range(N - 1, -1, -1):
        sons = tree.sons[i]
        if sons.size == 0:
            G[i] = pwl.scale(vh, tree.prob[i])
        else:
            G[i] = pwl.add_many([W[m] for m in sons])
        k0, k1 = bounds[i], bounds[i + 1]
        W[i] = pwl.offer_hull_clip(G[i], offer_s[k0:k1], offer_w[k0:k1],
                                   lo[i], hi[i], -a.item(i))
    return W, G, prices, caps, a, live


def theta_hydro(lam: np.ndarray, tree: ScenarioTree, unit: HydroUnit, h: int
                ) -> HydroDual:
    """Reservoir subproblem solved exactly by the concave-PWL recursion.

    Value is the infimum of ``-lam . release - terminal value`` over the
    water dynamics; the forward pass extracts one optimal plan, breaking
    price ties conservatively (store, then spill, then release in post
    order).
    """
    W, G, prices, caps, a, live = hydro_value_functions(lam, tree, unit, h)
    N, L = tree.num_nodes, tree.num_posts
    root = int(np.flatnonzero(tree.father_index < 0)[0])
    value = -float(W[root](unit.x0))

    # node i's outlets after its stock segments are entries
    # bounds[i]:bounds[i + 1] of the tails: spill (slope 0, label 1,
    # width set below), then the live posts (label 2 + p)
    tail_mask = np.concatenate((np.ones((N, 1), dtype=bool), live), axis=1)
    bounds = [0] + np.cumsum(tail_mask.sum(axis=1)).tolist()
    tail_s = np.concatenate((np.zeros((N, 1)), prices), axis=1)[tail_mask]
    tail_w = np.concatenate((np.zeros((N, 1)), caps), axis=1)[tail_mask]
    tail_l = np.broadcast_to(np.arange(1, L + 2), (N, L + 1))[tail_mask]
    release = np.zeros((N, L))
    spill = np.zeros(N)
    stock_in = [0.0] * N
    stock_in[root] = unit.x0
    a = a.tolist()
    terminal = {}
    for i in range(N):
        free = stock_in[i] + a[i] - unit.x_min
        g = G[i]
        k0, k1 = bounds[i], bounds[i + 1]
        slopes = np.concatenate((g.slopes, tail_s[k0:k1]))
        widths = np.concatenate((g.widths, tail_w[k0:k1]))
        widths[g.slopes.size] = max(free, 0.0)
        # labels: 0 = keep in stock, 1 = spill, 2 + p = release on post p;
        # they rise along the list, so a stable sort breaks ties by label
        labels = np.concatenate((np.zeros(g.slopes.size, dtype=int),
                                 tail_l[k0:k1]))
        order = (-slopes).argsort(kind="stable")
        amounts = widths[order]
        cum = amounts.cumsum()
        cut = int(cum.searchsorted(free, side="left"))
        if cut < amounts.size:
            prev = cum.item(cut - 1) if cut > 0 else 0.0
            amounts[cut] = max(free - prev, 0.0)
            amounts[cut + 1:] = 0.0
        taken = np.bincount(labels[order], weights=amounts, minlength=L + 2)
        z = unit.x_min + taken.item(0)
        spill[i] = taken[1]
        release[i] = taken[2:]
        sons = tree.sons[i]
        if sons.size == 0:
            terminal[i] = z
        else:
            for m in sons.tolist():
                stock_in[m] = z
    term = np.array([terminal[i] for i in tree.leaves])
    return HydroDual(value=value, release=release, spill=spill, terminal=term)


# ---------------------------------------------------------------- ejp

def ejp_value_table(lam: np.ndarray, tree: ScenarioTree,
                    contract: EjpContract):
    """Backward pass: value of each count of remaining contract days.

    ``best[i, x]`` values entering node i's day with x days left,
    ``cont[i, x]`` leaving it with x days left (sum of sons' best, or
    the probability-weighted terminal table at leaves); ``r[i]`` is the
    reward of using node i's day.  Returns ``(best, cont, r)``.
    """
    prices = tree.cells(lam)
    r = (prices * tree.durations).sum(axis=1) * contract.power
    J = contract.days
    vj = np.array(contract.value_table)
    N = tree.num_nodes
    best = np.empty((N, J + 1))
    cont = np.empty((N, J + 1))
    for i in range(N - 1, -1, -1):
        sons = tree.sons[i]
        if sons.size == 0:
            cont[i] = tree.prob[i] * vj
        else:
            cont[i] = best[sons].sum(axis=0)
        best[i] = cont[i]
        best[i, 1:] = np.maximum(cont[i, 1:], r[i] + cont[i, :-1])
    return best, cont, r


def theta_ejp(lam: np.ndarray, tree: ScenarioTree, contract: EjpContract):
    """Whole-day contract subproblem by integer DP over remaining days.

    Returns ``(value, on)`` with ``on[i]`` in {0, 1}; ties go to not
    using the day.
    """
    best, cont, r = ejp_value_table(lam, tree, contract)
    J = contract.days
    N = tree.num_nodes
    root = int(np.flatnonzero(tree.father_index < 0)[0])
    on = np.zeros(N, dtype=int)
    remaining = np.empty(N, dtype=int)
    remaining[root] = J
    for i in range(N):
        x = remaining[i]
        if x >= 1 and r[i] + cont[i, x - 1] > cont[i, x]:
            on[i] = 1
        sons = tree.sons[i]
        if sons.size > 0:
            remaining[sons] = x - on[i]
    return -float(best[root, J]), on


# ------------------------------------------------------------ assembly

def default_multiplier(tree: ScenarioTree, units: UnitSet) -> np.ndarray:
    """Probability-weighted median fuel cost: a sane starting point."""
    costs = sorted(u.cost for u in units.thermal)
    med = costs[len(costs) // 2] if costs else 0.0
    return np.repeat(tree.prob * med, tree.num_posts)


def evaluate_dual(lam: np.ndarray, tree: ScenarioTree, units: UnitSet,
                  mode: RunMode = RunMode(),
                  cov: CovarianceModel | None = None) -> DualEvaluation:
    """Value, supergradient and dispatch of the (robust) dual at ``lam``."""
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.size != tree.dim:
        raise ValueError(f"multiplier length {lam.size} != {tree.dim}")
    N, L = tree.num_nodes, tree.num_posts
    U, H, K = units.num_thermal, units.num_hydro, units.num_ejp

    kap_d = mode.kappa_demand()
    if mode.robust_demand and kap_d > 0.0:
        if cov is None:
            raise ValueError("robust demand mode needs a covariance model")
        th_d, grad = theta_demand_robust(lam, cov, kap_d)
    else:
        th_d, grad = theta_demand(lam, tree)
    supergradient = grad.astype(float, copy=True)

    kap_t = mode.kappa_thermal()
    th_t = 0.0
    t_dispatch = np.zeros((U, N, L))
    t_effective = np.zeros((U, N, L))
    for u, unit in enumerate(units.thermal):
        if mode.robust_thermal and kap_t > 0.0:
            val, disp, factor = theta_thermal_var(lam, tree, unit, u, kap_t)
        else:
            val, disp = theta_thermal(lam, tree, unit, u)
            factor = 1.0
        th_t += val
        t_dispatch[u] = disp
        t_effective[u] = factor * disp
        supergradient -= t_effective[u].ravel()

    th_h = 0.0
    h_release = np.zeros((H, N, L))
    h_spill = np.zeros((H, N))
    h_term = np.zeros((H, tree.leaves.size))
    for h, unit in enumerate(units.hydro):
        res = theta_hydro(lam, tree, unit, h)
        th_h += res.value
        h_release[h] = res.release
        h_spill[h] = res.spill
        h_term[h] = res.terminal
        supergradient -= res.release.ravel()

    th_j = 0.0
    ejp_on = np.zeros((K, N), dtype=int)
    for k, contract in enumerate(units.ejp):
        val, on = theta_ejp(lam, tree, contract)
        th_j += val
        ejp_on[k] = on
        supergradient -= (on[:, None] * contract.power * tree.durations).ravel()

    theta = th_d + th_t + th_h + th_j
    return DualEvaluation(
        theta=theta, supergradient=supergradient,
        components={"demand": th_d, "thermal": th_t, "hydro": th_h,
                    "ejp": th_j},
        thermal_dispatch=t_dispatch, thermal_effective=t_effective,
        hydro_release=h_release, hydro_spill=h_spill, hydro_terminal=h_term,
        ejp_on=ejp_on)


def dual_oracle(tree: ScenarioTree, units: UnitSet, mode: RunMode,
                cov: CovarianceModel | None = None):
    """Closure ``lam -> DualEvaluation`` for the maximizer."""
    if mode.robust_demand and mode.kappa_demand() > 0.0 and cov is None:
        cov = calibrate_tree_covariance(tree)
    def oracle(lam: np.ndarray) -> DualEvaluation:
        return evaluate_dual(lam, tree, units, mode, cov)
    return oracle
