"""Dual oracle checks: brute-force cross-checks and structural identities."""

import itertools
import math

import numpy as np
import pytest

from varsched import pwl
from varsched.oracles import (
    RunMode, calibrate_tree_covariance, default_multiplier, dual_oracle,
    evaluate_dual, hydro_value_functions, theta_ejp, theta_hydro,
    theta_thermal, theta_thermal_var, var_margin)
from varsched.reference import solve_primal_reference
from varsched.tree import Node, ScenarioTree
from varsched.units import EjpContract, HydroUnit, ThermalUnit, UnitSet

from conftest import chain_tree, small_synth, small_unit_set


def binary_tree(depth, num_posts=1, rng=None, num_thermal=1, num_hydro=1,
                inflow_max=0):
    """Full binary tree with uniform demand; integer inflows when asked."""
    rng = np.random.default_rng(0) if rng is None else rng
    L = num_posts
    nodes, prev, counter = [], [None], 0
    for t in range(depth):
        cur = []
        width = 1 if t == 0 else 2
        for f in prev:
            for _ in range(width):
                if inflow_max:
                    inflows = rng.integers(0, inflow_max + 1,
                                           (num_hydro, L)).astype(float)
                else:
                    inflows = np.zeros((num_hydro, L))
                nodes.append(Node(
                    id=counter, time=t, father=f,
                    trans_prob=1.0 if t == 0 else 0.5,
                    durations=np.full(L, 8.0),
                    demand=rng.uniform(0.0, 100.0, L),
                    inflows=inflows,
                    thermal_programmed=np.ones(num_thermal),
                    hydro_programmed=np.ones(num_hydro)))
                cur.append(counter)
                counter += 1
        prev = cur
    return ScenarioTree(nodes, num_posts=L)


# ------------------------------------------------------------- thermal


def test_thermal_value_matches_grid_search():
    rng = np.random.default_rng(7)
    tree = binary_tree(3, num_posts=2, rng=rng)
    unit = ThermalUnit("t", 13.7, 55.0, 4, 0.87)
    bound = tree.thermal_programmed[:, 0:1] * unit.p_max * tree.durations
    grid = np.linspace(0.0, 1.0, 257)
    for _ in range(20):
        lam = np.repeat(tree.prob, 2) * rng.uniform(-10.0, 40.0, tree.dim)
        val, disp = theta_thermal(lam, tree, unit, 0)
        coef = tree.prob[:, None] * unit.cost - tree.cells(lam)
        brute = (coef[..., None] * (bound[..., None] * grid)).min(axis=2).sum()
        assert abs(val - brute) <= 1e-8 * (1.0 + abs(brute))
        # dispatch is all-or-nothing at the cell bound
        assert np.all((disp == 0.0) | (disp == bound))


def test_thermal_var_matches_discounted_grid_search():
    rng = np.random.default_rng(11)
    tree = binary_tree(3, num_posts=2, rng=rng)
    grid = np.linspace(0.0, 1.0, 257)
    for _ in range(10):
        unit = ThermalUnit("t", rng.uniform(5, 60), rng.uniform(20, 80),
                           int(rng.integers(1, 30)), rng.uniform(0.5, 0.99))
        kap = rng.uniform(0.1, 4.0)
        lam = np.repeat(tree.prob, 2) * rng.uniform(-10.0, 80.0, tree.dim)
        val, disp, factor = theta_thermal_var(lam, tree, unit, 0, kap)
        rho = var_margin(unit, kap)
        if rho >= 1.0:
            assert val == 0.0 and factor == 0.0 and not disp.any()
            continue
        bound = tree.thermal_programmed[:, 0:1] * unit.p_max * tree.durations
        coef = (1.0 - rho) * (tree.prob[:, None] * unit.cost - tree.cells(lam))
        brute = (coef[..., None] * (bound[..., None] * grid)).min(axis=2).sum()
        assert abs(val - brute) <= 1e-8 * (1.0 + abs(brute))
        assert factor == 1.0 - rho


def test_thermal_var_alpha_threshold():
    # rho = kap * sqrt((1-a)/(a n)) reaches 1 exactly at a = kap^2/(kap^2+n):
    # the plant is then too dispersed to promise anything.
    tree = chain_tree([[100.0]], durations=(8.0,))
    at_threshold = ThermalUnit("edge", 10.0, 50.0, 1, 0.5)
    assert var_margin(at_threshold, 1.0) == 1.0
    lam = np.array([30.0])  # fuel margin favourable, availability not
    val, disp, factor = theta_thermal_var(lam, tree, at_threshold, 0, 1.0)
    assert val == 0.0 and factor == 0.0 and not disp.any()

    just_above = ThermalUnit("edge", 10.0, 50.0, 1, 0.9)
    val, disp, factor = theta_thermal_var(lam, tree, just_above, 0, 2.0)
    assert disp[0, 0] == 400.0 and factor == pytest.approx(1.0 - 2.0 / 3.0)


def test_thermal_var_zero_kappa_delegates():
    rng = np.random.default_rng(3)
    tree = binary_tree(3, num_posts=2, rng=rng)
    unit = ThermalUnit("t", 21.0, 40.0, 6, 0.8)
    lam = np.repeat(tree.prob, 2) * rng.uniform(-5.0, 50.0, tree.dim)
    v0, d0 = theta_thermal(lam, tree, unit, 0)
    v1, d1, factor = theta_thermal_var(lam, tree, unit, 0, 0.0)
    assert v1 == v0 and factor == 1.0
    np.testing.assert_array_equal(d1, d0)


def test_thermal_var_negative_kappa_rejected():
    tree = chain_tree([[10.0]], durations=(8.0,))
    unit = ThermalUnit("t", 10.0, 20.0, 2, 0.9)
    with pytest.raises(ValueError):
        theta_thermal_var(np.array([5.0]), tree, unit, 0, -0.5)


def test_var_margin_values():
    assert var_margin(ThermalUnit("a", 1.0, 1.0, 9, 0.5), 3.0) == pytest.approx(1.0)
    assert var_margin(ThermalUnit("b", 1.0, 1.0, 1, 0.5), 1.0) == pytest.approx(1.0)
    assert var_margin(ThermalUnit("c", 1.0, 1.0, 4, 0.99), 2.0) == pytest.approx(
        2.0 * math.sqrt(0.01 / (0.99 * 4)))
    assert var_margin(ThermalUnit("d", 1.0, 1.0, 3, 0.9), 0.0) == 0.0


# --------------------------------------------------------------- hydro


def grid_hydro_dp(tree, unit, lam, h=0):
    """Stock DP on a 1 MWh grid; exact when bounds, caps and inflows are
    integers because every breakpoint of the true value function is one."""
    prices = tree.cells(lam)
    caps = tree.hydro_programmed[:, h:h + 1] * unit.p_max * tree.durations
    a = tree.inflows[h].sum(axis=1)
    stocks = np.arange(unit.x_min, unit.x_max + 0.5)
    N, L = prices.shape
    W = [None] * N
    for i in range(N - 1, -1, -1):
        sons = tree.sons[i]
        if sons.size == 0:
            G = tree.prob[i] * np.array([unit.terminal_value(s) for s in stocks])
        else:
            G = np.sum([W[m] for m in sons], axis=0)
        ranges = [np.arange(0.0, caps[i, p] + 0.5) for p in range(L)]
        Wi = np.full(stocks.size, -np.inf)
        for combo in itertools.product(*ranges):
            total = sum(combo)
            revenue = float(prices[i] @ np.asarray(combo))
            for si, s in enumerate(stocks):
                z = s + a[i] - total
                if z < unit.x_min - 1e-9:
                    continue
                z = min(z, unit.x_max)  # surplus spills
                value = revenue + G[int(round(z - unit.x_min))]
                if value > Wi[si]:
                    Wi[si] = value
        W[i] = Wi
    root = int(np.flatnonzero(tree.father_index < 0)[0])
    return -W[root][int(round(unit.x0 - unit.x_min))]


def replay_hydro(tree, unit, lam, plan, h=0):
    """Walk the extracted plan: feasibility plus its own objective value."""
    prices = tree.cells(lam)
    caps = tree.hydro_programmed[:, h:h + 1] * unit.p_max * tree.durations
    a = tree.inflows[h].sum(axis=1)
    z = np.empty(tree.num_nodes)
    payoff = 0.0
    for i in range(tree.num_nodes):
        f = tree.father_index[i]
        before = unit.x0 if f < 0 else z[f]
        assert (plan.release[i] >= -1e-9).all()
        assert (plan.release[i] <= caps[i] + 1e-9).all()
        assert plan.spill[i] >= -1e-9
        z[i] = before + a[i] - plan.release[i].sum() - plan.spill[i]
        assert unit.x_min - 1e-6 <= z[i] <= unit.x_max + 1e-6
        payoff += float(prices[i] @ plan.release[i])
    for j, leaf in enumerate(tree.leaves):
        assert plan.terminal[j] == pytest.approx(z[leaf], abs=1e-6)
        payoff += tree.prob[leaf] * unit.terminal_value(z[leaf])
    return -payoff


def random_hydro_unit(rng, x_max):
    """Integer-breakpoint reservoir with a concave two-piece terminal value."""
    knee = int(rng.integers(1, x_max))
    s1, s2 = sorted(rng.integers(1, 6, 2))[::-1]
    points = ((0.0, 0.0), (float(knee), float(s1 * knee)),
              (float(x_max), float(s1 * knee + s2 * (x_max - knee))))
    x0 = float(rng.integers(0, x_max + 1))
    p_max = float(rng.choice([0.25, 0.5]))  # 8 h posts: caps of 2 or 4 MWh
    return HydroUnit("r", 0.0, float(x_max), x0, p_max, points)


def test_hydro_two_day_hand_case():
    # day prices 5 then 1 against a terminal slope of 2: release the full
    # 4 MWh cap on day one, hold the rest.
    tree = chain_tree([[0.0], [0.0]], durations=(1.0,))
    unit = HydroUnit("r", 0.0, 10.0, 5.0, 4.0, ((0.0, 0.0), (10.0, 20.0)))
    plan = theta_hydro(np.array([5.0, 1.0]), tree, unit, 0)
    assert plan.value == pytest.approx(-22.0)
    np.testing.assert_allclose(plan.release, [[4.0], [0.0]])
    np.testing.assert_allclose(plan.spill, [0.0, 0.0])
    np.testing.assert_allclose(plan.terminal, [1.0])


def test_hydro_spills_only_when_full():
    tree = chain_tree([[0.0]], durations=(1.0,),
                      inflow_rows=[[[5.0]]])
    unit = HydroUnit("r", 0.0, 10.0, 10.0, 2.0, ((0.0, 0.0), (10.0, 20.0)))
    plan = theta_hydro(np.array([1.0]), tree, unit, 0)
    # inflow 5 on a full reservoir: sell the 2 MWh the turbine allows,
    # keep the stock at the rim, spill the remaining 3
    assert plan.value == pytest.approx(-22.0)
    np.testing.assert_allclose(plan.release, [[2.0]])
    np.testing.assert_allclose(plan.spill, [3.0])
    np.testing.assert_allclose(plan.terminal, [10.0])


def test_hydro_post_price_ties_resolve_in_post_order():
    tree = chain_tree([[0.0, 0.0]], durations=(1.0, 1.0))
    unit = HydroUnit("r", 0.0, 10.0, 4.0, 3.0,
                     ((0.0, 0.0), (10.0, 0.0)))
    plan = theta_hydro(np.array([2.0, 2.0]), tree, unit, 0)
    np.testing.assert_allclose(plan.release, [[3.0, 1.0]])
    assert plan.value == pytest.approx(-8.0)


def test_hydro_matches_grid_dp():
    rng = np.random.default_rng(19)
    for trial in range(12):
        tree = binary_tree(3, num_posts=2, rng=rng, inflow_max=3)
        x_max = int(rng.integers(6, 14))
        unit = random_hydro_unit(rng, x_max)
        lam = rng.uniform(-1.0, 6.0, tree.dim) * np.repeat(tree.prob, 2)
        plan = theta_hydro(lam, tree, unit, 0)
        brute = grid_hydro_dp(tree, unit, lam)
        assert plan.value == pytest.approx(brute, rel=1e-9, abs=1e-7)
        assert replay_hydro(tree, unit, lam, plan) == pytest.approx(
            plan.value, rel=1e-9, abs=1e-7)


def test_hydro_chain_matches_grid_dp():
    rng = np.random.default_rng(23)
    for trial in range(6):
        T = int(rng.integers(2, 6))
        inflows = [[[float(rng.integers(0, 4))]] for _ in range(T)]
        tree = chain_tree([[0.0]] * T, durations=(8.0,), inflow_rows=inflows)
        unit = random_hydro_unit(rng, int(rng.integers(5, 12)))
        lam = rng.uniform(-1.0, 6.0, tree.dim)
        plan = theta_hydro(lam, tree, unit, 0)
        assert plan.value == pytest.approx(grid_hydro_dp(tree, unit, lam),
                                           rel=1e-9, abs=1e-7)


def composed_value_functions(lam, tree, unit, h=0):
    """The backward pass as a chain of ``pwl`` calls: per node the monotone
    hull, one offer per live post, supremal convolution, clip and shift."""
    prices = tree.cells(lam)
    caps = tree.hydro_programmed[:, h:h + 1] * unit.p_max * tree.durations
    a = tree.inflows[h].sum(axis=1)
    vh = pwl.clip(pwl.from_breakpoints([p[0] for p in unit.value_points],
                                       [p[1] for p in unit.value_points]),
                  unit.x_min, unit.x_max)
    W, G = [None] * tree.num_nodes, [None] * tree.num_nodes
    for i in range(tree.num_nodes - 1, -1, -1):
        sons = tree.sons[i]
        if sons.size == 0:
            G[i] = pwl.scale(vh, tree.prob[i])
        else:
            G[i] = pwl.add_many([W[m] for m in sons])
        hull = pwl.monotone_hull(G[i], unit.x_max + a[i])
        offers = [pwl.ConcavePwl(0.0, 0.0, prices[i, p:p + 1], caps[i, p:p + 1])
                  for p in range(tree.num_posts)
                  if prices[i, p] > 0.0 and caps[i, p] > 0.0]
        day = pwl.sup_conv(offers + [hull])
        W[i] = pwl.shift_x(pwl.clip(day, unit.x_min + a[i],
                                    unit.x_max + a[i]), -a[i])
    return W, G


def composed_plan(lam, tree, unit, h=0):
    """The forward pass over the composed recursion, ties broken by
    ``np.lexsort`` on (slope, label): stock, then spill, then posts."""
    W, G = composed_value_functions(lam, tree, unit, h)
    prices = tree.cells(lam)
    caps = tree.hydro_programmed[:, h:h + 1] * unit.p_max * tree.durations
    a = tree.inflows[h].sum(axis=1)
    N, L = tree.num_nodes, tree.num_posts
    root = int(np.flatnonzero(tree.father_index < 0)[0])
    release, spill = np.zeros((N, L)), np.zeros(N)
    stock_in = np.empty(N)
    stock_in[root] = unit.x0
    terminal = {}
    for i in range(N):
        free = stock_in[i] + a[i] - unit.x_min
        posts = [p for p in range(L) if prices[i, p] > 0.0 and caps[i, p] > 0.0]
        slopes = np.concatenate((G[i].slopes, [0.0], prices[i, posts]))
        widths = np.concatenate((G[i].widths, [max(free, 0.0)], caps[i, posts]))
        labels = np.concatenate((np.zeros(G[i].slopes.size, dtype=int), [1],
                                 2 + np.asarray(posts, dtype=int)))
        order = np.lexsort((labels, -slopes))
        amounts = widths[order].copy()
        cum = np.cumsum(amounts)
        cut = int(np.searchsorted(cum, free, side="left"))
        if cut < amounts.size:
            amounts[cut] = max(free - (cum[cut - 1] if cut > 0 else 0.0), 0.0)
            amounts[cut + 1:] = 0.0
        taken = np.bincount(labels[order], weights=amounts, minlength=L + 2)
        spill[i], release[i] = taken[1], taken[2:]
        z = unit.x_min + taken[0]
        if tree.sons[i].size == 0:
            terminal[i] = z
        stock_in[tree.sons[i]] = z
    term = np.array([terminal[i] for i in tree.leaves])
    return -float(W[root](unit.x0)), release, spill, term


def hydro_case(kind, rng):
    """(tree, unit, lam) for one shape the recursion branches on."""
    L = 3
    if kind == "chain":
        T = int(rng.integers(3, 8))
        inflows = [rng.uniform(0.0, 3.0, (1, L)) for _ in range(T)]
        tree = chain_tree([[0.0] * L] * T, durations=(8.0, 4.0, 12.0),
                          inflow_rows=inflows)
    else:
        tree = binary_tree(4, num_posts=L, rng=rng, inflow_max=3)
    unit = random_hydro_unit(rng, int(rng.integers(6, 14)))
    weights = np.repeat(tree.prob, L)
    lam = rng.uniform(-1.0, 6.0, tree.dim) * weights
    if kind == "ties":
        # integer prices tie across posts and with the terminal slopes;
        # the flat last piece leaves a zero slope for the hull to drop
        lam = np.repeat(rng.integers(-1, 5, tree.num_nodes), L) * weights
        knee = unit.value_points[1]
        unit = HydroUnit("r", 0.0, unit.x_max, unit.x0, unit.p_max,
                         ((0.0, 0.0), knee, (unit.x_max, knee[1])))
    elif kind == "zero_caps":
        for n in tree.nodes:
            if rng.random() < 0.4:
                n.hydro_programmed = np.zeros(1)
        tree = ScenarioTree(tree.nodes, num_posts=L)
    elif kind == "floor":
        unit = HydroUnit("r", 2.0, unit.x_max, max(unit.x0, 2.0), unit.p_max,
                         unit.value_points)
    elif kind == "irregular":
        # no integer grid: rounding shows if sums change order or length
        for n in tree.nodes:
            n.inflows = rng.uniform(0.0, 3.0, (1, L))
        tree = ScenarioTree(tree.nodes, num_posts=L)
        x_max = float(rng.uniform(6.0, 14.0))
        knee = float(rng.uniform(1.0, x_max - 1.0))
        s1, s2 = sorted(rng.uniform(0.5, 5.0, 2))[::-1]
        unit = HydroUnit("r", 0.0, x_max, float(rng.uniform(0.0, x_max)),
                         float(rng.uniform(0.1, 0.6)),
                         ((0.0, 0.0), (knee, s1 * knee),
                          (x_max, s1 * knee + s2 * (x_max - knee))))
    elif kind == "full":
        unit = HydroUnit("r", unit.x_min, unit.x_max, unit.x_max, unit.p_max,
                         unit.value_points)
        lam = np.abs(lam) * 0.1
    return tree, unit, lam


HYDRO_KINDS = ("binary", "chain", "ties", "zero_caps", "floor", "full",
               "irregular")


@pytest.mark.parametrize("kind", HYDRO_KINDS)
def test_fused_hydro_recursion_equals_pwl_composition(kind):
    rng = np.random.default_rng(HYDRO_KINDS.index(kind))
    for trial in range(8):
        tree, unit, lam = hydro_case(kind, rng)
        W, G = hydro_value_functions(lam, tree, unit, 0)[:2]
        W_ref, G_ref = composed_value_functions(lam, tree, unit)
        for got, want in zip(W + G, W_ref + G_ref):
            assert got.x0 == want.x0 and got.y0 == want.y0
            assert np.array_equal(got.slopes, want.slopes)
            assert np.array_equal(got.widths, want.widths)
        plan = theta_hydro(lam, tree, unit, 0)
        value, release, spill, terminal = composed_plan(lam, tree, unit)
        assert plan.value == value
        assert np.array_equal(plan.release, release)
        assert np.array_equal(plan.spill, spill)
        assert np.array_equal(plan.terminal, terminal)


# ----------------------------------------------------------------- ejp


def brute_ejp(tree, contract, lam):
    """Exhaustive search over day subsets, feasible along every path."""
    prices = tree.cells(lam)
    r = (prices * tree.durations).sum(axis=1) * contract.power
    vj = np.asarray(contract.value_table, dtype=float)
    J = contract.days
    N = tree.num_nodes
    path_masks = []
    for leaf in tree.leaves:
        mask, i = 0, leaf
        while i >= 0:
            mask |= 1 << i
            i = tree.father_index[i]
        path_masks.append((leaf, mask))
    idx = np.arange(N)
    best = -math.inf
    for mask in range(1 << N):
        used = [(mask & pm).bit_count() for _, pm in path_masks]
        if max(used) > J:
            continue
        value = float(r[(mask >> idx) & 1 == 1].sum())
        value += sum(tree.prob[leaf] * vj[J - u]
                     for (leaf, _), u in zip(path_masks, used))
        best = max(best, value)
    return best


def test_ejp_three_day_hand_case():
    tree = chain_tree([[0.0]] * 3, durations=(1.0,))
    contract = EjpContract("c", 1, 10.0, (0.0, 50.0))
    value, on = theta_ejp(np.array([2.0, 7.0, 4.0]), tree, contract)
    # day two earns 70, beating the 50 of never calling the contract
    assert value == pytest.approx(-70.0)
    np.testing.assert_array_equal(on, [0, 1, 0])


def test_ejp_tie_prefers_off():
    tree = chain_tree([[0.0]] * 3, durations=(1.0,))
    contract = EjpContract("c", 1, 10.0, (0.0, 40.0))
    value, on = theta_ejp(np.array([2.0, 4.0, 4.0]), tree, contract)
    # calling the best day earns exactly the keep-it value: stay off
    assert value == pytest.approx(-40.0)
    np.testing.assert_array_equal(on, [0, 0, 0])


def test_ejp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(31)
    for trial in range(8):
        tree = binary_tree(3, num_posts=2, rng=rng)
        J = int(rng.integers(1, 3))
        table = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 60.0, J))))
        contract = EjpContract("c", J, float(rng.uniform(1.0, 5.0)),
                               tuple(table))
        lam = rng.uniform(-2.0, 4.0, tree.dim) * np.repeat(tree.prob, 2)
        value, on = theta_ejp(lam, tree, contract)
        assert -value == pytest.approx(brute_ejp(tree, contract, lam),
                                       rel=1e-9, abs=1e-9)


def test_ejp_depth_four_two_days():
    rng = np.random.default_rng(37)
    tree = binary_tree(4, num_posts=2, rng=rng)
    contract = EjpContract("c", 2, 3.0, (0.0, 25.0, 45.0))
    lam = rng.uniform(-2.0, 4.0, tree.dim) * np.repeat(tree.prob, 2)
    value, on = theta_ejp(lam, tree, contract)
    assert -value == pytest.approx(brute_ejp(tree, contract, lam),
                                   rel=1e-9, abs=1e-9)
    # the returned plan must be feasible along every path
    for leaf in tree.leaves:
        used, i = 0, leaf
        while i >= 0:
            used += on[i]
            i = tree.father_index[i]
        assert used <= contract.days


# ------------------------------------------------------------ assembly


def test_default_multiplier_prices_at_median_cost(units3):
    tree = chain_tree([[100.0, 50.0, 80.0]])
    lam = default_multiplier(tree, units3)
    np.testing.assert_allclose(lam, [28.0, 28.0, 28.0])  # gas is the median


def test_covariance_calibration_rows(units3):
    from varsched.risk import calibrate_sigma

    tree, _ = small_synth(units3)
    cov = calibrate_tree_covariance(tree)
    np.testing.assert_array_equal(cov.d_bar, tree.demand_vector())
    for idx in tree.nodes_at_time:
        for p in range(tree.num_posts):
            if idx.size == 1:
                e = np.zeros(tree.dim)
                e[idx[0] * tree.num_posts + p] = 1.0
                assert cov.quad(e) == 0.0
            else:
                sig = calibrate_sigma(tree.demand[idx, p])
                for pos, node in enumerate(idx):
                    e = np.zeros(tree.dim)
                    e[node * tree.num_posts + p] = 1.0
                    assert math.sqrt(cov.quad(e)) == pytest.approx(
                        sig[pos], abs=1e-9)


def test_evaluate_components_and_shapes():
    units = small_unit_set(with_ejp=True)
    tree, _ = small_synth(units)
    lam = default_multiplier(tree, units)
    ev = evaluate_dual(lam, tree, units)
    assert set(ev.components) == {"demand", "thermal", "hydro", "ejp"}
    assert ev.theta == pytest.approx(sum(ev.components.values()), rel=1e-12)
    N, L = tree.num_nodes, tree.num_posts
    assert ev.thermal_dispatch.shape == (3, N, L)
    assert ev.hydro_release.shape == (1, N, L)
    assert ev.hydro_terminal.shape == (1, tree.leaves.size)
    assert ev.ejp_on.shape == (1, N)


@pytest.mark.parametrize("kind", ["nominal", "var_benef"])
def test_evaluate_supergradient_identity(kind):
    units = small_unit_set(with_ejp=True)
    tree, _ = small_synth(units)
    rng = np.random.default_rng(41)
    mode = RunMode(kind=kind)
    for _ in range(5):
        lam = np.repeat(tree.prob, tree.num_posts) * rng.uniform(
            0.0, 60.0, tree.dim)
        ev = evaluate_dual(lam, tree, units, mode)
        expected = tree.demand_vector().copy()
        expected -= ev.thermal_effective.sum(axis=0).ravel()
        expected -= ev.hydro_release.sum(axis=0).ravel()
        for k, contract in enumerate(units.ejp):
            expected -= (ev.ejp_on[k][:, None] * contract.power
                         * tree.durations).ravel()
        np.testing.assert_allclose(ev.supergradient, expected, atol=1e-9)


def test_evaluate_effective_scales_commanded_dispatch():
    units = small_unit_set()
    tree, _ = small_synth(units)
    mode = RunMode(kind="var_benef")
    kap = mode.kappa_thermal()
    lam = np.repeat(tree.prob, tree.num_posts) * 70.0
    ev = evaluate_dual(lam, tree, units, mode)
    for u, unit in enumerate(units.thermal):
        rho = var_margin(unit, kap)
        factor = 0.0 if rho >= 1.0 else 1.0 - rho
        np.testing.assert_allclose(ev.thermal_effective[u],
                                   factor * ev.thermal_dispatch[u])


def test_evaluate_rejects_bad_input(units3):
    tree, _ = small_synth(units3)
    with pytest.raises(ValueError, match="multiplier length"):
        evaluate_dual(np.zeros(tree.dim + 1), tree, units3)
    with pytest.raises(ValueError, match="covariance"):
        evaluate_dual(np.zeros(tree.dim), tree, units3, RunMode(kind="var_fa"))


def test_dual_oracle_autocalibrates_demand_covariance(units3):
    tree, _ = small_synth(units3)
    oracle = dual_oracle(tree, units3, RunMode(kind="var_fa"))
    lam = default_multiplier(tree, units3)
    ev = oracle(lam)
    manual = evaluate_dual(lam, tree, units3, RunMode(kind="var_fa"),
                           cov=calibrate_tree_covariance(tree))
    assert ev.theta == manual.theta
    np.testing.assert_array_equal(ev.supergradient, manual.supergradient)


def test_weak_duality_random_multipliers(small_instance):
    tree, _, units = small_instance
    sol = solve_primal_reference(tree, units)
    assert sol.ok
    rng = np.random.default_rng(43)
    for _ in range(20):
        lam = np.repeat(tree.prob, tree.num_posts) * rng.uniform(
            0.0, 80.0, tree.dim)
        ev = evaluate_dual(lam, tree, units)
        assert ev.theta <= sol.cost + 1e-6 * (1.0 + abs(sol.cost))


def test_supergradient_inequality_all_modes():
    units = small_unit_set(with_ejp=True)
    tree, _ = small_synth(units)
    cov = calibrate_tree_covariance(tree)
    rng = np.random.default_rng(47)
    scale = np.repeat(tree.prob, tree.num_posts)
    for kind in ("nominal", "var_fa", "var_benef", "mixt"):
        mode = RunMode(kind=kind)
        for _ in range(12):
            lam = scale * rng.uniform(-20.0, 80.0, tree.dim)
            mu = scale * rng.uniform(-20.0, 80.0, tree.dim)
            ev = evaluate_dual(lam, tree, units, mode, cov)
            ev2 = evaluate_dual(mu, tree, units, mode, cov)
            bound = ev.theta + ev.supergradient @ (mu - lam)
            assert ev2.theta <= bound + 1e-7 * (1.0 + abs(ev2.theta))


def test_concavity_along_segments():
    units = small_unit_set(with_ejp=True)
    tree, _ = small_synth(units)
    cov = calibrate_tree_covariance(tree)
    rng = np.random.default_rng(53)
    scale = np.repeat(tree.prob, tree.num_posts)
    for kind in ("nominal", "var_fa", "var_benef", "mixt"):
        mode = RunMode(kind=kind)
        lam = scale * rng.uniform(0.0, 60.0, tree.dim)
        mu = scale * rng.uniform(0.0, 60.0, tree.dim)
        va = evaluate_dual(lam, tree, units, mode, cov).theta
        vb = evaluate_dual(mu, tree, units, mode, cov).theta
        for t in (0.25, 0.5, 0.75):
            mid = evaluate_dual(t * lam + (1 - t) * mu, tree, units,
                                mode, cov).theta
            assert mid >= t * va + (1 - t) * vb - 1e-7 * (1.0 + abs(mid))


def test_mode_value_ordering():
    # at any multiplier: shrinking guaranteed demand revenue lowers the
    # dual, derating plant availability raises it (costlier primal)
    units = small_unit_set(with_ejp=True)
    tree, _ = small_synth(units)
    cov = calibrate_tree_covariance(tree)
    rng = np.random.default_rng(59)
    scale = np.repeat(tree.prob, tree.num_posts)
    for _ in range(10):
        lam = scale * rng.uniform(0.0, 60.0, tree.dim)
        th = {kind: evaluate_dual(lam, tree, units, RunMode(kind=kind),
                                  cov).theta
              for kind in ("nominal", "var_fa", "var_benef", "mixt")}
        tol = 1e-9 * (1.0 + abs(th["nominal"]))
        assert th["var_fa"] <= th["nominal"] + tol
        assert th["var_benef"] >= th["nominal"] - tol
        assert th["var_fa"] <= th["mixt"] + tol
        assert th["mixt"] <= th["var_benef"] + tol
