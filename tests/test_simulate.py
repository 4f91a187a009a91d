"""Value tables and Monte Carlo dispatch: hand cases and statistics."""

import numpy as np
import pytest

from varsched.oracles import default_multiplier, theta_ejp, theta_hydro
from varsched.simulate import (
    CostReport, compute_bellman, compute_bellman_ejp,
    compute_bellman_hydro, empirical_quantile, expected_frame,
    reservoir_week_stats, run_monte_carlo, simulate_scenario, week_runs)
from varsched.tree import Scenario
from varsched.units import EjpContract, HydroUnit, ThermalUnit, UnitSet

from conftest import chain_tree, small_synth


# ---------------------------------------------------------- value tables


def test_hydro_table_hand_case():
    # prices 5 then 1 against terminal slope 2 (the oracle's hand case):
    # day one is worth 2x + 3 min(x, 4), day two keeps everything
    tree = chain_tree([[0.0], [0.0]], durations=(1.0,))
    unit = HydroUnit("r", 0.0, 10.0, 5.0, 4.0, ((0.0, 0.0), (10.0, 20.0)))
    tb = compute_bellman_hydro(tree, np.array([5.0, 1.0]), unit, 0,
                               grid_size=11)
    grid = tb.grid
    np.testing.assert_allclose(tb.node_values[1], 2.0 * grid)
    np.testing.assert_allclose(tb.node_values[0],
                               2.0 * grid + 3.0 * np.minimum(grid, 4.0))
    # chain probabilities are 1: aggregated rows equal node rows
    np.testing.assert_allclose(tb.step_values[0], tb.node_values[0])


def test_hydro_table_agrees_with_exact_oracle():
    # the table samples the oracle's value functions: at any grid stock
    # x0 it reproduces the exact subproblem value, kinks between grid
    # points included (non-integer prices, inflows and knees)
    rng = np.random.default_rng(61)
    for _ in range(6):
        T = int(rng.integers(2, 5))
        inflows = [[[float(rng.uniform(0.0, 2.5))]] for _ in range(T)]
        tree = chain_tree([[0.0]] * T, durations=(8.0,), inflow_rows=inflows)
        x_max = int(rng.integers(6, 12))
        knee = float(rng.uniform(0.5, x_max - 0.5))
        unit = HydroUnit("r", 0.0, float(x_max), float(rng.integers(0, x_max)),
                         0.37, ((0.0, 0.0), (knee, 3.0 * knee),
                                (float(x_max), 3.0 * knee + (x_max - knee))))
        lam = rng.uniform(0.0, 6.0, tree.dim)
        tb = compute_bellman_hydro(tree, lam, unit, 0, grid_size=x_max + 1)
        plan = theta_hydro(lam, tree, unit, 0)
        j = int(round(unit.x0))
        assert tb.grid[j] == unit.x0
        assert tb.node_values[0][j] == pytest.approx(-plan.value,
                                                     rel=1e-9, abs=1e-7)


def test_hydro_table_rows_monotone_concave(units3):
    tree, _ = small_synth(units3)
    tb = compute_bellman_hydro(tree, default_multiplier(tree, units3),
                               units3.hydro[0], 0, grid_size=41)
    for row in tb.node_values:
        diffs = np.diff(row)
        assert (diffs >= -1e-7).all()                      # water never hurts
        assert (np.diff(diffs) <= 1e-6 * (1 + abs(row).max())).all()


def test_hydro_table_terminal_row_and_leaf_option_value(units3):
    tree, _ = small_synth(units3)
    unit = units3.hydro[0]
    tb = compute_bellman_hydro(tree, default_multiplier(tree, units3),
                               unit, 0, grid_size=21)
    # the row used after the final day is the bare terminal function
    assert tb.step_values.shape == (tree.num_days + 1, 21)
    np.testing.assert_array_equal(tb.continuation(tree.num_days - 1),
                                  unit.terminal_value(tb.grid))
    # water prices are each continuation row's slopes, clipped at zero
    for day in range(tree.num_days):
        row = tb.continuation(day)
        assert np.array_equal(tb.continuation_slopes(day), np.maximum(
            np.diff(row) / np.diff(tb.grid), 0.0))
    # leaf rows include the leaf day's release option on top of it
    for leaf in tree.leaves:
        assert (tb.node_values[leaf]
                >= unit.terminal_value(tb.grid) - 1e-9).all()


def test_ejp_table_hand_case():
    tree = chain_tree([[0.0]] * 3, durations=(1.0,))
    contract = EjpContract("c", 1, 10.0, (0.0, 50.0))
    lam = np.array([2.0, 7.0, 4.0])
    tb = compute_bellman_ejp(tree, lam, contract)
    value, _ = theta_ejp(lam, tree, contract)
    assert tb.node_values[0][1] == pytest.approx(-value)   # 70: day two
    assert tb.node_values[0][0] == 0.0
    np.testing.assert_array_equal(tb.grid, [0.0, 1.0])


# ------------------------------------------------------------- dispatch


def dispatch_units(slope=20.0):
    return UnitSet(
        thermal=[ThermalUnit("cheap", 10.0, 50.0, 2, 0.9),
                 ThermalUnit("dear", 40.0, 50.0, 2, 0.9)],
        hydro=[HydroUnit("res", 0.0, 1000.0, 400.0, 30.0,
                         ((0.0, 0.0), (1000.0, slope * 1000.0)))])


def one_day_setup(demand, slope=20.0, avail=1.0):
    units = dispatch_units(slope)
    tree = chain_tree([[demand]], durations=(10.0,), num_thermal=2)
    tables = compute_bellman(tree, np.zeros(tree.dim), units)
    scenario = Scenario(demand=np.array([[demand]]),
                        inflows=np.zeros((1, 1, 1)),
                        thermal_avail=np.full((2, 1), avail))
    return units, tree, tables, scenario


def test_dispatch_water_price_steers_merit_order():
    # water priced at its terminal slope 20 runs after the 10 F/MWh
    # plant and before the 40 F/MWh one
    units, tree, tables, scenario = one_day_setup(700.0, slope=20.0)
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    np.testing.assert_allclose(res.thermal_energy, [500.0, 0.0])
    np.testing.assert_allclose(res.stocks, [[400.0, 200.0]])
    assert res.fuel_cost == pytest.approx(5000.0)
    # credit for the 200 MWh left: cost = 5000 - 20 * 200
    assert res.terminal_credit == pytest.approx(20.0 * 200.0)
    assert res.cost == pytest.approx(1000.0)
    assert res.unserved_energy == 0.0


def test_dispatch_thermal_wins_price_ties():
    units, tree, tables, scenario = one_day_setup(400.0, slope=10.0)
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    np.testing.assert_allclose(res.thermal_energy, [400.0, 0.0])
    np.testing.assert_allclose(res.stocks, [[400.0, 400.0]])
    assert res.cost == pytest.approx(4000.0 - 4000.0)


def test_dispatch_sheds_load_only_when_empty():
    # water valued far above the shedding price must still serve before
    # any energy goes unserved
    units, tree, tables, scenario = one_day_setup(1500.0, slope=10000.0)
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    np.testing.assert_allclose(res.thermal_energy, [500.0, 500.0])
    np.testing.assert_allclose(res.stocks[0], [400.0, 100.0])
    assert res.unserved_energy == pytest.approx(200.0)
    assert res.unserved_cost == pytest.approx(200.0 * 10.0 * 40.0)


def test_dispatch_surplus_water_is_free():
    # reservoir at the rim plus inflow: the surplus tranche is priced 0,
    # undercutting every plant, and the stock clamps at the cap
    units = dispatch_units(slope=20.0)
    units = UnitSet(thermal=units.thermal,
                    hydro=[HydroUnit("res", 0.0, 1000.0, 1000.0, 30.0,
                                     ((0.0, 0.0), (1000.0, 20000.0)))])
    tree = chain_tree([[400.0]], durations=(10.0,), num_thermal=2)
    tables = compute_bellman(tree, np.zeros(tree.dim), units)
    scenario = Scenario(demand=np.array([[400.0]]),
                        inflows=np.full((1, 1, 1), 500.0),
                        thermal_avail=np.ones((2, 1)))
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    np.testing.assert_allclose(res.stocks, [[1000.0, 1000.0]])
    np.testing.assert_allclose(res.thermal_energy, [100.0, 0.0])
    assert res.fuel_cost == pytest.approx(1000.0)


def test_dispatch_availability_scales_capacity():
    units, tree, tables, scenario = one_day_setup(700.0, slope=20.0,
                                                  avail=0.5)
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    # both plants halved to 250 MWh; water (300 cap) fills the rest
    np.testing.assert_allclose(res.thermal_energy, [250.0, 150.0])
    np.testing.assert_allclose(res.stocks[0], [400.0, 100.0])


def ejp_setup(value_keep):
    units = UnitSet(
        thermal=[ThermalUnit("cheap", 10.0, 100.0, 2, 0.9)],
        ejp=[EjpContract("c", 1, 20.0, (0.0, value_keep))])
    tree = chain_tree([[800.0], [800.0]], durations=(10.0,), num_thermal=1)
    tables = compute_bellman(tree, np.zeros(tree.dim), units)
    scenario = Scenario(demand=np.full((2, 1), 800.0),
                        inflows=np.zeros((0, 2, 1)),
                        thermal_avail=np.ones((1, 2)))
    return units, tree, tables, scenario


def test_ejp_day_called_when_fuel_saving_beats_keep_value():
    # calling the 200 MWh contract day saves 2000 of fuel, worth more
    # than the 1500 keep-credit: use it on the first day
    units, tree, tables, scenario = ejp_setup(1500.0)
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    np.testing.assert_array_equal(res.ejp_remaining, [0])
    assert res.fuel_cost == pytest.approx(6000.0 + 8000.0)
    assert res.cost == pytest.approx(14000.0)


def test_ejp_day_kept_when_credit_wins():
    units, tree, tables, scenario = ejp_setup(2500.0)
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    np.testing.assert_array_equal(res.ejp_remaining, [1])
    assert res.fuel_cost == pytest.approx(16000.0)
    assert res.cost == pytest.approx(16000.0 - 2500.0)


@pytest.mark.parametrize("demand, remaining, fuel", [
    # contract a (200 MWh, keep 1500) saves 2000 and is called first;
    # with it on, b (300 MWh, keep 2500) saves only the 2000 left
    (400.0, [0, 1], 2000.0),
    # with a on, b still saves 3000 of the 600 MWh left: both called
    (800.0, [0, 0], 3000.0),
])
def test_two_contracts_decided_greedily_in_unit_order(demand, remaining, fuel):
    units = UnitSet(
        thermal=[ThermalUnit("cheap", 10.0, 100.0, 2, 0.9)],
        ejp=[EjpContract("a", 1, 20.0, (0.0, 1500.0)),
             EjpContract("b", 1, 30.0, (0.0, 2500.0))])
    tree = chain_tree([[demand]], durations=(10.0,), num_thermal=1)
    tables = compute_bellman(tree, np.zeros(tree.dim), units)
    scenario = Scenario(demand=np.array([[demand]]),
                        inflows=np.zeros((0, 1, 1)),
                        thermal_avail=np.ones((1, 1)))
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    np.testing.assert_array_equal(res.ejp_remaining, remaining)
    np.testing.assert_allclose(res.thermal_energy, [fuel / 10.0])
    assert res.fuel_cost == pytest.approx(fuel)
    credit = 2500.0 * remaining[1]
    assert res.terminal_credit == pytest.approx(credit)
    assert res.cost == pytest.approx(fuel - credit)


@pytest.mark.parametrize("keep, called, ends", [
    # calling the 100 MWh day spares a's lower band, worth 5000
    (4000.0, True, [200.0, 50.0]),
    # a keep-credit above 5000 keeps the day: both lakes hit their floors
    (6000.0, False, [100.0, 50.0]),
])
def test_dispatch_two_reservoirs_to_floors_on_contract_day(keep, called, ends):
    # upper bands (b at 2, a at 5) run before the 20 F/MWh plant, lower
    # bands (b at 40, a at 50) after it; without the contract the 500 MWh
    # take every band and the plant's 100 MWh
    units = UnitSet(
        thermal=[ThermalUnit("gas", 20.0, 10.0, 1, 0.9)],
        hydro=[HydroUnit("a", 100.0, 300.0, 300.0, 25.0,
                         ((100.0, 0.0), (200.0, 5000.0), (300.0, 5500.0))),
               HydroUnit("b", 50.0, 250.0, 250.0, 25.0,
                         ((50.0, 0.0), (150.0, 4000.0), (250.0, 4200.0)))],
        ejp=[EjpContract("peak", 1, 10.0, (0.0, keep))])
    tree = chain_tree([[500.0]], durations=(10.0,), num_thermal=1,
                      num_hydro=2)
    tables = compute_bellman(tree, np.zeros(tree.dim), units)
    scenario = Scenario(demand=np.array([[500.0]]),
                        inflows=np.zeros((2, 1, 1)),
                        thermal_avail=np.ones((1, 1)))
    res = simulate_scenario(scenario, expected_frame(tree), units, tables)
    np.testing.assert_array_equal(res.ejp_remaining, [0 if called else 1])
    np.testing.assert_allclose(res.stocks[:, 1], ends)
    np.testing.assert_allclose(res.thermal_energy, [100.0])
    assert res.fuel_cost == pytest.approx(2000.0)
    assert res.unserved_energy == 0.0
    credit = 5000.0 if called else keep
    assert res.terminal_credit == pytest.approx(credit)
    assert res.cost == pytest.approx(2000.0 - credit)


# ----------------------------------------------------------- statistics


def test_empirical_quantile_rank_semantics():
    xs = np.arange(1.0, 101.0)
    assert empirical_quantile(xs, 0.95) == 95.0
    assert empirical_quantile(xs, 0.951) == 96.0
    assert empirical_quantile(xs, 0.05) == 5.0
    assert empirical_quantile(xs, 1.0) == 100.0
    assert empirical_quantile(xs, 0.001) == 1.0
    assert empirical_quantile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        empirical_quantile(xs, 0.0)
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)


def test_cost_report_hand_values():
    rep = CostReport.from_costs([1.0, 2.0, 3.0, 4.0])
    assert rep.num_scenarios == 4
    assert rep.mean == pytest.approx(2.5)
    assert rep.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
    assert rep.var5 == 4.0 and rep.var1 == 4.0
    assert rep.min == 1.0 and rep.max == 4.0
    assert CostReport.from_costs([5.0]).std == 0.0


def test_week_runs_counting():
    assert week_runs(np.ones(7, dtype=bool)) == 1
    assert week_runs(np.ones(13, dtype=bool)) == 1
    assert week_runs(np.ones(14, dtype=bool)) == 2
    assert week_runs(np.zeros(20, dtype=bool)) == 0
    assert week_runs(np.array([True] * 7 + [False] + [True] * 7)) == 2
    assert week_runs(np.array([True, False] * 10)) == 0
    assert week_runs(np.ones(6, dtype=bool)) == 0


def test_reservoir_week_stats_thresholds():
    unit = HydroUnit("r", 0.0, 100.0, 80.0, 1.0, ((0.0, 0.0), (100.0, 10.0)))
    # low line 5, high line 75
    low_run = np.concatenate([np.full(8, 4.0), np.full(12, 50.0)])
    calm = np.full(20, 50.0)
    high_run = np.concatenate([np.full(14, 80.0), np.full(6, 50.0)])
    weeks_low, weeks_high = reservoir_week_stats(
        np.stack([low_run, calm, high_run]), unit)
    assert weeks_low == {1: 1, 2: 0, 3: 0, 4: 0}
    assert weeks_high == {1: 1, 2: 1, 3: 0, 4: 0}


def test_monte_carlo_worker_invariance(units3):
    tree, scens = small_synth(units3)
    tables = compute_bellman(tree, default_multiplier(tree, units3), units3)
    rep1, stats1, res1 = run_monte_carlo(scens, tree, units3, tables,
                                         workers=1)
    rep2, stats2, res2 = run_monte_carlo(scens, tree, units3, tables,
                                         workers=2)
    assert [r.cost for r in res1] == [r.cost for r in res2]
    assert rep1 == rep2
    np.testing.assert_array_equal(stats1.mean_stock, stats2.mean_stock)


def test_simulation_is_deterministic(units3):
    tree, scens = small_synth(units3)
    tables = compute_bellman(tree, default_multiplier(tree, units3), units3)
    frame = expected_frame(tree)
    a = simulate_scenario(scens[0], frame, units3, tables)
    b = simulate_scenario(scens[0], frame, units3, tables)
    assert a.cost == b.cost
    np.testing.assert_array_equal(a.stocks, b.stocks)


def test_expected_frame_matches_uniform_tree(units3):
    tree, _ = small_synth(units3)
    frame = expected_frame(tree)
    # the generator uses identical durations and programs on every node
    for t in range(tree.num_days):
        idx = tree.nodes_at_time[t]
        np.testing.assert_allclose(frame.durations[t], tree.durations[idx[0]])
        np.testing.assert_allclose(frame.thermal_programmed[t],
                                   tree.thermal_programmed[idx[0]])
