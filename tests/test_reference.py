"""Whole-tree dispatch LP: hand instances, flow conservation, KKT health."""

import os
import subprocess
import sys

import numpy as np
import pytest

from varsched.reference import check_capacity, solve_primal_reference
from varsched.units import EjpContract, HydroUnit, ThermalUnit, UnitSet

from conftest import chain_tree, small_synth, small_unit_set


def one_day_units(water_value=5.0, x0=400.0):
    return UnitSet(
        thermal=[ThermalUnit("cheap", 10.0, 50.0, 2, 0.9),
                 ThermalUnit("dear", 40.0, 50.0, 2, 0.9)],
        hydro=[HydroUnit("res", 0.0, 1000.0, x0, 30.0,
                         ((0.0, 0.0), (1000.0, water_value * 1000.0)))])


def test_single_day_merit_order():
    # demand 700 MWh on one 10h post; cheap bound 500, hydro bound 300.
    # water at 5 undercuts fuel at 10: full release, cheap covers the rest
    units = one_day_units(water_value=5.0)
    tree = chain_tree([[700.0]], durations=(10.0,), num_thermal=2)
    sol = solve_primal_reference(tree, units)
    assert sol.ok
    np.testing.assert_allclose(sol.hydro[0, 0, 0], 300.0, atol=1e-7)
    np.testing.assert_allclose(sol.thermal[0, 0, 0], 400.0, atol=1e-7)
    np.testing.assert_allclose(sol.thermal[1, 0, 0], 0.0, atol=1e-7)
    # fuel 400*10 minus terminal credit of the 100 MWh left in stock
    assert sol.cost == pytest.approx(400.0 * 10.0 - 100.0 * 5.0, abs=1e-6)


def test_single_day_expensive_water():
    # water worth 45 beats the dear plant: hydro stays stored
    units = one_day_units(water_value=45.0)
    tree = chain_tree([[700.0]], durations=(10.0,), num_thermal=2)
    sol = solve_primal_reference(tree, units)
    assert sol.ok
    np.testing.assert_allclose(sol.thermal[1, 0, 0], 200.0, atol=1e-7)
    np.testing.assert_allclose(sol.hydro[0, 0, 0], 0.0, atol=1e-7)


def test_demand_duals_price_the_marginal_unit():
    units = one_day_units(water_value=5.0)
    tree = chain_tree([[700.0]], durations=(10.0,), num_thermal=2)
    sol = solve_primal_reference(tree, units)
    # hydro bound is tight, so the cheap plant sets the price
    assert sol.duals_demand[0, 0] == pytest.approx(10.0, abs=1e-7)
    dear = one_day_units(water_value=45.0)
    sol2 = solve_primal_reference(tree, dear)
    assert sol2.duals_demand[0, 0] == pytest.approx(40.0, abs=1e-7)


def test_stock_dynamics_hold(units3):
    tree, _ = small_synth(units3)
    sol = solve_primal_reference(tree, units3)
    assert sol.ok
    day_inflow = tree.inflows.sum(axis=2)
    for h in range(units3.num_hydro):
        for i in range(tree.num_nodes):
            f = tree.father_index[i]
            if f < 0:
                assert sol.stocks[h, i] == pytest.approx(units3.hydro[h].x0)
                continue
            want = (sol.stocks[h, f] + day_inflow[h, f]
                    - sol.hydro[h, f].sum() - sol.spill[h, f])
            assert sol.stocks[h, i] == pytest.approx(want, abs=1e-6)
    # leaves: terminal stock closes the balance on the last day
    for h in range(units3.num_hydro):
        for j, i in enumerate(tree.leaves):
            want = (sol.stocks[h, i] + day_inflow[h, i]
                    - sol.hydro[h, i].sum() - sol.spill[h, i])
            assert sol.terminal[h, j] == pytest.approx(want, abs=1e-6)


def test_kkt_residuals_small(units3):
    tree, _ = small_synth(units3)
    sol = solve_primal_reference(tree, units3)
    scale = 1.0 + abs(sol.cost)
    assert sol.kkt["row"] <= 1e-7 * scale
    assert sol.kkt["bound"] <= 1e-9 * scale
    assert sol.kkt["slack"] <= 1e-7 * scale


def test_capacity_check_raises():
    units = UnitSet(thermal=[ThermalUnit("tiny", 10.0, 5.0, 1, 0.9)])
    tree = chain_tree([[700.0]], durations=(10.0,), num_hydro=0)
    with pytest.raises(ValueError, match="exceeds installed capacity"):
        check_capacity(tree, units)
    with pytest.raises(ValueError):
        solve_primal_reference(tree, units)


def test_infeasible_status_is_returned():
    # 2 x 500 MWh of thermal plus 300 MWh of turbine cover 1200 MWh, so
    # the capacity check passes, but only 100 MWh of water is in store
    units = one_day_units(x0=100.0)
    tree = chain_tree([[1200.0]], durations=(10.0,), num_thermal=2)
    check_capacity(tree, units)
    sol = solve_primal_reference(tree, units)
    assert sol.status == "infeasible"
    assert not sol.ok


def test_import_does_not_load_scipy():
    code = "import sys, varsched; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_ejp_relaxation_cannot_cost_more(units3_ejp):
    tree, _ = small_synth(units3_ejp)
    hard = solve_primal_reference(tree, units3_ejp, with_ejp="exclude")
    soft = solve_primal_reference(tree, units3_ejp, with_ejp="relax")
    assert hard.ok and soft.ok
    # relaxing only adds options whose value table is free to refuse
    assert soft.cost <= hard.cost + 1e-6 * (1 + abs(hard.cost))
    assert soft.ejp_on is not None
    assert np.all((soft.ejp_on >= -1e-9) & (soft.ejp_on <= 1 + 1e-9))


def test_with_ejp_argument_validated(units3):
    tree, _ = small_synth(units3)
    with pytest.raises(ValueError):
        solve_primal_reference(tree, units3, with_ejp="maybe")
