"""Availability chains, plant/reservoir/contract validation."""

import numpy as np
import pytest

from varsched.units import (AvailabilityModel, EjpContract, HydroUnit,
                            ThermalUnit, UnitSet)

FLEET = 100_000     # groups per sampled fleet: rate standard error <= 1.6e-3


def matrix_power_availability(model, k):
    """Independent route: distribution row times the k-th chain power."""
    P = np.array([[model.beta1, 1.0 - model.beta1],
                  [1.0 - model.beta2, model.beta2]])
    row = np.array([1.0 - model.p_work, model.p_work])
    return float((row @ np.linalg.matrix_power(P, k))[1])


def daily_rates(model, days, seed):
    """Working fraction of a large fleet checked every day."""
    daily = AvailabilityModel(model.beta1, model.beta2, model.p_work, 1)
    return daily.sample_rates(FLEET, days, np.random.default_rng(seed))


def test_availability_hand_case():
    m = AvailabilityModel(beta1=0.2, beta2=0.9, p_work=1.0)
    rates = daily_rates(m, 3, seed=1)
    assert rates[0] == 1.0
    np.testing.assert_allclose(rates[1:], [0.9, 0.89], atol=0.005)


def test_availability_matches_matrix_power():
    rng = np.random.default_rng(5)
    for seed in range(8):
        m = AvailabilityModel(beta1=rng.uniform(), beta2=rng.uniform(),
                              p_work=rng.uniform())
        rates = daily_rates(m, 21, seed)
        for k in (0, 1, 3, 7, 20):
            assert rates[k] == pytest.approx(
                matrix_power_availability(m, k), abs=0.008)


def test_availability_converges_to_stationary():
    m = AvailabilityModel(beta1=0.3, beta2=0.8, p_work=0.1)
    # stationary of this chain: (1 - b1) / ((1 - b1) + (1 - b2)) = 0.7 / 0.9
    rates = daily_rates(m, 200, seed=2)
    assert rates[100:].mean() == pytest.approx(0.7 / 0.9, abs=1e-3)


def test_from_alpha_keeps_level_constant():
    for seed, persistence in enumerate((0.0, 0.5, 0.9)):
        m = AvailabilityModel.from_alpha(0.85, persistence)
        assert matrix_power_availability(m, 5) == pytest.approx(0.85,
                                                                abs=1e-12)
        np.testing.assert_allclose(daily_rates(m, 6, seed), 0.85, atol=0.006)


def test_from_alpha_second_eigenvalue_is_persistence():
    m = AvailabilityModel.from_alpha(0.7, 0.6)
    assert m.beta1 + m.beta2 - 1.0 == pytest.approx(0.6, abs=1e-12)


def test_availability_model_validation():
    with pytest.raises(ValueError):
        AvailabilityModel(beta1=1.2, beta2=0.5, p_work=0.5)
    with pytest.raises(ValueError):
        AvailabilityModel(beta1=0.5, beta2=0.5, p_work=0.5, check_interval=0)
    with pytest.raises(ValueError):
        AvailabilityModel.from_alpha(0.5, persistence=1.0)


def test_sample_rates_shape_and_holding():
    m = AvailabilityModel.from_alpha(0.8, check_interval=7)
    rng = np.random.default_rng(0)
    rates = m.sample_rates(10, 30, rng)
    assert rates.shape == (30,)
    assert np.all((0.0 <= rates) & (rates <= 1.0))
    # held constant between checking dates
    for start in range(0, 28, 7):
        window = rates[start:start + 7]
        assert np.all(window == window[0])
    # multiples of 1/n_groups
    assert np.allclose(rates * 10, np.round(rates * 10))


def test_sample_rates_mean_tracks_alpha():
    m = AvailabilityModel.from_alpha(0.85)
    rng = np.random.default_rng(42)
    n, draws = 20, 4000
    day0 = np.array([m.sample_rates(n, 1, rng)[0] for _ in range(draws)])
    se = np.sqrt(0.85 * 0.15 / n / draws)
    assert abs(day0.mean() - 0.85) < 4 * se


def test_binomial_rate_moments():
    # independent redraws at each check: the day's working fraction of n
    # groups is binomial, mean alpha and variance alpha (1 - alpha) / n
    m = AvailabilityModel.from_alpha(0.8, check_interval=1)
    rates = m.sample_rates(25, 40_000, np.random.default_rng(9))
    assert rates.mean() == pytest.approx(0.8, abs=0.002)
    assert rates.var() == pytest.approx(0.8 * 0.2 / 25, rel=0.05)


# ------------------------------------------------------------- units

def test_thermal_unit_basics():
    u = ThermalUnit("u", 10.0, 800.0, 8, 0.9)
    assert u.sampler().p_work == 0.9


def test_thermal_unit_validation():
    with pytest.raises(ValueError):
        ThermalUnit("u", -1.0, 100.0, 2, 0.9)
    with pytest.raises(ValueError):
        ThermalUnit("u", 1.0, 0.0, 2, 0.9)
    with pytest.raises(ValueError):
        ThermalUnit("u", 1.0, 100.0, 0, 0.9)
    with pytest.raises(ValueError):
        ThermalUnit("u", 1.0, 100.0, 2, 1.5)


def test_hydro_terminal_value_interp():
    u = HydroUnit("h", 0.0, 100.0, 50.0, 10.0,
                  ((0.0, 0.0), (40.0, 400.0), (100.0, 700.0)))
    assert u.terminal_value(20.0) == pytest.approx(200.0)
    assert u.terminal_value(70.0) == pytest.approx(550.0)
    np.testing.assert_allclose(u.terminal_value(np.array([0.0, 100.0])),
                               [0.0, 700.0])


def test_hydro_unit_validation():
    pts = ((0.0, 0.0), (100.0, 100.0))
    with pytest.raises(ValueError):
        HydroUnit("h", 0.0, 100.0, 150.0, 10.0, pts)      # x0 outside
    with pytest.raises(ValueError):
        HydroUnit("h", 100.0, 100.0, 100.0, 10.0, pts)    # empty range
    with pytest.raises(ValueError):
        HydroUnit("h", 0.0, 100.0, 50.0, 0.0, pts)        # no turbine
    with pytest.raises(ValueError):                       # not covering x_max
        HydroUnit("h", 0.0, 100.0, 50.0, 10.0, ((0.0, 0.0), (50.0, 10.0)))
    with pytest.raises(ValueError):                       # decreasing value
        HydroUnit("h", 0.0, 100.0, 50.0, 10.0, ((0.0, 5.0), (100.0, 0.0)))
    with pytest.raises(ValueError):                       # convex value
        HydroUnit("h", 0.0, 100.0, 50.0, 10.0,
                  ((0.0, 0.0), (50.0, 10.0), (100.0, 100.0)))


def test_ejp_contract():
    c = EjpContract("e", 2, 100.0, (0.0, 10.0, 15.0))
    assert c.value_table == (0.0, 10.0, 15.0)
    with pytest.raises(ValueError):
        EjpContract("e", 2, 100.0, (0.0, 10.0))           # table too short
    with pytest.raises(ValueError):
        EjpContract("e", 2, 100.0, (5.0, 1.0, 0.0))       # decreasing table
    with pytest.raises(ValueError):
        EjpContract("e", 0, 100.0, (0.0,))


def test_unit_set_rejects_duplicate_names():
    t = ThermalUnit("same", 1.0, 100.0, 2, 0.9)
    h = HydroUnit("same", 0.0, 10.0, 5.0, 1.0, ((0.0, 0.0), (10.0, 1.0)))
    with pytest.raises(ValueError):
        UnitSet(thermal=[t], hydro=[h])
    ok = UnitSet(thermal=[t])
    assert ok.num_thermal == 1 and ok.num_hydro == 0 and ok.num_ejp == 0
