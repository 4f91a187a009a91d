"""Safety factors, half-gap calibration, ellipsoid support."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsched.risk import (CovarianceModel, calibrate_sigma, ellipsoid_support,
                           kappa)

# Reference quantiles of the standard normal law (Wichura-grade accuracy).
QUANTILES = {
    0.5: 0.0,
    0.75: 0.6744897501960817,
    0.9: 1.2815515655446004,
    0.95: 1.6448536269514722,
    0.975: 1.959963984540054,
    0.99: 2.32634787404084,
    0.999: 3.090232306167813,
    1e-6: -4.753424308822899,
}


# The gaussian kappa(eps) is the inverse normal cdf at p = 1 - eps.

def test_inverse_cdf_reference_values():
    for p, x in QUANTILES.items():
        assert kappa(1.0 - p, "gaussian") == pytest.approx(x, abs=1e-9)


def test_inverse_cdf_roundtrip_tails():
    grid = np.concatenate([
        np.geomspace(1e-6, 0.5, 40),
        1.0 - np.geomspace(1e-6, 0.5, 40),
    ])
    for eps in grid:
        assert abs(NormalDist().cdf(kappa(float(eps))) - (1.0 - eps)) <= 1e-9


def test_inverse_cdf_symmetry():
    for eps in (1e-5, 0.01, 0.3, 0.47):
        assert kappa(eps) == pytest.approx(-kappa(1.0 - eps), abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_inverse_cdf_domain(p):
    with pytest.raises(ValueError):
        kappa(1.0 - p, "gaussian")


def test_kappa_gaussian_05():
    assert kappa(0.05, "gaussian") == pytest.approx(1.6449, abs=1e-4)


def test_kappa_gaussian_median_is_zero():
    assert kappa(0.5, "gaussian") == 0.0


def test_kappa_general_chebyshev():
    # sqrt((1 - 0.1) / 0.1) = 3 exactly
    assert kappa(0.1, "general") == pytest.approx(3.0, abs=1e-12)
    assert kappa(0.5, "general") == pytest.approx(1.0, abs=1e-12)


def test_kappa_general_dominates_gaussian():
    for eps in (0.01, 0.05, 0.1, 0.25, 0.49):
        assert kappa(eps, "general") > kappa(eps, "gaussian")


def test_kappa_decreasing_in_eps():
    eps = np.linspace(0.01, 0.99, 25)
    for mode in ("gaussian", "general"):
        vals = [kappa(float(e), mode) for e in eps]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kappa_rejects_bad_args():
    with pytest.raises(ValueError):
        kappa(0.0)
    with pytest.raises(ValueError):
        kappa(1.0)
    with pytest.raises(ValueError):
        kappa(0.1, "cauchy")


# ------------------------------------------------------ calibration

def test_calibrate_sigma_hand_cases():
    np.testing.assert_allclose(calibrate_sigma([10.0, 20.0, 40.0]),
                               [5.0, 5.0, 10.0])
    np.testing.assert_allclose(calibrate_sigma([0.0, 2.0]), [0.0, 1.0])
    np.testing.assert_allclose(calibrate_sigma([5.0, 5.0]), [0.0, 0.0])


def test_calibrate_sigma_keeps_input_order():
    a = calibrate_sigma([40.0, 10.0, 20.0])
    np.testing.assert_allclose(a, [10.0, 5.0, 5.0])


def test_calibrate_sigma_needs_two():
    with pytest.raises(ValueError):
        calibrate_sigma([3.0])


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
@settings(max_examples=200, deadline=None)
def test_calibrate_sigma_nonnegative_and_bounded(vals):
    sig = calibrate_sigma(vals)
    assert np.all(sig >= 0.0)
    spread = max(vals) - min(vals)
    # half of the largest gap can never exceed the full spread
    assert np.all(sig <= spread + 1e-9) or spread == 0.0


# ------------------------------------------------- covariance model

def test_covariance_model_validates_shapes():
    with pytest.raises(ValueError):
        CovarianceModel(d_bar=[1.0, 2.0], diag=[1.0])
    with pytest.raises(ValueError):
        CovarianceModel(d_bar=[1.0], diag=[-2.0])


def test_quad_matches_dense_route():
    rng = np.random.default_rng(3)
    sig = rng.uniform(0.1, 2.0, 5)
    lam = rng.normal(size=5)
    model = CovarianceModel.from_sigma(rng.normal(size=5), sig)
    dense = np.diag(sig * sig)
    assert model.quad(lam) == pytest.approx(float(lam @ dense @ lam), rel=1e-12)


# -------------------------------------------------- support function

def test_support_kappa_zero_is_nominal():
    rng = np.random.default_rng(0)
    cov = CovarianceModel.from_sigma(rng.uniform(1, 5, 8), rng.uniform(0, 2, 8))
    lam = rng.normal(size=8)
    val, grad = ellipsoid_support(lam, cov, 0.0)
    assert val == float(lam @ cov.d_bar)
    np.testing.assert_array_equal(grad, cov.d_bar)


def test_support_dominated_by_members():
    """lam.z >= support value for every z in the ellipsoid."""
    rng = np.random.default_rng(7)
    n = 12
    sig = rng.uniform(0.0, 3.0, n)
    cov = CovarianceModel.from_sigma(rng.uniform(10, 50, n), sig)
    kap = 2.0
    for _ in range(50):
        lam = rng.normal(size=n)
        val, _ = ellipsoid_support(lam, cov, kap)
        u = rng.normal(size=(200, n))
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        u = u / np.maximum(norms, 1e-12) * rng.uniform(0, 1, (200, 1))
        members = cov.d_bar + kap * u * sig
        assert np.all(members @ lam >= val - 1e-9 * (1 + abs(val)))


def test_support_gradient_is_supergradient():
    rng = np.random.default_rng(11)
    n = 6
    cov = CovarianceModel.from_sigma(rng.uniform(1, 4, n), rng.uniform(0.2, 1, n))
    kap = 1.5
    lam = rng.normal(size=n)
    val, grad = ellipsoid_support(lam, cov, kap)
    for _ in range(30):
        mu = lam + rng.normal(size=n)
        val_mu, _ = ellipsoid_support(mu, cov, kap)
        assert val_mu <= val + float(grad @ (mu - lam)) + 1e-9


def test_support_concave_along_segments():
    rng = np.random.default_rng(13)
    n = 5
    cov = CovarianceModel.from_sigma(rng.uniform(1, 4, n), rng.uniform(0.2, 1, n))
    for _ in range(30):
        a, b = rng.normal(size=n), rng.normal(size=n)
        t = rng.uniform()
        va, _ = ellipsoid_support(a, cov, 2.0)
        vb, _ = ellipsoid_support(b, cov, 2.0)
        vm, _ = ellipsoid_support((1 - t) * a + t * b, cov, 2.0)
        assert vm >= (1 - t) * va + t * vb - 1e-9 * (1 + abs(vm))


def test_support_rejects_negative_kappa():
    cov = CovarianceModel.from_sigma([1.0], [1.0])
    with pytest.raises(ValueError):
        ellipsoid_support(np.array([1.0]), cov, -0.5)


def test_support_handles_zero_dispersion():
    cov = CovarianceModel.from_sigma([3.0, 4.0], [0.0, 0.0])
    lam = np.array([1.0, -2.0])
    val, grad = ellipsoid_support(lam, cov, 5.0)
    assert val == float(lam @ cov.d_bar)
    np.testing.assert_array_equal(grad, cov.d_bar)
