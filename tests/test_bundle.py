"""Bundle maximizer: analytic targets, duality gap, trace contracts."""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest

from varsched.bundle import BundleParams, _simplex_qp, maximize_dual
from varsched.oracles import default_multiplier, dual_oracle, RunMode
from varsched.reference import solve_primal_reference


def quadratic_oracle(c):
    """f(lam) = -||lam - c||^2 / 2, maximized exactly at c."""
    c = np.asarray(c, dtype=float)

    def oracle(lam):
        lam = np.asarray(lam, dtype=float)
        return SimpleNamespace(theta=-0.5 * float((lam - c) @ (lam - c)),
                               supergradient=c - lam)

    return oracle


def vee_oracle(lam):
    """f(x) = -|x - 3|: one kink, flat pieces on both sides."""
    x = float(lam[0])
    if x <= 3.0:
        return SimpleNamespace(theta=x - 3.0, supergradient=np.array([1.0]))
    return SimpleNamespace(theta=3.0 - x, supergradient=np.array([-1.0]))


def test_quadratic_converges_to_center():
    c = np.array([2.0, -1.0, 0.5])
    res = maximize_dual(quadratic_oracle(c), np.zeros(3))
    assert res.status == "converged"
    np.testing.assert_allclose(res.lam, c, atol=2e-3)
    assert res.theta == pytest.approx(0.0, abs=1e-5)


def test_piecewise_linear_kink():
    res = maximize_dual(vee_oracle, np.array([-10.0]),
                        BundleParams(tol=1e-9))
    assert res.status == "converged"
    assert res.theta == pytest.approx(0.0, abs=1e-6)
    assert res.lam[0] == pytest.approx(3.0, abs=1e-6)


def test_iteration_limit_status():
    # a huge prox weight keeps steps microscopic: no way to finish in two
    res = maximize_dual(quadratic_oracle(np.full(4, 50.0)), np.zeros(4),
                        BundleParams(max_iter=2, prox_weight=1e6))
    assert res.status == "iteration_limit"
    assert res.iterations == 2


def test_bundle_compression_still_converges():
    c = np.arange(6.0)
    res = maximize_dual(quadratic_oracle(c), np.full(6, -3.0),
                        BundleParams(max_iter=300, tol=1e-10, bundle_max=5))
    assert res.status == "converged"
    np.testing.assert_allclose(res.lam, c, atol=1e-3)


def test_trace_contract():
    res = maximize_dual(quadratic_oracle(np.array([4.0, 4.0])),
                        np.zeros(2), BundleParams(max_iter=60))
    assert res.trace[0].step == "start"
    assert all(r.step in ("serious", "null") for r in res.trace[1:])
    assert res.oracle_calls == len(res.trace)
    best = [r.best for r in res.trace]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
    p = BundleParams()
    assert all(p.prox_min <= r.prox_weight <= p.prox_max for r in res.trace)


def test_trace_csv_round_trips():
    res = maximize_dual(quadratic_oracle(np.array([1.0])), np.zeros(1))
    rows = list(csv.DictReader(io.StringIO(res.trace_csv())))
    assert len(rows) == len(res.trace)
    assert float(rows[-1]["best"]) == pytest.approx(res.theta)
    assert rows[0]["step"] == "start"


def test_determinism_byte_identical():
    c = np.array([3.0, -2.0, 7.0, 0.0])
    a = maximize_dual(quadratic_oracle(c), np.ones(4))
    b = maximize_dual(quadratic_oracle(c), np.ones(4))
    assert a.lam.tobytes() == b.lam.tobytes()
    assert a.trace_csv() == b.trace_csv()


def test_dual_ascent_closes_duality_gap(small_instance):
    tree, _, units = small_instance
    sol = solve_primal_reference(tree, units)
    assert sol.ok
    oracle = dual_oracle(tree, units, RunMode())
    res = maximize_dual(oracle, default_multiplier(tree, units),
                        BundleParams(max_iter=300, tol=1e-7))
    rel = abs(res.theta - sol.cost) / abs(sol.cost)
    assert rel <= 1e-4
    # weak duality holds along the whole trace, not just at the end
    assert all(r.theta <= sol.cost + 1e-6 * abs(sol.cost) for r in res.trace)


def test_start_point_already_optimal():
    c = np.array([5.0, 5.0])
    res = maximize_dual(quadratic_oracle(c), c.copy())
    assert res.status == "converged"
    assert res.theta == 0.0
    assert res.iterations == 0


def reference_simplex_qp(G, e, mu, iters):
    """The pairwise-exchange loop written with one array expression per
    step; ``_simplex_qp`` must take exactly the same exchanges."""
    b = e.size
    alpha = np.zeros(b)
    alpha[int(np.argmin(e))] = 1.0
    if b == 1:
        return alpha
    for _ in range(iters):
        g = G @ alpha / mu + e
        i = int(np.argmin(g))
        support = alpha > 1e-14
        gj = np.where(support, g, -np.inf)
        j = int(np.argmax(gj))
        gap = g[j] - g[i]
        if gap <= 1e-12 * (1.0 + abs(g[i]) + abs(g[j])):
            break
        curv = (G[i, i] - 2.0 * G[i, j] + G[j, j]) / mu
        t = alpha[j] if curv <= 0.0 else min(alpha[j], gap / curv)
        if t <= 0.0:
            break
        alpha[i] += t
        alpha[j] -= t
    return alpha


def random_qp(rng, kind):
    """(G, e, mu, iters) shaped like a bundle iteration's model QP."""
    b = 1 if kind == "single" else int(rng.integers(2, 42))
    n = int(rng.integers(1, 4)) if kind == "more_cuts" else int(rng.integers(2, 60))
    S = rng.normal(size=(b, n)) * 10.0 ** rng.uniform(-2, 4)
    if kind == "duplicates":
        S = S[rng.integers(0, max(b // 3, 1), b)]      # repeated cuts
    e = np.maximum(rng.normal(size=b), 0.0) * 10.0 ** rng.uniform(-3, 3)
    mu = 10.0 ** rng.uniform(-3, 3)
    iters = int(rng.integers(1, 6)) if kind == "capped" else 1000
    return S @ S.T, e, mu, iters


QP_KINDS = ("single", "duplicates", "more_cuts", "spread", "capped")


@pytest.mark.parametrize("kind", QP_KINDS)
def test_simplex_qp_equals_reference_loop(kind):
    rng = np.random.default_rng(QP_KINDS.index(kind))
    binding = 0
    for _ in range(60):
        G, e, mu, iters = random_qp(rng, kind)
        alpha = _simplex_qp(G, e, mu, iters)
        assert np.array_equal(alpha, reference_simplex_qp(G, e, mu, iters))
        if kind == "capped":
            binding += not np.array_equal(
                alpha, reference_simplex_qp(G, e, mu, iters + 1))
    if kind == "capped":
        assert binding >= 30      # the cap stopped most of these solves
