"""Concave piecewise-linear calculus, cross-checked by brute force on grids."""

import numpy as np
import pytest

from varsched import pwl


def random_concave(rng, max_segs=6, slope_span=5.0):
    k = int(rng.integers(1, max_segs + 1))
    slopes = np.sort(rng.uniform(-slope_span, slope_span, k))[::-1]
    widths = rng.uniform(0.1, 2.0, k)
    x0 = float(rng.uniform(-3, 3))
    y0 = float(rng.uniform(-3, 3))
    return pwl.ConcavePwl(x0, y0, slopes, widths)


def test_from_breakpoints_roundtrip():
    xs = [0.0, 1.0, 3.0, 4.5]
    ys = [0.0, 2.0, 3.0, 3.0]
    f = pwl.from_breakpoints(xs, ys)
    bx, by = f.breakpoints()
    np.testing.assert_allclose(bx, xs)
    np.testing.assert_allclose(by, ys)
    assert f(2.0) == pytest.approx(2.5)
    assert f.x1 == 4.5


def test_from_breakpoints_rejects_nonincreasing_x():
    with pytest.raises(ValueError):
        pwl.from_breakpoints([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])


def test_call_outside_domain_raises():
    f = pwl.from_breakpoints([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        f(1.5)
    with pytest.raises(ValueError):
        f(np.array([0.5, -0.2]))


def test_is_concave():
    assert pwl.is_concave(pwl.from_breakpoints([0, 1, 2], [0, 2, 3]))
    assert not pwl.is_concave(pwl.ConcavePwl(0.0, 0.0, np.array([1.0, 2.0]),
                                             np.array([1.0, 1.0])))


def test_scale_and_shift():
    rng = np.random.default_rng(1)
    f = random_concave(rng)
    g = pwl.scale(f, 2.5)
    h = pwl.shift_x(f, 3.0)
    xs = np.linspace(f.x0, f.x1, 40)
    np.testing.assert_allclose(g(xs), 2.5 * f(xs), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(h(xs + 3.0), f(xs), rtol=1e-12, atol=1e-12)
    assert pwl.scale(f, 0.0)(xs).max() == 0.0
    with pytest.raises(ValueError):
        pwl.scale(f, -1.0)


def test_add_matches_pointwise():
    rng = np.random.default_rng(2)
    for _ in range(60):
        f, g = random_concave(rng), random_concave(rng)
        lo, hi = max(f.x0, g.x0), min(f.x1, g.x1)
        if hi <= lo:
            continue
        s = pwl.add(f, g)
        assert s.x0 == pytest.approx(lo) and s.x1 == pytest.approx(hi)
        xs = np.linspace(lo, hi, 50)
        np.testing.assert_allclose(s(xs), f(xs) + g(xs), rtol=1e-9, atol=1e-9)
        assert pwl.is_concave(s, tol=1e-7)


def test_add_disjoint_domains_raise():
    f = pwl.from_breakpoints([0.0, 1.0], [0.0, 1.0])
    g = pwl.from_breakpoints([5.0, 6.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        pwl.add(f, g)


def test_add_many():
    rng = np.random.default_rng(3)
    fs = [pwl.ConcavePwl(0.0, float(rng.normal()),
                         np.sort(rng.uniform(-2, 2, 3))[::-1],
                         rng.uniform(0.5, 1.0, 3)) for _ in range(4)]
    s = pwl.add_many(fs)
    xs = np.linspace(s.x0, s.x1, 30)
    np.testing.assert_allclose(s(xs), sum(f(xs) for f in fs), rtol=1e-9)
    with pytest.raises(ValueError):
        pwl.add_many([])


def brute_sup_conv(f, g, x):
    """max f(a) + g(x - a); candidates are breakpoints of either factor."""
    fx, _ = f.breakpoints()
    gx, _ = g.breakpoints()
    cands = np.concatenate([fx, x - gx])
    cands = cands[(cands >= f.x0 - 1e-12) & (cands <= f.x1 + 1e-12)]
    cands = np.clip(cands, f.x0, f.x1)
    other = x - cands
    ok = (other >= g.x0 - 1e-9) & (other <= g.x1 + 1e-9)
    cands, other = cands[ok], np.clip(other[ok], g.x0, g.x1)
    assert cands.size > 0
    return float(np.max(f(cands) + g(other)))


def test_sup_conv_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(50):
        f, g = random_concave(rng), random_concave(rng)
        s = pwl.sup_conv([f, g])
        assert s.x0 == pytest.approx(f.x0 + g.x0)
        assert s.x1 == pytest.approx(f.x1 + g.x1)
        xs = np.linspace(s.x0, s.x1, 25)
        want = [brute_sup_conv(f, g, float(x)) for x in xs]
        np.testing.assert_allclose(s(xs), want, rtol=1e-9, atol=1e-9)


def test_sup_conv_three_factors_associative():
    rng = np.random.default_rng(5)
    f, g, h = (random_concave(rng) for _ in range(3))
    once = pwl.sup_conv([f, g, h])
    twice = pwl.sup_conv([pwl.sup_conv([f, g]), h])
    xs = np.linspace(once.x0, once.x1, 30)
    np.testing.assert_allclose(once(xs), twice(xs), rtol=1e-12)


def test_monotone_hull_is_running_max():
    rng = np.random.default_rng(6)
    for _ in range(40):
        f = random_concave(rng)
        hi = f.x1 + float(rng.uniform(0, 2))
        h = pwl.monotone_hull(f, hi)
        assert h.x1 == pytest.approx(hi)
        xs = np.linspace(f.x0, hi, 60)
        bx, by = f.breakpoints()
        # a pwl attains its max over [x0, x] at a breakpoint or at x itself
        want = [max(float(by[bx <= x + 1e-12].max(initial=-np.inf)),
                    float(f(min(x, f.x1))))
                for x in xs]
        got = h(xs)
        assert np.all(np.diff(got) >= -1e-9)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)


def test_monotone_hull_endpoint_below_peak_raises():
    f = pwl.from_breakpoints([0.0, 2.0], [0.0, 4.0])
    with pytest.raises(ValueError):
        pwl.monotone_hull(f, 1.0)


def test_clip_preserves_values():
    rng = np.random.default_rng(7)
    for _ in range(40):
        f = random_concave(rng)
        a, b = sorted(rng.uniform(f.x0, f.x1, 2))
        g = pwl.clip(f, float(a), float(b))
        assert g.x0 == pytest.approx(a)
        assert g(a) == pytest.approx(float(f(a)), abs=1e-9)
        if b > a:
            xs = np.linspace(a, b, 20)
            np.testing.assert_allclose(g(xs), f(xs), rtol=1e-9, atol=1e-9)


def test_clip_outside_domain_raises():
    f = pwl.from_breakpoints([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        pwl.clip(f, -1.0, 0.5)
    with pytest.raises(ValueError):
        pwl.clip(f, 0.8, 0.2)


def test_clip_to_point():
    f = pwl.from_breakpoints([0.0, 2.0, 4.0], [0.0, 4.0, 5.0])
    g = pwl.clip(f, 3.0, 3.0)
    assert g.x0 == g.x1 == 3.0
    assert g(3.0) == pytest.approx(4.5)


def test_operations_keep_concavity():
    rng = np.random.default_rng(8)
    for _ in range(30):
        f, g = random_concave(rng), random_concave(rng)
        assert pwl.is_concave(pwl.sup_conv([f, g]), tol=1e-7)
        assert pwl.is_concave(pwl.monotone_hull(f, f.x1 + 1.0), tol=1e-7)
        lo, hi = max(f.x0, g.x0), min(f.x1, g.x1)
        if hi > lo:
            assert pwl.is_concave(pwl.add(f, g), tol=1e-7)
