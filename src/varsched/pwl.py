"""Calculus of concave piecewise-linear functions in slope-segment form.

A function is stored as a base point ``(x0, y0)`` plus parallel arrays
of segment slopes (nonincreasing) and positive widths; the domain is
``[x0, x0 + sum(widths)]``.  Concavity makes the segment list sorted by
slope, which turns supremal convolution - the core of the reservoir
dual subproblem - into a merge of slope lists, and the running maximum
(free disposal of surplus water) into dropping the negative-slope tail.
All operations are exact on the stored breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SLOPE_TOL = 1e-9


@dataclass
class ConcavePwl:
    x0: float
    y0: float
    slopes: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        self.slopes = np.asarray(self.slopes, dtype=float).ravel()
        self.widths = np.asarray(self.widths, dtype=float).ravel()
        if self.slopes.shape != self.widths.shape:
            raise ValueError("slopes and widths must have equal length")

    @property
    def x1(self) -> float:
        return self.x0 + float(self.widths.sum())

    @property
    def y1(self) -> float:
        return self.y0 + float((self.slopes * self.widths).sum())

    def breakpoints(self):
        xs = self.x0 + np.concatenate(([0.0], np.cumsum(self.widths)))
        ys = self.y0 + np.concatenate(([0.0], np.cumsum(self.slopes * self.widths)))
        return xs, ys

    def __call__(self, x):
        xs, ys = self.breakpoints()
        x = np.asarray(x, dtype=float)
        lo, hi = xs[0], xs[-1]
        slack = 1e-9 * (1.0 + abs(lo) + abs(hi))
        if np.any(x < lo - slack) or np.any(x > hi + slack):
            raise ValueError(f"evaluation outside domain [{lo}, {hi}]")
        return np.interp(x, xs, ys)


def _raw(x0: float, y0: float, slopes: np.ndarray,
         widths: np.ndarray) -> ConcavePwl:
    """Internal constructor for arrays already validated as float ndarrays."""
    f = ConcavePwl.__new__(ConcavePwl)
    f.x0 = x0
    f.y0 = y0
    f.slopes = slopes
    f.widths = widths
    return f


def from_breakpoints(xs, ys) -> ConcavePwl:
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size < 1 or xs.shape != ys.shape:
        raise ValueError("need matching nonempty breakpoint arrays")
    widths = np.diff(xs)
    if np.any(widths <= 0.0):
        raise ValueError("breakpoints must strictly increase")
    slopes = np.diff(ys) / widths
    return ConcavePwl(x0=float(xs[0]), y0=float(ys[0]), slopes=slopes,
                      widths=widths)


def constant(x0: float, x1: float, value: float) -> ConcavePwl:
    if x1 < x0:
        raise ValueError("empty domain")
    if x1 == x0:
        return ConcavePwl(x0, value, np.empty(0), np.empty(0))
    return ConcavePwl(x0, value, np.zeros(1), np.array([x1 - x0]))


def is_concave(f: ConcavePwl, tol: float = SLOPE_TOL) -> bool:
    if f.slopes.size < 2:
        return True
    scale = max(1.0, float(np.abs(f.slopes).max()))
    return bool(np.all(np.diff(f.slopes) <= tol * scale))


def scale(f: ConcavePwl, factor: float) -> ConcavePwl:
    if factor < 0.0:
        raise ValueError("scaling a concave function needs factor >= 0")
    return _raw(f.x0, f.y0 * factor, f.slopes * factor, f.widths.copy())


def shift_x(f: ConcavePwl, dx: float) -> ConcavePwl:
    return _raw(f.x0 + dx, f.y0, f.slopes.copy(), f.widths.copy())


def add(f: ConcavePwl, g: ConcavePwl) -> ConcavePwl:
    """Pointwise sum on the intersection of the domains."""
    lo = max(f.x0, g.x0)
    hi = min(f.x1, g.x1)
    span = max(abs(lo), abs(hi), 1.0)
    if hi < lo - 1e-9 * span:
        raise ValueError("domains do not overlap")
    hi = max(hi, lo)
    fx, fy = f.breakpoints()
    gx, gy = g.breakpoints()
    xs = np.unique(np.clip(np.concatenate((fx, gx, [lo, hi])), lo, hi))
    ys = np.interp(xs, fx, fy) + np.interp(xs, gx, gy)
    if xs.size == 1:
        return ConcavePwl(float(xs[0]), float(ys[0]), np.empty(0), np.empty(0))
    widths = np.diff(xs)
    return _raw(float(xs[0]), float(ys[0]), np.diff(ys) / widths, widths)


def add_many(fs) -> ConcavePwl:
    fs = list(fs)
    if not fs:
        raise ValueError("nothing to add")
    out = fs[0]
    for f in fs[1:]:
        out = add(out, f)
    return out


def sup_conv(fs) -> ConcavePwl:
    """Supremal convolution: (f + g)(x) = max{f(a) + g(b) : a + b = x}.

    For concave functions this concatenates all segments sorted by
    slope (descending, stable in input order on ties), anchored at the
    sum of the left endpoints.
    """
    fs = [f for f in fs if f is not None]
    if not fs:
        raise ValueError("nothing to convolve")
    x0 = sum(f.x0 for f in fs)
    y0 = sum(f.y0 for f in fs)
    slopes = np.concatenate([f.slopes for f in fs])
    widths = np.concatenate([f.widths for f in fs])
    keep = widths > 0.0
    slopes, widths = slopes[keep], widths[keep]
    order = np.argsort(-slopes, kind="stable")
    return _raw(x0, y0, slopes[order], widths[order])


def clip(f: ConcavePwl, lo: float, hi: float) -> ConcavePwl:
    """Restrict the domain to [lo, hi] (must lie inside f's domain)."""
    if lo > hi:
        raise ValueError("empty clip interval")
    span = max(abs(f.x0), abs(f.x1), 1.0)
    if lo < f.x0 - 1e-9 * span or hi > f.x1 + 1e-9 * span:
        raise ValueError("clip interval escapes the domain")
    lo = min(max(lo, f.x0), f.x1)
    hi = min(max(hi, f.x0), f.x1)
    ends = f.x0 + np.cumsum(f.widths)
    starts = ends - f.widths
    left = np.clip(starts, lo, hi)
    right = np.clip(ends, lo, hi)
    widths = right - left
    keep = widths > 0.0
    below = np.minimum(ends, lo) - np.minimum(starts, lo)
    y_lo = f.y0 + float(f.slopes @ below)
    return _raw(lo, y_lo, f.slopes[keep], widths[keep])


def monotone_hull(f: ConcavePwl, hi: float) -> ConcavePwl:
    """Running maximum extended flat up to ``hi``: max_{z <= x} f(z).

    For a concave f this keeps the increasing part and continues flat,
    which is exactly the value of being allowed to discard surplus
    resource for free.  ``hi`` must be at least f's peak location.
    """
    keep = f.slopes > 0.0
    slopes = f.slopes[keep]
    widths = f.widths[keep]
    peak_x = f.x0 + float(widths.sum())
    if hi < peak_x - 1e-9 * max(1.0, abs(peak_x)):
        raise ValueError("hull endpoint below the peak")
    tail = hi - peak_x
    if tail > 0.0:
        slopes = np.concatenate((slopes, [0.0]))
        widths = np.concatenate((widths, [tail]))
    return _raw(f.x0, f.y0, slopes, widths)


def offer_hull_clip(g: ConcavePwl, slopes: np.ndarray, widths: np.ndarray,
                    lo: float, hi: float, dx: float) -> ConcavePwl:
    """``shift_x(clip(sup_conv(offers + [monotone_hull(g, hi)]), lo, hi), dx)``.

    ``offers`` are the one-segment functions from 0 with the given
    ``slopes`` and ``widths``.  One pass over raw arrays, with the same
    floating-point operations on the same arrays in the same order as
    the composition, so the result is equal bit for bit.  Every width,
    of the offers and of ``g``, must be positive: ``sup_conv``'s filter
    of empty segments is left out.  ``np.clip`` is spelled as maximum
    then minimum; the two differ only in the sign of a zero, and only
    positive clipped widths are kept.
    """
    up = g.slopes > 0.0
    hull_s, hull_w = g.slopes[up], g.widths[up]
    peak_x = g.x0 + float(np.add.reduce(hull_w))
    if hi < peak_x - 1e-9 * max(1.0, abs(peak_x)):
        raise ValueError("hull endpoint below the peak")
    tail = hi - peak_x
    if tail > 0.0:
        slopes = np.concatenate((slopes, hull_s, (0.0,)))
        widths = np.concatenate((widths, hull_w, (tail,)))
    else:
        slopes = np.concatenate((slopes, hull_s))
        widths = np.concatenate((widths, hull_w))
    order = (-slopes).argsort(kind="stable")
    slopes = slopes[order]
    widths = widths[order]
    # sup_conv anchors at the sum of left ends, the offers' being 0.0
    x0 = 0.0 + g.x0
    x1 = x0 + float(np.add.reduce(widths))
    if lo > hi:
        raise ValueError("empty clip interval")
    span = max(abs(x0), abs(x1), 1.0)
    if lo < x0 - 1e-9 * span or hi > x1 + 1e-9 * span:
        raise ValueError("clip interval escapes the domain")
    lo = min(max(lo, x0), x1)
    hi = min(max(hi, x0), x1)
    ends = x0 + widths.cumsum()
    starts = ends - widths
    kept = (np.minimum(np.maximum(ends, lo), hi)
            - np.minimum(np.maximum(starts, lo), hi))
    keep = kept > 0.0
    below = np.minimum(ends, lo) - np.minimum(starts, lo)
    y_lo = (0.0 + g.y0) + float(slopes @ below)
    return _raw(lo + dx, y_lo, slopes[keep], kept[keep])
