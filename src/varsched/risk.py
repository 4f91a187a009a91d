"""Risk utilities: VaR safety factors, demand-ellipsoid calibration.

The robust variants of the dual function replace exact quantities by
Value-at-Risk estimates.  Everything needed for that lives here: the
safety factor kappa(eps), the half-gap rule that calibrates per-cell
demand dispersion from the cross-section of a scenario tree, and the
support function of the resulting demand ellipsoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

KAPPA_MODES = ("gaussian", "general")


def kappa(eps: float, mode: str = "gaussian") -> float:
    """Safety factor multiplying the dispersion in a VaR estimate.

    ``gaussian`` assumes normally distributed errors and returns the
    standard normal quantile at ``1 - eps``; ``general`` only uses the
    one-sided Chebyshev bound and is therefore much more conservative
    (kappa(0.1) = 3 instead of 1.28).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if mode == "gaussian":
        return NormalDist().inv_cdf(1.0 - eps)
    if mode == "general":
        return math.sqrt((1.0 - eps) / eps)
    raise ValueError(f"unknown kappa mode {mode!r}, expected one of {KAPPA_MODES}")


def calibrate_sigma(values) -> np.ndarray:
    """Half-gap dispersion for each member of a cross-sectional sample.

    The sample is sorted and each member receives half the distance to
    its nearest sorted neighbour, with the conventions that 0 sits below
    the smallest member (at distance |d_min|, so signs cannot produce a
    negative gap) and the largest gap is extrapolated above the largest
    one.  Returned in the order of the input.  Requires at least two
    members; duplicated values get sigma 0.
    """
    vals = np.asarray(values, dtype=float).ravel()
    m = vals.size
    if m < 2:
        raise ValueError("need at least two sample members to calibrate sigma")
    order = np.argsort(vals, kind="stable")
    d = vals[order]
    below = np.empty(m)
    above = np.empty(m)
    below[0] = abs(d[0])
    below[1:] = d[1:] - d[:-1]
    above[:-1] = d[1:] - d[:-1]
    above[-1] = (2.0 * d[-1] - d[-2]) - d[-1]
    sigma_sorted = 0.5 * np.minimum(below, above)
    sigma = np.empty(m)
    sigma[order] = sigma_sorted
    return sigma


@dataclass
class CovarianceModel:
    """Second-order model of demand uncertainty around a mean vector.

    ``diag`` holds the per-cell variances.
    """

    d_bar: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        self.d_bar = np.asarray(self.d_bar, dtype=float).ravel()
        self.diag = np.asarray(self.diag, dtype=float).ravel()
        if self.diag.shape != self.d_bar.shape:
            raise ValueError("diag length must match d_bar")
        if np.any(self.diag < 0.0):
            raise ValueError("variances must be nonnegative")

    @classmethod
    def from_sigma(cls, d_bar, sigma) -> "CovarianceModel":
        sigma = np.asarray(sigma, dtype=float).ravel()
        return cls(d_bar=d_bar, diag=sigma * sigma)

    @property
    def dim(self) -> int:
        return self.d_bar.size

    def matvec(self, lam: np.ndarray) -> np.ndarray:
        return self.diag * lam

    def quad(self, lam: np.ndarray) -> float:
        # lam' Gamma lam, clipped at 0 against roundoff
        return max(float(lam @ self.matvec(lam)), 0.0)


def ellipsoid_support(lam: np.ndarray, cov: CovarianceModel, kap: float):
    """Worst-case value of ``lam . d`` over the demand ellipsoid.

    Returns ``(value, gradient)`` of the concave function
    ``lam . d_bar - kap * sqrt(lam' Gamma lam)``.  At ``kap == 0`` the
    exact nominal pairing is returned, gradient included.
    """
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape != cov.d_bar.shape:
        raise ValueError("multiplier length must match d_bar")
    if kap < 0.0:
        raise ValueError("kappa must be nonnegative")
    base = float(lam @ cov.d_bar)
    if kap == 0.0:
        return base, cov.d_bar.copy()
    q = cov.quad(lam)
    if q <= 0.0:
        return base, cov.d_bar.copy()
    root = math.sqrt(q)
    value = base - kap * root
    grad = cov.d_bar - (kap / root) * cov.matvec(lam)
    return value, grad
