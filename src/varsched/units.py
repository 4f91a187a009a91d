"""Generation units: thermal plants with random group outages, reservoirs, EJP contracts.

A thermal plant is a set of identical groups that fail and recover
following a two-state Markov chain checked every few days; the fraction
of working groups scales the plant's energy bound.  Reservoirs carry a
concave nondecreasing terminal water value.  EJP contracts may supply a
fixed power over a limited number of whole days per year.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class AvailabilityModel:
    """Two-state failed/working Markov chain over checking dates.

    ``beta1`` is the probability of staying failed across one check
    interval, ``beta2`` of staying working; ``p_work`` is the working
    probability at the first checking date.  Checks happen every
    ``check_interval`` days and the observed state is held in between.
    """

    beta1: float
    beta2: float
    p_work: float
    check_interval: int = 7

    def __post_init__(self):
        for name in ("beta1", "beta2", "p_work"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.check_interval < 1:
            raise ValueError("check_interval must be a positive number of days")

    @classmethod
    def from_alpha(cls, alpha: float, persistence: float = 0.0,
                   check_interval: int = 7) -> "AvailabilityModel":
        """Chain whose working probability equals ``alpha`` at every check.

        ``persistence`` in [0, 1) is the second eigenvalue of the chain:
        0 gives independent redraws at each check, values near 1 make
        outages sticky while keeping the same stationary availability.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= persistence < 1.0:
            raise ValueError("persistence must lie in [0, 1)")
        return cls(beta1=1.0 - alpha * (1.0 - persistence),
                   beta2=1.0 - (1.0 - alpha) * (1.0 - persistence),
                   p_work=alpha, check_interval=check_interval)

    def availability(self, k: int) -> float:
        """Probability that a group works at the k-th checking date."""
        if k < 0:
            raise ValueError("check index must be nonnegative")
        # iterate the distribution row instead of powering the matrix
        p_fail, p_work = 1.0 - self.p_work, self.p_work
        for _ in range(k):
            p_fail, p_work = (p_fail * self.beta1 + p_work * (1.0 - self.beta2),
                              p_fail * (1.0 - self.beta1) + p_work * self.beta2)
        return min(max(p_work, 0.0), 1.0)

    def stationary(self) -> float:
        """Long-run working probability of the chain."""
        denom = (1.0 - self.beta1) + (1.0 - self.beta2)
        if denom <= 0.0:  # absorbing in both states: distribution never moves
            return self.p_work
        return (1.0 - self.beta1) / denom

    def sample_rates(self, n_groups: int, num_days: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Daily availability rates for a fleet of ``n_groups`` groups.

        Group states are redrawn at checking dates (day 0, then every
        ``check_interval`` days) and the resulting rate is held constant
        between checks.  Returns an array of length ``num_days`` with
        values in [0, 1].
        """
        if n_groups < 1:
            raise ValueError("need at least one group")
        rates = np.empty(num_days)
        working = rng.random(n_groups) < self.p_work
        rate = working.mean()
        for t in range(num_days):
            if t > 0 and t % self.check_interval == 0:
                u = rng.random(n_groups)
                # working groups stay with prob beta2, failed stay with beta1
                working = np.where(working, u < self.beta2, u >= self.beta1)
                rate = working.mean()
            rates[t] = rate
        return rates


def binomial_rate_moments(n_groups: int, alpha: float) -> tuple[float, float]:
    """Mean and variance of the working fraction of n independent groups."""
    return alpha, alpha * (1.0 - alpha) / n_groups


def thermal_energy_bound(p_max: float, duration: float,
                         programmed: float = 1.0, realized: float = 1.0) -> float:
    """Maximum energy of a plant over one post, MWh."""
    return realized * programmed * p_max * duration


@dataclass(frozen=True)
class ThermalUnit:
    name: str
    cost: float                     # fuel cost, currency per MWh
    p_max: float                    # full-fleet capacity, MW
    n_groups: int
    alpha: float                    # long-run working probability of one group
    availability: AvailabilityModel | None = None

    def __post_init__(self):
        if self.cost < 0.0:
            raise ValueError(f"{self.name}: cost must be nonnegative")
        if self.p_max <= 0.0:
            raise ValueError(f"{self.name}: p_max must be positive")
        if self.n_groups < 1:
            raise ValueError(f"{self.name}: need at least one group")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"{self.name}: alpha must lie in [0, 1]")

    @property
    def group_power(self) -> float:
        return self.p_max / self.n_groups

    def gaussian_approx_ok(self) -> bool:
        """Whether the normal approximation of the outage binomial is defensible."""
        # n - n*a, not n*(1-a): keeps boundary cases like (100, 0.9) exact
        expected_up = self.n_groups * self.alpha
        return expected_up >= 10.0 and self.n_groups - expected_up >= 10.0

    def sampler(self) -> AvailabilityModel:
        """Markov model used to draw availability in simulations."""
        if self.availability is not None:
            return self.availability
        return AvailabilityModel.from_alpha(self.alpha)


@dataclass(frozen=True)
class HydroUnit:
    name: str
    x_min: float                    # stock bounds, MWh
    x_max: float
    x0: float                       # initial stock, MWh
    p_max: float                    # turbine capacity, MW
    value_points: tuple = ()        # ((stock, value), ...) terminal water value

    def __post_init__(self):
        if not self.x_min <= self.x0 <= self.x_max:
            raise ValueError(f"{self.name}: initial stock outside [x_min, x_max]")
        if self.x_min >= self.x_max:
            raise ValueError(f"{self.name}: x_min must be below x_max")
        if self.p_max <= 0.0:
            raise ValueError(f"{self.name}: p_max must be positive")
        pts = tuple((float(x), float(v)) for x, v in self.value_points)
        object.__setattr__(self, "value_points", pts)
        if len(pts) < 2:
            raise ValueError(f"{self.name}: terminal value needs >= 2 points")
        xs = np.array([x for x, _ in pts])
        vs = np.array([v for _, v in pts])
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError(f"{self.name}: value stocks must strictly increase")
        if xs[0] > self.x_min or xs[-1] < self.x_max:
            raise ValueError(f"{self.name}: terminal value must cover [x_min, x_max]")
        slopes = np.diff(vs) / np.diff(xs)
        if np.any(slopes < -1e-9):
            raise ValueError(f"{self.name}: terminal value must be nondecreasing")
        if np.any(np.diff(slopes) > 1e-9 * max(1.0, np.abs(slopes).max())):
            raise ValueError(f"{self.name}: terminal value must be concave")

    def terminal_value(self, x) -> np.ndarray | float:
        xs = np.array([p[0] for p in self.value_points])
        vs = np.array([p[1] for p in self.value_points])
        return np.interp(x, xs, vs)


@dataclass(frozen=True)
class EjpContract:
    name: str
    days: int                       # number of usable whole days
    power: float                    # MW delivered over each post of a used day
    value_table: tuple = ()         # value of s remaining days, s = 0..days

    def __post_init__(self):
        if self.days < 1:
            raise ValueError(f"{self.name}: contract needs at least one day")
        if self.power <= 0.0:
            raise ValueError(f"{self.name}: power must be positive")
        table = tuple(float(v) for v in self.value_table)
        object.__setattr__(self, "value_table", table)
        if len(table) != self.days + 1:
            raise ValueError(f"{self.name}: value table must have days + 1 entries")
        if any(b < a - 1e-12 for a, b in zip(table, table[1:])):
            raise ValueError(f"{self.name}: value table must be nondecreasing")

    def terminal_value(self, remaining: int) -> float:
        return self.value_table[remaining]


@dataclass
class UnitSet:
    thermal: list = field(default_factory=list)
    hydro: list = field(default_factory=list)
    ejp: list = field(default_factory=list)

    def __post_init__(self):
        names = ([u.name for u in self.thermal] + [u.name for u in self.hydro]
                 + [u.name for u in self.ejp])
        if len(names) != len(set(names)):
            raise ValueError("unit names must be unique")

    @property
    def num_thermal(self) -> int:
        return len(self.thermal)

    @property
    def num_hydro(self) -> int:
        return len(self.hydro)

    @property
    def num_ejp(self) -> int:
        return len(self.ejp)
