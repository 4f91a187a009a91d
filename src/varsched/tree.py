"""Scenario trees over daily stages with intraday posts.

A node is one day of one scenario branch; its data cover the ``L``
intraday posts (duration, demand, inflows, programmed unit rates).
Multipliers and any per-cell quantity use the canonical flat layout
``flat[node_index * L + post]`` with nodes in topological order
(sorted by day, ties by id), i.e. the C-order ravel of an ``(N, L)``
array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-9


@dataclass
class Node:
    """One day of one branch, carrying per-post data.

    ``father`` is the id of the previous day's node (None for the
    root).  ``trans_prob`` is the probability of reaching this node
    from its father; the tree computes unconditional probabilities.
    ``inflows`` has one row per reservoir; the programmed rates are
    capacity fractions left by planned maintenance (1 = fully
    available).
    """

    id: int
    time: int
    father: int | None
    trans_prob: float
    durations: np.ndarray
    demand: np.ndarray
    inflows: np.ndarray
    thermal_programmed: np.ndarray
    hydro_programmed: np.ndarray

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=float).ravel()
        self.demand = np.asarray(self.demand, dtype=float).ravel()
        self.inflows = np.atleast_2d(np.asarray(self.inflows, dtype=float))
        self.thermal_programmed = np.asarray(self.thermal_programmed, dtype=float).ravel()
        self.hydro_programmed = np.asarray(self.hydro_programmed, dtype=float).ravel()


class ScenarioTree:
    """Immutable bundle of nodes with packed per-cell arrays.

    Construction sorts nodes into canonical order, resolves father
    links, computes unconditional probabilities along father chains and
    packs the node data into arrays indexed ``[node, post]`` (inflows:
    ``[reservoir, node, post]``).  Structural problems that make those
    arrays meaningless (duplicate ids, missing fathers, shape
    mismatches) raise immediately; everything else is left to
    ``validate_tree``.
    """

    def __init__(self, nodes, num_posts: int):
        if num_posts < 1:
            raise ValueError("need at least one post per day")
        if not nodes:
            raise ValueError("tree needs at least one node")
        self.num_posts = int(num_posts)
        self.nodes = sorted(nodes, key=lambda n: (n.time, n.id))
        self.num_nodes = len(self.nodes)
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        self.id_to_index = {n.id: i for i, n in enumerate(self.nodes)}

        n0 = self.nodes[0]
        self.num_hydro = n0.inflows.shape[0]
        self.num_thermal = n0.thermal_programmed.size
        L = self.num_posts
        for n in self.nodes:
            if (n.durations.size != L or n.demand.size != L
                    or n.inflows.shape != (self.num_hydro, L)
                    or n.thermal_programmed.size != self.num_thermal
                    or n.hydro_programmed.size != self.num_hydro):
                raise ValueError(f"node {n.id}: per-post data has inconsistent shape")

        self.father_index = np.full(self.num_nodes, -1, dtype=int)
        for i, n in enumerate(self.nodes):
            if n.father is not None:
                if n.father not in self.id_to_index:
                    raise ValueError(f"node {n.id}: father {n.father} not in tree")
                self.father_index[i] = self.id_to_index[n.father]

        self.times = np.array([n.time for n in self.nodes], dtype=int)
        self.trans_prob = np.array([n.trans_prob for n in self.nodes])
        self.last_day = int(self.times.max())
        self.num_days = self.last_day + 1

        self.prob = np.empty(self.num_nodes)
        for i, n in enumerate(self.nodes):
            f = self.father_index[i]
            self.prob[i] = n.trans_prob if f < 0 else self.prob[f] * n.trans_prob

        self.sons: list[np.ndarray] = [None] * self.num_nodes
        son_lists = [[] for _ in range(self.num_nodes)]
        for i in range(self.num_nodes):
            f = self.father_index[i]
            if f >= 0:
                son_lists[f].append(i)
        for i in range(self.num_nodes):
            self.sons[i] = np.array(son_lists[i], dtype=int)

        self.nodes_at_time = [np.flatnonzero(self.times == t)
                              for t in range(self.num_days)]
        self.leaves = np.flatnonzero([s.size == 0 for s in self.sons])

        self.durations = np.stack([n.durations for n in self.nodes])
        self.demand = np.stack([n.demand for n in self.nodes])
        self.inflows = np.stack([n.inflows for n in self.nodes], axis=1)
        self.thermal_programmed = np.stack([n.thermal_programmed for n in self.nodes])
        self.hydro_programmed = np.stack([n.hydro_programmed for n in self.nodes])

    @property
    def dim(self) -> int:
        """Length of a multiplier vector: one entry per (node, post)."""
        return self.num_nodes * self.num_posts

    def cells(self, flat: np.ndarray) -> np.ndarray:
        """View a flat per-cell vector as an (num_nodes, num_posts) array."""
        flat = np.asarray(flat)
        if flat.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}")
        return flat.reshape(self.num_nodes, self.num_posts)

    def demand_vector(self) -> np.ndarray:
        return self.demand.ravel().copy()


@dataclass
class Scenario:
    """One simulated year: realized demand, inflows and availability.

    ``demand`` is (days, posts) MWh, ``inflows`` (reservoirs, days,
    posts) MWh, ``thermal_avail`` (plants, days) the realized fraction
    of working groups.
    """

    demand: np.ndarray
    inflows: np.ndarray
    thermal_avail: np.ndarray

    def __post_init__(self):
        self.demand = np.asarray(self.demand, dtype=float)
        self.inflows = np.asarray(self.inflows, dtype=float)
        self.thermal_avail = np.asarray(self.thermal_avail, dtype=float)

    @property
    def num_days(self) -> int:
        return self.demand.shape[0]


def validate_tree(tree: ScenarioTree) -> list[str]:
    """Check structural and probabilistic invariants; return violations.

    An empty list means the tree is sound: exactly one root on day 0,
    father links step back one day, leaves sit exactly on the last day,
    transition probabilities of siblings sum to one, unconditional
    probabilities sum to one on every day, and all data fields have
    admissible signs and ranges.
    """
    bad: list[str] = []
    roots = np.flatnonzero(tree.father_index < 0)
    if roots.size != 1:
        bad.append(f"expected exactly one root, found {roots.size}")
    for r in roots:
        n = tree.nodes[r]
        if n.time != 0:
            bad.append(f"node {n.id}: root must sit on day 0, found day {n.time}")
        if abs(n.trans_prob - 1.0) > PROB_TOL:
            bad.append(f"node {n.id}: root transition probability must be 1")

    for i, n in enumerate(tree.nodes):
        f = tree.father_index[i]
        if f >= 0 and tree.nodes[f].time != n.time - 1:
            bad.append(f"node {n.id}: father must sit one day earlier")
        if not 0.0 <= n.trans_prob <= 1.0 + PROB_TOL:
            bad.append(f"node {n.id}: transition probability outside [0, 1]")
        if tree.sons[i].size == 0 and n.time != tree.last_day:
            bad.append(f"node {n.id}: interior day {n.time} has no continuation")
        if tree.sons[i].size > 0 and n.time == tree.last_day:
            bad.append(f"node {n.id}: last-day node cannot have sons")
        if np.any(n.durations <= 0.0):
            bad.append(f"node {n.id}: post durations must be positive")
        if np.any(n.demand < 0.0):
            bad.append(f"node {n.id}: demand must be nonnegative")
        if np.any(n.inflows < 0.0):
            bad.append(f"node {n.id}: inflows must be nonnegative")
        for name, rates in (("thermal", n.thermal_programmed),
                            ("hydro", n.hydro_programmed)):
            if np.any((rates < 0.0) | (rates > 1.0)):
                bad.append(f"node {n.id}: {name} programmed rates outside [0, 1]")

    for i in range(tree.num_nodes):
        s = tree.sons[i]
        if s.size > 0:
            total = tree.trans_prob[s].sum()
            if abs(total - 1.0) > PROB_TOL * max(1, s.size):
                bad.append(f"node {tree.nodes[i].id}: son transition "
                           f"probabilities sum to {total:.12f}")

    for t in range(tree.num_days):
        idx = tree.nodes_at_time[t]
        if idx.size == 0:
            bad.append(f"day {t}: no nodes")
            continue
        total = tree.prob[idx].sum()
        if abs(total - 1.0) > PROB_TOL * max(1, idx.size):
            bad.append(f"day {t}: probabilities sum to {total:.12f}")
    return bad


def check_scenario(tree: ScenarioTree, scenario: Scenario) -> list[str]:
    """Shape and range checks for a simulated scenario against a tree."""
    bad = []
    T, L = tree.num_days, tree.num_posts
    if scenario.demand.shape != (T, L):
        bad.append(f"demand shape {scenario.demand.shape} != {(T, L)}")
    if scenario.inflows.shape != (tree.num_hydro, T, L):
        bad.append(f"inflows shape {scenario.inflows.shape} != "
                   f"{(tree.num_hydro, T, L)}")
    if scenario.thermal_avail.shape != (tree.num_thermal, T):
        bad.append(f"thermal_avail shape {scenario.thermal_avail.shape} != "
                   f"{(tree.num_thermal, T)}")
    if np.any(scenario.demand < 0.0) or np.any(scenario.inflows < 0.0):
        bad.append("demand and inflows must be nonnegative")
    if bad == [] and np.any((scenario.thermal_avail < 0.0)
                            | (scenario.thermal_avail > 1.0)):
        bad.append("thermal availability rates must lie in [0, 1]")
    return bad
