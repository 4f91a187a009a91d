"""Strict JSON file formats for trees, units, scenarios and multipliers.

All formats carry a ``format`` tag and reject unknown fields, so a
typo'd key fails loudly instead of being silently ignored.  Writers are
canonical: fixed key order, nodes in tree order, shortest round-trip
float representation.  ``save(load(path))`` reproduces the file byte
for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .tree import Node, Scenario, ScenarioTree
from .units import (AvailabilityModel, EjpContract, HydroUnit, ThermalUnit,
                    UnitSet)

TREE_FORMAT = "tree-v1"
UNITS_FORMAT = "units-v1"
SCENARIOS_FORMAT = "scenarios-v1"
MULTIPLIER_FORMAT = "multiplier-v1"


class FormatError(ValueError):
    """A file does not conform to its declared format."""


def _dump(obj, path) -> None:
    text = json.dumps(obj, indent=1, allow_nan=False)
    Path(path).write_text(text + "\n")


def _load(path, expected_format: str) -> dict:
    def reject(literal):
        raise FormatError(f"{path}: non-finite number {literal} is not allowed")

    try:
        obj = json.loads(Path(path).read_text(), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: top level must be an object")
    got = obj.get("format")
    if got != expected_format:
        raise FormatError(f"{path}: format {got!r}, expected {expected_format!r}")
    return obj


def _take(record: dict, key: str, where: str, optional: bool = False):
    if key not in record:
        if optional:
            return None
        raise FormatError(f"{where}: missing field {key!r}")
    return record.pop(key)

def _done(record: dict, where: str) -> None:
    if record:
        raise FormatError(f"{where}: unknown fields {sorted(record)}")


def _records(values, where: str, what: str) -> list[dict]:
    if not isinstance(values, list) or not all(isinstance(r, dict)
                                               for r in values):
        raise FormatError(f"{where}: {what!r} must be a list of objects")
    return values


def _floats(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise FormatError(f"{where}: expected a list of numbers")
    out = []
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise FormatError(f"{where}: expected a number, got {v!r}")
        out.append(float(v))
    return out


def _rows(values, where: str, what: str) -> list[list[float]]:
    if not isinstance(values, list):
        raise FormatError(f"{where}: {what!r} must be a list of rows of numbers")
    return [_floats(row, where) for row in values]


def _pairs(values, where: str, what: str) -> tuple:
    rows = _rows(values, where, what)
    if any(len(row) != 2 for row in rows):
        raise FormatError(f"{where}: {what!r} must be a list of number pairs")
    return tuple((x, v) for x, v in rows)


# ---------------------------------------------------------------- trees

def save_tree(tree: ScenarioTree, path) -> None:
    records = []
    for n in tree.nodes:
        records.append({
            "id": int(n.id),
            "time": int(n.time),
            "father": None if n.father is None else int(n.father),
            "trans_prob": float(n.trans_prob),
            "durations": [float(x) for x in n.durations],
            "demand": [float(x) for x in n.demand],
            "inflows": [[float(x) for x in row] for row in n.inflows],
            "thermal_programmed": [float(x) for x in n.thermal_programmed],
            "hydro_programmed": [float(x) for x in n.hydro_programmed],
        })
    _dump({"format": TREE_FORMAT, "num_posts": tree.num_posts,
           "nodes": records}, path)


def load_tree(path) -> ScenarioTree:
    obj = _load(path, TREE_FORMAT)
    obj.pop("format")
    num_posts = _take(obj, "num_posts", path)
    raw_nodes = _records(_take(obj, "nodes", path), path, "nodes")
    _done(obj, path)
    if not raw_nodes:
        raise FormatError(f"{path}: 'nodes' must be a nonempty list")
    nodes = []
    for rec in raw_nodes:
        where = f"{path}: node {rec.get('id', '?')}"
        rec = dict(rec)
        node = Node(
            id=int(_take(rec, "id", where)),
            time=int(_take(rec, "time", where)),
            father=_take(rec, "father", where),
            trans_prob=float(_take(rec, "trans_prob", where)),
            durations=_floats(_take(rec, "durations", where), where),
            demand=_floats(_take(rec, "demand", where), where),
            inflows=_rows(_take(rec, "inflows", where), where, "inflows"),
            thermal_programmed=_floats(_take(rec, "thermal_programmed", where), where),
            hydro_programmed=_floats(_take(rec, "hydro_programmed", where), where),
        )
        _done(rec, where)
        nodes.append(node)
    return ScenarioTree(nodes, num_posts=int(num_posts))


# ---------------------------------------------------------------- units

def save_units(units: UnitSet, path) -> None:
    thermal = []
    for u in units.thermal:
        rec = {"name": u.name, "cost": u.cost, "p_max": u.p_max,
               "n_groups": u.n_groups, "alpha": u.alpha}
        if u.availability is not None:
            a = u.availability
            rec.update({"beta1": a.beta1, "beta2": a.beta2,
                        "p_work": a.p_work, "check_interval": a.check_interval})
        thermal.append(rec)
    hydro = [{"name": u.name, "x_min": u.x_min, "x_max": u.x_max,
              "x0": u.x0, "p_max": u.p_max,
              "value_points": [[x, v] for x, v in u.value_points]}
             for u in units.hydro]
    ejp = [{"name": u.name, "days": u.days, "power": u.power,
            "value_table": list(u.value_table)}
           for u in units.ejp]
    _dump({"format": UNITS_FORMAT, "thermal": thermal, "hydro": hydro,
           "ejp": ejp}, path)


def load_units(path) -> UnitSet:
    obj = _load(path, UNITS_FORMAT)
    obj.pop("format")
    raw_th = _records(_take(obj, "thermal", path), path, "thermal")
    raw_hy = _records(_take(obj, "hydro", path), path, "hydro")
    raw_ejp = _records(_take(obj, "ejp", path), path, "ejp")
    _done(obj, path)

    thermal = []
    for rec in raw_th:
        rec = dict(rec)
        where = f"{path}: thermal {rec.get('name', '?')}"
        name = str(_take(rec, "name", where))
        cost = float(_take(rec, "cost", where))
        p_max = float(_take(rec, "p_max", where))
        n_groups = int(_take(rec, "n_groups", where))
        alpha = float(_take(rec, "alpha", where))
        beta1 = _take(rec, "beta1", where, optional=True)
        beta2 = _take(rec, "beta2", where, optional=True)
        p_work = _take(rec, "p_work", where, optional=True)
        interval = _take(rec, "check_interval", where, optional=True)
        _done(rec, where)
        avail = None
        markov = (beta1, beta2, p_work)
        if any(v is not None for v in markov) or interval is not None:
            if any(v is None for v in markov):
                raise FormatError(f"{where}: beta1, beta2 and p_work must be "
                                  "given together")
            avail = AvailabilityModel(
                beta1=float(beta1), beta2=float(beta2), p_work=float(p_work),
                check_interval=7 if interval is None else int(interval))
        thermal.append(ThermalUnit(name=name, cost=cost, p_max=p_max,
                                   n_groups=n_groups, alpha=alpha,
                                   availability=avail))

    hydro = []
    for rec in raw_hy:
        rec = dict(rec)
        where = f"{path}: hydro {rec.get('name', '?')}"
        hydro.append(HydroUnit(
            name=str(_take(rec, "name", where)),
            x_min=float(_take(rec, "x_min", where)),
            x_max=float(_take(rec, "x_max", where)),
            x0=float(_take(rec, "x0", where)),
            p_max=float(_take(rec, "p_max", where)),
            value_points=_pairs(_take(rec, "value_points", where), where,
                                "value_points")))
        _done(rec, where)

    ejp = []
    for rec in raw_ejp:
        rec = dict(rec)
        where = f"{path}: ejp {rec.get('name', '?')}"
        ejp.append(EjpContract(
            name=str(_take(rec, "name", where)),
            days=int(_take(rec, "days", where)),
            power=float(_take(rec, "power", where)),
            value_table=tuple(_floats(_take(rec, "value_table", where), where))))
        _done(rec, where)

    return UnitSet(thermal=thermal, hydro=hydro, ejp=ejp)


# ------------------------------------------------------------ scenarios

def save_scenarios(scenarios, path) -> None:
    if not scenarios:
        raise ValueError("no scenarios to save")
    first = scenarios[0]
    H, T, L = first.inflows.shape
    U = first.thermal_avail.shape[0]
    records = []
    for s, sc in enumerate(scenarios):
        for t in range(T):
            records.append({
                "scenario": s, "day": t,
                "demand": [float(x) for x in sc.demand[t]],
                "inflows": [[float(x) for x in sc.inflows[h, t]]
                            for h in range(H)],
                "thermal_avail": [float(sc.thermal_avail[u, t])
                                  for u in range(U)],
            })
    _dump({"format": SCENARIOS_FORMAT, "num_scenarios": len(scenarios),
           "horizon_days": T, "num_posts": L, "num_hydro": H,
           "num_thermal": U, "records": records}, path)


def load_scenarios(path) -> list[Scenario]:
    obj = _load(path, SCENARIOS_FORMAT)
    obj.pop("format")
    S = int(_take(obj, "num_scenarios", path))
    T = int(_take(obj, "horizon_days", path))
    L = int(_take(obj, "num_posts", path))
    H = int(_take(obj, "num_hydro", path))
    U = int(_take(obj, "num_thermal", path))
    records = _records(_take(obj, "records", path), path, "records")
    _done(obj, path)
    if len(records) != S * T:
        raise FormatError(f"{path}: expected {S * T} records, found {len(records)}")
    demand = np.zeros((S, T, L))
    inflows = np.zeros((S, H, T, L))
    avail = np.zeros((S, U, T))
    seen = np.zeros((S, T), dtype=bool)
    for rec in records:
        rec = dict(rec)
        where = (f"{path}: scenario {rec.get('scenario', '?')} "
                 f"day {rec.get('day', '?')}")
        s = int(_take(rec, "scenario", where))
        t = int(_take(rec, "day", where))
        if not (0 <= s < S and 0 <= t < T):
            raise FormatError(f"{where}: indices out of range")
        if seen[s, t]:
            raise FormatError(f"{where}: duplicate record")
        seen[s, t] = True
        d = _floats(_take(rec, "demand", where), where)
        if len(d) != L:
            raise FormatError(f"{where}: demand must have {L} posts")
        demand[s, t] = d
        raw_inf = _rows(_take(rec, "inflows", where), where, "inflows")
        if len(raw_inf) != H:
            raise FormatError(f"{where}: inflows must have {H} rows")
        for h, row in enumerate(raw_inf):
            if len(row) != L:
                raise FormatError(f"{where}: inflow rows must have {L} posts")
            inflows[s, h, t] = row
        a = _floats(_take(rec, "thermal_avail", where), where)
        if len(a) != U:
            raise FormatError(f"{where}: thermal_avail must have {U} entries")
        avail[s, :, t] = a
        _done(rec, where)
    if not seen.all():
        raise FormatError(f"{path}: missing (scenario, day) records")
    return [Scenario(demand=demand[s], inflows=inflows[s],
                     thermal_avail=avail[s]) for s in range(S)]


# ---------------------------------------------------------- multipliers

def save_multiplier(lam, tree: ScenarioTree, path) -> None:
    cells = tree.cells(np.asarray(lam, dtype=float))
    records = [{"id": int(n.id), "values": [float(x) for x in cells[i]]}
               for i, n in enumerate(tree.nodes)]
    _dump({"format": MULTIPLIER_FORMAT, "num_posts": tree.num_posts,
           "nodes": records}, path)


def load_multiplier(path, tree: ScenarioTree) -> np.ndarray:
    obj = _load(path, MULTIPLIER_FORMAT)
    obj.pop("format")
    L = int(_take(obj, "num_posts", path))
    records = _records(_take(obj, "nodes", path), path, "nodes")
    _done(obj, path)
    if L != tree.num_posts:
        raise FormatError(f"{path}: file has {L} posts, tree has {tree.num_posts}")
    if len(records) != tree.num_nodes:
        raise FormatError(f"{path}: file has {len(records)} nodes, "
                          f"tree has {tree.num_nodes}")
    out = np.empty((tree.num_nodes, tree.num_posts))
    seen = np.zeros(tree.num_nodes, dtype=bool)
    for rec in records:
        rec = dict(rec)
        where = f"{path}: node {rec.get('id', '?')}"
        node_id = int(_take(rec, "id", where))
        values = _floats(_take(rec, "values", where), where)
        _done(rec, where)
        if node_id not in tree.id_to_index:
            raise FormatError(f"{where}: not a node of the tree")
        i = tree.id_to_index[node_id]
        if seen[i]:
            raise FormatError(f"{where}: duplicate record")
        if len(values) != tree.num_posts:
            raise FormatError(f"{where}: expected {tree.num_posts} values")
        seen[i] = True
        out[i] = values
    return out.ravel()
