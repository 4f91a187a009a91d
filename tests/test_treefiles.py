"""File format round-trips and strictness of the loaders."""

import json

import numpy as np
import pytest

from varsched import treefiles
from varsched.treefiles import FormatError
from varsched.units import AvailabilityModel, EjpContract, HydroUnit, ThermalUnit, UnitSet

from conftest import small_synth, small_unit_set


@pytest.fixture
def instance(tmp_path):
    units = small_unit_set(with_ejp=True)
    tree, scens = small_synth(units)
    return tmp_path, tree, scens, units


def test_tree_roundtrip_bytes(instance):
    d, tree, _, _ = instance
    p1, p2 = d / "t1.json", d / "t2.json"
    treefiles.save_tree(tree, p1)
    tree2 = treefiles.load_tree(p1)
    treefiles.save_tree(tree2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(tree.demand, tree2.demand)
    np.testing.assert_array_equal(tree.prob, tree2.prob)
    assert tree2.num_posts == tree.num_posts


def test_units_roundtrip_bytes(instance):
    d, _, _, units = instance
    # exercise the explicit availability branch too
    units = UnitSet(
        thermal=units.thermal + [ThermalUnit(
            "custom", 33.0, 120.0, 3, 0.8,
            availability=AvailabilityModel(0.3, 0.9, 0.75, check_interval=5))],
        hydro=units.hydro, ejp=units.ejp)
    p1, p2 = d / "u1.json", d / "u2.json"
    treefiles.save_units(units, p1)
    units2 = treefiles.load_units(p1)
    treefiles.save_units(units2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert units2.thermal[-1].availability.check_interval == 5
    assert units2.ejp[0].days == units.ejp[0].days


def test_scenarios_roundtrip_bytes(instance):
    d, _, scens, _ = instance
    p1, p2 = d / "s1.json", d / "s2.json"
    treefiles.save_scenarios(scens, p1)
    back = treefiles.load_scenarios(p1)
    treefiles.save_scenarios(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(back) == len(scens)
    for a, b in zip(scens, back):
        np.testing.assert_array_equal(a.demand, b.demand)
        np.testing.assert_array_equal(a.inflows, b.inflows)
        np.testing.assert_array_equal(a.thermal_avail, b.thermal_avail)


def test_multiplier_roundtrip(instance):
    d, tree, _, _ = instance
    rng = np.random.default_rng(0)
    lam = rng.normal(size=tree.dim)
    p = d / "lam.json"
    treefiles.save_multiplier(lam, tree, p)
    back = treefiles.load_multiplier(p, tree)
    np.testing.assert_array_equal(lam, back)


def test_wrong_format_tag(instance):
    d, tree, _, _ = instance
    p = d / "t.json"
    treefiles.save_tree(tree, p)
    with pytest.raises(FormatError):
        treefiles.load_units(p)


def test_unknown_field_rejected(instance):
    d, tree, _, _ = instance
    p = d / "t.json"
    treefiles.save_tree(tree, p)
    obj = json.loads(p.read_text())
    obj["nodes"][0]["surprise"] = 1
    p.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        treefiles.load_tree(p)


def test_missing_field_rejected(instance):
    d, tree, _, _ = instance
    p = d / "t.json"
    treefiles.save_tree(tree, p)
    obj = json.loads(p.read_text())
    del obj["nodes"][0]["demand"]
    p.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        treefiles.load_tree(p)


def test_not_json_rejected(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        treefiles.load_tree(p)


def test_multiplier_needs_matching_tree(instance):
    d, tree, _, units = instance
    p = d / "lam.json"
    treefiles.save_multiplier(np.zeros(tree.dim), tree, p)
    other, _ = small_synth(small_unit_set(), horizon=4, branch_days=(2,))
    with pytest.raises(FormatError):
        treefiles.load_multiplier(p, other)


def test_multiplier_duplicate_node_rejected(instance):
    d, tree, _, _ = instance
    p = d / "lam.json"
    treefiles.save_multiplier(np.zeros(tree.dim), tree, p)
    obj = json.loads(p.read_text())
    obj["nodes"][1] = obj["nodes"][0]
    p.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        treefiles.load_multiplier(p, tree)


def test_nan_refused_on_save(instance):
    d, tree, _, _ = instance
    lam = np.zeros(tree.dim)
    lam[0] = np.nan
    with pytest.raises(ValueError):
        treefiles.save_multiplier(lam, tree, d / "bad.json")


@pytest.mark.parametrize("kind, key, corrupt", [
    ("units", "thermal", lambda recs: 5),
    ("units", "hydro", lambda recs: recs + [3]),
    ("units", "ejp", lambda recs: {"name": "x"}),
    ("scenarios", "records", lambda recs: [7] + recs[1:]),
    ("tree", "nodes", lambda recs: recs[:-1] + ["node"]),
    ("multiplier", "nodes", lambda recs: 4),
], ids=["thermal-int", "hydro-item", "ejp-object", "scenario-record",
        "tree-node", "multiplier-int"])
def test_record_lists_must_hold_objects(instance, kind, key, corrupt):
    d, tree, scens, units = instance
    p = d / f"{kind}.json"
    if kind == "multiplier":
        treefiles.save_multiplier(np.zeros(tree.dim), tree, p)
    else:
        data = {"tree": tree, "units": units, "scenarios": scens}[kind]
        getattr(treefiles, f"save_{kind}")(data, p)
    obj = json.loads(p.read_text())
    obj[key] = corrupt(obj[key])
    p.write_text(json.dumps(obj))
    load = getattr(treefiles, f"load_{kind}")
    with pytest.raises(FormatError, match=key):
        load(p, tree) if kind == "multiplier" else load(p)


def _set_first(key, field, value):
    def corrupt(obj):
        obj[key][0][field] = value
    return corrupt


@pytest.mark.parametrize("kind, field, corrupt", [
    ("units", "value_points", _set_first("hydro", "value_points", 5)),
    ("units", "value_points", _set_first("hydro", "value_points",
                                         [[0.0, 1.0, 2.0]])),
    ("scenarios", "inflows", _set_first("records", "inflows", 5)),
    ("tree", "inflows", _set_first("nodes", "inflows", 5)),
], ids=["value-points-int", "value-points-triple", "scenario-inflows-int",
        "node-inflows-int"])
def test_nested_number_fields_must_be_rows(instance, kind, field, corrupt):
    d, tree, scens, units = instance
    p = d / f"{kind}.json"
    data = {"tree": tree, "units": units, "scenarios": scens}[kind]
    getattr(treefiles, f"save_{kind}")(data, p)
    obj = json.loads(p.read_text())
    corrupt(obj)
    p.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=field):
        getattr(treefiles, f"load_{kind}")(p)


def test_scenario_count_mismatch(instance):
    d, _, scens, _ = instance
    p = d / "s.json"
    treefiles.save_scenarios(scens, p)
    obj = json.loads(p.read_text())
    obj["records"] = obj["records"][:-1]
    p.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        treefiles.load_scenarios(p)
