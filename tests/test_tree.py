"""Tree construction, canonical ordering, probability algebra, validation."""

import numpy as np
import pytest

from varsched.tree import Node, Scenario, ScenarioTree, check_scenario, validate_tree

from conftest import chain_tree, small_synth, small_unit_set


def fork_tree():
    """Two days, root forking into two sons with probs 0.4 / 0.6."""
    mk = lambda i, t, f, tp, dem: Node(
        id=i, time=t, father=f, trans_prob=tp,
        durations=np.array([8.0, 16.0]), demand=np.array(dem),
        inflows=np.array([[10.0, 20.0]]), thermal_programmed=np.array([1.0]),
        hydro_programmed=np.array([1.0]))
    # scrambled ids and insertion order on purpose
    nodes = [mk(7, 1, 3, 0.6, [120.0, 80.0]),
             mk(3, 0, None, 1.0, [100.0, 60.0]),
             mk(5, 1, 3, 0.4, [110.0, 70.0])]
    return ScenarioTree(nodes, num_posts=2)


def test_canonical_order_and_probs():
    tree = fork_tree()
    assert [n.id for n in tree.nodes] == [3, 5, 7]
    np.testing.assert_allclose(tree.prob, [1.0, 0.4, 0.6])
    assert tree.father_index.tolist() == [-1, 0, 0]
    assert tree.leaves.tolist() == [1, 2]
    assert tree.sons[0].tolist() == [1, 2]
    assert tree.num_days == 2 and tree.last_day == 1
    assert tree.dim == 6


def test_multiplier_layout():
    tree = fork_tree()
    # flat[node_index * L + post], nodes sorted by (time, id)
    flat = np.arange(6.0)
    cells = tree.cells(flat)
    assert cells.shape == (3, 2)
    assert cells[tree.id_to_index[3], 0] == 0.0
    assert cells[tree.id_to_index[5], 1] == 3.0
    assert cells[tree.id_to_index[7], 0] == 4.0
    with pytest.raises(ValueError):
        tree.cells(np.arange(5.0))


def test_packed_arrays():
    tree = fork_tree()
    assert tree.demand.shape == (3, 2)
    assert tree.inflows.shape == (1, 3, 2)
    np.testing.assert_allclose(tree.demand[0], [100.0, 60.0])
    np.testing.assert_allclose(tree.demand_vector(),
                               [100.0, 60.0, 110.0, 70.0, 120.0, 80.0])


def test_duplicate_ids_rejected():
    n = Node(id=1, time=0, father=None, trans_prob=1.0,
             durations=[8.0], demand=[1.0], inflows=[[0.0]],
             thermal_programmed=[1.0], hydro_programmed=[1.0])
    m = Node(id=1, time=1, father=1, trans_prob=1.0,
             durations=[8.0], demand=[1.0], inflows=[[0.0]],
             thermal_programmed=[1.0], hydro_programmed=[1.0])
    with pytest.raises(ValueError):
        ScenarioTree([n, m], num_posts=1)


def test_missing_father_rejected():
    n = Node(id=0, time=0, father=9, trans_prob=1.0,
             durations=[8.0], demand=[1.0], inflows=[[0.0]],
             thermal_programmed=[1.0], hydro_programmed=[1.0])
    with pytest.raises(ValueError):
        ScenarioTree([n], num_posts=1)


def test_validate_clean_tree():
    assert validate_tree(fork_tree()) == []
    tree, _ = small_synth(small_unit_set())
    assert validate_tree(tree) == []


def test_validate_flags_sibling_prob_gap():
    mk = lambda i, t, f, tp: Node(
        id=i, time=t, father=f, trans_prob=tp, durations=[8.0], demand=[1.0],
        inflows=[[0.0]], thermal_programmed=[1.0], hydro_programmed=[1.0])
    tree = ScenarioTree([mk(0, 0, None, 1.0), mk(1, 1, 0, 0.5),
                         mk(2, 1, 0, 0.4)], num_posts=1)
    bad = validate_tree(tree)
    assert any("sum to" in msg for msg in bad)


def test_validate_flags_interior_leaf():
    mk = lambda i, t, f: Node(
        id=i, time=t, father=f, trans_prob=1.0, durations=[8.0], demand=[1.0],
        inflows=[[0.0]], thermal_programmed=[1.0], hydro_programmed=[1.0])
    # node 1 dead-ends on day 1 while node 2 continues to day 2
    n0, n1 = mk(0, 0, None), mk(1, 1, 0)
    n1.trans_prob = 0.5
    n2 = mk(2, 1, 0)
    n2.trans_prob = 0.5
    n3 = mk(3, 2, 2)
    tree = ScenarioTree([n0, n1, n2, n3], num_posts=1)
    bad = validate_tree(tree)
    assert any("no continuation" in msg for msg in bad)


def test_validate_flags_bad_root():
    mk = lambda i, t, f, tp: Node(
        id=i, time=t, father=f, trans_prob=tp, durations=[8.0], demand=[1.0],
        inflows=[[0.0]], thermal_programmed=[1.0], hydro_programmed=[1.0])
    tree = ScenarioTree([mk(0, 0, None, 0.7)], num_posts=1)
    assert any("probability must be 1" in m for m in validate_tree(tree))


def test_validate_flags_negative_data():
    n = Node(id=0, time=0, father=None, trans_prob=1.0, durations=[8.0],
             demand=[-1.0], inflows=[[0.0]], thermal_programmed=[1.0],
             hydro_programmed=[1.0])
    tree = ScenarioTree([n], num_posts=1)
    assert any("demand" in m for m in validate_tree(tree))
    n2 = Node(id=0, time=0, father=None, trans_prob=1.0, durations=[8.0],
              demand=[1.0], inflows=[[0.0]], thermal_programmed=[1.4],
              hydro_programmed=[1.0])
    tree2 = ScenarioTree([n2], num_posts=1)
    assert any("programmed" in m for m in validate_tree(tree2))


def test_shape_mismatch_rejected():
    good = Node(id=0, time=0, father=None, trans_prob=1.0, durations=[8.0, 8.0],
                demand=[1.0, 1.0], inflows=[[0.0, 0.0]],
                thermal_programmed=[1.0], hydro_programmed=[1.0])
    short = Node(id=1, time=1, father=0, trans_prob=1.0, durations=[8.0, 8.0],
                 demand=[1.0], inflows=[[0.0, 0.0]],
                 thermal_programmed=[1.0], hydro_programmed=[1.0])
    with pytest.raises(ValueError):
        ScenarioTree([good, short], num_posts=2)


def test_check_scenario():
    tree = chain_tree([[100.0, 120.0, 90.0]] * 3)
    ok = Scenario(demand=np.ones((3, 3)), inflows=np.zeros((1, 3, 3)),
                  thermal_avail=np.ones((1, 3)))
    assert check_scenario(tree, ok) == []
    wrong_shape = Scenario(demand=np.ones((2, 3)), inflows=np.zeros((1, 3, 3)),
                           thermal_avail=np.ones((1, 3)))
    assert any("demand shape" in m for m in check_scenario(tree, wrong_shape))
    bad_avail = Scenario(demand=np.ones((3, 3)), inflows=np.zeros((1, 3, 3)),
                         thermal_avail=np.full((1, 3), 1.5))
    assert any("availability" in m for m in check_scenario(tree, bad_avail))
    assert ok.num_days == 3
