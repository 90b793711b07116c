"""Node addressing, navigation, and heap aggregation."""

import numpy as np
import pytest

from haarlab.tree import (
    DyadicTree,
    Node,
    TreeError,
    aggregate,
    aggregate_heap,
    leaf_broadcast,
    level_sums,
    node_from_key,
)


@pytest.fixture
def tree():
    return DyadicTree(4)


def test_heap_node_roundtrip(tree):
    for node in tree.nodes():
        assert tree.node_at(tree.heap(node)) == node
    for pos in range(1, tree.n_nodes + 1):
        assert tree.heap(tree.node_at(pos)) == pos


def test_node_counts(tree):
    assert tree.n_leaves == 16
    assert tree.n_internal == 15
    assert tree.n_nodes == 31
    assert len(list(tree.nodes())) == tree.n_nodes
    assert len(list(tree.internal_nodes())) == tree.n_internal
    assert len(list(tree.leaves())) == tree.n_leaves


def test_parent_children_inverse(tree):
    for node in tree.internal_nodes():
        left, right = tree.children(node)
        assert tree.parent(left) == node
        assert tree.parent(right) == node
        assert left.index == 2 * node.index
        assert right.index == 2 * node.index + 1


def test_ancestor_descendant(tree):
    node = Node(2, 1)
    assert tree.ancestor(node, 0) == node
    assert tree.ancestor(node, 2) == Node(0, 0)
    for r in range(3):
        for s in range(1 << r):
            d = tree.descendant(node, r, s)
            assert tree.ancestor(d, r) == node
    assert tree.descendants(Node(1, 1), 2) == [Node(3, 4 + s) for s in range(4)]


def test_leaf_range(tree):
    assert tree.leaf_range(Node(0, 0)) == (0, 16)
    assert tree.leaf_range(Node(2, 3)) == (12, 16)
    assert tree.leaf_range(Node(4, 7)) == (7, 8)


def test_interval(tree):
    origin, length = tree.interval(Node(2, 1))
    assert origin == 0.25 and length == 0.25


def test_navigation_errors(tree):
    with pytest.raises(TreeError):
        tree.parent(Node(0, 0))
    with pytest.raises(TreeError):
        tree.children(Node(4, 0))
    with pytest.raises(TreeError):
        tree.check(Node(2, 4))
    with pytest.raises(TreeError):
        tree.check(Node(5, 0))
    with pytest.raises(TreeError):
        tree.ancestor(Node(1, 0), 2)
    with pytest.raises(TreeError):
        tree.descendant(Node(3, 0), 2, 0)
    with pytest.raises(TreeError):
        tree.descendant(Node(0, 0), 1, 2)
    with pytest.raises(TreeError):
        DyadicTree(0)


def test_node_key_roundtrip():
    node = Node(3, 5)
    assert node_from_key(str(node)) == node
    for key in ("3;5", " 3,5", "+3,5", "3_0,5", "3,\u0665", "3,5,1", "3,", 5):
        with pytest.raises(TreeError):
            node_from_key(key)


def test_aggregate_heap_matches_brute_force():
    depth = 5
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(1 << depth)
    heap = aggregate_heap(depth, vals)
    tree = DyadicTree(depth)
    for node in tree.nodes():
        lo, hi = tree.leaf_range(node)
        assert heap[tree.heap(node)] == pytest.approx(np.sum(vals[lo:hi]), rel=1e-12)


def test_aggregate_heap_shape_error():
    with pytest.raises(TreeError):
        aggregate_heap(3, np.zeros(7))


def test_level_sums_equal_heap_levels():
    rng = np.random.default_rng(1)
    for depth in range(1, 11):
        vals = rng.standard_normal(1 << depth) * 10.0 ** rng.uniform(-8, 8, 1 << depth)
        heap = aggregate_heap(depth, vals)
        for k in range(depth + 1):
            assert np.array_equal(level_sums(depth, vals, k), heap[1 << k : 2 << k])
        # rows of a 2-d array, contiguous or a strided view, sum as single rows
        n = 1 << depth
        big = rng.standard_normal((5, 2 * n)) * 10.0 ** rng.uniform(-8, 8, (5, 2 * n))
        for rows in (big[:, :n], big[::2, 1::2]):
            heaps = aggregate(depth, rows)
            for i, row in enumerate(rows):
                one = aggregate_heap(depth, np.ascontiguousarray(row))
                assert np.array_equal(heaps[i], one, equal_nan=True)
                for k in range(depth + 1):
                    assert np.array_equal(level_sums(depth, rows, k)[i], one[1 << k : 2 << k])
    with pytest.raises(TreeError):
        level_sums(3, np.zeros(7), 1)
    with pytest.raises(TreeError):
        level_sums(3, np.zeros((2, 7)), 1)
    with pytest.raises(TreeError):
        aggregate(3, np.zeros((2, 7)))
    with pytest.raises(TreeError):
        level_sums(3, np.zeros(8), 4)
    with pytest.raises(TreeError):
        level_sums(3, np.zeros(8), -1)


def test_leaf_broadcast():
    out = leaf_broadcast(3, np.array([1.0, 2.0]), 1)
    assert np.array_equal(out, [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    with pytest.raises(TreeError):
        leaf_broadcast(3, np.zeros(3), 1)
