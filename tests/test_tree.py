"""Node addressing and heap aggregation."""

import numpy as np
import pytest

from haarlab.tree import (
    MAX_DEPTH,
    DyadicTree,
    Node,
    TreeError,
    aggregate,
    aggregate_heap,
    heap_nodes,
    heap_positions,
    leaf_broadcast,
    level_sums,
)


@pytest.fixture
def tree():
    return DyadicTree(4)


def test_heap_node_roundtrip(tree):
    nodes = [Node(k, j) for k in range(tree.depth + 1) for j in range(1 << k)]
    assert [tree.heap(node) for node in nodes] == list(range(1, 2 << tree.depth))
    for pos in range(1, 2 << tree.depth):
        assert tree.heap(tree.node_at(pos)) == pos
    for pos in (0, 2 << tree.depth):
        with pytest.raises(TreeError):
            tree.node_at(pos)


def test_node_counts(tree):
    assert tree.n_leaves == 16
    assert tree.n_internal == 15
    assert list(tree.internal_nodes()) == [tree.node_at(p) for p in range(1, tree.n_leaves)]
    assert [tree.is_leaf(tree.node_at(p)) for p in range(1, 2 << tree.depth)] == (
        [False] * tree.n_internal + [True] * tree.n_leaves
    )


def test_parent_children_inverse(tree):
    for node in tree.internal_nodes():
        left, right = tree.children(node)
        assert left.index == 2 * node.index
        assert right.index == 2 * node.index + 1
        assert tree.heap(left) == 2 * tree.heap(node)
        assert tree.heap(right) == 2 * tree.heap(node) + 1


def test_array_forms_match_node_forms():
    rng = np.random.default_rng(2)
    for depth in (4, MAX_DEPTH):
        tree = DyadicTree(depth)
        # each level's first, middle and last node, and one drawn at random
        nodes = [
            Node(k, int(j))
            for k in range(depth + 1)
            for j in (0, (1 << k) >> 1, (1 << k) - 1, rng.integers(1 << k))
        ]
        pos = heap_positions([n.level for n in nodes], [n.index for n in nodes], depth)
        assert pos.tolist() == [tree.heap(n) for n in nodes]
        assert list(map(Node, *heap_nodes(pos))) == nodes
        assert [tree.node_at(p) for p in pos.tolist()] == nodes
    outside = heap_positions([-1, 5, 2, 2, 4], [0, 0, -1, 4, 16], 4)
    assert outside.tolist() == [0] * 5


def test_leaf_range(tree):
    assert tree.leaf_range(Node(0, 0)) == (0, 16)
    assert tree.leaf_range(Node(2, 3)) == (12, 16)
    assert tree.leaf_range(Node(4, 7)) == (7, 8)


def test_navigation_errors(tree):
    with pytest.raises(TreeError):
        tree.children(Node(4, 0))
    with pytest.raises(TreeError):
        tree.check(Node(2, 4))
    with pytest.raises(TreeError):
        tree.check(Node(5, 0))
    with pytest.raises(TreeError):
        DyadicTree(0)


def test_aggregate_heap_matches_brute_force():
    depth = 5
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(1 << depth)
    heap = aggregate_heap(depth, vals)
    tree = DyadicTree(depth)
    for pos in range(1, 2 << depth):
        lo, hi = tree.leaf_range(tree.node_at(pos))
        assert heap[pos] == pytest.approx(np.sum(vals[lo:hi]), rel=1e-12)


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
