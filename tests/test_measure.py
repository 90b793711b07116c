"""Measure construction, balance diagnostics, and the generator families."""

import numpy as np
import pytest

from haarlab.measure import (
    GENERATORS,
    MeasureError,
    MeasureTree,
    from_split_fractions,
    generate,
    geometric_unbalanced,
    lebesgue,
    random_doubling,
    spine,
)
from haarlab.tree import DyadicTree, Node


def test_masses_are_consistent():
    mu = random_doubling(5, seed=3)
    for node in mu.tree.internal_nodes():
        left, right = mu.tree.children(node)
        assert mu.mass(node) == pytest.approx(mu.mass(left) + mu.mass(right), rel=1e-14)
    assert mu.total_mass == pytest.approx(np.sum(mu.leaf_masses), rel=1e-14)


def test_constructor_validation():
    tree = DyadicTree(3)
    with pytest.raises(MeasureError):
        MeasureTree(tree, np.ones(7))
    with pytest.raises(MeasureError):
        MeasureTree(tree, np.array([1.0] * 7 + [0.0]))
    with pytest.raises(MeasureError):
        MeasureTree(tree, np.array([1.0] * 7 + [-1.0]))


def test_split_fraction_validation():
    with pytest.raises(MeasureError):
        from_split_fractions(3, np.full(8, 1.5))
    with pytest.raises(MeasureError):
        from_split_fractions(3, np.full(4, 0.5))
    with pytest.raises(MeasureError):
        from_split_fractions(3, np.full(8, 0.5), root_mass=0.0)


def test_lebesgue_is_even():
    mu = lebesgue(4)
    assert np.allclose(mu.leaf_masses, 1.0 / 16)
    rep = mu.balanced_constant()
    # m(I) halves at every level, so the parent/child ratio is exactly 2
    assert rep.balanced_constant == pytest.approx(2.0)
    # every (Q, child R) pair contributes sqrt(mu_Q mu_R)(1/mu_R + 1/mu_Q)
    assert rep.bal_form_constant == pytest.approx(3.0 / np.sqrt(2.0))
    assert mu.doubling_ratio() == pytest.approx(2.0)


def test_min_child_and_haar_constant_heaps():
    mu = random_doubling(4, seed=9)
    m = mu.min_child_heap()
    c = mu.haar_constant_heap()
    for node in mu.tree.internal_nodes():
        p = mu.tree.heap(node)
        left, right = mu.tree.children(node)
        ml, mr = mu.mass(left), mu.mass(right)
        assert m[p] == pytest.approx(min(ml, mr))
        assert c[p] == pytest.approx(np.sqrt(ml * mr / mu.mass(node)))
        # c_I^2 in [m/2, m]
        assert m[p] / 2 <= c[p] ** 2 <= m[p] * (1 + 1e-12)


def test_geometric_unbalanced_grows():
    b_by_depth = [
        geometric_unbalanced(d, q=0.5).balanced_constant().balanced_constant
        for d in (4, 6, 8)
    ]
    assert b_by_depth[0] < b_by_depth[1] < b_by_depth[2]
    with pytest.raises(MeasureError):
        geometric_unbalanced(4, q=1.0)


def test_spine_balanced_but_non_doubling():
    mu = spine(6, M=1000.0)
    assert mu.total_mass == pytest.approx(1000.0)
    # every spine node hands exactly mass 1 to its off-spine child
    tree = mu.tree
    node = Node(0, 0)
    for _ in range(mu.depth):
        left, _right = tree.children(node)
        assert mu.mass(left) == pytest.approx(1.0, rel=1e-12)
        node = Node(node.level + 1, 2 * node.index + 1)
    assert mu.balanced_constant().balanced_constant <= 2.0 + 1e-12
    assert mu.doubling_ratio() >= 100.0
    with pytest.raises(MeasureError):
        spine(6, M=5.0)


def test_generate_dispatch_and_determinism():
    a = generate("random_doubling", 5, seed=42)
    b = generate("random_doubling", 5, seed=42)
    assert np.array_equal(a.leaf_masses, b.leaf_masses)
    c = generate("random_doubling", 5, seed=43)
    assert not np.array_equal(a.leaf_masses, c.leaf_masses)
    with pytest.raises(MeasureError):
        generate("unknown", 5)
    with pytest.raises(MeasureError):
        generate("lebesgue", 1)


def test_generate_covers_every_family():
    expected = {
        "lebesgue": lebesgue(5),
        "random_doubling": random_doubling(5, seed=3),
        "geometric_unbalanced": geometric_unbalanced(5),
        "spine": spine(5),
    }
    assert set(GENERATORS) == set(expected)
    for kind, mu in expected.items():
        assert np.array_equal(generate(kind, 5, seed=3).leaf_masses, mu.leaf_masses)
    custom = generate("random_doubling", 5, seed=3, p_min=0.2, p_max=0.8)
    assert np.array_equal(
        custom.leaf_masses, random_doubling(5, seed=3, p_min=0.2, p_max=0.8).leaf_masses
    )
    assert np.array_equal(generate("spine", 5, M=50.0).leaf_masses, spine(5, M=50.0).leaf_masses)
    assert np.array_equal(
        generate("geometric_unbalanced", 5, q=0.3).leaf_masses,
        geometric_unbalanced(5, q=0.3).leaf_masses,
    )


def test_balance_sandwich_spot():
    for seed in range(20):
        mu = random_doubling(6, seed=seed, p_min=0.1, p_max=0.9)
        rep = mu.balanced_constant()
        root_b = np.sqrt(rep.balanced_constant)
        assert root_b * (1 - 1e-12) <= rep.bal_form_constant <= 4 * root_b * (1 + 1e-12)


def test_json_roundtrip():
    mu = random_doubling(4, seed=1)
    again = MeasureTree.from_json(mu.to_json())
    assert again.depth == mu.depth
    assert np.array_equal(again.leaf_masses, mu.leaf_masses)
    with pytest.raises(MeasureError):
        MeasureTree.from_json({"depth": 3})
