"""Measure construction, balance diagnostics, and the generator families."""

import math
from fractions import Fraction

import numpy as np
import pytest

from haarlab import io as hio
from haarlab.martingale import StepFunction, analyze, synthesize

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
    for bad in (np.inf, np.nan):
        with pytest.raises(MeasureError):
            MeasureTree(tree, np.array([1.0] * 7 + [bad]))
    # finite leaf masses whose total overflows
    with pytest.raises(MeasureError, match="not finite"):
        MeasureTree(DyadicTree(1), [1e308, 1e308])


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


def _heap_measures():
    """random_doubling(4, seed=9), every generator family at depths 1-10,
    and leaf masses spread over 1e-8..1 at the same depths."""
    yield random_doubling(4, seed=9)
    rng = np.random.default_rng(17)
    for depth in range(1, 11):
        yield from (gen(depth) for gen in GENERATORS.values())
        yield MeasureTree(DyadicTree(depth), 10.0 ** rng.uniform(-8.0, 0.0, 1 << depth))


def test_min_child_and_haar_constant_heaps():
    for i, mu in enumerate(_heap_measures()):
        m = mu.min_child_heap
        c = mu.haar_constant_heap
        for node in mu.tree.internal_nodes():
            p = mu.tree.heap(node)
            left, right = mu.tree.children(node)
            ml, mr = mu.mass(left), mu.mass(right)
            assert m[p] == pytest.approx(min(ml, mr))
            assert c[p] == pytest.approx(np.sqrt(ml * mr / mu.mass(node)))
            if i == 0:  # even splits meet m/2 exactly, so rounding may cross it
                # c_I^2 in [m/2, m]
                assert m[p] / 2 <= c[p] ** 2 <= m[p] * (1 + 1e-12)
            # each entry is the formula itself, bit for bit
            assert m[p] == min(ml, mr) == mu.min_child_mass(node)
            assert c[p] == np.sqrt(ml * mr / mu.mass(node))


def _exact_sqrt_bracket(x: Fraction, bits: int = 2400) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sqrt(x) < lo + 2**-bits."""
    lo = Fraction(math.isqrt(math.floor(x * 4**bits)), 2**bits)
    return lo, lo + Fraction(1, 2**bits)


# c_I = sqrt(mu(I-) mu(I+) / mu(I)) is three roundings from the float child
# and parent masses in the product form, and four in the scaled form used
# where the product leaves the normal range: at most 3.5 * 2**-53 relative,
# so at most 4 ulps.  Worst observed here: 1.68 ulps.
HAAR_CONSTANT_ULPS = 4


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e200])
def test_haar_constant_heap_stays_in_range(scale):
    rng = np.random.default_rng(17)
    measures = [
        MeasureTree(DyadicTree(2), np.full(4, scale)),
        MeasureTree(DyadicTree(5), scale * rng.uniform(0.5, 2.0, 32)),
    ]
    for mu in measures:
        c, mass = mu.haar_constant_heap, mu.mass_heap
        for p in range(1, 1 << mu.depth):
            exact = Fraction(mass[2 * p]) * Fraction(mass[2 * p + 1]) / Fraction(mass[p])
            lo, hi = _exact_sqrt_bracket(exact)
            err = max(abs(Fraction(c[p]) - lo), abs(Fraction(c[p]) - hi))
            assert err <= HAAR_CONSTANT_ULPS * Fraction(math.ulp(c[p]))
    # the coefficients of [1, 2, 3, 4] scale as sqrt(scale), not 0 or inf
    f = StepFunction(2, np.array([1.0, 2.0, 3.0, 4.0]))
    spec = analyze(f, measures[0])
    assert np.all(np.isfinite(spec.coeffs)) and np.all(spec.coeffs[1:] != 0.0)
    assert np.allclose(synthesize(spec, measures[0]).values, f.values, rtol=1e-14)


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
    with pytest.raises(MeasureError, match="takes no parameter q"):
        generate("lebesgue", 5, q=0.3)
    with pytest.raises(MeasureError, match="takes no parameter M, q$"):
        generate("random_doubling", 5, q=0.2, p_min=0.2, M=5.0)


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
    root = {"origin": mu.tree.root_origin, "length": mu.tree.root_length}
    obj = {"root": root, "depth": mu.depth, "leaf_masses": mu.leaf_masses.tolist()}
    again = hio.measure_from_json(obj)
    assert again.depth == mu.depth
    assert np.array_equal(again.leaf_masses, mu.leaf_masses)
    with pytest.raises(hio.FormatError):
        hio.measure_from_json({"depth": 3})
