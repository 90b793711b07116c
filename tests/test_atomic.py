"""Atomic blocks: constructors, validator, and the coefficient upper bound."""

import numpy as np
import pytest

from haarlab.atomic import (
    AtomicBlock,
    Subatom,
    atb_upper_bound,
    combine_blocks,
    haar_block,
    random_block,
    validate_block,
)
from haarlab.martingale import StepFunction, expectation, haar_function
from haarlab.measure import random_doubling
from haarlab.norms import NormError, h1_norm, lp_norm
from haarlab.tree import Node, TreeError


@pytest.fixture
def mu():
    return random_doubling(4, seed=17, p_min=0.1, p_max=0.9)


def test_haar_block_valid_and_tight(mu):
    node = Node(1, 1)
    block = haar_block(mu, node)
    v = validate_block(block, mu)
    assert v.valid
    # p = 2: cost is mu(I)^(1/2), and the block reconstructs h_I
    assert block.cost == pytest.approx(np.sqrt(mu.mass(node)), rel=1e-12)
    f = block.function(mu.depth)
    h = haar_function(mu, node)
    assert np.max(np.abs(f.values - h.values)) < 1e-12
    # the subatom meets its size bound with equality
    sa = block.subatoms[0]
    assert lp_norm(sa.func, mu, 2.0) == pytest.approx(
        mu.mass(node) ** (-0.5), rel=1e-12
    )


def test_haar_block_errors(mu):
    with pytest.raises(TreeError):
        haar_block(mu, Node(mu.depth, 0))
    with pytest.raises(NormError):
        haar_block(mu, Node(1, 0), p=1.0)


def test_block_exponent_checked_at_construction(mu):
    # p = 1 used to reach the validator and divide by zero there
    for p in (1.0, 0.5, np.inf, np.nan):
        with pytest.raises(NormError, match="block exponent"):
            AtomicBlock(1, p, ())
        with pytest.raises(NormError):
            haar_block(mu, Node(1, 0), p=p)


def test_validator_reports_malformed_subatoms(mu):
    # each of these used to raise from inside the validator
    block = haar_block(mu, Node(2, 1))
    sa = block.subatoms[0]
    below = Subatom(sa.weight, sa.func, Node(mu.depth + 1, 0))
    v = validate_block(AtomicBlock(2, 2.0, (sa, below)), mu)
    assert not v.valid and v.support_violations == (1,) and not v.mean_violation
    other_depth = Subatom(1.0, StepFunction.zero(mu.depth + 1), Node(2, 1))
    v = validate_block(AtomicBlock(2, 2.0, (sa, other_depth)), mu)
    assert not v.valid and v.support_violations == (1,) and v.mean_violation
    # a base level below the leaves: no node qualifies, and E_k b = b
    v = validate_block(AtomicBlock(mu.depth + 1, 2.0, block.subatoms), mu)
    assert not v.valid and v.support_violations == (0,) and v.mean_violation
    # a weighted sum that overflows: its mean cannot be checked
    huge = Subatom(1e300, 1e10 * StepFunction.indicator(mu.tree, Node(0, 0)), Node(0, 0))
    with np.errstate(over="ignore"):
        v = validate_block(AtomicBlock(0, 2.0, (huge,)), mu)
    assert not v.valid and v.mean_violation


def test_validator_flags(mu):
    node = Node(2, 1)
    block = haar_block(mu, node)
    sa = block.subatoms[0]

    # support: nonzero value outside the node
    lo, hi = mu.tree.leaf_range(node)
    vals = sa.func.values.copy()
    vals[(hi + 1) % 16] = 1.0
    v = validate_block(
        AtomicBlock(node.level, 2.0, (Subatom(sa.weight, StepFunction(4, vals), sa.node),)),
        mu,
    )
    assert not v.valid and 0 in v.support_violations

    # size: inflated past the budget
    v = validate_block(
        AtomicBlock(node.level, 2.0, (Subatom(sa.weight, 2.0 * sa.func, sa.node),)), mu
    )
    assert not v.valid and v.size_violations == (0,) and not v.mean_violation

    # support: subatom node above the base level
    v = validate_block(AtomicBlock(node.level + 1, 2.0, block.subatoms), mu)
    assert not v.valid and 0 in v.support_violations

    # mean: an indicator-shaped subatom breaks E_k b = 0
    ind = StepFunction.indicator(mu.tree, node)
    small = (0.1 * mu.mass(node) ** (-0.5) / lp_norm(ind, mu, 2.0)) * ind
    v = validate_block(
        AtomicBlock(node.level, 2.0, block.subatoms + (Subatom(1.0, small, node),)), mu
    )
    assert not v.valid and v.mean_violation and not v.size_violations


def test_combine_blocks(mu):
    b1 = haar_block(mu, Node(2, 0))
    b2 = haar_block(mu, Node(2, 1))
    b1 = AtomicBlock(2, 2.0, b1.subatoms)
    b2 = AtomicBlock(2, 2.0, b2.subatoms)
    combined = combine_blocks([b1, b2], [1.0, -0.5])
    assert len(combined.subatoms) == 2
    assert combined.cost == pytest.approx(b1.cost + 0.5 * b2.cost, rel=1e-12)
    assert validate_block(combined, mu).valid
    with pytest.raises(NormError):
        combine_blocks([b1, AtomicBlock(1, 2.0, b2.subatoms)], [1.0, 1.0])


def test_random_block_always_valid(mu):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = int(rng.integers(0, mu.depth - 1))
        block = random_block(mu, base, int(rng.integers(2, 6)), rng)
        assert validate_block(block, mu).valid
    with pytest.raises(NormError):
        random_block(mu, mu.depth, 2, np.random.default_rng(0))


def test_block_combinations_reject_bad_input(mu):
    # no block, a weight per block short, and a block count below one
    b1 = AtomicBlock(2, 2.0, haar_block(mu, Node(2, 0)).subatoms)
    b2 = AtomicBlock(2, 2.0, haar_block(mu, Node(2, 1)).subatoms)
    for blocks, weights in [([], []), ([b1, b2], [1.0]), ([b1], [1.0, 2.0])]:
        with pytest.raises(NormError, match="one weight per block"):
            combine_blocks(blocks, weights)
    for n_subatoms in (0, -1):
        with pytest.raises(NormError, match="n_subatoms must be >= 1"):
            random_block(mu, 1, n_subatoms, np.random.default_rng(0))


def _ref_random_block(mu, base_level, n_subatoms, rng):
    # `random_block` as it was before it drew by index, verbatim
    if not 0 <= base_level <= mu.depth - 1:
        raise NormError(f"base level {base_level} out of range")
    candidates = [
        Node(k, j)
        for k in range(base_level, mu.depth)
        for j in range(1 << k)
    ]
    picks = rng.choice(len(candidates), size=min(n_subatoms, len(candidates)), replace=False)
    blocks, weights = [], []
    for i in picks:
        node = candidates[int(i)]
        b = haar_block(mu, node)
        b = AtomicBlock(base_level, b.p, b.subatoms)  # rebase to the shared level
        # rebasing tightens the size budget by 1/(level - base + 1); shrink
        # the subatom and grow its weight to keep the same function
        penalty = node.level - base_level + 1
        sa = b.subatoms[0]
        b = AtomicBlock(
            base_level, b.p,
            (Subatom(sa.weight * penalty, (1.0 / penalty) * sa.func, sa.node),),
        )
        blocks.append(b)
        weights.append(float(rng.uniform(-2.0, 2.0)))
    return combine_blocks(blocks, weights)


@pytest.mark.parametrize("depth", range(1, 15))
def test_random_block_matches_reference(depth):
    mu = random_doubling(depth, seed=depth)
    for seed, base in enumerate(sorted({0, depth // 2, depth - 1})):
        for n_subatoms in (1, 3, 5):
            rng = np.random.default_rng([seed, n_subatoms])
            ref_rng = np.random.default_rng([seed, n_subatoms])
            got = random_block(mu, base, n_subatoms, rng)
            want = _ref_random_block(mu, base, n_subatoms, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert (got.base_level, got.p) == (want.base_level, want.p)
            assert [(sa.weight, sa.node) for sa in got.subatoms] == [
                (sa.weight, sa.node) for sa in want.subatoms
            ]
            for a, b in zip(got.subatoms, want.subatoms):
                assert np.array_equal(a.func.values, b.func.values)


def test_atb_upper_bound(mu):
    rng = np.random.default_rng(23)
    f = StepFunction(mu.depth, rng.standard_normal(16))
    f = f - expectation(f, mu, -1)
    ub = atb_upper_bound(f, mu)
    assert h1_norm(f, mu) <= np.sqrt(2.0) * ub * (1 + 1e-12)
    # a single Haar function has upper bound exactly mu(I)^(1/2)
    node = Node(1, 0)
    assert atb_upper_bound(haar_function(mu, node), mu) == pytest.approx(
        np.sqrt(mu.mass(node)), rel=1e-10
    )
    with pytest.raises(NormError):
        atb_upper_bound(StepFunction(mu.depth, np.full(1 << mu.depth, 1.0)), mu)
