"""Atomic blocks: validator, canonical Haar-block constructor, and the
coefficient-sum upper bound for the atomic-block norm.

The infimum defining the atomic-block norm is an optimization over all
decompositions and is not computed exactly; the library ships a validator
for candidate blocks and a certified upper bound instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .martingale import NonFiniteError, StepFunction, analyze, expectation, haar_function
from .measure import MeasureTree
from .norms import NormError, lp_norm
from .tree import Node, TreeError

# relative tolerance of the block conditions and of the zero-mean test
TOL = 1e-9


class Subatom(NamedTuple):
    weight: float  # lambda_j
    func: StepFunction  # a_j, supported in node
    node: Node  # I_j


def _check_exponent(p: float) -> None:
    if not 1.0 < p < np.inf:  # NaN fails too
        raise NormError(f"block exponent must lie in (1, inf), got {p}")


@dataclass(frozen=True)
class AtomicBlock:
    """b = sum_j weight_j a_j with supp(a_j) in I_j, level(I_j) >= base_level,
    size bound ||a_j||_p <= mu(I_j)^(-1/p') / (level(I_j) - base_level + 1),
    and E_{base_level} b = 0.  The exponent p lies in (1, inf).
    """

    base_level: int
    p: float
    subatoms: tuple[Subatom, ...]

    def __post_init__(self) -> None:
        _check_exponent(self.p)

    def function(self, depth: int) -> StepFunction:
        total = StepFunction.zero(depth)
        for sa in self.subatoms:
            total = total + sa.weight * sa.func
        return total

    @property
    def cost(self) -> float:
        return float(sum(abs(sa.weight) for sa in self.subatoms))


@dataclass(frozen=True)
class BlockValidation:
    valid: bool
    support_violations: tuple[int, ...]  # subatom indices
    size_violations: tuple[int, ...]
    mean_violation: bool
    cost: float


def validate_block(block: AtomicBlock, mu: MeasureTree) -> BlockValidation:
    """Check all three block conditions; reports violations, never raises.
    A subatom node outside the tree violates the support condition, and a
    subatom function of another depth violates it and the mean condition."""
    tree = mu.tree
    p = block.p
    pprime = p / (p - 1.0)
    support_bad: list[int] = []
    size_bad: list[int] = []
    for i, sa in enumerate(block.subatoms):
        on_tree = tree.contains(sa.node) and sa.func.depth == mu.depth
        if not on_tree or sa.node.level < block.base_level:
            support_bad.append(i)
            continue
        lo, hi = tree.leaf_range(sa.node)
        outside = np.abs(sa.func.values).copy()
        outside[lo:hi] = 0.0
        scale = max(float(np.max(np.abs(sa.func.values))), 1.0)
        if np.any(outside > TOL * scale):
            support_bad.append(i)
        bound = mu.mass(sa.node) ** (-1.0 / pprime) / (sa.node.level - block.base_level + 1)
        if lp_norm(sa.func, mu, p) > bound * (1.0 + TOL):
            size_bad.append(i)

    mean_bad = any(sa.func.depth != mu.depth for sa in block.subatoms)
    if not mean_bad:
        try:
            b = block.function(mu.depth)
            # E_k is E_0 for a base level above the root, the identity below the leaves
            mean_part = expectation(b, mu, min(max(block.base_level, 0), mu.depth))
        except NonFiniteError:  # b or its averages overflow: E_k b = 0 is unverifiable
            mean_bad = True
        else:
            scale = max(float(np.max(np.abs(b.values))), 1.0)
            mean_bad = bool(np.max(np.abs(mean_part.values)) > TOL * scale)
    return BlockValidation(
        valid=not (support_bad or size_bad or mean_bad),
        support_violations=tuple(support_bad),
        size_violations=tuple(size_bad),
        mean_violation=mean_bad,
        cost=block.cost,
    )


def haar_block(mu: MeasureTree, node: Node, p: float = 2.0) -> AtomicBlock:
    """The single-subatom block representing h_I with base level level(I).

    The subatom is h_I rescaled to meet the size bound with equality, so
    its weight certifies the upper bound |h_I|_atb <= weight; for p = 2
    the weight is mu(I)^(1/2).
    """
    if mu.tree.is_leaf(node):
        raise TreeError(f"no Haar function at leaf {node}")
    _check_exponent(p)  # before rescaling h_I by a weight that p makes NaN
    h = haar_function(mu, node)
    # 1/p' = (p - 1)/p
    gamma = lp_norm(h, mu, p) * mu.mass(node) ** ((p - 1.0) / p)
    return AtomicBlock(
        base_level=node.level,
        p=p,
        subatoms=(Subatom(gamma, (1.0 / gamma) * h, node),),
    )


def combine_blocks(blocks: list[AtomicBlock], weights: list[float]) -> AtomicBlock:
    """Weighted combination of blocks sharing a base level and exponent."""
    if not blocks or len(weights) != len(blocks):
        raise NormError(f"need one weight per block, got {len(weights)} for {len(blocks)}")
    base = blocks[0].base_level
    p = blocks[0].p
    if any(b.base_level != base or b.p != p for b in blocks):
        raise NormError("blocks must share base level and exponent to combine")
    subatoms = []
    for w, b in zip(weights, blocks):
        for sa in b.subatoms:
            subatoms.append(Subatom(w * sa.weight, sa.func, sa.node))
    return AtomicBlock(base, p, tuple(subatoms))


def random_block(
    mu: MeasureTree, base_level: int, n_subatoms: int, rng: np.random.Generator
) -> AtomicBlock:
    """A random signed combination of Haar blocks sharing a base level.
    The candidates are the internal nodes from `base_level` down, drawn by
    index: the i-th, in level-then-index order, is at heap position
    2**base_level + i."""
    if not 0 <= base_level <= mu.depth - 1:
        raise NormError(f"base level {base_level} out of range")
    if n_subatoms < 1:
        raise NormError(f"n_subatoms must be >= 1, got {n_subatoms}")
    n_candidates = (1 << mu.depth) - (1 << base_level)
    picks = rng.choice(n_candidates, size=min(n_subatoms, n_candidates), replace=False)
    blocks, weights = [], []
    for i in picks:
        node = mu.tree.node_at((1 << base_level) + int(i))
        b = haar_block(mu, node)
        # rebased to the shared level, the size budget tightens by
        # 1/(level - base + 1): shrink the subatom, grow its weight
        penalty = node.level - base_level + 1
        sa = b.subatoms[0]
        b = AtomicBlock(
            base_level, b.p,
            (Subatom(sa.weight * penalty, (1.0 / penalty) * sa.func, sa.node),),
        )
        blocks.append(b)
        weights.append(float(rng.uniform(-2.0, 2.0)))
    return combine_blocks(blocks, weights)


def atb_upper_bound(f: StepFunction, mu: MeasureTree) -> float:
    """Certified upper bound sum_I |<f, h_I>| mu(I)^(1/2) for the atomic-block
    norm of a function with zero root mean (each Haar term is its own block).
    """
    spec = analyze(f, mu)
    scale = max(float(np.max(np.abs(f.values))), 1.0)
    if not abs(spec.mean) <= TOL * scale:  # true for a NaN mean as well
        raise NormError(f"atomic upper bound needs zero root mean, got {spec.mean}")
    n = 1 << mu.depth
    weights = np.sqrt(mu.mass_heap[1:n])
    return float(np.sum(np.abs(spec.coeffs[1:]) * weights))
