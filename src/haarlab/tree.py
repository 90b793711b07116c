"""Finite dyadic trees: (level, index) node addressing.

Nodes are addressed heap-style: the node (k, j) lives at heap position
2**k + j, so the root is position 1 and the leaves of a depth-D tree
occupy positions 2**D .. 2**(D+1) - 1.  Inside the package a node is its
heap position: every per-node array is heap-indexed with slot 0 unused, and
parents, children and ancestors are bit shifts of positions.  `Node` is the
form of the public API and of the files, converted by `DyadicTree.heap` and
`node_at` (one node) and `heap_positions` and `heap_nodes` (arrays).
Positions are int64, which bounds the depth by MAX_DEPTH.  Node keys and the
other file fields are read by `haarlab.io`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np


class TreeError(ValueError):
    """Invalid node address or navigation past the tree boundary."""


class Node(NamedTuple):
    level: int
    index: int

    def __str__(self) -> str:
        return f"{self.level},{self.index}"


# heap positions are int64, and the last node of a depth-62 tree sits at
# 2**63 - 1
MAX_DEPTH = 62


@dataclass(frozen=True)
class DyadicTree:
    """A rooted binary tree of dyadic intervals of a fixed finite depth.

    The geometry (root_origin, root_length) is carried only into measure
    files; nothing quantitative depends on it.
    """

    depth: int
    root_origin: float = 0.0
    root_length: float = 1.0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise TreeError(f"depth must be >= 1, got {self.depth}")
        if not self.root_length > 0:
            raise TreeError(f"root_length must be > 0, got {self.root_length}")

    @property
    def n_leaves(self) -> int:
        return 1 << self.depth

    @property
    def n_internal(self) -> int:
        return (1 << self.depth) - 1

    def check(self, node: Node) -> Node:
        k, j = node
        if not (0 <= k <= self.depth) or not (0 <= j < (1 << k)):
            raise TreeError(f"node {node} outside tree of depth {self.depth}")
        return Node(k, j)

    def heap(self, node: Node) -> int:
        self.check(node)
        return (1 << node.level) + node.index

    def node_at(self, pos: int) -> Node:
        if not (1 <= pos < (1 << (self.depth + 1))):
            raise TreeError(f"heap position {pos} outside tree")
        level = pos.bit_length() - 1
        return Node(level, pos - (1 << level))

    def is_leaf(self, node: Node) -> bool:
        return self.check(node).level == self.depth

    def children(self, node: Node) -> tuple[Node, Node]:
        k, j = self.check(node)
        if k == self.depth:
            raise TreeError(f"leaf {node} has no children")
        return Node(k + 1, 2 * j), Node(k + 1, 2 * j + 1)

    def leaf_range(self, node: Node) -> tuple[int, int]:
        """Half-open range of leaf indices under the node."""
        k, j = self.check(node)
        width = 1 << (self.depth - k)
        return j * width, (j + 1) * width

    def internal_nodes(self) -> Iterator[Node]:
        for k in range(self.depth):
            for j in range(1 << k):
                yield Node(k, j)


def _parent_sums(child_sums: np.ndarray) -> np.ndarray:
    """One level up along the last axis: each parent's sum is its left
    child's plus its right child's.  `aggregate` (behind `aggregate_heap`)
    and `level_sums` both step with this alone, so they perform the same
    adds in the same order."""
    return child_sums[..., 0::2] + child_sums[..., 1::2]


def aggregate(depth: int, leaf_values: np.ndarray) -> np.ndarray:
    """Bottom-up sums along the last axis: out[..., p] = sum of
    leaf_values[...] over the leaves under p.  Takes (..., 2**depth), one
    function per row, and returns (..., 2**(depth+1)); slot 0 is NaN."""
    n = 1 << depth
    if leaf_values.shape[-1:] != (n,):
        raise TreeError(f"expected {n} leaf values per row, got shape {leaf_values.shape}")
    heap = np.empty(leaf_values.shape[:-1] + (2 * n,), dtype=np.float64)
    heap[..., n:] = leaf_values
    sums = heap[..., n:]
    for k in range(depth - 1, -1, -1):
        sums = _parent_sums(sums)
        heap[..., 1 << k : 2 << k] = sums
    heap[..., 0] = np.nan
    return heap


def aggregate_heap(depth: int, leaf_values: np.ndarray) -> np.ndarray:
    """Bottom-up sums: heap[p] = sum of leaf_values over leaves under p.

    Returns an array of length 2**(depth+1); slot 0 is unused.
    """
    n = 1 << depth
    if leaf_values.shape != (n,):
        raise TreeError(f"expected {n} leaf values, got shape {leaf_values.shape}")
    return aggregate(depth, leaf_values)


def level_sums(depth: int, leaf_values: np.ndarray, level: int) -> np.ndarray:
    """Sums of leaf_values over the 2**level nodes of one level, along the
    last axis: the same adds as `aggregate_heap`, stopped at `level`,
    without the heap."""
    if leaf_values.shape[-1:] != (1 << depth,):
        raise TreeError(f"expected {1 << depth} leaf values, got shape {leaf_values.shape}")
    if not 0 <= level <= depth:
        raise TreeError(f"level {level} outside tree of depth {depth}")
    sums = leaf_values.astype(np.float64, copy=False)
    for _ in range(depth - level):
        sums = _parent_sums(sums)
    return sums


def leaf_broadcast(depth: int, level_values: np.ndarray, level: int) -> np.ndarray:
    """Spread one value per level-`level` node onto the 2**depth leaves."""
    if level_values.shape != (1 << level,):
        raise TreeError("level_values length does not match level")
    return np.repeat(level_values, 1 << (depth - level))


def heap_positions(levels, indices, depth: int) -> np.ndarray:
    """Array form of `DyadicTree.heap`: positions 2**k + j of nodes (k, j).

    A node outside the depth-`depth` tree maps to position 0, which no node
    occupies, so callers validate positions in one place.
    """
    k, j = np.asarray(levels), np.asarray(indices)
    if any(a.size and a.dtype.kind not in "iu" for a in (k, j)):
        raise TreeError("node addresses must be integers that fit in int64")
    k, j = k.astype(np.int64), j.astype(np.int64)
    inside = (k >= 0) & (k <= depth)
    width = 1 << np.where(inside, k, 0)
    return np.where(inside & (j >= 0) & (j < width), width + j, 0)


def heap_nodes(pos: np.ndarray) -> tuple[list[int], list[int]]:
    """Array form of `DyadicTree.node_at`: the levels and indices of heap
    positions.  The level is frexp(pos)[1] - 1, one too high where pos, at
    or above 2**53, rounds up to the next power of two as a float."""
    level = np.frexp(pos)[1].astype(np.int64) - 1
    level -= (pos >> level) == 0
    return level.tolist(), (pos - (1 << level)).tolist()
