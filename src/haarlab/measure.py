"""Positive measures on a dyadic tree, balance diagnostics, and generators.

A measure is determined by strictly positive leaf masses; every node mass
is the exact (floating point) sum of the leaf masses below it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .tree import DyadicTree, Node, TreeError, aggregate_heap


class MeasureError(ValueError):
    """Invalid masses or generator parameters."""


@dataclass(frozen=True)
class BalanceReport:
    """Balance diagnostics of a measure.

    balanced_constant is the worst parent/child ratio of min-child masses
    over internal, non-root nodes.  bal_form_constant is the supremum of
    ||h_Q||_1 ||h_R||_inf + ||h_Q||_inf ||h_R||_1 over internal Q and
    internal children R, computed from the closed-form Haar norms.
    """

    balanced_constant: float
    bal_form_constant: float
    argmax_node: Node


class MeasureTree:
    """Leaf masses plus cached per-node aggregate masses."""

    def __init__(self, tree: DyadicTree, leaf_masses) -> None:
        masses = np.asarray(leaf_masses, dtype=np.float64)
        if masses.shape != (tree.n_leaves,):
            raise MeasureError(
                f"expected {tree.n_leaves} leaf masses, got shape {masses.shape}"
            )
        if not np.all(masses > 0):
            raise MeasureError("all leaf masses must be strictly positive")
        self.tree = tree
        self.leaf_masses = masses
        self.leaf_masses.setflags(write=False)
        self.mass_heap = aggregate_heap(tree.depth, masses)
        self.mass_heap.setflags(write=False)

    @property
    def depth(self) -> int:
        return self.tree.depth

    @property
    def total_mass(self) -> float:
        return float(self.mass_heap[1])

    def mass(self, node: Node) -> float:
        return float(self.mass_heap[self.tree.heap(node)])

    def min_child_mass(self, node: Node) -> float:
        """m(I): the smaller of the two child masses."""
        if self.tree.is_leaf(node):
            raise TreeError(f"min_child_mass undefined on leaf {node}")
        p = self.tree.heap(node)
        return float(min(self.mass_heap[2 * p], self.mass_heap[2 * p + 1]))

    def min_child_heap(self) -> np.ndarray:
        """Heap array of m(I) over internal nodes (length 2**depth)."""
        n = 1 << self.depth
        left = self.mass_heap[2:2 * n:2]
        right = self.mass_heap[3:2 * n:2]
        m = np.empty(n, dtype=np.float64)
        m[0] = np.nan
        m[1:] = np.minimum(left, right)
        return m

    def haar_constant_heap(self) -> np.ndarray:
        """Heap array of c_I = sqrt(mu(I-) mu(I+) / mu(I)) over internal nodes."""
        n = 1 << self.depth
        left = self.mass_heap[2:2 * n:2]
        right = self.mass_heap[3:2 * n:2]
        c = np.empty(n, dtype=np.float64)
        c[0] = np.nan
        c[1:] = np.sqrt(left * right / self.mass_heap[1:n])
        return c

    def doubling_ratio(self) -> float:
        """max mu(parent)/mu(child) over all nodes below the root."""
        n = 1 << self.depth
        parents = self.mass_heap[np.arange(2, 2 * n) // 2]
        return float(np.max(parents / self.mass_heap[2:2 * n]))

    def balanced_constant(self) -> BalanceReport:
        if self.depth < 2:
            raise MeasureError("balance diagnostics need depth >= 2")
        n = 1 << self.depth
        m = self.min_child_heap()
        # parent/child min-child-mass ratios over internal, non-root nodes
        pos = np.arange(2, n)
        ratios = np.maximum(m[pos] / m[pos // 2], m[pos // 2] / m[pos])
        worst = int(np.argmax(ratios))
        b = float(ratios[worst])
        argmax = self.tree.node_at(int(pos[worst]))

        c = self.haar_constant_heap()
        # pairs (Q internal, R internal child of Q)
        q_pos = pos // 2
        form = 2.0 * c[q_pos] * c[pos] * (1.0 / m[pos] + 1.0 / m[q_pos])
        return BalanceReport(
            balanced_constant=b,
            bal_form_constant=float(np.max(form)),
            argmax_node=argmax,
        )

    def to_json(self) -> dict:
        return {
            "root": {
                "origin": self.tree.root_origin,
                "length": self.tree.root_length,
            },
            "depth": self.depth,
            "leaf_masses": self.leaf_masses.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MeasureTree":
        try:
            root = obj.get("root", {})
            tree = DyadicTree(
                depth=int(obj["depth"]),
                root_origin=float(root.get("origin", 0.0)),
                root_length=float(root.get("length", 1.0)),
            )
            masses = obj["leaf_masses"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MeasureError(f"malformed measure file: {exc}") from exc
        return cls(tree, masses)


def from_split_fractions(
    depth: int,
    left_fractions: np.ndarray,
    root_mass: float = 1.0,
    root_origin: float = 0.0,
    root_length: float = 1.0,
) -> MeasureTree:
    """Build a measure from the left-child mass fraction of each internal node.

    left_fractions is heap-indexed over internal positions 1 .. 2**depth - 1
    (slot 0 ignored) with entries in (0, 1).
    """
    n = 1 << depth
    fr = np.asarray(left_fractions, dtype=np.float64)
    if fr.shape != (n,):
        raise MeasureError(f"expected heap of {n} fractions, got {fr.shape}")
    if not np.all((fr[1:] > 0) & (fr[1:] < 1)):
        raise MeasureError("split fractions must lie strictly inside (0, 1)")
    if not root_mass > 0:
        raise MeasureError("root mass must be positive")
    heap = np.empty(2 * n, dtype=np.float64)
    heap[1] = root_mass
    for k in range(depth):
        lo, hi = 1 << k, 1 << (k + 1)
        heap[2 * lo : 2 * hi : 2] = heap[lo:hi] * fr[lo:hi]
        heap[2 * lo + 1 : 2 * hi : 2] = heap[lo:hi] * (1.0 - fr[lo:hi])
    tree = DyadicTree(depth, root_origin, root_length)
    return MeasureTree(tree, heap[n:])


def lebesgue(depth: int, root_mass: float = 1.0) -> MeasureTree:
    """Even split everywhere: the dyadic analogue of Lebesgue measure."""
    n = 1 << depth
    return from_split_fractions(depth, np.full(n, 0.5), root_mass)


def random_doubling(
    depth: int, seed: int = 0, p_min: float = 0.3, p_max: float = 0.7
) -> MeasureTree:
    """Independent uniform split fractions in [p_min, p_max] at every node."""
    if not (0.0 < p_min <= p_max < 1.0):
        raise MeasureError(f"need 0 < p_min <= p_max < 1, got [{p_min}, {p_max}]")
    n = 1 << depth
    rng = np.random.default_rng(seed)
    fr = rng.uniform(p_min, p_max, size=n)
    fr[0] = 0.5
    return from_split_fractions(depth, fr)


def geometric_unbalanced(depth: int, q: float = 0.5) -> MeasureTree:
    """Increasingly lopsided splits along the leftmost branch.

    The leftmost node at level k sends the fraction q**(k+1) of its mass
    to its left child; every other node splits evenly.  The balanced
    constant grows without bound in the depth.
    """
    if not (0.0 < q < 1.0):
        raise MeasureError(f"need q in (0, 1), got {q}")
    n = 1 << depth
    fr = np.full(n, 0.5)
    for k in range(depth):
        fr[1 << k] = q ** (k + 1)
    return from_split_fractions(depth, fr)


def spine(depth: int, M: float = 1000.0) -> MeasureTree:
    """Balanced but badly non-doubling: a heavy spine down the right edge.

    The root carries mass M.  Each node on the rightmost branch gives mass
    exactly 1 to its left child and the remainder to its right child;
    every off-spine node splits evenly.  Requires M > depth + 1.
    """
    if not M > depth + 1:
        raise MeasureError(f"spine needs M > depth + 1, got M={M}, depth={depth}")
    n = 1 << depth
    fr = np.full(n, 0.5)
    for k in range(depth):
        spine_mass = M - k  # mass of the rightmost node at level k
        fr[(1 << (k + 1)) - 1] = 1.0 / spine_mass
    return from_split_fractions(depth, fr, root_mass=M)


# The one table of measure families: kind -> generator.  A generator takes
# the depth, `seed` if the family is random, and the family's own keyword
# parameters (see `family_params`).
GENERATORS = {
    "lebesgue": lebesgue,
    "random_doubling": random_doubling,
    "geometric_unbalanced": geometric_unbalanced,
    "spine": spine,
}


def _generator(kind: str):
    try:
        return GENERATORS[kind]
    except KeyError:
        raise MeasureError(f"unknown measure kind {kind!r}") from None


def family_params(kind: str) -> tuple[str, ...]:
    """The keyword parameters of a family besides depth and seed."""
    names = inspect.signature(_generator(kind)).parameters
    return tuple(name for name in names if name not in ("depth", "seed"))


def generate(kind: str, depth: int, seed: int = 0, **params) -> MeasureTree:
    """Deterministic measure families; identical arguments give identical masses."""
    if depth < 2:
        raise MeasureError(f"generated measures need depth >= 2, got {depth}")
    gen = _generator(kind)
    if "seed" in inspect.signature(gen).parameters:
        params["seed"] = seed
    return gen(depth, **params)
