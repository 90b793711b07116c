"""Step functions, conditional expectations, and the measure-adapted Haar basis.

Analysis and synthesis run in O(2**depth) per function via heap
aggregation; no dense inner products are formed.

The probe axis: the transforms (`average_rows`, `analyze_rows`,
`synthesize_rows`, `square_function_rows`) work along the last axis of a
(P, 2**depth) array whose rows are P functions, and do each level step for
all rows in one numpy call.  Every row goes through exactly the adds and
multiplies of a single function, so its result is bit-identical to the
one-function result.  The one-function API (`StepFunction`, `HaarSpectrum`,
`analyze`, `synthesize`, ...) passes its single row as a 1-d array, which
the same code takes as a batch without the leading axis.  Callers with many
functions stack them and walk the stack in chunks (`row_chunks`) of at
most CHUNK_BYTES; the max-ratio fold over such chunks, with its tie-break,
is `opnorm.battery_maxima`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .measure import MeasureTree
from .tree import DyadicTree, Node, TreeError, aggregate, leaf_broadcast

# bytes of one chunk of float64 rows in `row_chunks`
CHUNK_BYTES = 1 << 20


class NonFiniteError(TreeError):
    """Leaf values that are not all finite."""


@dataclass(frozen=True)
class StepFunction:
    """A real function constant on each leaf interval of a depth-D tree;
    every value is finite."""

    depth: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (1 << self.depth,):
            raise TreeError(
                f"expected {1 << self.depth} leaf values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise NonFiniteError("leaf values must be finite")
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return StepFunction(self.depth, self.values + other.values)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return StepFunction(self.depth, self.values - other.values)

    def __mul__(self, scalar: float) -> "StepFunction":
        return StepFunction(self.depth, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "StepFunction":
        return StepFunction(self.depth, -self.values)

    def __abs__(self) -> "StepFunction":
        return StepFunction(self.depth, np.abs(self.values))

    @staticmethod
    def zero(depth: int) -> "StepFunction":
        return StepFunction(depth, np.zeros(1 << depth))

    @staticmethod
    def indicator(tree: DyadicTree, node: Node) -> "StepFunction":
        lo, hi = tree.leaf_range(node)
        vals = np.zeros(tree.n_leaves)
        vals[lo:hi] = 1.0
        return StepFunction(tree.depth, vals)


@dataclass
class HaarSpectrum:
    """Mean plus one coefficient per internal node, heap-indexed.

    coeffs has length 2**depth with slot 0 unused; coeffs[heap(I)] is the
    inner product of the analyzed function with h_I.
    """

    depth: int
    mean: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (1 << self.depth,):
            raise TreeError(f"expected coeff heap of {1 << self.depth}, got {c.shape}")
        self.coeffs = c

    def items(self):
        for p in range(1, 1 << self.depth):
            level = p.bit_length() - 1
            yield Node(level, p - (1 << level)), float(self.coeffs[p])


def _check_compat(f: StepFunction, mu: MeasureTree) -> None:
    if f.depth != mu.depth:
        raise TreeError(f"function depth {f.depth} != measure depth {mu.depth}")


def _check_rows(F: np.ndarray, mu: MeasureTree) -> None:
    if F.shape[-1:] != (1 << mu.depth,):
        raise TreeError(f"expected rows of {1 << mu.depth} values, got shape {F.shape}")


def _chunk_rows(depth: int) -> int:
    """Rows of 2**depth float64 values that fit in CHUNK_BYTES (at least 1)."""
    return max(1, CHUNK_BYTES // (8 << depth))


def row_chunks(n_rows: int, depth: int) -> Iterator[slice]:
    """Consecutive slices covering n_rows rows in the fewest chunks of at
    most `_chunk_rows(depth)` rows, whose sizes differ by at most one (the
    longer ones first)."""
    n_chunks = -(-n_rows // _chunk_rows(depth))
    size, longer = divmod(n_rows, max(n_chunks, 1))
    start = 0
    for k in range(n_chunks):
        stop = start + size + (k < longer)
        yield slice(start, stop)
        start = stop


def average_rows(F: np.ndarray, mu: MeasureTree) -> np.ndarray:
    """Heap of averages of every row of F: (..., 2**depth) ->
    (..., 2**(depth+1))."""
    _check_rows(F, mu)
    ints = aggregate(mu.depth, F * mu.leaf_masses)
    ints[..., 1:] /= mu.mass_heap[1:]
    return ints


def average_heap(f: StepFunction, mu: MeasureTree) -> np.ndarray:
    """Heap of averages of f over every node."""
    _check_compat(f, mu)
    return average_rows(f.values, mu)


def average(f: StepFunction, mu: MeasureTree, node: Node) -> float:
    _check_compat(f, mu)
    lo, hi = mu.tree.leaf_range(node)
    return float(
        np.dot(f.values[lo:hi], mu.leaf_masses[lo:hi]) / mu.mass_heap[mu.tree.heap(node)]
    )


def expectation(f: StepFunction, mu: MeasureTree, k: int) -> StepFunction:
    """Conditional expectation onto generation k; k = -1 is the root average."""
    _check_compat(f, mu)
    if not (-1 <= k <= mu.depth):
        raise TreeError(f"generation {k} out of range [-1, {mu.depth}]")
    if k == mu.depth:
        return StepFunction(f.depth, f.values.copy())
    avg = average_heap(f, mu)
    level = max(k, 0)  # E_{-1} equals E_0: a single node at level 0
    lo, hi = 1 << level, 1 << (level + 1)
    return StepFunction(f.depth, leaf_broadcast(mu.depth, avg[lo:hi], level))


def difference(f: StepFunction, mu: MeasureTree, k: int) -> StepFunction:
    """Martingale difference E_k f - E_{k-1} f."""
    if not (0 <= k <= mu.depth):
        raise TreeError(f"difference index {k} out of range [0, {mu.depth}]")
    return expectation(f, mu, k) - expectation(f, mu, k - 1)


def haar_constant(mu: MeasureTree, node: Node) -> float:
    """c_I = sqrt(mu(I-) mu(I+) / mu(I))."""
    if mu.tree.is_leaf(node):
        raise TreeError(f"no Haar function at leaf {node}")
    return float(mu.haar_constant_heap[mu.tree.heap(node)])


def haar_function(mu: MeasureTree, node: Node) -> StepFunction:
    """The L2(mu)-normalized, mean-zero function constant on the children of node."""
    if mu.tree.is_leaf(node):
        raise TreeError(f"no Haar function at leaf {node}")
    c = haar_constant(mu, node)
    left, right = mu.tree.children(node)
    vals = np.zeros(mu.tree.n_leaves)
    llo, lhi = mu.tree.leaf_range(left)
    rlo, rhi = mu.tree.leaf_range(right)
    vals[llo:lhi] = c / mu.mass_heap[mu.tree.heap(left)]
    vals[rlo:rhi] = -c / mu.mass_heap[mu.tree.heap(right)]
    return StepFunction(mu.depth, vals)


def haar_l1_norm(mu: MeasureTree, node: Node) -> float:
    """Closed form: ||h_I||_L1 = 2 c_I."""
    return 2.0 * haar_constant(mu, node)


def haar_linf_norm(mu: MeasureTree, node: Node) -> float:
    """Closed form: ||h_I||_Linf = c_I / m(I)."""
    return haar_constant(mu, node) / mu.min_child_mass(node)


def analyze_rows(F: np.ndarray, mu: MeasureTree) -> tuple[np.ndarray, np.ndarray]:
    """Means (...) and coefficient heaps (..., 2**depth) of the rows of F;
    coeff(I) = c_I (<f>_{I-} - <f>_{I+}) and slot 0 is 0."""
    n = 1 << mu.depth
    avg = average_rows(F, mu)
    coeffs = np.empty(F.shape, dtype=np.float64)
    coeffs[..., 0] = 0.0
    np.multiply(
        mu.haar_constant_heap[1:], avg[..., 2 : 2 * n : 2] - avg[..., 3 : 2 * n : 2],
        out=coeffs[..., 1:],
    )
    return avg[..., 1].copy(), coeffs


def analyze(f: StepFunction, mu: MeasureTree) -> HaarSpectrum:
    """Haar coefficients of f: coeff(I) = c_I (<f>_{I-} - <f>_{I+})."""
    _check_compat(f, mu)
    mean, coeffs = analyze_rows(f.values, mu)
    return HaarSpectrum(mu.depth, float(mean), coeffs)


def synthesize_rows(means: float | np.ndarray, coeffs: np.ndarray, mu: MeasureTree) -> np.ndarray:
    """Inverse transform of every row of coefficient heaps: mean + sum of
    coeff(I) h_I, computed top-down.  `means` broadcasts against the rows."""
    _check_rows(coeffs, mu)
    n = 1 << mu.depth
    acc = np.empty(coeffs.shape[:-1] + (2 * n,), dtype=np.float64)
    acc[..., 1] = means
    c, mass = mu.haar_constant_heap, mu.mass_heap
    for k in range(mu.depth):
        lo, hi = 1 << k, 1 << (k + 1)
        step = coeffs[..., lo:hi] * c[lo:hi]
        parent = acc[..., lo:hi]
        np.add(parent, step / mass[2 * lo : 2 * hi : 2], out=acc[..., 2 * lo : 2 * hi : 2])
        np.subtract(
            parent, step / mass[2 * lo + 1 : 2 * hi : 2], out=acc[..., 2 * lo + 1 : 2 * hi : 2]
        )
    return acc[..., n:]


def synthesize(spec: HaarSpectrum, mu: MeasureTree) -> StepFunction:
    """Inverse transform: mean + sum of coeff(I) h_I, computed top-down."""
    if spec.depth != mu.depth:
        raise TreeError(f"spectrum depth {spec.depth} != measure depth {mu.depth}")
    return StepFunction(mu.depth, synthesize_rows(spec.mean, spec.coeffs, mu))


def square_function_rows(F: np.ndarray, mu: MeasureTree) -> np.ndarray:
    """Pointwise (sum_I coeff(I)^2 h_I(x)^2)^(1/2) of every row of F,
    accumulated top-down."""
    _, coeffs = analyze_rows(F, mu)
    n = 1 << mu.depth
    acc = np.zeros(F.shape[:-1] + (2 * n,), dtype=np.float64)
    c, mass = mu.haar_constant_heap, mu.mass_heap
    for k in range(mu.depth):
        lo, hi = 1 << k, 1 << (k + 1)
        step = coeffs[..., lo:hi] * c[lo:hi]
        parent = acc[..., lo:hi]
        acc[..., 2 * lo : 2 * hi : 2] = parent + (step / mass[2 * lo : 2 * hi : 2]) ** 2
        acc[..., 2 * lo + 1 : 2 * hi : 2] = parent + (step / mass[2 * lo + 1 : 2 * hi : 2]) ** 2
    return np.sqrt(acc[..., n:])


def square_function(f: StepFunction, mu: MeasureTree) -> StepFunction:
    """Pointwise (sum_I coeff(I)^2 h_I(x)^2)^(1/2), accumulated top-down."""
    _check_compat(f, mu)
    return StepFunction(mu.depth, square_function_rows(f.values, mu))


def haar_basis_matrix(mu: MeasureTree, weights: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of all Haar functions: row heap(I) - 1 holds the leaf
    values of h_I, times the leaf `weights` if given.  The weighted matrix
    is filled on the supports only, and equals `haar_basis_matrix(mu) *
    weights` bit for bit for finite weights: each support entry is the same
    product, and 0 times a finite weight is 0.  Intended for small depths
    (Gram-matrix checks)."""
    n = 1 << mu.depth
    out = np.zeros((n - 1, n))
    c, mass = mu.haar_constant_heap, mu.mass_heap
    for k in range(mu.depth):
        lo, hi = 1 << k, 1 << (k + 1)
        # the rows of level k as (node, node's support, child, child's leaves)
        blocks = out[lo - 1 : hi - 1].reshape(lo, lo, 2, n >> (k + 1))
        diag = np.arange(lo)
        left = (c[lo:hi] / mass[2 * lo : 2 * hi : 2])[:, None]
        right = -(c[lo:hi] / mass[2 * lo + 1 : 2 * hi : 2])[:, None]
        if weights is not None:
            w = weights.reshape(lo, 2, n >> (k + 1))
            left, right = left * w[:, 0], right * w[:, 1]
        blocks[diag, diag, 0] = left
        blocks[diag, diag, 1] = right
    return out


def square_function_martingale(f: StepFunction, mu: MeasureTree) -> StepFunction:
    """Independent martingale form: (sum_k |E_k f - E_{k-1} f|^2)^(1/2)."""
    _check_compat(f, mu)
    avg = average_heap(f, mu)
    acc = np.zeros(1 << mu.depth)
    prev = leaf_broadcast(mu.depth, avg[1:2], 0)
    for k in range(1, mu.depth + 1):
        # E_k f spreads the level-k averages over the leaves; E_D f is f
        cur = f.values if k == mu.depth else leaf_broadcast(mu.depth, avg[1 << k : 2 << k], k)
        acc += (cur - prev) ** 2
        prev = cur
    return StepFunction(mu.depth, np.sqrt(acc))
