"""Haar shift operators: general and canonical forms, adjoints, application.

A shift acts entirely in the Haar coefficient domain: application is one
analysis pass, a sparse coefficient shuffle, and one synthesis pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .martingale import HaarSpectrum, StepFunction, analyze, synthesize
from .measure import MeasureTree
from .tree import Node, TreeError, heap_nodes, heap_positions


class ShiftError(ValueError):
    """Malformed shift term or incompatible shape."""


@dataclass(frozen=True)
class ShiftShape:
    r: int
    s: int

    def __post_init__(self) -> None:
        if self.r < 0 or self.s < 0:
            raise ShiftError(f"complexity must be non-negative, got {self}")


def _nodes(pos: np.ndarray) -> list[Node]:
    return list(map(Node, *heap_nodes(pos)))


def _positions(nodes, depth: int) -> np.ndarray:
    levels, indices = list(zip(*nodes, strict=True)) or ((), ())
    return heap_positions(levels, indices, depth)


def _check_alpha(alpha: np.ndarray) -> None:
    bad = ~(np.abs(alpha) <= 1.0 + 1e-15)  # true for NaN as well
    if bad.any():
        raise ShiftError(f"|alpha| must be finite and <= 1, got {alpha[bad][0]}")


def _check_in_tree(depth: int, pos: np.ndarray) -> None:
    bad = (pos < 1) | (pos >= 2 << depth)
    if bad.any():
        raise TreeError(f"node outside tree of depth {depth} (heap position {pos[bad][0]})")


class GeneralShift:
    """A finite collection of terms (Q, R, S, alpha) with R in D_r(Q), S in D_s(Q).

    Terms are stored only as heap-position arrays: term i maps the Haar
    coefficient at `_r_pos[i]` to `_s_pos[i]` with weight `_alpha[i]`.  The
    node (k, j) sits at heap position 2**k + j, so Q = r_pos >> r = s_pos >> s.
    Terms whose R or S sits at leaf level carry no Haar function and are
    dropped at construction; `dropped` records how many.
    """

    def __init__(self, depth: int, shape: ShiftShape, terms) -> None:
        """Build from (Q, R, S, alpha) tuples with (level, index) nodes."""
        q, r, s, alpha = list(zip(*terms, strict=True)) or ((),) * 4
        self._store(
            depth, shape, _positions(q, depth), _positions(r, depth), _positions(s, depth), alpha
        )

    @classmethod
    def from_heap(
        cls, depth: int, shape: ShiftShape, q_pos, r_pos, s_pos, alpha
    ) -> "GeneralShift":
        """Build from heap-position arrays for Q, R and S and an alpha array."""
        T = cls.__new__(cls)
        T._store(depth, shape, q_pos, r_pos, s_pos, alpha)
        return T

    def _store(self, depth: int, shape: ShiftShape, q_pos, r_pos, s_pos, alpha) -> None:
        """Validate whole term arrays with bit arithmetic and keep the
        non-leaf terms; every constructor ends here."""
        if depth < 1:
            raise ShiftError(f"depth must be >= 1, got {depth}")
        q_pos, r_pos, s_pos = (np.asarray(p, dtype=np.int64) for p in (q_pos, r_pos, s_pos))
        alpha = np.asarray(alpha, dtype=np.float64)
        if not (q_pos.ndim == 1 and q_pos.shape == r_pos.shape == s_pos.shape == alpha.shape):
            raise ShiftError("Q, R, S and alpha must be 1-d arrays of one length")
        for pos in (q_pos, r_pos, s_pos):
            _check_in_tree(depth, pos)
        for name, pos, height in (("R", r_pos, shape.r), ("S", s_pos, shape.s)):
            above = pos >> height
            if not above.all():
                raise TreeError(f"{name} lies fewer than {height} levels below the root")
            bad = above != q_pos
            if bad.any():
                i = np.argmax(bad)
                node, q = _nodes(np.array([pos[i], q_pos[i]]))
                raise ShiftError(f"{name}={node} is not a depth-{height} descendant of Q={q}")
        _check_alpha(alpha)
        keep = (r_pos < 1 << depth) & (s_pos < 1 << depth)
        self.depth = depth
        self.shape = shape
        self.dropped = int(np.count_nonzero(~keep))
        self._r_pos = r_pos[keep]
        self._s_pos = s_pos[keep]
        self._alpha = alpha[keep]

    @property
    def terms(self) -> tuple[tuple[Node, Node, Node, float], ...]:
        """The kept terms as (Q, R, S, alpha) node tuples, read from the arrays."""
        return tuple(zip(
            _nodes(self._r_pos >> self.shape.r), _nodes(self._r_pos), _nodes(self._s_pos),
            self._alpha.tolist(),
        ))

    @cached_property
    def _matrix(self) -> sp.csr_matrix:
        """The coefficient action as a (2**depth, 2**depth) matrix: row S,
        column R, one stored entry per term, the terms of a row in term order
        (a stable sort by S).  Entries with equal (R, S) stay separate: the
        product adds a row's terms one at a time, in that order."""
        n = 1 << self.depth
        order = np.argsort(self._s_pos, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._s_pos, minlength=n), out=indptr[1:])
        return sp.csr_matrix((self._alpha[order], self._r_pos[order], indptr), shape=(n, n))

    def apply_rows(self, coeffs: np.ndarray) -> np.ndarray:
        """The coefficient action on every row of (..., 2**depth) coefficient
        heaps, as one sparse product: out[s] = sum of alpha * coeffs[r] over
        the terms with that S, added from 0.0 in term order."""
        n = 1 << self.depth
        if coeffs.shape[-1:] != (n,):
            raise ShiftError(f"expected rows of {n} coefficients, got shape {coeffs.shape}")
        # a product with the transposed rows takes scipy's one-vector path
        # for one row, and no dense-times-sparse transpose for any count
        rows = coeffs.reshape(-1, n)
        return (self._matrix @ rows.T).T.reshape(coeffs.shape)

    def apply_spectrum(self, spec: HaarSpectrum) -> HaarSpectrum:
        if spec.depth != self.depth:
            raise ShiftError(f"spectrum depth {spec.depth} != shift depth {self.depth}")
        return HaarSpectrum(self.depth, 0.0, self.apply_rows(spec.coeffs))

    def adjoint(self) -> "GeneralShift":
        """Swap input and output Haar indices; satisfies <Tf, g> = <f, T*g>."""
        return GeneralShift.from_heap(
            self.depth, ShiftShape(self.shape.s, self.shape.r),
            self._r_pos >> self.shape.r, self._s_pos, self._r_pos, self._alpha,
        )


def petermichl(depth: int) -> GeneralShift:
    """The dyadic Hilbert transform: h_I maps to h_{I-} - h_{I+}."""
    if depth < 2:
        raise ShiftError(f"the dyadic Hilbert transform needs depth >= 2, got {depth}")
    internal = np.arange(1, 1 << (depth - 1))  # every Q above the last internal level
    q = np.repeat(internal, 2)
    children = np.arange(2, 1 << depth)  # 2q and 2q + 1, interleaved
    alpha = np.tile([1.0, -1.0], len(internal))
    return GeneralShift.from_heap(depth, ShiftShape(0, 1), q, q, children, alpha)


@dataclass
class CanonicalShift:
    """Single-selector form: one input selector (m, s_sel) and one output
    selector (n, t_sel), with a sparse per-node coefficient map.

    Absent nodes in `alphas` carry coefficient zero.  The general form puts
    R at heap position (q << m) + s_sel and S at (q << n) + t_sel.
    """

    depth: int
    m: int
    s_sel: int
    n: int
    t_sel: int
    alphas: dict[Node, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ShiftError("selector depths must be non-negative")
        if not (0 <= self.s_sel < (1 << self.m)):
            raise ShiftError(f"input selector {self.s_sel} out of range for m={self.m}")
        if not (0 <= self.t_sel < (1 << self.n)):
            raise ShiftError(f"output selector {self.t_sel} out of range for n={self.n}")
        if self.depth < 1:
            raise TreeError(f"depth must be >= 1, got {self.depth}")
        pos = _positions(self.alphas, self.depth)
        alpha = np.fromiter(self.alphas.values(), dtype=np.float64, count=len(pos))
        _check_in_tree(self.depth, pos)
        _check_alpha(alpha)
        self.alphas = dict(zip(_nodes(pos), alpha.tolist()))
        self.shape = ShiftShape(self.m, self.n)
        self._general: GeneralShift | None = None

    def to_general(self) -> GeneralShift:
        """Lossless embedding into the general term form (cached)."""
        if self._general is not None:
            return self._general
        nodes = sorted(self.alphas)  # heap order
        q = _positions(nodes, self.depth)
        alpha = np.fromiter(map(self.alphas.get, nodes), dtype=np.float64, count=len(nodes))
        # keep Q whose selected descendants both sit above the leaves
        keep = q < 1 << max(self.depth - max(self.m, self.n), 0)
        q, alpha = q[keep], alpha[keep]
        self._general = GeneralShift.from_heap(
            self.depth, self.shape, q, (q << self.m) + self.s_sel, (q << self.n) + self.t_sel, alpha
        )
        return self._general

    def apply_rows(self, coeffs: np.ndarray) -> np.ndarray:
        return self.to_general().apply_rows(coeffs)

    def apply_spectrum(self, spec: HaarSpectrum) -> HaarSpectrum:
        return self.to_general().apply_spectrum(spec)

    def adjoint(self) -> GeneralShift:
        return self.to_general().adjoint()


def dense_alphas(depth: int, m: int, n: int, value: float = 1.0) -> dict[Node, float]:
    """Coefficient map with the same alpha on every admissible node."""
    return dict.fromkeys(_nodes(np.arange(1, 1 << max(depth - max(m, n), 0))), value)


Shift = GeneralShift | CanonicalShift


def apply_shift(T: Shift, f: StepFunction, mu: MeasureTree) -> StepFunction:
    """Tf = sum over terms alpha <f, h_R> h_S."""
    return synthesize(T.apply_spectrum(analyze(f, mu)), mu)


def haar_matrix(T: Shift, mu: MeasureTree | None = None) -> sp.csr_matrix:
    """Sparse Haar-domain matrix: entry (heap(S)-1, heap(R)-1) accumulates alpha.

    The coefficient action of a shift does not depend on the measure; the
    optional argument only cross-checks the depth.
    """
    general = T if isinstance(T, GeneralShift) else T.to_general()
    if mu is not None and mu.depth != general.depth:
        raise ShiftError(f"measure depth {mu.depth} != shift depth {general.depth}")
    n = (1 << general.depth) - 1
    mat = sp.coo_matrix(
        (general._alpha, (general._s_pos - 1, general._r_pos - 1)), shape=(n, n)
    )
    return mat.tocsr()
