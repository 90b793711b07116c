"""Haar shift operators: general and canonical forms, adjoints, application.

Every shift is a `GeneralShift`, stored as heap-position arrays of its terms.
A `CanonicalShift` is a GeneralShift that also remembers its selector and its
per-node coefficients, so that it is saved in the canonical file form.  A
shift acts entirely in the Haar coefficient domain: application is one
analysis pass, a sparse coefficient shuffle, and one synthesis pass.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    def _matrix(self) -> "sp.csr_matrix":
        """The coefficient action as a (2**depth, 2**depth) matrix: row S,
        column R, one stored entry per term, the terms of a row in term order
        (a stable sort by S).  Entries with equal (R, S) stay separate: the
        product adds a row's terms one at a time, in that order."""
        # imported on first use: importing scipy.sparse costs about 0.26 s and
        # 22 MB, which commands that apply no shift (norm, measure) need not pay
        import scipy.sparse as sp

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


class CanonicalShift(GeneralShift):
    """Single-selector form: one input selector (m, s_sel), one output
    selector (n, t_sel) and one coefficient per node Q, so that R sits at heap
    position (Q << m) + s_sel and S at (Q << n) + t_sel.

    It is the GeneralShift of the Q whose selected descendants both sit above
    the leaves.  Beside those terms it keeps every given coefficient, sorted
    by heap position, in `_q_all` and `_alpha_all`: the canonical file form
    also holds the coefficients of deeper nodes, which carry no term.  Absent
    nodes carry coefficient zero.
    """

    # perfbench/tracing.py wraps these and `to_general` through
    # CanonicalShift.__dict__, so they are bound here as well as inherited
    apply_spectrum = GeneralShift.apply_spectrum
    adjoint = GeneralShift.adjoint

    def __init__(self, depth: int, m: int, s_sel: int, n: int, t_sel: int, alphas: Mapping):
        """Build from a {(level, index) node: alpha} mapping."""
        alpha = np.fromiter(alphas.values(), dtype=np.float64, count=len(alphas))
        self._store_canonical(depth, m, s_sel, n, t_sel, _positions(alphas, depth), alpha)

    @classmethod
    def from_heap(
        cls, depth: int, m: int, s_sel: int, n: int, t_sel: int, q_pos, alpha
    ) -> "CanonicalShift":
        """Build from an array of heap positions Q and their coefficients."""
        T = cls.__new__(cls)
        T._store_canonical(depth, m, s_sel, n, t_sel, q_pos, alpha)
        return T

    def _store_canonical(
        self, depth: int, m: int, s_sel: int, n: int, t_sel: int, q_pos, alpha
    ) -> None:
        """Validate the selector and the coefficient arrays, then store the
        terms through `GeneralShift._store`; both constructors end here."""
        if m < 0 or n < 0 or not (0 <= s_sel < 1 << m and 0 <= t_sel < 1 << n):
            raise ShiftError(f"selector (m={m}, s={s_sel}; n={n}, t={t_sel}) out of range")
        if depth < 1:
            raise TreeError(f"depth must be >= 1, got {depth}")
        q_pos = np.asarray(q_pos, dtype=np.int64)
        alpha = np.asarray(alpha, dtype=np.float64)
        if not (q_pos.ndim == 1 and q_pos.shape == alpha.shape):
            raise ShiftError("Q and alpha must be 1-d arrays of one length")
        _check_in_tree(depth, q_pos)
        _check_alpha(alpha)
        order = np.argsort(q_pos, kind="stable")
        q_pos, alpha = q_pos[order], alpha[order]
        if (q_pos[1:] == q_pos[:-1]).any():
            raise ShiftError("a node has two coefficients")
        # keep Q whose selected descendants both sit above the leaves; the cut
        # comes before the shifts, so q << m cannot overflow
        keep = q_pos < 1 << max(depth - max(m, n), 0)
        q = q_pos[keep]
        self._store(depth, ShiftShape(m, n), q, (q << m) + s_sel, (q << n) + t_sel, alpha[keep])
        self.m, self.s_sel, self.n, self.t_sel = m, s_sel, n, t_sel
        self._q_all, self._alpha_all = q_pos, alpha

    @property
    def alphas(self) -> dict[Node, float]:
        """Every given coefficient by node, in heap order."""
        return dict(zip(_nodes(self._q_all), self._alpha_all.tolist()))

    def to_general(self) -> GeneralShift:
        """The same terms as a plain GeneralShift, saved as kind "general"."""
        r = self._r_pos
        return GeneralShift.from_heap(
            self.depth, self.shape, r >> self.shape.r, r, self._s_pos, self._alpha
        )


def dense_alphas(depth: int, m: int, n: int, value: float = 1.0) -> dict[Node, float]:
    """Coefficient map with the same alpha on every admissible node."""
    return dict.fromkeys(_nodes(np.arange(1, 1 << max(depth - max(m, n), 0))), value)


def apply_shift(T: GeneralShift, f: StepFunction, mu: MeasureTree) -> StepFunction:
    """Tf = sum over terms alpha <f, h_R> h_S."""
    return synthesize(T.apply_spectrum(analyze(f, mu)), mu)


def haar_matrix(T: GeneralShift, mu: MeasureTree | None = None) -> "sp.csr_matrix":
    """The coefficient action without heap slot 0: entry (heap(S)-1,
    heap(R)-1) holds alpha, one stored entry per term, as in `_matrix`.

    The coefficient action of a shift does not depend on the measure; the
    optional argument only cross-checks the depth.
    """
    if mu is not None and mu.depth != T.depth:
        raise ShiftError(f"measure depth {mu.depth} != shift depth {T.depth}")
    return T._matrix[1:, 1:]
