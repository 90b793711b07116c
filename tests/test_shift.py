"""Shift construction, validation, application, adjoints, and matrices."""

import numpy as np
import pytest

from haarlab.martingale import HaarSpectrum, StepFunction, analyze, haar_function
from haarlab.measure import random_doubling
from haarlab.norms import inner_product, lp_norm
from haarlab.shift import (
    CanonicalShift,
    GeneralShift,
    ShiftError,
    ShiftShape,
    apply_shift,
    dense_alphas,
    haar_matrix,
    petermichl,
)
from haarlab.tree import DyadicTree, Node, TreeError


@pytest.fixture
def mu():
    return random_doubling(4, seed=13, p_min=0.1, p_max=0.9)


def test_shape_validation():
    with pytest.raises(ShiftError):
        ShiftShape(-1, 0)
    assert ShiftShape(2, 1).r == 2


def test_term_membership_validation():
    with pytest.raises(ShiftError):
        # R is not a depth-1 descendant of Q
        GeneralShift(3, ShiftShape(1, 0), [(Node(0, 0), Node(2, 0), Node(0, 0), 1.0)])
    with pytest.raises(ShiftError):
        # alpha out of range
        GeneralShift(3, ShiftShape(0, 0), [(Node(0, 0), Node(0, 0), Node(0, 0), 2.0)])
    with pytest.raises(ShiftError):
        # non-finite alpha
        GeneralShift(3, ShiftShape(0, 0), [(Node(0, 0), Node(0, 0), Node(0, 0), np.nan)])
    with pytest.raises(ShiftError):
        GeneralShift(0, ShiftShape(0, 0), [])


def test_leaf_level_terms_dropped():
    T = GeneralShift(
        2,
        ShiftShape(0, 1),
        [
            (Node(0, 0), Node(0, 0), Node(1, 0), 1.0),
            (Node(1, 0), Node(1, 0), Node(2, 0), 1.0),  # output at leaf level
        ],
    )
    assert len(T.terms) == 1
    assert T.dropped == 1
    H = GeneralShift.from_heap(2, ShiftShape(0, 1), [1, 2], [1, 2], [2, 4], [1.0, 1.0])
    assert H.terms == T.terms and H.dropped == 1


def test_petermichl_action_on_haar(mu):
    T = petermichl(mu.depth)
    for node in [Node(0, 0), Node(1, 1), Node(2, 2)]:
        h = haar_function(mu, node)
        th = apply_shift(T, h, mu)
        left, right = mu.tree.children(node)
        expected = haar_function(mu, left) - haar_function(mu, right)
        assert np.max(np.abs(th.values - expected.values)) < 1e-10


def test_petermichl_top_level_haar_maps_to_zero(mu):
    # Haar functions one level above the leaves have leaf-level children
    T = petermichl(mu.depth)
    h = haar_function(mu, Node(mu.depth - 1, 0))
    th = apply_shift(T, h, mu)
    assert np.max(np.abs(th.values)) < 1e-12


def test_apply_is_linear(mu):
    T = petermichl(mu.depth)
    rng = np.random.default_rng(0)
    f = StepFunction(mu.depth, rng.standard_normal(16))
    g = StepFunction(mu.depth, rng.standard_normal(16))
    lhs = apply_shift(T, 2.0 * f + g, mu)
    rhs = 2.0 * apply_shift(T, f, mu) + apply_shift(T, g, mu)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_adjoint_pairing(mu):
    T = petermichl(mu.depth)
    Tadj = T.adjoint()
    assert Tadj.shape == ShiftShape(1, 0)
    rng = np.random.default_rng(1)
    f = StepFunction(mu.depth, rng.standard_normal(16))
    g = StepFunction(mu.depth, rng.standard_normal(16))
    lhs = inner_product(apply_shift(T, f, mu), g, mu)
    rhs = inner_product(f, apply_shift(Tadj, g, mu), mu)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_canonical_matches_general(mu):
    T = CanonicalShift(mu.depth, 1, 0, 1, 1, dense_alphas(mu.depth, 1, 1, -1.0))
    G = T.to_general()
    assert G is T.to_general()  # cached
    rng = np.random.default_rng(2)
    f = StepFunction(mu.depth, rng.standard_normal(16))
    a = apply_shift(T, f, mu)
    b = apply_shift(G, f, mu)
    assert np.array_equal(a.values, b.values)


def test_canonical_validation():
    with pytest.raises(ShiftError):
        CanonicalShift(4, -1, 0, 0, 0, {})
    with pytest.raises(ShiftError):
        CanonicalShift(4, 1, 2, 0, 0, {})  # selector out of range
    with pytest.raises(ShiftError):
        CanonicalShift(4, 0, 0, 0, 0, {Node(0, 0): 1.5})
    with pytest.raises(TreeError):
        CanonicalShift(4, 0, 0, 0, 0, {Node(5, 0): 1.0})
    with pytest.raises(ShiftError):
        CanonicalShift(4, 0, 0, 0, 0, {Node(0, 0): np.nan})


def test_dense_alphas_respects_cutoff():
    alphas = dense_alphas(4, 1, 2, 1.0)
    # max(m, n) = 2, so nodes above level 4 - 1 - 2 = 1 are excluded
    assert max(node.level for node in alphas) == 1
    assert list(alphas) == [Node(k, j) for k in range(2) for j in range(1 << k)]
    assert all(a == 1.0 for a in alphas.values())


def test_haar_matrix_matches_terms(mu):
    T = petermichl(mu.depth)
    mat = haar_matrix(T, mu).toarray()
    tree = mu.tree
    for q, r, s, alpha in T.terms:
        assert mat[tree.heap(s) - 1, tree.heap(r) - 1] == alpha
    assert np.sum(mat != 0) == len(T.terms)
    with pytest.raises(ShiftError):
        haar_matrix(T, random_doubling(3, seed=0))


def test_shift_acts_diagonally_in_haar_domain(mu):
    """Coefficient shuffling: output coefficient at S is alpha times the
    input coefficient at R, summed over terms."""
    T = petermichl(mu.depth)
    rng = np.random.default_rng(3)
    f = StepFunction(mu.depth, rng.standard_normal(16))
    spec = analyze(f, mu)
    out = T.apply_spectrum(spec)
    mat = haar_matrix(T).toarray()
    expected = mat @ spec.coeffs[1:]
    assert np.max(np.abs(out.coeffs[1:] - expected)) < 1e-12
    assert out.mean == 0.0


def test_spectrum_depth_mismatch(mu):
    T = petermichl(3)
    f = StepFunction(mu.depth, np.ones(16))
    with pytest.raises(ShiftError):
        T.apply_spectrum(analyze(f, mu))


# --- reference: the term-by-term tuple path ------------------------------


def _reference_petermichl(depth):
    tree = DyadicTree(depth)
    terms = []
    for k in range(depth - 1):
        for j in range(1 << k):
            q = Node(k, j)
            left, right = tree.children(q)
            terms += [(q, q, left, 1.0), (q, q, right, -1.0)]
    return GeneralShift(depth, ShiftShape(0, 1), terms)


def _reference_to_general(C):
    tree = DyadicTree(C.depth)
    cutoff = C.depth - 1 - max(C.m, C.n)
    terms = [
        (q, tree.descendant(q, C.m, C.s_sel), tree.descendant(q, C.n, C.t_sel), a)
        for q, a in sorted(C.alphas.items())
        if q.level <= cutoff
    ]
    return GeneralShift(C.depth, C.shape, terms)


def _assert_same(T, ref):
    assert (T.depth, T.shape, T.dropped) == (ref.depth, ref.shape, ref.dropped)
    assert np.array_equal(T._r_pos, ref._r_pos)
    assert np.array_equal(T._s_pos, ref._s_pos)
    assert np.array_equal(T._alpha, ref._alpha)
    assert T.terms == ref.terms


@pytest.mark.parametrize("depth", range(2, 8))
def test_array_constructors_match_tuple_reference(depth):
    ref = _reference_petermichl(depth)
    _assert_same(petermichl(depth), ref)
    adjoint_terms = [(q, s, r, a) for q, r, s, a in ref.terms]
    _assert_same(
        petermichl(depth).adjoint(), GeneralShift(depth, ShiftShape(1, 0), adjoint_terms)
    )
    rng = np.random.default_rng(depth)
    for m in range(3):
        for n in range(3):
            alphas = dense_alphas(depth, m, n, 1.0)
            alphas = dict(zip(alphas, rng.uniform(-1.0, 1.0, len(alphas))))
            for s_sel in range(1 << m):
                for t_sel in range(1 << n):
                    C = CanonicalShift(depth, m, s_sel, n, t_sel, alphas)
                    _assert_same(C.to_general(), _reference_to_general(C))


@pytest.mark.parametrize(
    "depth, shape, term, error",
    [
        (3, (0, 0), ((4, 0), (4, 0), (4, 0), 1.0), TreeError),  # Q below the leaves
        (3, (0, 0), ((1, 2), (1, 2), (1, 2), 1.0), TreeError),  # index past the level
        (3, (1, 0), ((0, 0), (1, -1), (0, 0), 1.0), TreeError),  # R outside
        (3, (0, 1), ((0, 0), (0, 0), (4, 0), 1.0), TreeError),  # S outside
        (3, (1, 0), ((0, 0), (0, 0), (0, 0), 1.0), TreeError),  # R above the root
        (3, (1, 0), ((1, 0), (2, 2), (1, 0), 1.0), ShiftError),  # R not under Q
        (3, (0, 1), ((1, 0), (1, 0), (2, 3), 1.0), ShiftError),  # S not under Q
        (3, (0, 0), ((0, 0), (0, 0), (0, 0), -1.5), ShiftError),  # |alpha| > 1
        (3, (0, 0), ((0, 0), (0, 0), (0, 0), np.inf), ShiftError),
        (0, (0, 0), ((0, 0), (0, 0), (0, 0), 1.0), ShiftError),  # depth < 1
        (-1, (0, 0), ((0, 0), (0, 0), (0, 0), 1.0), ShiftError),
    ],
)
def test_bad_terms_raise_reference_errors(depth, shape, term, error):
    with pytest.raises(error):
        GeneralShift(depth, ShiftShape(*shape), [term])


def test_from_heap_rejects_positions_outside_tree():
    for pos in (0, 16):
        with pytest.raises(TreeError):
            GeneralShift.from_heap(3, ShiftShape(0, 0), [pos], [pos], [pos], [1.0])
    with pytest.raises(ShiftError):
        GeneralShift.from_heap(3, ShiftShape(0, 1), [1, 1], [1, 1], [2], [1.0, 1.0])


def _ref_apply_spectrum(T, coeffs):
    # the one-spectrum action before the probe axis, verbatim
    out = np.zeros(1 << T.depth)
    np.add.at(out, T._s_pos, T._alpha * coeffs[T._r_pos])
    return out


def _colliding_shift(depth, rng):
    # shape (1, 1) terms in random Q order, so S is out of order, and every
    # fourth term repeated with a new alpha: duplicate (R, S) entries
    q = rng.integers(1, 1 << (depth - 1), 40)
    r, s = 2 * q + rng.integers(0, 2, 40), 2 * q + rng.integers(0, 2, 40)
    alpha = rng.uniform(-1.0, 1.0, 40)
    q, r, s = (np.concatenate([a, a[::4]]) for a in (q, r, s))
    alpha = np.concatenate([alpha, rng.uniform(-1.0, 1.0, 10)])
    return GeneralShift.from_heap(depth, ShiftShape(1, 1), q, r, s, alpha)


@pytest.mark.parametrize("depth", [*range(2, 10), 14])
def test_apply_rows_match_one_spectrum_reference(depth):
    rng = np.random.default_rng([29, depth])
    n = 1 << depth
    C = rng.standard_normal((8, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (8, n))
    C[2] = -0.0
    C[3, n // 2] = np.nan
    C[4, 1::3] = np.inf
    C[5, ::2] = -np.inf
    C[6] = np.nan
    C[7] = np.where(np.arange(n) % 2, np.inf, -0.0)
    shifts = [petermichl(depth), petermichl(depth).adjoint()]  # the adjoint's S collide
    if depth < 14:
        for m, s_sel, n_sel, t_sel in [(1, 0, 0, 0), (0, 0, 1, 1), (2, 1, 1, 0), (2, 3, 0, 0)]:
            alphas = dense_alphas(depth, m, n_sel, -1.0 if s_sel else 1.0)
            shifts.append(CanonicalShift(depth, m, s_sel, n_sel, t_sel, alphas))
        shifts.append(shifts[-1].adjoint())
        shifts.append(_colliding_shift(depth, rng))
        # every S at leaf level: every term is dropped
        last = np.arange(1 << (depth - 1), n)
        dropped = GeneralShift.from_heap(
            depth, ShiftShape(0, 1), last, last, 2 * last, np.full(len(last), 0.5)
        )
        assert dropped.dropped == len(last) and len(dropped._alpha) == 0
        shifts.append(dropped)
    for T in shifts:
        general = T if isinstance(T, GeneralShift) else T.to_general()
        with np.errstate(invalid="ignore"):  # inf - inf in a sum
            refs = np.stack([_ref_apply_spectrum(general, row) for row in C])
            images, first = T.apply_rows(C), T.apply_rows(C[:1])
        assert images.shape == C.shape and first.shape == (1, n)
        assert images.tobytes() == refs.tobytes()  # signs of zeros and NaN bits too
        assert first.tobytes() == refs[0].tobytes()
        for row, ref in zip(C, refs):
            with np.errstate(invalid="ignore"):
                spec = T.apply_spectrum(HaarSpectrum(depth, 1.5, row))
            assert spec.mean == 0.0 and spec.coeffs.tobytes() == ref.tobytes()
    with pytest.raises(ShiftError):
        shifts[0].apply_rows(np.zeros((2, n // 2)))
