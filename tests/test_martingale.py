"""Haar analysis/synthesis, conditional expectations, and square functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from haarlab import martingale
from haarlab.martingale import (
    StepFunction,
    analyze,
    analyze_rows,
    average,
    average_heap,
    average_rows,
    difference,
    expectation,
    haar_basis_matrix,
    haar_constant,
    haar_function,
    haar_l1_norm,
    haar_linf_norm,
    row_chunks,
    square_function,
    square_function_martingale,
    square_function_rows,
    synthesize,
    synthesize_rows,
)
from haarlab.measure import GENERATORS, MeasureTree, generate, lebesgue, random_doubling
from haarlab.norms import inner_product, lp_norm
from haarlab.tree import DyadicTree, Node, TreeError, aggregate_heap


@pytest.fixture
def mu():
    return random_doubling(4, seed=5, p_min=0.1, p_max=0.9)


def _rand_f(mu, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(mu.depth, rng.standard_normal(1 << mu.depth))


def test_step_function_arithmetic():
    f = StepFunction(2, [1.0, -2.0, 3.0, 0.0])
    g = StepFunction(2, [1.0, 1.0, 1.0, 1.0])
    assert np.array_equal((f + g).values, [2.0, -1.0, 4.0, 1.0])
    assert np.array_equal((f - g).values, [0.0, -3.0, 2.0, -1.0])
    assert np.array_equal((2.0 * f).values, [2.0, -4.0, 6.0, 0.0])
    assert np.array_equal((-f).values, [-1.0, 2.0, -3.0, 0.0])
    assert np.array_equal(abs(f).values, [1.0, 2.0, 3.0, 0.0])
    with pytest.raises(TreeError):
        StepFunction(2, [1.0, 2.0])


def test_haar_functions_orthonormal(mu):
    H = haar_basis_matrix(mu)
    gram = (H * mu.leaf_masses) @ H.T
    assert np.max(np.abs(gram - np.eye(mu.tree.n_internal))) < 1e-12


def test_haar_function_closed_norms(mu):
    for node in mu.tree.internal_nodes():
        h = haar_function(mu, node)
        assert lp_norm(h, mu, 1.0) == pytest.approx(haar_l1_norm(mu, node), rel=1e-12)
        assert lp_norm(h, mu, np.inf) == pytest.approx(
            haar_linf_norm(mu, node), rel=1e-12
        )
        assert lp_norm(h, mu, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert inner_product(h, StepFunction(mu.depth, np.full(1 << mu.depth, 1.0)), mu) == (
            pytest.approx(0.0, abs=1e-12)
        )
    with pytest.raises(TreeError):
        haar_function(mu, Node(mu.depth, 0))


def test_analyze_matches_inner_products(mu):
    f = _rand_f(mu, 1)
    spec = analyze(f, mu)
    for node in mu.tree.internal_nodes():
        h = haar_function(mu, node)
        assert spec.coeffs[mu.tree.heap(node)] == pytest.approx(inner_product(f, h, mu), abs=1e-12)
    assert spec.mean == pytest.approx(average(f, mu, Node(0, 0)), rel=1e-12)


def test_roundtrip_and_parseval(mu):
    f = _rand_f(mu, 2)
    spec = analyze(f, mu)
    g = synthesize(spec, mu)
    assert np.max(np.abs(g.values - f.values)) < 1e-12
    l2sq = lp_norm(f, mu, 2.0) ** 2
    pars = spec.mean**2 * mu.total_mass + float(np.sum(spec.coeffs[1:] ** 2))
    assert pars == pytest.approx(l2sq, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    masses=arrays(np.float64, 16, elements=st.floats(0.01, 100.0)),
    values=arrays(np.float64, 16, elements=st.floats(-1e6, 1e6)),
)
def test_roundtrip_property(masses, values):
    from haarlab.measure import MeasureTree
    from haarlab.tree import DyadicTree

    mu = MeasureTree(DyadicTree(4), masses)
    f = StepFunction(4, values)
    g = synthesize(analyze(f, mu), mu)
    scale = max(float(np.max(np.abs(values))), 1.0)
    assert np.max(np.abs(g.values - f.values)) <= 1e-9 * scale


def test_expectation_tower(mu):
    f = _rand_f(mu, 3)
    for k in range(-1, mu.depth + 1):
        ek = expectation(f, mu, k)
        for j in range(-1, k):
            a = expectation(ek, mu, j)
            b = expectation(f, mu, j)
            assert np.max(np.abs(a.values - b.values)) < 1e-12
    assert np.array_equal(expectation(f, mu, mu.depth).values, f.values)
    # E_{-1} is the root average on a finite tree
    assert np.allclose(expectation(f, mu, -1).values, average(f, mu, Node(0, 0)))
    with pytest.raises(TreeError):
        expectation(f, mu, mu.depth + 1)


def test_differences_telescope(mu):
    f = _rand_f(mu, 4)
    total = expectation(f, mu, -1)
    for k in range(mu.depth + 1):
        total = total + difference(f, mu, k)
    assert np.max(np.abs(total.values - f.values)) < 1e-12
    # D_0 f = 0 because E_{-1} = E_0 on the finite tree
    assert np.max(np.abs(difference(f, mu, 0).values)) < 1e-12


def test_average_heap_consistency(mu):
    f = _rand_f(mu, 5)
    avg = average_heap(f, mu)
    for p in range(1, 2 << mu.depth):
        assert avg[p] == pytest.approx(average(f, mu, mu.tree.node_at(p)), rel=1e-12)


def test_square_function_forms_agree(mu):
    f = _rand_f(mu, 6)
    a = square_function(f, mu)
    b = square_function_martingale(f, mu)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_square_function_of_haar(mu):
    node = Node(1, 0)
    h = haar_function(mu, node)
    s = square_function(h, mu)
    assert np.max(np.abs(s.values - np.abs(h.values))) < 1e-12


def test_haar_constant_lebesgue():
    mu = lebesgue(3)
    # even splits: c_I = sqrt(mu(I))/2
    for node in mu.tree.internal_nodes():
        assert haar_constant(mu, node) == pytest.approx(
            np.sqrt(mu.mass(node)) / 2.0, rel=1e-12
        )


def test_depth_mismatch_raises(mu):
    f = StepFunction(3, np.ones(8))
    with pytest.raises(TreeError):
        analyze(f, mu)


# The one-function transforms as they were before the probe axis, copied
# verbatim as references for the row kernels.
def _ref_average_heap(f, mu):
    ints = aggregate_heap(mu.depth, f.values * mu.leaf_masses)
    out = np.empty_like(ints)
    out[0] = np.nan
    out[1:] = ints[1:] / mu.mass_heap[1:]
    return out


def _ref_analyze(f, mu):
    n = 1 << mu.depth
    avg = _ref_average_heap(f, mu)
    c = mu.haar_constant_heap
    coeffs = np.empty(n, dtype=np.float64)
    coeffs[0] = 0.0
    coeffs[1:] = c[1:] * (avg[2 : 2 * n : 2] - avg[3 : 2 * n : 2])
    return float(avg[1]), coeffs


def _ref_synthesize(mean, coeffs, mu):
    n = 1 << mu.depth
    acc = np.empty(2 * n, dtype=np.float64)
    acc[1] = mean
    c = mu.haar_constant_heap
    for k in range(mu.depth):
        lo, hi = 1 << k, 1 << (k + 1)
        step = coeffs[lo:hi] * c[lo:hi]
        acc[2 * lo : 2 * hi : 2] = acc[lo:hi] + step / mu.mass_heap[2 * lo : 2 * hi : 2]
        acc[2 * lo + 1 : 2 * hi : 2] = (
            acc[lo:hi] - step / mu.mass_heap[2 * lo + 1 : 2 * hi : 2]
        )
    return acc[n:]


def _ref_square_function(f, mu):
    _, coeffs = _ref_analyze(f, mu)
    n = 1 << mu.depth
    acc = np.zeros(2 * n, dtype=np.float64)
    c = mu.haar_constant_heap
    for k in range(mu.depth):
        lo, hi = 1 << k, 1 << (k + 1)
        step = coeffs[lo:hi] * c[lo:hi]
        acc[2 * lo : 2 * hi : 2] = (
            acc[lo:hi] + (step / mu.mass_heap[2 * lo : 2 * hi : 2]) ** 2
        )
        acc[2 * lo + 1 : 2 * hi : 2] = (
            acc[lo:hi] + (step / mu.mass_heap[2 * lo + 1 : 2 * hi : 2]) ** 2
        )
    return np.sqrt(acc[n:])


def _transform_cases(depth):
    rng = np.random.default_rng([23, depth])
    n = 1 << depth
    measures = [MeasureTree(DyadicTree(depth), 10.0 ** rng.uniform(-8.0, 0.0, n))]
    if depth >= 2:
        measures += [generate(kind, depth, seed=depth) for kind in GENERATORS]
    F = rng.standard_normal((7, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (7, n))
    F[3] = 0.0
    F[4, n // 2] = np.nan
    return measures, F


def _eq(a, b):
    return np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("depth", range(1, 10))
def test_transform_rows_match_one_function_references(depth):
    measures, F = _transform_cases(depth)
    for mu in measures:
        avg = average_rows(F, mu)
        means, coeffs = analyze_rows(F, mu)
        squares = square_function_rows(F, mu)
        images = synthesize_rows(means, coeffs, mu)
        for i, row in enumerate(F):
            f = StepFunction(depth, row)
            ref_mean, ref_coeffs = _ref_analyze(f, mu)
            assert _eq(avg[i], _ref_average_heap(f, mu))
            assert _eq(means[i], ref_mean) and _eq(coeffs[i], ref_coeffs)
            assert _eq(images[i], _ref_synthesize(ref_mean, ref_coeffs, mu))
            assert _eq(squares[i], _ref_square_function(f, mu))
            # the one-function API is the one-row case
            spec = analyze(f, mu)
            assert _eq(spec.mean, ref_mean) and _eq(spec.coeffs, ref_coeffs)
            assert _eq(synthesize(spec, mu).values, images[i])
            assert _eq(average_heap(f, mu), avg[i])
            assert _eq(square_function(f, mu).values, squares[i])
        # one mean for all rows broadcasts
        zero_mean = synthesize_rows(0.0, coeffs, mu)
        for i in range(len(F)):
            assert _eq(zero_mean[i], _ref_synthesize(0.0, coeffs[i], mu))


def test_row_shapes_checked(mu):
    with pytest.raises(TreeError):
        average_rows(np.zeros((3, 8)), mu)
    with pytest.raises(TreeError):
        synthesize_rows(0.0, np.zeros((3, 8)), mu)


def test_chunks_cover_rows_in_order(monkeypatch):
    monkeypatch.setattr(martingale, "CHUNK_BYTES", 3 * 8 * 16)  # three rows at depth 4
    assert [(c.start, c.stop) for c in row_chunks(7, 4)] == [(0, 3), (3, 6), (6, 9)]
    assert list(row_chunks(0, 4)) == []
    assert [(c.start, c.stop) for c in row_chunks(2, 9)] == [(0, 1), (1, 2)]  # at least one row


# haar_basis_matrix as it was before it was written level by level, copied
# verbatim as its reference.
def _ref_haar_basis_matrix(mu):
    n = 1 << mu.depth
    tree = mu.tree
    out = np.zeros((n - 1, n))
    c = mu.haar_constant_heap
    for p in range(1, n):
        node = tree.node_at(p)
        left, right = tree.children(node)
        llo, lhi = tree.leaf_range(left)
        rlo, rhi = tree.leaf_range(right)
        out[p - 1, llo:lhi] = c[p] / mu.mass_heap[2 * p]
        out[p - 1, rlo:rhi] = -c[p] / mu.mass_heap[2 * p + 1]
    return out


@pytest.mark.parametrize("depth", range(1, 11))
def test_haar_basis_matrix_matches_node_loop(depth):
    measures, _ = _transform_cases(depth)
    for mu in measures:
        H = haar_basis_matrix(mu)
        assert H.tobytes() == _ref_haar_basis_matrix(mu).tobytes()
