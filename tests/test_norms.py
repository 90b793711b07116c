"""Lp, weak-L1, BMO in two forms, Lipschitz semi-norms, H1, sibling lemma."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from haarlab import verify
from haarlab.martingale import (
    StepFunction,
    average_heap,
    haar_function,
    square_function,
    square_function_rows,
    synthesize_rows,
)
from haarlab.measure import GENERATORS, MeasureTree, generate, lebesgue, random_doubling
from haarlab.norms import (
    NORMS,
    NormError,
    NormSpec,
    bmo_martingale,
    bmo_osc_rows,
    bmo_oscillation,
    bmo_rows,
    check_lambda_range,
    h1_norm,
    h1_rows,
    haar_lambda2_norm,
    inner_product,
    lambda_norm,
    lambda_rows,
    lp_norm,
    lp_rows,
    sibling_lemma_check,
    weak_l1,
)
from haarlab.tree import DyadicTree, Node, TreeError, aggregate_heap, leaf_broadcast


@pytest.fixture
def mu():
    return random_doubling(4, seed=7, p_min=0.1, p_max=0.9)


def _rand_f(mu, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(mu.depth, rng.standard_normal(1 << mu.depth))


def test_lp_norm_lebesgue():
    mu = lebesgue(3)
    f = StepFunction(3, np.arange(8.0))
    assert lp_norm(f, mu, 1.0) == pytest.approx(np.mean(np.arange(8.0)))
    assert lp_norm(f, mu, 2.0) == pytest.approx(np.sqrt(np.mean(np.arange(8.0) ** 2)))
    assert lp_norm(f, mu, np.inf) == 7.0
    with pytest.raises(NormError):
        lp_norm(f, mu, 0.5)
    with pytest.raises(NormError):
        lp_norm(f, mu, np.nan)


def test_lp_norm_interpolates(mu):
    f = _rand_f(mu, 1)
    total = mu.total_mass
    # normalized Lp norms are non-decreasing in p
    norms = [lp_norm(f, mu, p) / total ** (1.0 / p) for p in (1.0, 2.0, 4.0)]
    assert norms[0] <= norms[1] * (1 + 1e-12) <= norms[2] * (1 + 1e-12) ** 2


def test_weak_l1(mu):
    f = _rand_f(mu, 2)
    assert weak_l1(f, mu) <= lp_norm(f, mu, 1.0) * (1 + 1e-12)
    # equality for (multiples of) indicators
    ind = 3.0 * StepFunction.indicator(mu.tree, Node(2, 1))
    assert weak_l1(ind, mu) == pytest.approx(lp_norm(ind, mu, 1.0), rel=1e-12)
    # exactness on a two-level function: sup over both attained levels
    g = StepFunction(mu.depth, np.where(np.arange(16) < 4, 5.0, 1.0))
    mass_high = float(np.sum(mu.leaf_masses[:4]))
    expected = max(5.0 * mass_high, 1.0 * mu.total_mass)
    assert weak_l1(g, mu) == pytest.approx(expected, rel=1e-12)


def test_bmo_kills_constants(mu):
    c = StepFunction(mu.depth, np.full(1 << mu.depth, 4.2))
    assert bmo_martingale(c, mu) == pytest.approx(0.0, abs=1e-12)
    assert bmo_oscillation(c, mu) == pytest.approx(0.0, abs=1e-12)
    f = _rand_f(mu, 3)
    shifted = f + c
    assert bmo_martingale(shifted, mu) == pytest.approx(bmo_martingale(f, mu), rel=1e-9)


def test_bmo_forms_comparable(mu):
    for seed in range(10):
        f = _rand_f(mu, seed)
        ratio = bmo_oscillation(f, mu) / bmo_martingale(f, mu)
        assert 1.0 - 1e-9 <= ratio <= 2.2


def test_lambda_norm_witness(mu):
    f = _rand_f(mu, 4)
    res = lambda_norm(f, mu, 2.0, 0.5)
    assert res.witness_node is not None
    assert res.value > 0
    with pytest.raises(NormError):
        lambda_norm(f, mu, 0.5, 0.0)
    with pytest.raises(NormError):
        lambda_norm(f, mu, 2.0, -0.1)
    with pytest.raises(NormError):
        lambda_norm(f, mu, np.inf, 0.0)
    with pytest.raises(NormError):
        lambda_norm(f, mu, np.nan, 0.0)
    with pytest.raises(NormError):
        lambda_norm(f, mu, 2.0, np.nan)
    with pytest.raises(NormError, match="alpha must be a finite real"):
        lambda_norm(f, mu, 2.0, np.inf)


def test_lambda_scales_homogeneously(mu):
    f = _rand_f(mu, 5)
    a = lambda_norm(f, mu, 2.0, 0.3).value
    b = lambda_norm(3.0 * f, mu, 2.0, 0.3).value
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_haar_lambda2_closed_form(mu):
    for node in mu.tree.internal_nodes():
        for alpha in (0.0, 0.25, 1.0):
            closed = haar_lambda2_norm(mu, node, alpha)
            enum = lambda_norm(haar_function(mu, node), mu, 2.0, alpha).value
            assert closed == pytest.approx(enum, rel=1e-10)
    with pytest.raises(TreeError):
        haar_lambda2_norm(mu, Node(mu.depth, 0), 0.0)
    with pytest.raises(NormError):
        haar_lambda2_norm(mu, Node(0, 0), np.nan)
    with pytest.raises(NormError, match="alpha must be a finite real"):
        haar_lambda2_norm(mu, Node(0, 0), np.inf)


def test_lambda_range_is_the_float_range_of_the_mass_factor():
    # lebesgue(4): leaves of mass 1/16, where (1/16)**(-1/2 - alpha) is
    # 2**1002 at alpha = 250 and overflows at alpha = 300
    light = lebesgue(4)
    check_lambda_range(light, 2.0, 250.0)
    assert lambda_norm(haar_function(light, Node(3, 0)), light, 2.0, 250.0).value < np.inf
    with pytest.raises(NormError, match=r"alpha=300 is too large .*\(-300\.5\)"):
        check_lambda_range(light, 2.0, 300.0)
    with pytest.raises(NormError, match=r"\(-301\)"):
        check_lambda_range(light, 1.0, 300.0)
    # a heavy measure: there the root's power underflows to zero instead
    heavy = MeasureTree(DyadicTree(1), [1e200, 1e200])
    check_lambda_range(heavy, 2.0, 0.5)
    with pytest.raises(NormError, match=r"alpha=2 is too large .*\(-2\.5\)"):
        check_lambda_range(heavy, 2.0, 2.0)
    # the parameters are checked first, with their own messages
    for q, alpha, message in ((2.0, np.inf, "alpha must"), (2.0, np.nan, "alpha must"),
                              (0.5, 1.0, "q must")):
        with pytest.raises(NormError, match=message):
            check_lambda_range(light, q, alpha)


def test_h1_norm_is_l1_of_square_function(mu):
    f = _rand_f(mu, 6)
    assert h1_norm(f, mu) == pytest.approx(
        lp_norm(square_function(f, mu), mu, 1.0), rel=1e-12
    )


def test_sibling_lemma_holds(mu):
    for seed in range(5):
        f = _rand_f(mu, seed)
        for node in mu.tree.internal_nodes():
            holds, slack = sibling_lemma_check(mu, node, f)
            assert holds and slack >= 0.0
    with pytest.raises(TreeError):
        sibling_lemma_check(mu, Node(mu.depth, 0), _rand_f(mu))


@settings(max_examples=50, deadline=None)
@given(
    masses=arrays(np.float64, 8, elements=st.floats(0.01, 100.0)),
    values=arrays(np.float64, 8, elements=st.floats(-100.0, 100.0)),
)
def test_sibling_lemma_property(masses, values):
    from haarlab.measure import MeasureTree
    from haarlab.tree import DyadicTree

    mu = MeasureTree(DyadicTree(3), masses)
    f = StepFunction(3, values)
    for node in mu.tree.internal_nodes():
        holds, _ = sibling_lemma_check(mu, node, f)
        assert holds


# The sibling check as it was before the slacks became one heap, copied
# verbatim as the reference: one average_heap per node.
def _ref_sibling_lemma_check(
    mu: MeasureTree, node: Node, f: StepFunction, tol: float = 1e-12
) -> tuple[bool, float]:
    """Check |<f>_{I-} - <f>_{I+}| <= 2 |<f>_{small child} - <f>_I| + tol,
    where the hypothesis requires the *other* child to carry at least half
    of mu(I).  Returns (holds, slack = RHS - LHS).
    """
    tree = mu.tree
    if tree.is_leaf(node):
        raise TreeError(f"sibling check needs an internal node, got {node}")
    left, right = tree.children(node)
    half = 0.5 * mu.mass(node)
    if mu.mass(right) >= half:
        anchor = left
    elif mu.mass(left) >= half:
        anchor = right
    else:  # impossible: the two children sum to mu(I)
        raise NormError("neither child carries half of the parent mass")
    avg = average_heap(f, mu)
    t = tree.heap
    lhs = abs(avg[t(left)] - avg[t(right)])
    rhs = 2.0 * abs(avg[t(anchor)] - avg[t(node)])
    slack = rhs + tol - lhs
    return bool(slack >= 0.0), float(slack)


def _assert_sibling_matches_reference(mu, f):
    for node in mu.tree.internal_nodes():
        assert sibling_lemma_check(mu, node, f) == _ref_sibling_lemma_check(mu, node, f)


@settings(max_examples=50, deadline=None)
@given(depth=st.integers(1, 6), data=st.data())
def test_sibling_lemma_matches_reference_property(depth, data):
    n = 1 << depth
    masses = data.draw(arrays(np.float64, n, elements=st.floats(1e-8, 1e2)))
    values = data.draw(arrays(np.float64, n, elements=st.floats(-1e5, 1e5)))
    mu = MeasureTree(DyadicTree(depth), masses)
    _assert_sibling_matches_reference(mu, StepFunction(depth, values))


@pytest.mark.parametrize("depth", range(2, 9))
def test_sibling_lemma_matches_reference_on_families(depth):
    for kind in GENERATORS:
        mu = generate(kind, depth, seed=depth)
        for f in _pinning_functions(depth):
            _assert_sibling_matches_reference(mu, f)


def test_check_sibling_names_the_first_bad_node(monkeypatch):
    def two_violations(f, mu):
        slack = np.ones(1 << mu.depth)
        slack[0] = np.nan  # slot 0 is no node
        slack[2], slack[3] = -0.5, -2.0
        return slack

    monkeypatch.setattr(verify, "sibling_slacks", two_violations)
    res = verify.check_sibling(verify._battery(6, 5, 7))
    assert not res.passed
    assert res.detail == "violated at 1,0, slack -5.000e-01"
    # a NaN slack is a violation too
    monkeypatch.setattr(verify, "sibling_slacks", lambda f, mu: np.full(1 << mu.depth, np.nan))
    assert verify.check_sibling(verify._battery(6, 5, 7)).detail == "violated at 0,0, slack nan"


def test_inner_product_symmetric(mu):
    f, g = _rand_f(mu, 7), _rand_f(mu, 8)
    assert inner_product(f, g, mu) == pytest.approx(inner_product(g, f, mu), rel=1e-12)
    assert inner_product(f, f, mu) == pytest.approx(lp_norm(f, mu, 2.0) ** 2, rel=1e-12)


def test_norm_spec_dispatch(mu):
    f = _rand_f(mu, 9)
    assert NormSpec("lp", p=2.0)(f, mu) == pytest.approx(lp_norm(f, mu, 2.0))
    assert NormSpec("weak_l1")(f, mu) == pytest.approx(weak_l1(f, mu))
    assert NormSpec("bmo")(f, mu) == pytest.approx(bmo_martingale(f, mu))
    assert NormSpec("bmo_osc")(f, mu) == pytest.approx(bmo_oscillation(f, mu))
    assert NormSpec("lambda", q=2.0, alpha=0.5)(f, mu) == pytest.approx(
        lambda_norm(f, mu, 2.0, 0.5).value
    )
    assert NormSpec("h1")(f, mu) == pytest.approx(h1_norm(f, mu))
    labels = {
        NormSpec("lp", p=2.0): "lp[p=2]",
        NormSpec("lp", p=np.inf): "lp[p=inf]",
        NormSpec("weak_l1"): "weak_l1",
        NormSpec("bmo"): "bmo",
        NormSpec("bmo_osc"): "bmo_osc",
        NormSpec("lambda", q=2.0, alpha=0.5): "lambda[q=2,alpha=0.5]",
        NormSpec("lambda"): "lambda[q=2,alpha=0]",
        NormSpec("h1"): "h1",
    }
    for spec, label in labels.items():
        assert spec.label() == label
    with pytest.raises(NormError):
        NormSpec("nope")(f, mu)


# the norms with a certified upper bound, over q in {1, 2, 3} and alpha in
# {0, 1/2, 2}
BOUNDED_NORMS = [NormSpec("bmo")] + [
    NormSpec("lambda", q=q, alpha=alpha) for q in (1.0, 2.0, 3.0) for alpha in (0.0, 0.5, 2.0)
]


@settings(max_examples=150, deadline=None)
@given(depth=st.integers(1, 8), data=st.data())
def test_upper_bounds_dominate_computed_norms(depth, data):
    """On every row of coefficient heaps B it certifies, `upper_rows` bounds
    the value that `evaluate_rows` computes on `synthesize_rows(0.0, B)`,
    with masses down to 1e-300 and coefficients from 1e-160 to 1e150; a zero
    row gets 0, a NaN or inf row no finite bound."""
    n = 1 << depth
    mass_exps = data.draw(arrays(np.float64, n, elements=st.floats(-300.0, 0.0)))
    mu = MeasureTree(DyadicTree(depth), 10.0**mass_exps)
    scale = 10.0 ** data.draw(st.floats(-160.0, 150.0))
    uniform = data.draw(arrays(np.float64, (2, n), elements=st.floats(-1.0, 1.0)))
    value_exps = data.draw(arrays(np.float64, n, elements=st.floats(-160.0, 150.0)))
    signs = data.draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    node = data.draw(st.integers(1, n - 1))
    B = np.vstack([
        uniform * scale,
        signs * 10.0**value_exps,  # magnitudes spread over the whole range
        np.where(np.arange(n) == node, scale, 0.0),  # one Haar function
        np.where(np.arange(n) == 1, scale, uniform[0] * 1e-12 * scale),  # a large root term
        np.zeros(n),
        np.where(np.arange(n) == n - 1, np.nan, scale),
        np.where(np.arange(n) == 1, -np.inf, scale),
    ])
    B[:, 0] = 0.0
    with np.errstate(all="ignore"):
        images = synthesize_rows(0.0, B, mu)
    for spec in BOUNDED_NORMS:
        with np.errstate(all="ignore"):
            values = spec.evaluate_rows(images, mu)
            bound = spec.upper_rows(B, mu)
        certified = np.isfinite(bound)
        assert np.all(values[certified] <= bound[certified]), spec
        assert bound[-3] == 0.0
        assert not certified[-2:].any()
    assert NormSpec("h1").upper_rows(B[:1], mu) is None
    assert NormSpec("lp", p=1.0).upper_rows(B[:1], mu) is None


def test_upper_bounds_admit_ordinary_rows():
    """At ordinary magnitudes every row is certified, and the bound is the
    largest path sum of |b_S| c_S / mu(child) (times the mass weight for
    Lambda), so it is tight on a Haar function: B = e_I."""
    for kind in GENERATORS:
        mu = generate(kind, 6, seed=1)
        B = np.random.default_rng(1).standard_normal((5, 64))
        images = synthesize_rows(0.0, B, mu)
        for spec in BOUNDED_NORMS:
            bound = spec.upper_rows(B, mu)
            assert np.all(np.isfinite(bound))
            assert np.all(spec.evaluate_rows(images, mu) <= bound)
    mu = lebesgue(4)
    e_I = np.zeros(16)
    e_I[mu.tree.heap(Node(3, 0))] = 1.0
    h = synthesize_rows(0.0, e_I, mu)
    assert np.array_equal(h, haar_function(mu, Node(3, 0)).values)
    # BMO's leaf level reads |h_x - <h>_parent| = c_I / mu(child) itself
    assert NormSpec("bmo").upper_rows(e_I, mu) == pytest.approx(bmo_rows(h, mu), rel=1e-8)
    with pytest.raises(NormError, match="alpha must be a finite real"):
        NormSpec("lambda", alpha=np.inf).upper_rows(e_I, mu)


# --- reference level loops ------------------------------------------------
# Verbatim copies of the per-level loops the three sup norms used before they
# shared one deviation pass: each level builds a full aggregate_heap and reads
# one level of it.  The shared pass must reproduce them bit for bit.


def _ref_parent_avg_leafwise(mu, avg, k):
    level = max(k - 1, 0)
    return leaf_broadcast(mu.depth, avg[1 << level : 2 << level], level)


def _ref_bmo_martingale(f, mu):
    avg = average_heap(f, mu)
    best = 0.0
    for k in range(mu.depth + 1):
        dev = np.abs(f.values - _ref_parent_avg_leafwise(mu, avg, k))
        if k == mu.depth:
            level_sup = float(np.max(dev))
        else:
            dev_int = aggregate_heap(mu.depth, dev * mu.leaf_masses)
            sl = slice(1 << k, 1 << (k + 1))
            level_sup = float(np.max(dev_int[sl] / mu.mass_heap[sl]))
        best = max(best, level_sup)
    return best


def _ref_bmo_oscillation(f, mu):
    avg = average_heap(f, mu)
    osc = 0.0
    for k in range(mu.depth + 1):
        sl = slice(1 << k, 1 << (k + 1))
        dev = np.abs(f.values - leaf_broadcast(mu.depth, avg[sl], k))
        dev_int = aggregate_heap(mu.depth, dev * mu.leaf_masses)
        osc = max(osc, float(np.max(dev_int[sl] / mu.mass_heap[sl])))
    n = 1 << mu.depth
    pos = np.arange(2, 2 * n)
    jump = float(np.max(np.abs(avg[pos // 2] - avg[pos])))
    return osc + jump


def _ref_lambda_norm(f, mu, q, alpha):
    avg = average_heap(f, mu)
    best, witness = 0.0, Node(0, 0)
    for k in range(mu.depth + 1):
        dev = np.abs(f.values - _ref_parent_avg_leafwise(mu, avg, k)) ** q
        dev_int = aggregate_heap(mu.depth, dev * mu.leaf_masses)
        sl = slice(1 << k, 1 << (k + 1))
        vals = dev_int[sl] ** (1.0 / q) * mu.mass_heap[sl] ** (-1.0 / q - alpha)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, witness = float(vals[j]), Node(k, j)
    return best, witness


def _pinning_measures(depth):
    """Every generator family (depth >= 2) plus leaf masses spread over 1e-8..1."""
    rng = np.random.default_rng([11, depth])
    n = 1 << depth
    measures = [
        MeasureTree(DyadicTree(depth), 10.0 ** rng.uniform(-8.0, 0.0, n)),
        MeasureTree(DyadicTree(depth), np.where(np.arange(n) % 3 == 0, 1e-8, 1.0)),
    ]
    if depth >= 2:
        measures += [generate(kind, depth, seed=depth) for kind in GENERATORS]
    return measures


def _pinning_functions(depth):
    rng = np.random.default_rng([13, depth])
    n = 1 << depth
    bases = [
        rng.standard_normal(n),
        rng.standard_normal(n) * 10.0 ** rng.uniform(-4.0, 4.0, n),
        np.arange(n, dtype=np.float64) - 0.5 * n,
    ]
    for base in bases:
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            yield StepFunction(depth, scale * base)


def _pinning_rows(depth):
    """The pinning functions stacked as rows, plus rows with exact ties (zero,
    a two-valued step, a Haar-like sign pattern) and rows holding NaNs."""
    n = 1 << depth
    rows = [f.values for f in _pinning_functions(depth)]
    rows.append(np.zeros(n))
    rows.append(np.where(np.arange(n) < n // 2, 1.0, -1.0))
    rows.append(np.tile([1.0, -1.0], n // 2))
    one_nan = np.random.default_rng([17, depth]).standard_normal(n)
    one_nan[n // 3] = np.nan
    rows += [one_nan, np.full(n, np.nan)]
    return np.stack(rows)


def _functions(F, depth):
    """The rows of F as StepFunctions, but the rows holding NaNs, which
    StepFunction refuses, as stand-ins: the references and the one-function
    norms read only the depth and the values."""
    return [
        StepFunction(depth, row)
        if np.isfinite(row).all()
        else SimpleNamespace(depth=depth, values=row)
        for row in F
    ]


def _same(values, expected):
    # repr tells NaN from NaN-free values and -0.0 from 0.0
    return [repr(float(v)) for v in values] == [repr(float(e)) for e in expected]


@pytest.mark.parametrize("depth", range(1, 9))
def test_sup_norms_match_reference_loops(depth):
    for mu in _pinning_measures(depth):
        for f in _pinning_functions(depth):
            assert bmo_martingale(f, mu) == _ref_bmo_martingale(f, mu)
            assert bmo_oscillation(f, mu) == _ref_bmo_oscillation(f, mu)
            for q in (1.0, 2.0, 3.5):
                for alpha in (0.0, 0.5, 1.0):
                    res = lambda_norm(f, mu, q, alpha)
                    assert (res.value, res.witness_node) == _ref_lambda_norm(f, mu, q, alpha)
        # the batch kernels, row by row, on the same functions plus ties and NaNs
        F = _pinning_rows(depth)
        fs = _functions(F, depth)
        assert _same(bmo_rows(F, mu), [_ref_bmo_martingale(f, mu) for f in fs])
        assert _same(bmo_osc_rows(F, mu), [_ref_bmo_oscillation(f, mu) for f in fs])
        for q in (1.0, 2.0, 3.5):
            for alpha in (0.0, 0.5, 1.0):
                values, (levels, indices) = lambda_rows(F, mu, q, alpha)
                refs = [_ref_lambda_norm(f, mu, q, alpha) for f in fs]
                assert _same(values, [v for v, _ in refs])
                assert list(map(Node, levels.tolist(), indices.tolist())) == [w for _, w in refs]


# The norms of the parent layer, one function at a time, copied verbatim as
# references for the row kernels that have no reference loop above.
def _ref_lp_norm(f, mu, p):
    if np.isinf(p):
        return float(np.max(np.abs(f.values)))
    return float(np.sum(np.abs(f.values) ** p * mu.leaf_masses) ** (1.0 / p))


def _ref_weak_l1(f, mu):
    absvals = np.abs(f.values)
    order = np.argsort(absvals)[::-1]
    sorted_vals = absvals[order]
    cum_mass = np.cumsum(mu.leaf_masses[order])
    return float(np.max(sorted_vals * cum_mass, initial=0.0))


def _ref_h1_norm(f, mu):
    # the values of square_function(f, mu), which a NaN row cannot build
    return _ref_lp_norm(SimpleNamespace(values=square_function_rows(f.values, mu)), mu, 1.0)


@pytest.mark.parametrize("depth", range(1, 9))
def test_row_norms_match_one_function_references(depth):
    for mu in _pinning_measures(depth):
        F = _pinning_rows(depth)
        # repeated magnitudes put ties in weak_l1's sort
        F = np.concatenate([F, np.round(F[:3] * 4.0) / 4.0])
        fs = _functions(F, depth)
        for p in (1.0, 2.0, 3.5, np.inf):
            assert _same(lp_rows(F, mu, p), [_ref_lp_norm(f, mu, p) for f in fs])
        assert _same(h1_rows(F, mu), [_ref_h1_norm(f, mu) for f in fs])
        weak, _ = NORMS["weak_l1"].rows(F, mu)
        assert _same(weak, [_ref_weak_l1(f, mu) for f in fs])
        # every table entry's one-row case is its row of the batch
        for name, entry in NORMS.items():
            spec = NormSpec(name, p=3.5, q=3.5, alpha=0.5)
            batch = spec.evaluate_rows(F, mu)
            for f, value in zip(fs, batch):
                assert repr(spec.evaluate(f, mu).value) == repr(float(value))


@pytest.mark.parametrize("depth", range(1, 15))
def test_row_sums_equal_one_row_sums(depth):
    """numpy's pairwise sum along the last axis of a (P, n) array adds each
    row in the order it adds that row alone, contiguous or not.  The lp (and
    so h1) row kernels rely on it for byte-identical results; if a numpy
    upgrade changes it, this fails before any payload moves."""
    rng = np.random.default_rng([19, depth])
    n = 1 << depth
    big = rng.standard_normal((9, 2 * n + 1)) * 10.0 ** rng.uniform(-8, 8, (9, 2 * n + 1))
    mu = MeasureTree(DyadicTree(depth), 10.0 ** rng.uniform(-8, 0, n))
    for X in (big[:, :n], big[::2, 1 : n + 1], big[:, 1 : 2 * n + 1 : 2]):
        sums = np.sum(X, axis=1)
        for i, row in enumerate(X):
            assert sums[i] == np.sum(row)
        weighted = np.abs(X) * mu.leaf_masses
        assert _same(lp_rows(X, mu, 1.0), [np.sum(w) for w in weighted])
        assert _same(h1_rows(X, mu), [_ref_h1_norm(StepFunction(depth, row), mu) for row in X])
