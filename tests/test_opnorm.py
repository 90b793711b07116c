"""Operator-norm estimation: power iteration, SVD oracle, probe lower bounds."""

from itertools import islice
from typing import Iterable, Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from haarlab import martingale, opnorm, studies
from haarlab.martingale import (
    StepFunction,
    _chunk_rows,
    analyze_rows,
    haar_function,
    synthesize_rows,
)
from haarlab.measure import GENERATORS, MeasureTree, generate, lebesgue, random_doubling
from haarlab.norms import NormSpec, lp_norm
from haarlab.opnorm import (
    first_max,
    l2_opnorm,
    node_probe_rows,
    opnorm_lower_bound,
    svd_opnorm,
)
from haarlab.shift import (
    CanonicalShift,
    GeneralShift,
    ShiftShape,
    apply_shift,
    dense_alphas,
    haar_matrix,
    petermichl,
)
from haarlab.tree import DyadicTree, Node


@pytest.fixture
def mu():
    return random_doubling(4, seed=29, p_min=0.1, p_max=0.9)


def test_petermichl_l2_norm(mu):
    T = petermichl(mu.depth)
    est = l2_opnorm(T, mu, tol=1e-10)
    assert est.converged
    assert est.lower_bound == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert svd_opnorm(T, mu) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_l2_norm_measure_independent(mu):
    # the Haar-domain matrix ignores the measure entirely
    T = petermichl(4)
    a = svd_opnorm(T, mu)
    b = svd_opnorm(T, lebesgue(4))
    assert a == pytest.approx(b, rel=1e-12)


def test_witness_reproduces_value(mu):
    T = petermichl(mu.depth)
    est = l2_opnorm(T, mu, tol=1e-10)
    w = est.witness
    ratio = lp_norm(apply_shift(T, w, mu), mu, 2.0) / lp_norm(w, mu, 2.0)
    assert ratio == pytest.approx(est.lower_bound, rel=1e-12)
    assert float(est) == est.lower_bound


def test_zero_shift(mu):
    T = GeneralShift(mu.depth, ShiftShape(0, 0), [])
    est = l2_opnorm(T, mu)
    assert est.lower_bound == 0.0
    assert svd_opnorm(T, mu) == 0.0


def test_l2_opnorm_validation(mu):
    for tol in (0.0, -1e-10, np.nan):  # NaN would run to the iteration cap
        with pytest.raises(ValueError, match="tolerance must be positive"):
            l2_opnorm(petermichl(mu.depth), mu, tol=tol)


def test_dense_matrix_shape(mu):
    mat = haar_matrix(petermichl(mu.depth), mu).toarray()
    n = (1 << mu.depth) - 1
    assert mat.shape == (n, n)


def test_lower_bound_never_exceeds_l2_truth(mu):
    T = petermichl(mu.depth)
    l2 = NormSpec("lp", p=2.0)
    est = opnorm_lower_bound(T, mu, l2, l2, budget=10, seed=0)
    assert est.lower_bound <= svd_opnorm(T, mu) * (1 + 1e-9)
    assert est.lower_bound > 1.0  # probes find a nontrivial certificate


def test_lower_bound_monotone_in_budget(mu):
    T = petermichl(mu.depth)
    from_n = NormSpec("lp", p=np.inf)
    to_n = NormSpec("bmo")
    small = opnorm_lower_bound(T, mu, from_n, to_n, budget=5, seed=1)
    large = opnorm_lower_bound(T, mu, from_n, to_n, budget=25, seed=1)
    assert large.lower_bound >= small.lower_bound - 1e-12


def test_lower_bound_witness_certifies(mu):
    T = petermichl(mu.depth)
    from_n = NormSpec("bmo")
    to_n = NormSpec("bmo")
    est = opnorm_lower_bound(T, mu, from_n, to_n, budget=5, seed=2)
    w = est.witness
    ratio = to_n(apply_shift(T, w, mu), mu) / from_n(w, mu)
    assert ratio == pytest.approx(est.lower_bound, rel=1e-12)


def test_lower_bound_validation(mu):
    T = petermichl(mu.depth)
    l2 = NormSpec("lp", p=2.0)
    with pytest.raises(ValueError):
        opnorm_lower_bound(T, mu, l2, l2, budget=0)
    # a negative step count would skip every ascent without a word
    with pytest.raises(ValueError, match="ascent_steps must be >= 0"):
        opnorm_lower_bound(T, mu, l2, l2, budget=1, ascent_steps=-3)


def test_battery_maxima_synthesizes_only_contenders(monkeypatch):
    """Against the bar that an earlier chunk leaves, the fold synthesizes a
    chunk's lead row, then the rows whose bound ratio is not below the bar
    the lead row leaves, and no other row; its maximum and row are those of
    evaluating every image."""
    mu = generate("random_doubling", 6, seed=2)
    rng = np.random.default_rng(2)
    F = rng.standard_normal((40, 64))
    T = petermichl(mu.depth)
    target = NormSpec("lambda", alpha=0.5)
    B = T.apply_rows(analyze_rows(F, mu)[1])
    upper = target.upper_rows(B, mu)
    values = target.evaluate_rows(synthesize_rows(0.0, B, mu), mu)
    # bound ratios spread over [1/2, 1], and the loosest bound leads at 1.05
    denoms = upper * rng.uniform(1.0, 2.0, 40)
    loose = np.argmax(upper / values)
    denoms[loose] = upper[loose] / 1.05
    bounds, full = upper / denoms, values / denoms
    # a first one-row chunk leaves the bar near half the second's maximum
    first = (F[:1], values[:1] / (0.5 * full.max()))
    bar = opnorm.battery_maxima({"T": T}, mu, [first], target)["T"][0]
    synthesized = []

    def spy(means, coeffs, mu):
        synthesized.append(coeffs.copy())
        return synthesize_rows(means, coeffs, mu)

    # the fold calls martingale.synthesize_rows through its name in opnorm
    monkeypatch.setattr(opnorm, "synthesize_rows", spy)
    value, row = opnorm.battery_maxima({"T": T}, mu, [first, (F, denoms)], target)["T"]
    lead = int(np.argmax(bounds))
    assert lead == loose
    contenders = np.flatnonzero(bounds >= max(bar, full[lead]))
    contenders = contenders[contenders != lead]
    assert 0 < len(contenders) < len(B) - 1
    # one row for the first chunk, then the lead row, then the contenders
    assert len(synthesized) == 3
    assert np.array_equal(synthesized[1], B[lead : lead + 1])
    assert np.array_equal(synthesized[2], B[contenders])
    assert value == full.max() and np.array_equal(row, F[first_max(full)])
    # evaluating every image gives the same maximum and row
    monkeypatch.setattr(NormSpec, "upper_rows", lambda self, B, mu: None)
    unbounded = opnorm.battery_maxima({"T": T}, mu, [first, (F, denoms)], target)["T"]
    assert unbounded[0] == value and np.array_equal(unbounded[1], row)


def test_deterministic_probe_order(monkeypatch):
    # the order decides which of two equal ratios wins and so where the
    # greedy ascent starts: Haar functions in heap order, then for every
    # node in heap order its indicator and the recentred indicator
    mu = random_doubling(3, seed=5)
    seen = []
    battery_maxima = opnorm.battery_maxima

    def spy(battery, mu_, chunks, target):
        chunks = list(chunks)
        seen.extend(row for F, _ in chunks for row in F)
        return battery_maxima(battery, mu_, chunks, target)

    # the node probes are the chunks of the one battery_maxima fold
    monkeypatch.setattr(opnorm, "battery_maxima", spy)
    l2 = NormSpec("lp", p=2.0)
    opnorm_lower_bound(petermichl(3), mu, l2, l2, budget=1, ascent_steps=0)
    n, tree = 1 << mu.depth, mu.tree
    assert len(seen) == (n - 1) + 2 * (2 * n - 1)
    for p in range(1, n):
        assert np.array_equal(seen[p - 1], haar_function(mu, tree.node_at(p)).values)
    for p in range(1, 2 * n):
        node = tree.node_at(p)
        ind = StepFunction.indicator(tree, node)
        centred = ind - StepFunction(mu.depth, np.full(n, mu.mass(node) / mu.total_mass))
        assert np.array_equal(seen[n - 1 + 2 * (p - 1)], ind.values)
        assert np.array_equal(seen[n + 2 * (p - 1)], centred.values)


# opnorm.node_probes and martingale.stack_chunks, the StepFunction-per-probe
# battery that node_probe_rows replaced, copied verbatim as its reference.
def node_probes(mu: MeasureTree, nodes: Iterable[Node]) -> Iterator[StepFunction]:
    """The probe battery on `nodes`: first the Haar functions of the internal
    ones, then, node by node, the indicator and the indicator recentred to
    zero mean (for source norms that kill constants).

    The order decides which of two equal ratios comes first, and so where
    `opnorm_lower_bound`'s greedy ascent starts.
    """
    nodes = list(nodes)
    for node in nodes:
        if node.level < mu.depth:
            yield haar_function(mu, node)
    total = mu.total_mass
    for node in nodes:
        ind = StepFunction.indicator(mu.tree, node)
        yield ind
        yield ind - StepFunction(mu.depth, np.full(1 << mu.depth, mu.mass(node) / total))


def stack_chunks(functions: Iterable[StepFunction], depth: int) -> Iterator[np.ndarray]:
    """The values of `functions` in order, stacked one chunk of rows at a time."""
    functions = iter(functions)
    while chunk := [f.values for f in islice(functions, _chunk_rows(depth))]:
        yield np.stack(chunk)


def _position_sets(mu):
    # every node, the sample of the theorem suites, the root, and a leaf
    rng = np.random.default_rng([0, mu.depth])
    return {
        "all": np.arange(1, 2 << mu.depth),
        "sampled": studies._sampled_nodes(mu, rng),
        "root": np.array([1]),
        "leaf": np.array([(1 << mu.depth) + 1]),
    }


def _assert_rows_match_reference(mu, positions):
    chunks = list(node_probe_rows(mu, positions))
    assert all(F.dtype == np.float64 and len(F) <= _chunk_rows(mu.depth) for F in chunks)
    nodes = [mu.tree.node_at(int(p)) for p in positions]
    ref = np.concatenate(list(stack_chunks(node_probes(mu, nodes), mu.depth)))
    assert np.concatenate(chunks).tobytes() == ref.tobytes()
    return chunks


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_node_probe_rows_match_reference(kind):
    for depth in range(2, 11):
        mu = generate(kind, depth, seed=depth)
        for positions in _position_sets(mu).values():
            _assert_rows_match_reference(mu, positions)


@settings(max_examples=40, deadline=None)
@given(masses=arrays(np.float64, 16, elements=st.floats(1e-300, 1.0)))
def test_node_probe_rows_match_reference_on_extreme_masses(masses):
    mu = MeasureTree(DyadicTree(4), masses)
    for positions in _position_sets(mu).values():
        _assert_rows_match_reference(mu, positions)


def test_node_probe_rows_split_anywhere(monkeypatch):
    # on the internal nodes, the 3 (2**D - 1) rows in chunks of 2**D - 1 end
    # once at the Haar block and once between an indicator and its
    # recentred row; chunks of 1, 2 and 3 rows split every way
    for depth in (3, 4):
        mu = generate("random_doubling", depth, seed=1)
        n_haar = (1 << depth) - 1
        for rows in (1, 2, 3, n_haar):
            monkeypatch.setattr(martingale, "CHUNK_BYTES", rows * 8 << depth)
            for positions in _position_sets(mu).values():
                sizes = [len(F) for F in _assert_rows_match_reference(mu, positions)]
                # the fewest chunks, of sizes that differ by at most one
                assert len(sizes) == -(-sum(sizes) // rows) and max(sizes) - min(sizes) <= 1
            if rows == n_haar:
                ends = np.cumsum([len(F) for F in node_probe_rows(mu, np.arange(1, n_haar + 1))])
                assert n_haar in ends and 2 * n_haar in ends  # n_haar is odd


def _node_probe_stage(T, mu, from_norm, to_norm):
    # opnorm_lower_bound's node stage: one fold over the probes of every node
    probes = node_probe_rows(mu, np.arange(1, 2 << mu.depth))
    chunks = ((F, from_norm.evaluate_rows(F, mu)) for F in probes)
    return opnorm.battery_maxima({"T": T}, mu, chunks, to_norm)["T"]


# opnorm_lower_bound before its node probes were scored as one batch, copied
# verbatim (its _ratio as _ref_ratio) as the reference for the batched stage.
def _ref_ratio(T, f, mu, from_norm, to_norm):
    denom = from_norm(f, mu)
    if denom == 0.0 or not np.isfinite(denom):
        return -np.inf
    return to_norm(apply_shift(T, f, mu), mu) / denom


def _ref_node_probe_stage(T, mu, from_norm, to_norm):
    best_val, best_f = -np.inf, None
    for f in node_probes(mu, map(mu.tree.node_at, range(1, 2 << mu.depth))):
        val = _ref_ratio(T, f, mu, from_norm, to_norm)
        if val > best_val:
            best_val, best_f = val, f
    return best_val, best_f


def _ref_opnorm_lower_bound(T, mu, from_norm, to_norm, budget=50, seed=0, ascent_steps=20):
    n = 1 << mu.depth
    best_val, best_f = _ref_node_probe_stage(T, mu, from_norm, to_norm)

    def ascend(f, val, rng):
        scale = max(float(np.max(np.abs(f.values))), 1.0)
        for _ in range(ascent_steps):
            leaf = int(rng.integers(n))
            eps = scale * rng.choice([-0.5, -0.1, 0.1, 0.5])
            vals = f.values.copy()
            vals[leaf] += eps
            cand = StepFunction(mu.depth, vals)
            cand_val = _ref_ratio(T, cand, mu, from_norm, to_norm)
            if cand_val > val:
                f, val = cand, cand_val
        return f, val

    if best_f is not None and np.isfinite(best_val):
        f, val = ascend(best_f, best_val, np.random.default_rng([seed, 999_983]))
        if val > best_val:
            best_val, best_f = val, f

    for trial in range(budget):
        rng = np.random.default_rng([seed, trial])
        f = StepFunction(mu.depth, rng.standard_normal(n))
        val = _ref_ratio(T, f, mu, from_norm, to_norm)
        if np.isfinite(val):
            f, val = ascend(f, val, rng)
        if val > best_val:
            best_val, best_f = val, f

    if best_f is None:
        best_f = StepFunction.indicator(mu.tree, Node(0, 0))
        best_val = _ref_ratio(T, best_f, mu, from_norm, to_norm)
    return _ref_ratio(T, best_f, mu, from_norm, to_norm), best_f


PAIRS = [
    (NormSpec("bmo"), NormSpec("bmo")),
    (NormSpec("lambda", q=2.0, alpha=0.5), NormSpec("lambda", q=2.0, alpha=0.5)),
    (NormSpec("lp", p=np.inf), NormSpec("bmo")),
    (NormSpec("h1"), NormSpec("lp", p=1.0)),
]


def _opnorm_shifts(depth):
    # the zero shift ties every ratio at 0, so the first probe must win
    return [
        petermichl(depth),
        CanonicalShift(depth, 2, 1, 1, 0, dense_alphas(depth, 2, 1, 1.0)),
        GeneralShift(depth, ShiftShape(0, 0), []),
    ]


# (budget, ascent_steps, seed) of the reference comparison: each of three
# budgets, ascent lengths and seeds, and budget 10 with two ascent lengths
CASES = [(2, 20, 3), (1, 0, 11), (10, 1, 29), (10, 20, 11)]


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_node_probe_stage_matches_sequential_reference(kind, monkeypatch):
    for depth in (3, 5):
        mu = generate(kind, depth, seed=depth)
        for T in _opnorm_shifts(depth):
            for from_n, to_n in PAIRS:
                ref_val, ref_f = _ref_node_probe_stage(T, mu, from_n, to_n)
                # one chunk, one row per chunk, and three rows per chunk
                for chunk_bytes in (None, 8, 3 * 8 << depth):
                    if chunk_bytes is not None:
                        monkeypatch.setattr(martingale, "CHUNK_BYTES", chunk_bytes)
                    val, row = _node_probe_stage(T, mu, from_n, to_n)
                    assert repr(val) == repr(ref_val)
                    assert row.tobytes() == ref_f.values.tobytes()
                monkeypatch.undo()


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_lower_bound_matches_sequential_reference(kind, monkeypatch):
    # budgets of one trial, of two and of more trials than a chunk holds;
    # no ascent, a one-step ascent and the default ascent; chunks of one,
    # three and five rows, so ascent batches and trial batches split
    mu = generate(kind, 4, seed=7)
    for T in _opnorm_shifts(4):
        for from_n, to_n in PAIRS:
            for budget, steps, seed in CASES:
                ref_val, ref_f = _ref_opnorm_lower_bound(
                    T, mu, from_n, to_n, budget=budget, seed=seed, ascent_steps=steps
                )
                for rows in (1, 3, 5):
                    monkeypatch.setattr(martingale, "CHUNK_BYTES", rows * 8 << 4)
                    est = opnorm_lower_bound(
                        T, mu, from_n, to_n, budget=budget, seed=seed, ascent_steps=steps
                    )
                    assert repr(est.lower_bound) == repr(ref_val)
                    assert est.witness.values.tobytes() == ref_f.values.tobytes()


def test_node_probe_stage_without_a_finite_ratio(mu):
    class ZeroNorm:
        def evaluate_rows(self, F, mu):
            return np.zeros(F.shape[:-1])

    T = petermichl(mu.depth)
    assert _node_probe_stage(T, mu, ZeroNorm(), NormSpec("bmo")) == (-np.inf, None)
