"""Blowup and boundedness studies plus the canonical CSV emitter."""

import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from haarlab import martingale, studies
from haarlab.martingale import analyze, synthesize_rows
from haarlab.measure import GENERATORS, MeasureError, generate, geometric_unbalanced, lebesgue
from haarlab.norms import NormSpec, haar_lambda2_norm
from haarlab.studies import (
    SUITES,
    THEOREM_NAMES,
    blowup_study,
    block_battery,
    build_measure,
    default_shift_battery,
    family_label,
    predicted_blowup_ratio,
    probe_battery,
    rows_to_csv,
    theorem_suite,
    unbalanced_branch_node,
)
from haarlab.shift import CanonicalShift, dense_alphas
from haarlab.tree import Node


def test_family_label():
    assert family_label({"kind": "lebesgue"}) == "lebesgue"
    assert (
        family_label({"kind": "geometric_unbalanced", "q": 0.5})
        == "geometric_unbalanced,q=0.5"
    )


def test_build_measure_passes_params():
    mu = build_measure({"kind": "geometric_unbalanced", "q": 0.25}, 4, 0)
    expected = geometric_unbalanced(4, q=0.25)
    assert np.array_equal(mu.leaf_masses, expected.leaf_masses)


def test_unbalanced_branch_node():
    assert unbalanced_branch_node(6) == Node(4, 0)
    assert unbalanced_branch_node(6, level=2) == Node(2, 0)


def test_predicted_ratio_is_norm_quotient():
    mu = geometric_unbalanced(6, q=0.5)
    node = unbalanced_branch_node(6)
    left, _ = mu.tree.children(node)
    expected = haar_lambda2_norm(mu, left, 0.5) / haar_lambda2_norm(mu, node, 0.5)
    assert predicted_blowup_ratio(mu, node, 0.5) == pytest.approx(expected, rel=1e-12)


def test_blowup_study_grows_on_unbalanced():
    fam = {"kind": "geometric_unbalanced", "q": 0.5}
    rows = blowup_study(fam, 0.5, [4, 5, 6])
    key = "petermichl|lambda[q=2,alpha=0.5]"
    vals = [r.estimates[key] for r in rows]
    assert vals[0] < vals[1] < vals[2]
    # the measured ratio dominates its closed-form lower bound
    for r in rows:
        assert r.estimates[key] >= r.estimates["predicted_lower_bound"] * (1 - 1e-9)
    with pytest.raises(ValueError):
        blowup_study(fam, 0.5, [4, 4])
    with pytest.raises(ValueError):
        blowup_study(fam, 0.5, [])
    with pytest.raises(MeasureError, match="takes no parameter q"):
        blowup_study({"kind": "lebesgue", "q": 0.3}, 0.5, [4])


def test_default_shift_battery():
    battery = default_shift_battery(5)
    assert "petermichl" in battery and "petermichl_adj" in battery
    assert len(battery) == 5
    # the canonical shifts, built from heap arrays, hold the terms of the
    # dense coefficient-map form, in its order
    for depth in (2, 3, 5):
        battery = default_shift_battery(depth)
        for m, s_sel, n, t_sel, a in [(1, 0, 0, 0, 1.0), (0, 0, 1, 1, -1.0), (2, 1, 1, 0, 1.0)]:
            T = battery[f"canonical[m={m},s={s_sel},n={n},t={t_sel},a={a:+g}]"]
            ref = CanonicalShift(depth, m, s_sel, n, t_sel, dense_alphas(depth, m, n, a))
            ref = ref.to_general()
            assert T.shape == ref.shape and T.dropped == ref.dropped
            for field in ("_r_pos", "_s_pos", "_alpha"):
                assert getattr(T, field).tobytes() == getattr(ref, field).tobytes()


def test_theorem_suite_shapes_and_names():
    rows = theorem_suite("LInfBMO", [{"kind": "lebesgue"}], [4, 5], n_random=2)
    assert len(rows) == 2
    assert all(len(r.estimates) == 5 for r in rows)
    assert all("|LInfBMO" in key for r in rows for key in r.estimates)
    with pytest.raises(ValueError):
        theorem_suite("NotASuite", [{"kind": "lebesgue"}], [4])
    with pytest.raises(MeasureError, match="takes no parameter q"):
        theorem_suite("LInfBMO", [{"kind": "lebesgue", "q": 0.3}], [4], n_random=1)
    with pytest.raises(ValueError, match="n_random must be >= 0"):
        theorem_suite("LInfBMO", [{"kind": "lebesgue"}], [4], n_random=-2)
    with pytest.raises(ValueError, match="n_random must be >= 0"):
        probe_battery(geometric_unbalanced(4), 0, n_random=-1)
    assert set(THEOREM_NAMES) == {"LInfBMO", "BMOtoBMO", "H1L1", "H1H1", "TheoremB"}


def test_theorem_suite_deterministic():
    fams = [{"kind": "random_doubling", "p_min": 0.4, "p_max": 0.6}]
    a = theorem_suite("H1L1", fams, [4], seed=5, n_random=3)
    b = theorem_suite("H1L1", fams, [4], seed=5, n_random=3)
    assert a == b


def test_rows_to_csv_canonical():
    rows = blowup_study({"kind": "geometric_unbalanced", "q": 0.5}, 0.5, [4, 5])
    csv1 = rows_to_csv(rows)
    csv2 = rows_to_csv(list(reversed(rows)))
    assert csv1 == csv2  # canonical sort order
    lines = csv1.splitlines()
    assert lines[0] == "family,depth,seed,balanced_constant,norm_pair,estimate,witness_file"
    assert len(lines) == 1 + 2 * 3  # two depths, three estimates each
    # floats are emitted via repr, so parsing them back is lossless
    value = float(lines[1].split(",")[-2])
    assert np.isfinite(value)


# the targets with a certified upper bound, at Lambda parameters the suites
# do not use
BOUNDED_TARGETS = [NormSpec("lambda", q=3.0, alpha=2.0), NormSpec("lambda", q=1.0, alpha=0.5)]


def _ref_suite_maxima(battery, mu, inputs, target):
    # the per-function suite loop before the probe axis, verbatim except
    # that functions and images are stand-ins holding their values: NaN and
    # inf rows have NaN images, which no StepFunction holds
    spectra = [(analyze(f, mu), denom) for f, denom in inputs]
    out = {}
    for shift_name, T in battery.items():
        best = -np.inf
        for spec, denom in spectra:
            if denom <= 0.0 or not np.isfinite(denom):
                continue
            image = T.apply_spectrum(spec)
            tf = SimpleNamespace(values=synthesize_rows(image.mean, image.coeffs, mu))
            best = max(best, target(tf, mu) / denom)
        out[shift_name] = best
    return out


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_suite_maxima_match_sequential_reference(kind, monkeypatch):
    depth = 5
    mu = generate(kind, depth, seed=3)
    battery = default_shift_battery(depth)
    probes = list(probe_battery(mu, 3, n_random=2))
    nodes, randoms = probes[:-4], probes[-4:]
    blocks = [b.function(depth).values for b in block_battery(mu, 3)]
    n = 1 << depth
    hard = [
        np.zeros(n),  # zero images, bound 0
        probes[5], probes[5], 2.0 * probes[7], probes[7],  # ties
        np.where(np.arange(n) == 3, np.nan, 1.0),
        np.where(np.arange(n) == 0, np.inf, probes[9]),
        1e150 * probes[11], 1e-160 * probes[11],  # outside the certified range
        1e-140 * probes[12], 1e140 * probes[13],
    ]

    def with_denoms(rows):
        denoms = np.random.default_rng(3).uniform(0.5, 2.0, len(rows))
        denoms[[1, 4, 6, 9]] = [0.0, -1.0, np.nan, np.inf]  # rows to skip
        denoms[-10:-6] = [1.0, 1.0, 2.0, 1.0]  # the tied pairs tie in ratio
        return np.stack(rows), denoms

    def check(G, dG, F, dF, grid):
        # `_suite_maxima` on (F, dF) against the reference on (G, dG), at
        # each (chunk bytes, workers) of the grid
        inputs = [(SimpleNamespace(depth=depth, values=row), float(d)) for row, d in zip(G, dG)]
        for target in [target for _, target in SUITES.values()] + BOUNDED_TARGETS:
            with np.errstate(all="ignore"):
                expected = _ref_suite_maxima(battery, mu, inputs, target)
            for chunk_bytes, workers in grid:
                monkeypatch.setattr(martingale, "CHUNK_BYTES", chunk_bytes)
                monkeypatch.setattr(studies, "_usable_cpus", lambda: workers)
                with np.errstate(all="ignore"):
                    got = studies._suite_maxima(battery, mu, F, dF.__getitem__, target)
                assert repr(got) == repr(expected), (target, chunk_bytes, workers)

    # every row, in one chunk of the default size, on one worker
    F, denoms = with_denoms(probes + blocks + hard)
    check(F, denoms, F, denoms, [(martingale.CHUNK_BYTES, 1)])
    # every third node probe, the random and block rows and the hard rows,
    # then rows to skip up to 147, then the same rows again: every maximum
    # is attained on a row and on its copy 147 rows later, 147 / rows
    # chunks on, which is odd and prime to 5, so at 2 and 5 workers the
    # copy is in another worker's chunk
    G, dG = with_denoms(nodes[::3] + randoms + blocks + hard)
    gap = 147 - len(G)
    F = np.concatenate([G, np.ones((gap, n)), G])
    denoms = np.concatenate([dG, np.zeros(gap), dG])
    grid = []
    for rows in (1, 3, 7):
        assert 147 % rows == 0 and 147 // rows % 2 and 147 // rows % 5
        grid += [(rows * 8 << depth, workers) for workers in (1, 2, 5)]
    check(G, dG, F, denoms, grid)
    # no usable denominator leaves every maximum at -inf
    none = studies._suite_maxima(battery, mu, F[:3], np.zeros(3).__getitem__, NormSpec("bmo"))
    assert none == dict.fromkeys(battery, -np.inf)


def test_theorem_suite_chunking_leaves_csv_unchanged(monkeypatch):
    fams = [{"kind": "random_doubling"}, {"kind": "spine"}]
    for name in THEOREM_NAMES:
        expected = rows_to_csv(theorem_suite(name, fams, [4, 6], seed=2, n_random=2))
        for chunk_bytes in (8, 3 * 8 << 6):
            monkeypatch.setattr(martingale, "CHUNK_BYTES", chunk_bytes)
            csv = rows_to_csv(theorem_suite(name, fams, [4, 6], seed=2, n_random=2))
            assert csv == expected
        monkeypatch.undo()


SUITE_FAMILIES = [
    {"kind": "lebesgue"},
    {"kind": "random_doubling", "p_min": 0.4, "p_max": 0.6},
    {"kind": "geometric_unbalanced", "q": 0.5},
    {"kind": "spine", "M": 1000.0},
]


def test_theorem_suite_csv_unchanged_without_bounds(monkeypatch):
    """Skipping images by their certified bounds leaves every suite's CSV as
    evaluating every image does."""
    runs = [(name, 0.5) for name in THEOREM_NAMES] + [("TheoremB", 0.25)]

    def csvs():
        return [
            rows_to_csv(theorem_suite(name, SUITE_FAMILIES, [4, 5, 6, 7, 8], alpha=alpha, n_random=3))
            for name, alpha in runs
        ]

    pruned = csvs()
    monkeypatch.setattr(NormSpec, "upper_rows", lambda self, B, mu: None)
    assert csvs() == pruned


def _fold_threads(monkeypatch) -> list:
    """The threads `battery_maxima` runs on in `studies`, from now on."""
    threads = []
    battery_maxima = studies.battery_maxima

    def spy(*args):
        threads.append(threading.current_thread())
        return battery_maxima(*args)

    monkeypatch.setattr(studies, "battery_maxima", spy)
    return threads


def test_theorem_suite_csv_unchanged_across_workers(monkeypatch):
    """Splitting the chunks over 2 or 5 workers leaves every suite's CSV as
    one worker on one chunk per cell writes it; 5 workers is more threads
    than cores, and runs with a short thread switch interval.  At 8 rows
    per chunk at depth 8 (128 at depth 4), every cell from depth 6 up and
    every probe cell from depth 5 up has several chunks."""
    threads = _fold_threads(monkeypatch)

    def csvs(workers):
        monkeypatch.setattr(studies, "_usable_cpus", lambda: workers)
        return [
            rows_to_csv(theorem_suite(name, SUITE_FAMILIES, [4, 5, 6, 7, 8], n_random=3))
            for name in THEOREM_NAMES
        ]

    inline = csvs(1)
    assert set(threads) == {threading.main_thread()}
    monkeypatch.setattr(martingale, "CHUNK_BYTES", 8 * 8 << 8)
    assert csvs(2) == inline
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert csvs(5) == inline
    finally:
        sys.setswitchinterval(interval)
    assert len(set(threads)) > 1  # helper threads folded chunks


def test_helper_threads_call_no_traced_function(monkeypatch, traced_calls):
    """Only the calling thread may run the functions the benchmark tracer
    wraps: run every suite on two workers at several chunks per cell."""
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(martingale, "CHUNK_BYTES", 8 * 8 << 6)
    threads = _fold_threads(monkeypatch)

    def run():
        for name in THEOREM_NAMES:
            # through the module: the tracer rebinds haarlab's own names only
            studies.theorem_suite(name, SUITE_FAMILIES[1:3], [5, 6], n_random=2)

    calls = traced_calls(run)
    assert len(set(threads)) > 1  # a helper thread folded chunks
    groups = {group for group, _ in calls}
    assert {"studies.theorem_suite", "studies.default_shift_battery"} <= groups
    off_main = {group for group, thread in calls if thread is not threading.main_thread()}
    assert not off_main


def test_suite_maxima_helper_errors_reach_the_caller(monkeypatch):
    # chunks of three rows over two workers: worker 1 folds chunks 1 and 3,
    # and chunk 1 alone has a row to skip, so only its coefficients have
    # two rows
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(martingale, "CHUNK_BYTES", 3 * 8 << 5)
    mu = generate("random_doubling", 5, seed=1)
    battery = default_shift_battery(5)
    raised_on = []

    class Broken:
        def apply_rows(self, coeffs):
            if len(coeffs) == 2:
                raised_on.append(threading.current_thread())
                raise RuntimeError("broken shift")
            return battery["petermichl"].apply_rows(coeffs)

    battery["broken"] = Broken()
    F = probe_battery(mu, 1, n_random=1)[:12]
    denoms = np.ones(len(F))
    denoms[4] = 0.0
    with pytest.raises(RuntimeError, match="broken shift"):
        studies._suite_maxima(battery, mu, F, denoms.__getitem__, NormSpec("bmo"))
    assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()


def test_helpers_return_results_and_raise_errors(monkeypatch):
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 1)
    threads = []

    def divide(a, b):
        threads.append(threading.current_thread())
        return a / b

    with studies.helpers() as start:
        waits = [start(divide, 1.0, b) for b in (4.0, 0.0, 2.0)]
        assert waits[0]() == 0.25 and waits[2]() == 0.5
        with pytest.raises(ZeroDivisionError):
            waits[1]()
    # one usable CPU still gets one helper, and only one
    assert len(set(threads)) == 1 and threads[0] is not threading.main_thread()


def test_helpers_see_the_callers_errstate():
    with np.errstate(over="raise", divide="ignore"):
        with studies.helpers() as start:
            state = start(np.geterr)
            overflow = start(np.multiply, np.array([1e300]), 1e300)
            with pytest.raises(FloatingPointError, match="overflow"):
                overflow()
    assert state()["over"] == "raise" and state()["divide"] == "ignore"
    assert np.geterr()["over"] != "raise"


def test_helpers_start_no_thread_until_asked(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
    with studies.helpers():
        pass


def test_helpers_end_before_the_block_exits():
    """Also when the caller raises while a helper runs, and when it never
    waits for a helper."""
    entered = threading.Event()
    done = []

    def slow(tag):
        done.append(threading.current_thread())
        entered.set()
        time.sleep(0.1)
        done.append(tag)

    with pytest.raises(RuntimeError, match="caller"):
        with studies.helpers() as start:
            start(slow, "raised")
            assert entered.wait(timeout=10)
            raise RuntimeError("caller")
    assert done[-1] == "raised" and not done[0].is_alive()
    done.clear()
    with studies.helpers() as start:
        start(slow, "unwaited")
    assert done[-1] == "unwaited" and not done[0].is_alive()


def test_suite_maxima_skip_images_only_under_a_bound(monkeypatch):
    """The BMO and Lambda targets are evaluated on fewer images than the
    suite makes; the H1 targets, which have no bound, on all of them."""
    mu = generate("random_doubling", 8, seed=0)
    battery = default_shift_battery(8)
    probes = probe_battery(mu, 0, n_random=6)
    blocks = block_battery(mu, 0)
    block_rows = np.stack([b.function(8).values for b in blocks])
    block_costs = np.array([b.cost for b in blocks])
    evaluated = []
    evaluate_rows = NormSpec.evaluate_rows

    def counting(self, F, mu):
        evaluated.append(len(F))
        return evaluate_rows(self, F, mu)

    for name, (source, target) in SUITES.items():
        if source is None:
            inputs, denoms = block_rows, block_costs
        else:
            target = replace(target, alpha=0.5)
            inputs, denoms = probes, replace(source, alpha=0.5).evaluate_rows(probes, mu)
        evaluated.clear()
        monkeypatch.setattr(NormSpec, "evaluate_rows", counting)
        studies._suite_maxima(battery, mu, inputs, denoms.__getitem__, target)
        monkeypatch.undo()
        total = len(battery) * np.count_nonzero((denoms > 0) & np.isfinite(denoms))
        if source is None:
            assert sum(evaluated) == total, name
        else:
            assert 0 < sum(evaluated) < total, name


def _ref_sampled_nodes(mu, rng):
    # `_sampled_nodes` as it was before it drew by index, verbatim
    tree = mu.tree
    shallow_max = min(4, tree.depth)
    nodes = [Node(k, j) for k in range(shallow_max + 1) for j in range(1 << k)]
    deep = [
        Node(k, j)
        for k in range(shallow_max + 1, tree.depth + 1)
        for j in range(1 << k)
    ]
    if deep:
        picks = rng.choice(len(deep), size=min(studies.DEEP_NODE_SAMPLE, len(deep)), replace=False)
        nodes.extend(deep[int(i)] for i in sorted(picks))
    return nodes


@pytest.mark.parametrize("depth", range(1, 15))
def test_sampled_nodes_match_reference(depth):
    mu = lebesgue(depth)
    for seed in range(4):
        rng, ref_rng = np.random.default_rng([seed, depth]), np.random.default_rng([seed, depth])
        ref = [mu.tree.heap(node) for node in _ref_sampled_nodes(mu, ref_rng)]
        assert studies._sampled_nodes(mu, rng).tolist() == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state
