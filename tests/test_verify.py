"""The verify battery: one measure battery for four checks, and the Gram lane."""

import threading

import numpy as np
import pytest

from haarlab import studies, verify
from haarlab.martingale import StepFunction


def _pairs(depth: int, trials: int, seed: int) -> list:
    """The (measure, function) pairs `run_verification` hands its basis,
    sandwich, sibling and square-function checks."""
    return [
        (mu, StepFunction(mu.depth, rng.standard_normal(1 << mu.depth)))
        for mu, rng in verify._battery(depth, trials, seed)
    ]


def _gram_calls(monkeypatch) -> list:
    """The (thread, measures) of each call to `_gram_deviations` in
    `verify`, from now on."""
    calls = []
    gram_deviations = verify._gram_deviations

    def spy(measures):
        calls.append((threading.current_thread(), measures))
        return gram_deviations(measures)

    monkeypatch.setattr(verify, "_gram_deviations", spy)
    return calls


def _folded_deviations(monkeypatch) -> list:
    """The per-measure Gram deviations `check_basis` folds, from now on."""
    folded = []
    check_basis = verify.check_basis

    def spy(pairs, gram_deviations):
        return check_basis(pairs, lambda: folded.append(gram_deviations()) or folded[-1])

    monkeypatch.setattr(verify, "check_basis", spy)
    return folded


@pytest.mark.parametrize("config", [(10, 100, 7), (6, 30, 3), (4, 10, 7)])
def test_results_same_on_one_and_two_cpus(monkeypatch, config):
    pairs = _pairs(*config)
    measures = [mu for mu, _ in pairs[: verify.GRAM_BUDGET]]
    serial = verify._gram_deviations(measures)
    # the basis checks of one serial pass, folded in measure order
    basis = verify.check_basis(pairs, lambda: serial)
    calls = _gram_calls(monkeypatch)
    folded = _folded_deviations(monkeypatch)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(studies, "_usable_cpus", lambda: cpus)
        calls.clear()
        runs.append(verify.run_verification(*config))
        # the deepest measures ran on a helper, at any CPU count, and the
        # shallower ones here
        deepest = max(mu.depth for mu in measures)
        [lane] = [thread for thread, run in calls if run and run[0].depth == deepest]
        assert lane is not threading.main_thread()
        assert all(thread is threading.main_thread() for thread, _ in calls if thread is not lane)
    assert runs[0] == runs[1]
    assert runs[0][:4] == basis
    assert all(r.passed for r in runs[0])
    # both fold the deviations of one serial pass, in some order
    assert [sorted(run) for run in folded] == [sorted(serial)] * 2


def test_gram_lane_errors_reach_the_caller(monkeypatch):
    gram_deviations = verify._gram_deviations
    raised_on = []

    def broken(measures):
        if threading.current_thread() is not threading.main_thread():
            raised_on.append(threading.current_thread())
            raise RuntimeError("broken lane")
        return gram_deviations(measures)

    monkeypatch.setattr(verify, "_gram_deviations", broken)
    with pytest.raises(RuntimeError, match="broken lane"):
        verify.run_verification(6, 30, 3)
    assert len(raised_on) == 1


def test_shared_battery_draws_each_function_once(monkeypatch):
    handed = []
    for name in ("check_basis", "check_sandwich", "check_sibling", "check_square_function"):
        check = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda pairs, *rest, check=check: handed.append(pairs) or check(pairs, *rest)
        )
    verify.run_verification(5, 6, 3)
    pairs = handed[0]
    assert len(handed) == 4 and all(h is pairs for h in handed)
    # measure t's function is the first standard-normal draw after its depth draw
    assert len(pairs) == 6
    for t, (mu, f) in enumerate(pairs):
        rng = np.random.default_rng([3, t])
        assert mu.depth == rng.integers(2, 6)
        assert f.values.tolist() == rng.standard_normal(1 << mu.depth).tolist()


def test_gram_lane_calls_no_traced_function(monkeypatch, traced_calls):
    """Only the calling thread may run the functions the benchmark tracer
    wraps: run verify with the Gram lane on a helper thread."""
    gram_calls = _gram_calls(monkeypatch)
    # through the module: the tracer rebinds haarlab's own names only
    calls = traced_calls(lambda: verify.run_verification(6, 30, 3))
    assert len({thread for thread, _ in gram_calls}) == 2  # the lane ran on a helper
    assert {"verify.check_basis", "measure.balanced_constant"} <= {g for g, _ in calls}
    off_main = {group for group, thread in calls if thread is not threading.main_thread()}
    assert not off_main
