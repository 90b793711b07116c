"""The verify battery: one measure battery for four checks, and the Gram lane."""

import threading

import numpy as np
import pytest

from haarlab import studies, verify


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

    def spy(battery, gram_deviations):
        return check_basis(battery, lambda: folded.append(gram_deviations()) or folded[-1])

    monkeypatch.setattr(verify, "check_basis", spy)
    return folded


@pytest.mark.parametrize("config", [(10, 100, 7), (6, 30, 3), (4, 10, 7)])
def test_results_same_on_one_and_two_cpus(monkeypatch, config):
    battery = verify._battery(*config)
    measures = [mu for mu, _ in battery[: verify.GRAM_BUDGET]]
    serial = verify._gram_deviations(measures)
    # the basis checks of one serial pass, folded in measure order
    basis = verify.check_basis(battery, lambda: serial)
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


def test_shared_battery_gives_each_check_fresh_generators():
    battery = verify._battery(5, 6, 3)
    first = [rng.standard_normal(4).tolist() for _, rng in verify._fresh(battery)]
    again = [rng.standard_normal(4).tolist() for _, rng in verify._fresh(battery)]
    assert first == again
    # the state after the depth draw, as each check drew it from its own battery
    rng = np.random.default_rng([3, 2])
    rng.integers(2, 6)
    assert first[2] == rng.standard_normal(4).tolist()


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
