"""The verify battery: one measure battery for four checks, and the Gram lane."""

import threading

import numpy as np
import pytest

from haarlab import verify


def _gram_threads(monkeypatch) -> list:
    """The threads `_gram_deviations` runs on in `verify`, from now on."""
    threads = []
    gram_deviations = verify._gram_deviations

    def spy(measures):
        threads.append(threading.current_thread())
        return gram_deviations(measures)

    monkeypatch.setattr(verify, "_gram_deviations", spy)
    return threads


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
    threads = _gram_threads(monkeypatch)
    folded = _folded_deviations(monkeypatch)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    inline = verify.run_verification(*config)
    assert set(threads) == {threading.main_thread()}
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    assert verify.run_verification(*config) == inline
    assert len(set(threads)) == 2  # the deepest measures ran on the helper
    assert all(r.passed for r in inline)
    # both fold the deviations of one serial pass, in measure order
    measures = [mu for mu, _ in verify._battery(*config)[: verify.GRAM_BUDGET]]
    assert folded == [verify._gram_deviations(measures)] * 2


def test_gram_lane_errors_reach_the_caller(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
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
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    threads = _gram_threads(monkeypatch)
    # through the module: the tracer rebinds haarlab's own names only
    calls = traced_calls(lambda: verify.run_verification(6, 30, 3))
    assert len(set(threads)) == 2  # the deepest measures ran on the helper
    assert {"verify.check_basis", "measure.balanced_constant"} <= {g for g, _ in calls}
    off_main = {group for group, thread in calls if thread is not threading.main_thread()}
    assert not off_main
