"""The benchmark's own tests, at smoke size.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's test run does not
collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_payloads_are_identical(name, tmp_path):
    wl = workloads.WORKLOADS[name]("smoke")
    inputs = wl.setup(5, tmp_path)
    plain = run_pass(wl, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, inputs, tracer)
    finally:
        tracer.uninstall()
    assert plain.failures == [] and traced.failures == []
    assert traced.sha256s() == plain.sha256s()
    assert tracer.spans


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_plus_remainder_add_up_to_traced_wall(name, tmp_path):
    wl = workloads.WORKLOADS[name]("smoke")
    inputs = wl.setup(5, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, inputs, tracer)
    finally:
        tracer.uninstall()
    remainder = traced.seconds - tracer.root_time()
    assert remainder >= 0
    assert tracer.self_times().min() >= -1e-9
    assert tracer.self_times().sum() + remainder == pytest.approx(traced.seconds, rel=1e-9)


def test_uninstall_restores_every_binding():
    import haarlab.norms
    import haarlab.shift
    import haarlab.tree

    before = (haarlab.norms.aggregate_heap, haarlab.shift.GeneralShift.__init__)
    tracer = Tracer()
    tracer.install()
    assert haarlab.norms.aggregate_heap is haarlab.tree.aggregate_heap
    assert haarlab.norms.aggregate_heap is not before[0]
    tracer.uninstall()
    assert (haarlab.norms.aggregate_heap, haarlab.shift.GeneralShift.__init__) == before


def test_every_per_layer_metric_is_mapped_in_layers_json():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    mapped = set()
    for entry in layers.values():
        for m in entry["metrics"]:
            mapped.update(f"{m}.{s}" for s in entry["stats"]) if "stats" in entry else mapped.add(m)
    assert {m["name"] for m in SPEC["per_layer"]} == mapped


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, key):
    result, stdout = bench("--workload", "small_calls", "--seed", "3", "--seconds", "0",
                           "--trace", trace, "--size", "smoke")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert result["metrics"]["golden_match_frac"]["value"] == 1.0
        summary = next(line for line in stdout.splitlines() if line.startswith("summary"))
        for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_frac", "golden_match_frac",
                     "max_rel_err"):
            assert f"{name}=" in summary
        env = json.loads(next(line for line in stdout.splitlines() if line.startswith("env "))[4:])
        assert set(env) >= {"python", "numpy", "scipy", "nproc", "cpu", "commit", "blas_threads"}


@pytest.mark.parametrize("name", ["suite_sweep", "deep_operator"])
def test_smoke_run_matches_golden(name):
    result, _ = bench("--workload", name, "--seed", "4", "--seconds", "0", "--size", "smoke")
    assert result["correct"]
    assert result["metrics"]["golden_match_frac"]["value"] == 1.0
    assert 0 < result["metrics"]["max_rel_err"]["value"] < 1e-12


def test_run_without_sources_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.*"):
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
