"""haarlab benchmark: three workloads, end-to-end metrics and traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --write-golden

Each run measures one workload (see workloads.py and README.md).  It

- times SETUP_PROBES fresh processes, before and after the workload, that
  import haarlab from ./src and build the workload's inputs, and reports
  their median as setup_s;
- runs the workload in one more fresh process (worker.py), which warms up
  at smoke size and then times passes for --seconds: the first on the
  default seed, checked against golden.json, the rest on the given seed;
- prints an environment record, a summary line with all six end-to-end
  metrics, and as its last line one JSON object.  With --trace 0 that
  object holds the end-to-end metrics of BENCHMARK.json; with --trace 1
  the per-layer metrics of a separate traced pass.

Every process runs with BLAS_THREADS BLAS/OpenMP threads.  Without ./src
the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
WORKLOADS = ("suite_sweep", "deep_operator", "small_calls")
DEFAULT_SEED = 0  # must equal workloads.DEFAULT_SEED
SETUP_PROBES = 3
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "golden_match_frac": "ratio",
    "max_rel_err": "ratio",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *argv]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload finished")
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        raise BenchError(f"worker exceeded the time limit: {' '.join(argv)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # the ceiling keeps git from searching directories above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "blas_threads": worker_env()["OMP_NUM_THREADS"],
    }


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = OUT / f"{size}-{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--size", size,
              "--workdir", str(workdir)]
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # probes before and after the workload, so they sample the machine
        # over the whole run rather than one moment of it
        probe = [*common, "--seconds", "0", "--setup-only"]
        setups = [run_worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        res = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
        setups += [run_worker(probe, deadline)["setup_s"]
                   for _ in range(SETUP_PROBES - len(setups))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["setup_s"] = statistics.median(setups)
    res["setup_samples"] = setups
    res["failed_frac"] = res["failed"] / res["attempted"]
    return res


def write_golden() -> None:
    payloads = {}
    for size in ("full", "smoke"):
        for workload in WORKLOADS:
            res = measure(workload, DEFAULT_SEED, 0, 0, size)
            if res["failed"]:
                raise BenchError(f"{size}/{workload} failed: {res['failures']}")
            payloads[f"{size}/{workload}"] = res["golden_digests"]
            print(f"golden {size}/{workload}: {len(res['golden_digests'])} payloads", flush=True)
    golden = {
        "default_seed": DEFAULT_SEED,
        "made_by": "python3 perfbench/run.py --write-golden",
        "environment": environment(),
        "payloads": payloads,
    }
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: reduced sizes for the benchmark's own tests")
    ap.add_argument("--write-golden", action="store_true",
                    help="record the default-seed payload digests in golden.json")
    args = ap.parse_args()
    if not (ROOT / "src" / "haarlab" / "__init__.py").is_file():
        print(f"error: no haarlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_golden:
            write_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        res = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(), sort_keys=True))
    summary = " ".join(f"{k}={res[k]!r} {u}" for k, u in END_TO_END_UNITS.items())
    print(f"summary {args.workload} seed={args.seed}: {summary}; "
          f"warmup_s={res['warmup_s']!r} s; passes_s={res['wall_samples']!r}; "
          f"setup_samples_s={res['setup_samples']!r}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    if args.trace:
        metrics = res["layers"]
        print(f"trace {args.workload}: overhead_s={metrics['trace.overhead_s'][0]!r} s")
    else:
        metrics = {k: (res[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS
                   if k != "failed_frac"}  # reads 0 when correct; see README.md
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
