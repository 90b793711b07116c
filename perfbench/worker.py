"""One workload in one fresh process; run by run.py, not by hand.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --size full|smoke --workdir DIR [--setup-only]

The last stdout line is one JSON object.  With --setup-only it holds the
set-up time alone: import haarlab and build the workload's inputs for the
seed.  Otherwise the worker

1. builds the inputs for the given seed (timed as setup_s) and for the
   default seed;
2. warms up with one pass at smoke size, which pays the first-call costs
   (lazy imports, first use of each code path); its time is reported as
   warmup_s and counts in neither setup_s nor wall_s;
3. times passes with tracing off, at least two and as many as fit in
   --seconds: first one on the default-seed inputs, whose payloads are
   compared with the golden copy, then the rest on the given seed's
   inputs.  wall_s sums, over the ops of a pass, each op's median time
   across these passes.  Cold costs that only full-size arrays pay
   (first-touch page faults of large allocations) fall into the first
   pass, and so drop out of the median once there are three;
4. with --trace 1, runs one more pass with the tracer installed on the
   given seed's inputs and checks its payloads against the untraced ones.

BLAS and OpenMP thread counts are fixed by run.py through the environment
before numpy is imported.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports haarlab)
from tracing import Tracer  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
_NUMBER = re.compile(rb"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# golden numbers kept per payload; longer payloads keep an even sample
MAX_NUMBERS = 256
# float64 unit roundoff: the smallest relative error a result can resolve
UNIT_ROUNDOFF = 2.0 ** -53


def payload_bytes(value) -> bytes:
    if isinstance(value, Path):
        return value.read_bytes()
    return value.encode() if isinstance(value, str) else value


def digest(value) -> dict:
    data = payload_bytes(value)
    numbers = [float(x) for x in _NUMBER.findall(data)]
    if len(numbers) > MAX_NUMBERS:
        step = len(numbers) / MAX_NUMBERS
        numbers = [numbers[int(i * step)] for i in range(MAX_NUMBERS)]
    return {"sha256": hashlib.sha256(data).hexdigest(), "numbers": numbers}


def rel_dev(x: float, ref: float) -> float:
    if x == ref:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(ref)):
        return 1.0
    return abs(x - ref) / abs(ref) if ref else abs(x)


class PassResult:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict = {}
        self.errors: list[float] = []
        self.seconds = 0.0
        self.op_seconds: dict[str, float] = {}

    def check(self, ok: bool, reason: str) -> None:
        """A pass-level check, counted as one more op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(reason)

    def sha256s(self) -> dict:
        return {k: v["sha256"] for k, v in self.digests.items()}


def run_pass(workload, inputs, tracer: Tracer | None = None) -> PassResult:
    """Run every op of one pass.  Only the ops are timed; payloads are
    digested afterwards, before the next pass overwrites its files."""
    out = PassResult()
    payloads = {}
    start = time.perf_counter()
    for name, op in workload.ops(inputs):
        if tracer is not None:
            tracer.op += 1
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            res = op()
        except Exception as exc:  # an op that raises counts as failed
            out.failed += 1
            out.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            out.op_seconds[name] = time.perf_counter() - t0
        out.failed += bool(res.failures)
        out.failures.extend(f"{name}: {why}" for why in res.failures)
        payloads.update(res.payloads)
        out.errors.extend(res.errors)
    out.seconds = time.perf_counter() - start
    out.digests = {k: digest(v) for k, v in payloads.items()}
    return out


def golden_compare(digests: dict, golden: dict | None) -> tuple[float, float]:
    """(share of payloads byte-identical to golden, max relative deviation
    of their numbers from golden)."""
    if not golden:
        return 0.0, 1.0
    matched, worst = 0, 0.0
    for name, ref in golden.items():
        got = digests.get(name)
        if got is None or len(got["numbers"]) != len(ref["numbers"]):
            worst = 1.0
            continue
        matched += got["sha256"] == ref["sha256"]
        for x, r in zip(got["numbers"], ref["numbers"]):
            worst = max(worst, rel_dev(x, r))
    return matched / len(golden), worst


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.size)
    inputs = workload.setup(args.seed, args.workdir / "run")
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    default_inputs = workload.setup(workloads.DEFAULT_SEED, args.workdir / "default")
    smoke = workloads.WORKLOADS[args.workload]("smoke")
    warmup = run_pass(smoke, smoke.setup(args.seed, args.workdir / "warmup"))

    # pass 0 runs on the default seed and is compared with the golden copy;
    # the others run on the given seed
    timed = [run_pass(workload, default_inputs)]
    t_start = time.perf_counter() - timed[0].seconds
    # start a pass only if a typical pass would end within --seconds, so a
    # run's length does not depend on where its last pass happens to fall
    while len(timed) < 2 or (time.perf_counter() - t_start
                             + statistics.median(p.seconds for p in timed) <= args.seconds):
        timed.append(run_pass(workload, inputs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each op's median over the passes, summed: the machine's speed drifts
    # within a pass, so ops of one pass need not share a fast or slow spell
    wall_s = sum(statistics.median(p.op_seconds[name] for p in timed)
                 for name in timed[0].op_seconds)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    match_frac, golden_dev = golden_compare(
        timed[0].digests, golden.get("payloads", {}).get(f"{args.size}/{args.workload}")
    )
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_samples": [p.seconds for p in timed],
        "warmup_s": warmup.seconds,
        "peak_rss_mb": peak_rss_mb,
        "golden_match_frac": match_frac,
        # measured on the default-seed pass, so it compares across commits
        "max_rel_err": max([golden_dev, UNIT_ROUNDOFF, *timed[0].errors]),
        "golden_digests": timed[0].digests,
    }
    seeded = timed[1]
    for p in timed[2:]:
        p.check(p.sha256s() == seeded.sha256s(), "payloads differ between passes of one seed")
    passes = [warmup, *timed]

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        traced.check(traced.sha256s() == seeded.sha256s(), "traced payloads differ from untraced ones")
        passes.append(traced)
        layers = tracer.metrics()
        layers["trace.wall_s"] = (traced.seconds, "s")
        layers["trace.overhead_s"] = (traced.seconds - wall_s, "s")
        layers["trace.remainder_s"] = (traced.seconds - tracer.root_time(), "s")
        layers["trace.self_sum_s"] = (float(tracer.self_times().sum()), "s")
        result["layers"] = layers
        tracer.save(args.workdir.parent / f"spans-{args.size}-{args.workload}.npz")

    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["failures"] = [f for p in passes for f in p.failures]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
