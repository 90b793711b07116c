"""The three benchmark workloads.

Each workload builds its inputs from a seed (`setup`) and then lists the
ops of one pass (`ops`).  An op is one call into haarlab plus the check of
its output; it returns an `OpResult`.  Every haarlab function is reached
through its module attribute (`studies.theorem_suite`, never a name bound
here), so the tracer's wrappers see the benchmark's own calls too.

Sizes come in two sets: `full` is what the benchmark measures, `smoke` is a
reduced copy that the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from haarlab import cli, io, measure, opnorm, shift, studies, verify
from haarlab.martingale import StepFunction
from haarlab.norms import NormSpec

DEFAULT_SEED = 0


def derive(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the benchmark seed and fixed tags."""
    return int(np.random.SeedSequence([seed % 2**64, *tags]).generate_state(1)[0])


@dataclass
class OpResult:
    """Outcome of one op.

    payloads: name -> bytes, str, or Path of a file the op wrote; these are
        digested after the pass, outside the timed region.
    errors: relative deviations from exact references.
    failures: reasons the output check failed (empty when it passed).
    """

    payloads: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def require(self, ok: bool, reason: str) -> None:
        if not ok:
            self.failures.append(reason)


# --- suite_sweep -------------------------------------------------------------

SUITE_FAMILIES = [
    {"kind": "random_doubling", "p_min": 0.4, "p_max": 0.6},
    {"kind": "geometric_unbalanced", "q": 0.5},
]


class SuiteSweep:
    """One theorem_suite call per suite, both families and all depths inside
    the call, as `haarlab study theorem` makes them."""

    name = "suite_sweep"
    SIZES = {
        "full": {"depths": [8, 12], "n_random": 6},
        "smoke": {"depths": [4, 5], "n_random": 2},
    }

    def __init__(self, size: str = "full") -> None:
        self.depths = self.SIZES[size]["depths"]
        self.n_random = self.SIZES[size]["n_random"]

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": derive(seed, 1)}

    def ops(self, inputs: dict):
        for name in studies.THEOREM_NAMES:
            yield f"theorem_suite/{name}", lambda name=name: self._suite(name, inputs["seed"])

    def _suite(self, name: str, seed: int) -> OpResult:
        rows = studies.theorem_suite(
            name, SUITE_FAMILIES, self.depths, seed=seed, n_random=self.n_random
        )
        res = OpResult(payloads={f"csv/{name}": studies.rows_to_csv(rows)})
        values = [r.balanced_constant for r in rows]
        values += [v for r in rows for v in r.estimates.values()]
        res.require(bool(rows), "no rows")
        res.require(all(math.isfinite(v) for v in values), "non-finite estimate")
        return res


# --- deep_operator -----------------------------------------------------------

# A dense canonical shift of complexity (2, 1): m=2, s=1, n=1, t=0.
CANONICAL = {"m": 2, "s": 1, "n": 1, "t": 0}
# bmo-osc is the only caller of norms.bmo_oscillation in any workload
NORM_ARGS = {
    "lambda": ["--q", "2", "--alpha", "0.5"],
    "bmo": [],
    "bmo-osc": [],
    "h1": [],
}


class DeepOperator:
    """Few probes on 16k-64k-leaf arrays: shift construction and JSON I/O
    dominate."""

    name = "deep_operator"
    SIZES = {"full": {"depths": [14, 16]}, "smoke": {"depths": [6, 7]}}

    def __init__(self, size: str = "full") -> None:
        self.depths = self.SIZES[size]["depths"]

    def setup(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = {"workdir": workdir, "depths": {}}
        for D in self.depths:
            mu = measure.random_doubling(D, seed=derive(seed, 2, D), p_min=0.3, p_max=0.7)
            rng = np.random.default_rng(derive(seed, 3, D))
            f = StepFunction(D, rng.standard_normal(1 << D))
            files = {k: workdir / f"{k}_{D}.json" for k in ("measure", "function")}
            io.save_measure(mu, files["measure"])
            io.save_function(f, files["function"])
            files["petermichl"] = workdir / f"shift_petermichl_{D}.json"
            files["petermichl"].write_text(json.dumps({"kind": "petermichl"}) + "\n")
            files["canonical"] = workdir / f"shift_canonical_{D}.json"
            alphas = shift.dense_alphas(D, CANONICAL["m"], CANONICAL["n"], 1.0)
            io.save_shift(
                shift.CanonicalShift(
                    D, CANONICAL["m"], CANONICAL["s"], CANONICAL["n"], CANONICAL["t"], alphas
                ),
                files["canonical"],
            )
            files["general"] = workdir / f"shift_general_{D}.json"
            inputs["depths"][D] = {"mu": mu, "files": files}
        return inputs

    def ops(self, inputs: dict):
        workdir = inputs["workdir"]
        for D, item in inputs["depths"].items():
            files = item["files"]
            yield f"save_shift/{D}", lambda D=D, files=files: self._save_adjoint(D, files)
            for kind in ("petermichl", "canonical", "general"):
                image = workdir / f"image_{kind}_{D}.json"
                yield (
                    f"cli_apply/{kind}/{D}",
                    lambda kind=kind, image=image, files=files: self._apply(kind, image, files),
                )
                for norm in NORM_ARGS:
                    report = workdir / f"norm_{kind}_{norm}_{D}.json"
                    yield (
                        f"cli_norm/{kind}/{norm}/{D}",
                        lambda image=image, norm=norm, report=report, files=files: self._norm(
                            image, norm, report, files
                        ),
                    )
            yield f"l2_opnorm/{D}", lambda D=D, mu=item["mu"]: self._l2(D, mu)
            yield f"blowup_study/{D}", lambda D=D: self._blowup(D)

    def _save_adjoint(self, D: int, files: dict) -> OpResult:
        io.save_shift(shift.petermichl(D).adjoint(), files["general"])
        return OpResult(payloads={f"shift_general/{D}": files["general"]})

    def _apply(self, kind: str, image: Path, files: dict) -> OpResult:
        rc = cli.main([
            "apply", "--shift", str(files[kind]), "--function", str(files["function"]),
            "--measure", str(files["measure"]), "--out", str(image),
        ])
        res = OpResult(payloads={image.name: image})
        res.require(rc == 0, f"exit code {rc}")
        return res

    def _norm(self, image: Path, norm: str, report: Path, files: dict) -> OpResult:
        rc = cli.main([
            "norm", "--function", str(image), "--measure", str(files["measure"]),
            "--norm", norm, *NORM_ARGS[norm], "--out", str(report),
        ])
        res = OpResult(payloads={report.name: report})
        res.require(rc == 0, f"exit code {rc}")
        if rc == 0:
            value = json.loads(report.read_text())["value"]
            res.require(math.isfinite(value) and value > 0, f"norm value {value}")
        return res

    def _l2(self, D: int, mu) -> OpResult:
        est = opnorm.l2_opnorm(shift.petermichl(D), mu)
        err = abs(est.lower_bound - math.sqrt(2.0))
        res = OpResult(payloads={f"l2_opnorm/{D}": repr(est.lower_bound)}, errors=[err / math.sqrt(2.0)])
        res.require(err <= 1e-6, f"|l2_opnorm - sqrt(2)| = {err:.3e}")
        res.require(est.converged, "power iteration did not converge")
        return res

    def _blowup(self, D: int) -> OpResult:
        rows = studies.blowup_study({"kind": "geometric_unbalanced", "q": 0.5}, 0.5, [D])
        res = OpResult(payloads={f"blowup/{D}": studies.rows_to_csv(rows)})
        for row in rows:
            ratio = row.estimates["petermichl|lambda[q=2,alpha=0.5]"]
            bound = row.estimates["predicted_lower_bound"]
            res.errors.append(abs(ratio - bound) / bound)
            # the ratio equals the closed form up to rounding
            res.require(ratio >= bound * (1.0 - 1e-12), f"ratio {ratio!r} < bound {bound!r}")
        return res


# --- small_calls -------------------------------------------------------------

# verify details that carry a deviation print it as "... = 1.234e-15";
# petermichl_sqrt2 prints an absolute deviation from sqrt(2)
_DETAIL_NUMBER = re.compile(r"= ([0-9.]+e[+-][0-9]+)")


class SmallCalls:
    """Thousands of calls on 4-1024-leaf arrays, where per-call overhead
    dominates."""

    name = "small_calls"
    SIZES = {
        "full": {"verify_depth": 10, "trials": 100, "opnorm_depth": 8, "budget": 10},
        "smoke": {"verify_depth": 5, "trials": 10, "opnorm_depth": 4, "budget": 2},
    }

    def __init__(self, size: str = "full") -> None:
        self.cfg = self.SIZES[size]

    def setup(self, seed: int, workdir: Path) -> dict:
        D = self.cfg["opnorm_depth"]
        return {
            "verify_seed": derive(seed, 4),
            "opnorm_seed": derive(seed, 5),
            "mu": measure.random_doubling(D, seed=derive(seed, 6)),
        }

    def ops(self, inputs: dict):
        yield "run_verification", lambda: self._verify(inputs["verify_seed"])
        pairs = {
            "bmo": (NormSpec("bmo"), NormSpec("bmo")),
            "lambda2": (NormSpec("lambda", q=2.0, alpha=0.5), NormSpec("lambda", q=2.0, alpha=0.5)),
        }
        for shift_name in ("petermichl", "canonical"):
            for pair_name, pair in pairs.items():
                yield (
                    f"opnorm_lower_bound/{shift_name}/{pair_name}",
                    lambda s=shift_name, p=pair_name, pair=pair: self._lower_bound(
                        s, p, pair, inputs
                    ),
                )

    def _verify(self, seed: int) -> OpResult:
        results = verify.run_verification(
            depth=self.cfg["verify_depth"], trials=self.cfg["trials"], seed=seed
        )
        payload = json.dumps(
            [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results],
            indent=2,
        )
        res = OpResult(payloads={"verify": payload})
        for r in results:
            res.require(r.passed, f"{r.name}: {r.detail}")
            m = _DETAIL_NUMBER.search(r.detail)
            if m:
                scale = math.sqrt(2.0) if r.name == "petermichl_sqrt2" else 1.0
                res.errors.append(float(m.group(1)) / scale)
        return res

    def _lower_bound(self, shift_name: str, pair_name: str, pair, inputs: dict) -> OpResult:
        D = self.cfg["opnorm_depth"]
        if shift_name == "petermichl":
            T = shift.petermichl(D)
        else:
            c = CANONICAL
            T = shift.CanonicalShift(
                D, c["m"], c["s"], c["n"], c["t"], shift.dense_alphas(D, c["m"], c["n"], 1.0)
            )
        est = opnorm.opnorm_lower_bound(
            T, inputs["mu"], pair[0], pair[1], budget=self.cfg["budget"], seed=inputs["opnorm_seed"]
        )
        value = est.lower_bound
        res = OpResult(payloads={f"opnorm/{shift_name}/{pair_name}": repr(value)})
        res.require(math.isfinite(value) and value > 0, f"lower bound {value!r}")
        return res


WORKLOADS = {w.name: w for w in (SuiteSweep, DeepOperator, SmallCalls)}
