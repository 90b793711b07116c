"""Command-line entry point.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 parameter error.  Every run with an --out target also writes
<out>.manifest.json echoing the resolved configuration (the manifest is
the only place a timestamp appears, so payload outputs are repeatable
byte for byte).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io as hio
from .atomic import atb_upper_bound
from .martingale import NonFiniteError
from .measure import GENERATORS, MeasureError, family_params, generate
from .norms import NORMS, NormError, NormSpec, check_lambda_range
from .shift import apply_shift
from .studies import SUITES, blowup_study, rows_to_csv, theorem_suite, THEOREM_NAMES
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_PARAM = 3


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _finite(value):
    """A non-finite float as the text `NormSpec.label` writes for it ("inf",
    "-inf", "nan"), which JSON can hold; any other value as it is."""
    return f"{value:g}" if isinstance(value, float) and not math.isfinite(value) else value


def _write_manifest(out: str | None, config: dict) -> None:
    if out is None:
        return
    manifest = {
        k: _finite(v)
        for k, v in config.items()
        if isinstance(v, (str, int, float, bool, list, type(None)))
    }
    manifest["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(manifest, indent=2, allow_nan=False)
    Path(str(out) + ".manifest.json").write_text(text + "\n")


def _emit(payload: str, out: str | None, config: dict) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)
        _write_manifest(out, config)


# family flags of `measure gen` and `study`: every parameter some family takes
FAMILY_FLAGS = tuple(dict.fromkeys(k for kind in GENERATORS for k in family_params(kind)))
# norm flags of `haarlab norm`: every parameter some table norm takes
NORM_FLAGS = tuple(dict.fromkeys(k for entry in NORMS.values() for k in entry.params))
# flags of `study`, and their defaults where the study reads them
STUDY_DEFAULTS = {"alpha": 0.5, "trials": 12}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _reject_untaken(given: dict, takes, owner: str) -> None:
    """A flag in `given` that `takes` lacks is a parameter error."""
    unused = [k for k in given if k not in takes]
    if unused:
        raise CliError(EXIT_PARAM, f"{', '.join(map(_flag, unused))} not taken by {owner}")


def _families_from_args(kinds: list[str], args) -> list[dict]:
    """One family per kind, each given the family flags it takes; a flag
    that no kind takes is a parameter error."""
    takes = {kind: family_params(kind) for kind in kinds}
    given = {k: getattr(args, k) for k in FAMILY_FLAGS if getattr(args, k) is not None}
    _reject_untaken(given, {k for t in takes.values() for k in t}, f"family {', '.join(kinds)}")
    return [
        {"kind": kind} | {k: v for k, v in given.items() if k in takes[kind]}
        for kind in kinds
    ]


def _parse_depths(spec: str) -> list[int]:
    try:
        if ":" in spec:
            a, b = spec.split(":")
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(spec)]
    except ValueError:
        raise CliError(EXIT_PARAM, f"bad depth range {spec!r}; expected 'a:b'")


def cmd_measure(args) -> int:
    if args.action == "gen":
        try:
            [fam] = _families_from_args([args.kind], args)
            mu = generate(depth=args.depth, seed=args.seed, **fam)
        except (ValueError, MemoryError) as exc:  # a MeasureError, or a depth too deep to allocate
            raise CliError(EXIT_INPUT, f"invalid measure spec: {exc}")
        rep = mu.balanced_constant()
        if args.out:
            hio.save_measure(mu, args.out)
            _write_manifest(args.out, vars(args) | {"command": "measure gen"})
        print(f"balanced_constant {rep.balanced_constant!r}")
        print(f"bal_form_constant {rep.bal_form_constant!r}")
        print(f"doubling_ratio {mu.doubling_ratio()!r}")
        return EXIT_OK
    # inspect
    mu = hio.load_measure(args.file)
    try:
        rep = mu.balanced_constant()
    except MeasureError as exc:
        raise CliError(EXIT_INPUT, f"invalid measure: {exc}")
    root_b = float(np.sqrt(rep.balanced_constant))
    sandwich_ok = root_b <= rep.bal_form_constant <= 4 * root_b
    print(f"depth {mu.depth}")
    print(f"total_mass {mu.total_mass!r}")
    print(f"balanced_constant {rep.balanced_constant!r}")
    print(f"bal_form_constant {rep.bal_form_constant!r}")
    print(f"doubling_ratio {mu.doubling_ratio()!r}")
    print(f"sandwich {'ok' if sandwich_ok else 'VIOLATED'}")
    return EXIT_OK


def _load_function(path, mu):
    f = hio.load_function(path)
    if f.depth != mu.depth:
        raise CliError(
            EXIT_INPUT, f"function depth {f.depth} != measure depth {mu.depth}"
        )
    return f


def cmd_norm(args) -> int:
    mu = hio.load_measure(args.measure)
    f = _load_function(args.function, mu)
    name = args.norm.replace("-", "_")
    takes = NORMS[name].params if name in NORMS else ()  # atb-upper takes none
    given = {k: getattr(args, k) for k in NORM_FLAGS if getattr(args, k) is not None}
    _reject_untaken(given, takes, f"--norm {args.norm}")
    if args.norm == "atb-upper":
        # atb-upper takes no parameters: a function it cannot bound is an
        # input error
        try:
            params, value, witness = {}, atb_upper_bound(f, mu), None
        except NormError as exc:
            raise CliError(EXIT_INPUT, f"cannot bound this function: {exc}")
    else:
        try:
            spec = NormSpec(name, **given)
            if spec.name == "lambda":
                check_lambda_range(mu, spec.q, spec.alpha)
            res = spec.evaluate(f, mu)
            params = {k: _finite(v) for k, v in spec.params().items()}
            value, witness = res.value, res.witness_node
        except NormError as exc:
            raise CliError(EXIT_PARAM, f"invalid norm parameters: {exc}")
    if not np.isfinite(value):
        raise CliError(EXIT_INPUT, f"the {args.norm} norm of this input is not finite ({value})")
    report = hio.norm_report(args.norm, params, value, witness)
    _emit(json.dumps(report, allow_nan=False) + "\n", args.out, vars(args) | {"command": "norm"})
    return EXIT_OK


def cmd_apply(args) -> int:
    mu = hio.load_measure(args.measure)
    f = _load_function(args.function, mu)
    T = hio.load_shift(args.shift, mu.depth)
    try:
        g = apply_shift(T, f, mu)
    except NonFiniteError:
        raise CliError(EXIT_INPUT, "cannot apply shift: the image has non-finite values")
    hio.save_function(g, args.out)
    _write_manifest(args.out, vars(args) | {"command": "apply"})
    return EXIT_OK


def cmd_study(args) -> int:
    depths = _parse_depths(args.depths)
    kinds = args.family or ["lebesgue"]
    if args.kind == "blowup" and len(kinds) > 1:
        raise CliError(EXIT_PARAM, "study blowup takes one --family")
    given = {k: getattr(args, k) for k in STUDY_DEFAULTS if getattr(args, k, None) is not None}
    reads = {"alpha"}  # blowup's
    if args.kind == "theorem":
        # a suite reads its norms' flags, and trials where a source norm means probes
        source, target = SUITES[args.name]
        reads = {k for spec in (source, target) if spec for k in NORMS[spec.name].params}
        if source is not None:
            reads.add("trials")
        _reject_untaken(given, reads, f"suite {args.name}")
    flags = STUDY_DEFAULTS | given
    try:
        families = _families_from_args(kinds, args)
        if args.kind == "blowup":
            rows = blowup_study(families[0], flags["alpha"], depths, seed=args.seed)
        else:
            rows = theorem_suite(
                args.name, families, depths, args.seed, flags["alpha"], flags["trials"]
            )
    except (MeasureError, ValueError, MemoryError) as exc:
        raise CliError(EXIT_PARAM, f"invalid study config: {exc}")
    config = {k: v for k, v in vars(args).items() if not callable(v)}
    config |= {k: flags[k] if k in reads else None for k in STUDY_DEFAULTS if hasattr(args, k)}
    _emit(rows_to_csv(rows), args.out, config | {"command": f"study {args.kind}"})
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        results = run_verification(depth=args.depth, trials=args.trials, seed=args.seed)
    except (ValueError, MemoryError) as exc:  # a bad config, or a depth too deep to allocate
        raise CliError(EXIT_PARAM, f"invalid verify config: {exc}")
    failures = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if args.out:
        payload = [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results]
        _emit(json.dumps(payload, indent=2) + "\n", args.out, vars(args) | {"command": "verify"})
    if failures:
        print(json.dumps({"failed": [r.name for r in failures]}))
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    for dest in FAMILY_FLAGS:
        parser.add_argument(_flag(dest), dest=dest, type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarlab",
        description="Haar shifts, martingale norms, and balance diagnostics "
        "on finite dyadic trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="generate or inspect measures")
    msub = p_measure.add_subparsers(dest="action", required=True)
    p_gen = msub.add_parser("gen")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--depth", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    _add_family_flags(p_gen)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(handler=cmd_measure)
    p_ins = msub.add_parser("inspect")
    p_ins.add_argument("file")
    p_ins.set_defaults(handler=cmd_measure)

    p_norm = sub.add_parser("norm", help="evaluate a norm of a function file")
    p_norm.add_argument("--function", required=True)
    p_norm.add_argument("--measure", required=True)
    p_norm.add_argument(
        "--norm",
        required=True,
        choices=[name.replace("_", "-") for name in NORMS] + ["atb-upper"],
    )
    for dest in NORM_FLAGS:
        p_norm.add_argument(_flag(dest), type=float, default=None)
    p_norm.add_argument("--out", default=None)
    p_norm.set_defaults(handler=cmd_norm)

    p_apply = sub.add_parser("apply", help="apply a shift file to a function file")
    p_apply.add_argument("--shift", required=True)
    p_apply.add_argument("--function", required=True)
    p_apply.add_argument("--measure", required=True)
    p_apply.add_argument("--out", required=True)
    p_apply.set_defaults(handler=cmd_apply)

    p_study = sub.add_parser("study", help="run a study, emit CSV")
    ssub = p_study.add_subparsers(dest="kind", required=True)
    for kind in ("blowup", "theorem"):
        p = ssub.add_parser(kind)
        p.add_argument("--family", action="append", default=None)
        p.add_argument("--depths", required=True, help="range a:b")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--alpha", type=float, default=None)  # STUDY_DEFAULTS
        _add_family_flags(p)
        p.add_argument("--out", default=None)
        if kind == "theorem":
            p.add_argument("--name", required=True, choices=list(THEOREM_NAMES))
            p.add_argument("--trials", type=int, default=None)
        p.set_defaults(handler=cmd_study)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--depth", type=int, default=8)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's generators reject a negative seed, so every command does,
        # also one that draws nothing: an input error for `measure gen`, as
        # its other spec faults are, and a parameter error for a run
        if getattr(args, "seed", 0) < 0:
            code = EXIT_INPUT if args.command == "measure" else EXIT_PARAM
            raise CliError(code, f"--seed must be >= 0, got {args.seed}")
        # numpy's overflow warnings stay off: each command checks its own
        # results for finiteness and reports a fault in its one error line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except hio.FormatError as exc:  # a malformed or unreadable input file, here only
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
