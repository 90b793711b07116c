"""Span recording around haarlab's public functions, installed from outside.

`Tracer.install()` replaces every haarlab module or class attribute bound to
a traced function with a wrapper that records a span: group name, start,
end, parent span and op id.  Modules import names directly
(`aggregate_heap` is bound in `tree`, `martingale`, `measure` and `norms`),
so each binding is replaced.  Spans stay in memory; `metrics()` turns them
into per-layer figures and `save()` writes them out.

A layer's self time is a span's duration minus the time its direct child
spans cover.  A span nested directly in a span of the same group (say
`petermichl` building a `GeneralShift`) adds its self time to the group but
is not counted as another call.  Work done by the hooks below, and the
wrappers' own cost, lands in the caller's self time or in the remainder.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
import weakref

import numpy as np


def _key(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).view(np.uint8))
    return h.digest()


class Tracer:
    def __init__(self) -> None:
        self.groups: list[str] = []
        # one span: [group id, start, end, parent span index or -1, op id,
        # counted as a call]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: dict[str, float] = {}
        self.unique: dict[str, set] = {}
        self._shift_keys: dict[int, bytes] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- hooks: run after a call returns, outside its span -----------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _shift_key(self, T) -> bytes:
        general = T if isinstance(T, self._shift.GeneralShift) else T._general
        key = self._shift_keys.get(id(general))
        if key is None:
            key = _key(
                np.array([general.depth, general.shape.r, general.shape.s]),
                general._r_pos, general._s_pos, general._alpha,
            )
            self._shift_keys[id(general)] = key
            weakref.finalize(general, self._shift_keys.pop, id(general), None)
        return key

    def _hook_heap_bytes(self, rec, args, kwargs, result) -> None:
        # read the leaves, copy them in, then per level read 2 children and
        # write 1 parent: 8 bytes * (2n + 3(n - 1)), computed, not measured
        n = len(result) // 2
        self._count("tree.aggregate_heap.bytes_computed", 8 * (2 * n + 3 * (n - 1)))

    def _hook_construct(self, rec, args, kwargs, result) -> None:
        if rec is self.spans[-1] and result is not None:
            rec[5] = False  # to_general returned its cached shift: no construction
            return
        T = args[0] if result is None else result  # __init__ returns None
        self.unique.setdefault("shift.construct", set()).add(self._shift_key(T))

    def _hook_apply(self, rec, args, kwargs, result) -> None:
        T, spec = args[0], args[1]
        key = (self._shift_key(T), _key(np.array([spec.depth, spec.mean]), spec.coeffs))
        self.unique.setdefault("shift.apply_spectrum", set()).add(key)

    def _hook_valid(self, rec, args, kwargs, result) -> None:
        self._count("atomic.validate_block.valid", bool(result.valid))

    def _hook_l2(self, rec, args, kwargs, result) -> None:
        self._count("opnorm.l2_opnorm.iterations", result.iterations)
        self._count("opnorm.l2_opnorm.converged", bool(result.converged))

    def _count_probe(self, fn):
        """Count `_ratio` calls made inside opnorm_lower_bound; no span."""
        gid = self.groups.index("opnorm.opnorm_lower_bound")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(self.spans[i][0] == gid for i in self.stack):
                self._count("opnorm.opnorm_lower_bound.probes")
            return fn(*args, **kwargs)

        return wrapper

    def _io_hook(self, group: str):
        def hook(rec, args, kwargs, result) -> None:
            path = args[1] if group.startswith("io.save") else args[0]
            self._count(f"{group}.bytes", os.path.getsize(path))
        return hook

    # --- installation ------------------------------------------------------

    def targets(self):
        """(group, module, attribute path, hook) for every traced function."""
        t = [("tree.aggregate_heap", "tree", "aggregate_heap", self._hook_heap_bytes)]
        t += [("measure.generate", "measure", "generate", None),
              ("measure.balanced_constant", "measure", "MeasureTree.balanced_constant", None)]
        t += [(f"martingale.{f}", "martingale", f, None) for f in (
            "analyze", "synthesize", "average_heap", "square_function", "haar_function")]
        t += [(f"norms.{f}", "norms", f, None) for f in (
            "bmo_martingale", "bmo_oscillation", "lambda_norm", "h1_norm", "lp_norm",
            "sibling_lemma_check")]
        t += [("shift.construct", "shift", a, self._hook_construct) for a in (
            "GeneralShift.__init__", "CanonicalShift.to_general", "petermichl")]
        t += [("shift.apply_spectrum", "shift", f"{c}.apply_spectrum", self._hook_apply)
              for c in ("GeneralShift", "CanonicalShift")]
        t += [("shift.adjoint", "shift", f"{c}.adjoint", None)
              for c in ("GeneralShift", "CanonicalShift")]
        t += [("shift.haar_matrix", "shift", "haar_matrix", None)]
        t += [("atomic.validate_block", "atomic", "validate_block", self._hook_valid),
              ("atomic.random_block", "atomic", "random_block", None),
              ("atomic.haar_block", "atomic", "haar_block", None)]
        t += [("opnorm.l2_opnorm", "opnorm", "l2_opnorm", self._hook_l2),
              ("opnorm.opnorm_lower_bound", "opnorm", "opnorm_lower_bound", None),
              (None, "opnorm", "_ratio", None)]
        t += [(f"studies.{f}", "studies", f, None) for f in (
            "theorem_suite", "default_shift_battery", "probe_battery", "block_battery",
            "blowup_study", "rows_to_csv")]
        t += [(f"verify.{f}", "verify", f, None) for f in VERIFY_CHECKS]
        t += [(f"io.{f}", "io", f, self._io_hook(f"io.{f}")) for f in IO_FUNCTIONS]
        t += [("cli.main", "cli", "main", None)]
        return t

    def _wrap(self, group: str, fn, hook):
        if group not in self.groups:
            self.groups.append(group)
        gid = self.groups.index(group)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [gid, 0.0, 0.0, parent, self.op, parent < 0 or spans[parent][0] != gid]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None and rec[5]:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "haarlab" or name.startswith("haarlab.")]
        self._shift = importlib.import_module("haarlab.shift")
        for group, mod, path, hook in self.targets():
            owner = importlib.import_module(f"haarlab.{mod}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = owner.__dict__[attr]
            wrapper = self._count_probe(orig) if group is None else self._wrap(group, orig, hook)
            holders = [owner] if cls else [
                m for m in modules if any(v is orig for v in vars(m).values())]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is orig:
                        self._restore.append((holder, name, orig))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._restore):
            setattr(holder, name, orig)
        self._restore.clear()

    # --- results -----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus direct children's durations."""
        if not self.spans:
            return np.zeros(0)
        arr = np.array([(s[1], s[2], s[3]) for s in self.spans])
        dur = arr[:, 1] - arr[:, 0]
        parent = arr[:, 2].astype(np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def root_time(self) -> float:
        """Total time covered by spans that have no parent span."""
        return float(sum(s[2] - s[1] for s in self.spans if s[3] < 0))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics named `<module>.<function>.<stat>` with units."""
        n = len(self.groups)
        gid = np.array([s[0] for s in self.spans], dtype=np.int64)
        counted = np.array([s[5] for s in self.spans], dtype=bool)
        dur = np.array([s[2] - s[1] for s in self.spans])
        calls = np.bincount(gid[counted], minlength=n)
        self_s = np.bincount(gid, weights=self.self_times(), minlength=n)
        total_s = np.bincount(gid[counted], weights=dur[counted], minlength=n)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for i, group in enumerate(self.groups):
            c = float(calls[i])
            if group.startswith(("verify.", "io.")):
                out[f"{group}.total_s"] = (float(total_s[i]), "s")
            else:
                out[f"{group}.calls"] = (c, "count")
                out[f"{group}.self_s"] = (float(self_s[i]), "s")
            if group in self.unique:
                out[f"{group}.unique_ratio"] = (ratio(len(self.unique[group]), c), "ratio")
            elif group in ("shift.construct", "shift.apply_spectrum"):
                out[f"{group}.unique_ratio"] = (0.0, "ratio")
        for group in IO_FUNCTIONS:
            out[f"io.{group}.bytes"] = (self.counts.get(f"io.{group}.bytes", 0.0), "B")
        c = self.counts.get
        calls_of = {g: float(calls[i]) for i, g in enumerate(self.groups)}
        out["tree.aggregate_heap.bytes_computed"] = (c("tree.aggregate_heap.bytes_computed", 0.0), "B")
        out["atomic.validate_block.valid_ratio"] = (
            ratio(c("atomic.validate_block.valid", 0.0), calls_of["atomic.validate_block"]), "ratio")
        out["opnorm.l2_opnorm.iterations"] = (c("opnorm.l2_opnorm.iterations", 0.0), "count")
        out["opnorm.l2_opnorm.converged_ratio"] = (
            ratio(c("opnorm.l2_opnorm.converged", 0.0), calls_of["opnorm.l2_opnorm"]), "ratio")
        out["opnorm.opnorm_lower_bound.probes"] = (c("opnorm.opnorm_lower_bound.probes", 0.0), "count")
        return out

    def save(self, path) -> None:
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        np.savez_compressed(path, groups=np.array(self.groups), group=arr[:, 0].astype(np.int16),
                            start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                            op=arr[:, 4].astype(np.int32))


VERIFY_CHECKS = (
    "check_basis", "check_sandwich", "check_sibling", "check_square_function",
    "check_petermichl_norm", "check_lambda_closed_form", "check_adjoint_pairing",
    "check_theorem_suites",
)
IO_FUNCTIONS = ("save_shift", "load_shift", "load_function", "save_function", "load_measure")
