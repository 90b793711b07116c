"""Stable JSON file formats for measures, step functions, and shifts.

Node keys serialize as "level,index" strings.  Files are read with orjson
and written in the stdlib `json` layout (", " and ": " separators, floats
as `repr`), so a saved file loads and saves again to the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .martingale import StepFunction
from .measure import MeasureError, MeasureTree
from .shift import CanonicalShift, GeneralShift, Shift, ShiftError, ShiftShape, petermichl
from .tree import Node, depth_from_json, heap_nodes, heap_positions, node_from_key

# one term of a general shift file, as json.dumps writes the term's dict
_TERM = '{"Q": "%d,%d", "R": "%d,%d", "S": "%d,%d", "alpha": %r}'


class FormatError(ValueError):
    """Malformed input file."""


def _read_json(path, what: str):
    """The parsed JSON value of a file; an unreadable, undecodable or
    malformed file is a FormatError."""
    # imported on first read: importing orjson (and the uuid and zoneinfo
    # modules it loads) costs about 15 ms, which commands that read no file
    # (study, verify, measure gen) need not pay
    import orjson

    try:
        return orjson.loads(Path(path).read_bytes())
    except (orjson.JSONDecodeError, OSError) as exc:
        raise FormatError(f"cannot load {what} from {path}: {exc}") from exc


def save_measure(mu: MeasureTree, path) -> None:
    Path(path).write_text(json.dumps(mu.to_json()) + "\n")


def load_measure(path) -> MeasureTree:
    obj = _read_json(path, "measure")
    try:
        return MeasureTree.from_json(obj)
    except MeasureError as exc:
        raise FormatError(f"cannot load measure from {path}: {exc}") from exc


def function_to_json(f: StepFunction) -> dict:
    return {"depth": f.depth, "leaf_values": f.values.tolist()}


def function_from_json(obj: dict) -> StepFunction:
    try:
        f = StepFunction(depth_from_json(obj["depth"]), obj["leaf_values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed function file: {exc}") from exc
    if not np.all(np.isfinite(f.values)):
        raise FormatError("malformed function file: leaf values must be finite")
    return f


def save_function(f: StepFunction, path) -> None:
    Path(path).write_text(json.dumps(function_to_json(f)) + "\n")


def load_function(path) -> StepFunction:
    return function_from_json(_read_json(path, "function"))


def shift_text(T: Shift) -> str:
    """The JSON text of a shift file, without the final newline.

    A general shift is written in one pass from its heap arrays, to the
    bytes json.dumps gives for its dict form: `_check_alpha` keeps every
    alpha finite, and json writes a finite float as its `repr`.
    """
    if isinstance(T, CanonicalShift):
        return json.dumps({
            "kind": "canonical",
            "m": T.m,
            "s": T.s_sel,
            "n": T.n,
            "t": T.t_sel,
            "alphas": {str(node): a for node, a in sorted(T.alphas.items())},
        })
    (ql, qi), (rl, ri), (sl, si) = (
        heap_nodes(pos) for pos in (T._r_pos >> T.shape.r, T._r_pos, T._s_pos)
    )
    terms = ", ".join([_TERM % t for t in zip(ql, qi, rl, ri, sl, si, T._alpha.tolist())])
    return '{"kind": "general", "r": %d, "s": %d, "terms": [%s]}' % (
        T.shape.r, T.shape.s, terms
    )


def _key_positions(keys: list[str], depth: int) -> np.ndarray:
    """Heap positions of "level,index" keys, parsed straight into int64."""

    def numbers():
        for key in keys:
            level, index = str.split(key, ",")
            yield int(level)
            yield int(index)

    kj = np.fromiter(numbers(), dtype=np.int64, count=2 * len(keys)).reshape(-1, 2)
    return heap_positions(kj[:, 0], kj[:, 1], depth)


def shift_from_json(obj: dict, depth: int) -> Shift:
    try:
        kind = obj["kind"]
        if kind == "petermichl":
            return petermichl(depth)
        if kind == "canonical":
            alphas = {
                node_from_key(key): float(a) for key, a in obj.get("alphas", {}).items()
            }
            return CanonicalShift(
                depth, int(obj["m"]), int(obj["s"]), int(obj["n"]), int(obj["t"]), alphas
            )
        if kind == "general":
            terms = obj.get("terms", [])
            q, r, s = (_key_positions([t[k] for t in terms], depth) for k in "QRS")
            alpha = np.fromiter(
                (float(t["alpha"]) for t in terms), dtype=np.float64, count=len(terms)
            )
            shape = ShiftShape(int(obj["r"]), int(obj["s"]))
            return GeneralShift.from_heap(depth, shape, q, r, s, alpha)
        raise FormatError(f"unknown shift kind {kind!r}")
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, ShiftError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"malformed shift file: {exc}") from exc


def save_shift(T: Shift, path) -> None:
    Path(path).write_text(shift_text(T) + "\n")


def load_shift(path, depth: int) -> Shift:
    return shift_from_json(_read_json(path, "shift"), depth)


def norm_report(norm: str, params: dict, value: float, witness: Node | None) -> dict:
    return {
        "norm": norm,
        "params": params,
        "value": value,
        "witness_node": str(witness) if witness is not None else None,
    }
