"""Stable JSON file formats for measures, step functions, and shifts.

Node keys serialize as "level,index" strings of ASCII digits.  Files are
read with orjson and written in the stdlib `json` layout (", " and ": "
separators, floats as `repr`), so a saved file loads and saves again to the
same bytes.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .martingale import StepFunction
from .measure import MeasureError, MeasureTree
from .shift import CanonicalShift, GeneralShift, Shift, ShiftError, ShiftShape, petermichl
from .tree import (
    MAX_DEPTH,
    NODE_KEY,
    Node,
    TreeError,
    depth_from_json,
    heap_nodes,
    heap_positions,
    int_from_json,
)

# one term of a general shift file, as json.dumps writes the term's dict
_TERM = '{"Q": "%d,%d", "R": "%d,%d", "S": "%d,%d", "alpha": %r}'

# node keys are checked and parsed 4096 at a time, joined by ";": one regex
# match and one numpy parse per chunk, and a joined text that stays small
# (joining all 65,534 keys of a depth-16 shift at once costs 8 MB of peak
# memory)
_KEY_CHUNK = 4096
_KEY = re.compile(NODE_KEY, re.ASCII)
_KEYS = re.compile(f"{NODE_KEY}(?:;{NODE_KEY})*", re.ASCII)

# json.dumps writes a finite float as its repr, which is positional for 0
# and for 1e-4 <= |v| < 1e16, and there orjson writes the same digits;
# outside that range their exponent formats differ (1e-05 / 0.00001,
# 1e+16 / 1e16)
_PLAIN_MIN, _PLAIN_MAX = 1e-4, 1e16


class FormatError(ValueError):
    """Malformed input file."""


def _read_json(path, what: str):
    """The parsed JSON value of a file; an unreadable, undecodable or
    malformed file is a FormatError."""
    # imported on first use: importing orjson (and the uuid and zoneinfo
    # modules it loads) costs about 15 ms, which commands that read and
    # write no measure or function file (study, verify) need not pay
    import orjson

    try:
        return orjson.loads(Path(path).read_bytes())
    except (orjson.JSONDecodeError, OSError) as exc:
        raise FormatError(f"cannot load {what} from {path}: {exc}") from exc


def _leaf_array(values: np.ndarray) -> bytes:
    """The bytes json.dumps writes for a non-empty float64 array's tolist().

    orjson writes each run of values that repr writes positionally, and repr
    writes the values outside that range.  A non-finite value is a
    ValueError: json.dumps would write NaN or Infinity, which no reader of
    this package accepts.
    """
    import orjson

    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("cannot write non-finite leaf values")
    size = np.abs(values)
    plain = (size == 0) | ((size >= _PLAIN_MIN) & (size < _PLAIN_MAX))
    bounds = [0, *(np.flatnonzero(plain[1:] != plain[:-1]) + 1).tolist(), len(values)]
    runs = [
        orjson.dumps(values[lo:hi], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        if plain[lo]
        else ",".join(map(repr, values[lo:hi].tolist())).encode()
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return b"[" + b",".join(runs).replace(b",", b", ") + b"]"


def _save_leaves(path, fields: dict, name: str, values: np.ndarray) -> None:
    """Write {**fields, name: values.tolist()} as json.dumps does, plus a
    newline; the leaf array goes through `_leaf_array`."""
    head = json.dumps(fields)[:-1]  # without the closing brace
    Path(path).write_bytes(f'{head}, "{name}": '.encode() + _leaf_array(values) + b"}\n")


def save_measure(mu: MeasureTree, path) -> None:
    root = {"origin": mu.tree.root_origin, "length": mu.tree.root_length}
    _save_leaves(path, {"root": root, "depth": mu.depth}, "leaf_masses", mu.leaf_masses)


def load_measure(path) -> MeasureTree:
    obj = _read_json(path, "measure")
    try:
        return MeasureTree.from_json(obj)
    except MeasureError as exc:
        raise FormatError(f"cannot load measure from {path}: {exc}") from exc


def function_from_json(obj: dict) -> StepFunction:
    try:
        f = StepFunction(depth_from_json(obj["depth"]), obj["leaf_values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed function file: {exc}") from exc
    if not np.all(np.isfinite(f.values)):
        raise FormatError("malformed function file: leaf values must be finite")
    return f


def save_function(f: StepFunction, path) -> None:
    _save_leaves(path, {"depth": f.depth}, "leaf_values", f.values)


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


def _key_numbers(keys: list) -> np.ndarray:
    """The (level, index) pairs of "level,index" node keys, as an (n, 2)
    int64 array; a key outside the grammar is a TreeError."""
    out = np.empty((len(keys), 2), dtype=np.int64)
    for start in range(0, len(keys), _KEY_CHUNK):
        chunk = keys[start : start + _KEY_CHUNK]
        text = ";".join(chunk)
        # a key holding a ";" would pass the match as two keys
        if not _KEYS.fullmatch(text) or text.count(";") != len(chunk) - 1:
            bad = next(key for key in chunk if not _KEY.fullmatch(key))
            raise TreeError(f"bad node key {bad!r}")
        numbers = np.fromstring(text.replace(";", ","), dtype=np.int64, sep=",")
        out[start : start + len(chunk)] = numbers.reshape(-1, 2)
    return out


def _alphas(values: list) -> np.ndarray:
    """The float64 array of shift coefficients that are JSON numbers; a
    string, a bool or any other value is a FormatError."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise FormatError(f"malformed shift file: alpha must be a number, got {bad!r}")
    return np.fromiter(map(float, values), dtype=np.float64, count=len(values))


def shift_from_json(obj: dict, depth: int) -> Shift:
    try:
        kind = obj["kind"]
        if kind == "petermichl":
            return petermichl(depth)
        if kind == "canonical":
            m, n = (int_from_json(obj[k], k, 0, MAX_DEPTH) for k in "mn")
            s_sel, t_sel = (int_from_json(obj[k], k) for k in "st")
            alphas = obj.get("alphas", {})
            levels, indices = _key_numbers(list(alphas.keys())).T.tolist()
            nodes = map(Node, levels, indices)
            values = _alphas(list(alphas.values())).tolist()
            return CanonicalShift(depth, m, s_sel, n, t_sel, dict(zip(nodes, values)))
        if kind == "general":
            r, s = (int_from_json(obj[k], k, 0, MAX_DEPTH) for k in "rs")
            terms = obj.get("terms", [])
            q, r_pos, s_pos = (
                heap_positions(*_key_numbers([t[k] for t in terms]).T, depth) for k in "QRS"
            )
            alpha = _alphas([t["alpha"] for t in terms])
            return GeneralShift.from_heap(depth, ShiftShape(r, s), q, r_pos, s_pos, alpha)
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
