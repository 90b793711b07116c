"""Stable JSON file formats for measures, step functions, and shifts.

This is the only module that knows the file formats.  Its parsers read
every integer field through `_int`, every float field through `_floats`
(or its scalar form `_float`), which accept JSON numbers only, and map
every error a bad field raises to one FormatError.  Node keys serialize as
"level,index" strings of ASCII digits.  Files are read with orjson and
written in the stdlib `json` layout (", " and ": " separators, floats as
`repr`), so a saved file loads and saves again to the same bytes.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .martingale import StepFunction
from .measure import MeasureTree
from .shift import CanonicalShift, GeneralShift, ShiftShape, petermichl
from .tree import MAX_DEPTH, DyadicTree, Node, heap_nodes, heap_positions

# one term of a general shift file, as json.dumps writes the term's dict,
# and one coefficient of a canonical shift file's "alphas" dict
_TERM = '{"Q": "%d,%d", "R": "%d,%d", "S": "%d,%d", "alpha": %r}'
_ALPHA = '"%d,%d": %r'

# node keys are checked and parsed 4096 at a time, joined by ";": one regex
# match and one numpy parse per chunk, and a joined text that stays small
# (joining all 65,534 keys of a depth-16 shift at once costs 8 MB of peak
# memory)
_KEY_CHUNK = 4096
# a node key: ASCII digits only, at most 19 of them per number, as many as
# the index of a depth-62 node takes; a number above 2**63 - 1 parses as
# 2**63 - 1, which `heap_positions` maps outside every tree
_NODE_KEY = "[0-9]{1,19},[0-9]{1,19}"
_KEY = re.compile(_NODE_KEY, re.ASCII)
_KEYS = re.compile(f"{_NODE_KEY}(?:;{_NODE_KEY})*", re.ASCII)

# json.dumps writes a finite float as its repr, which is positional for 0
# and for 1e-4 <= |v| < 1e16, and there orjson writes the same digits;
# outside that range their exponent formats differ (1e-05 / 0.00001,
# 1e+16 / 1e16)
_PLAIN_MIN, _PLAIN_MAX = 1e-4, 1e16


class FormatError(ValueError):
    """Malformed input file."""


@contextmanager
def _malformed(kind: str):
    """The one error mapping of the parsers: an error raised on a bad field
    is a FormatError("malformed <kind> file: ...").  MeasureError,
    ShiftError and TreeError are ValueErrors, so they are mapped too."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {kind} file: {exc}") from exc


def _int(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """An integer field: an int, or an integral float, in lo .. hi (no
    upper end when hi is None).  Anything else, a bool included, is a
    ValueError, never a silent truncation."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < lo
        or (hi is not None and value > hi)
    ):
        span = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")
    return value


def _depth(value) -> int:
    """The depth field of a measure or function file: an integer in
    1 .. MAX_DEPTH, so that 2**depth can be allocated."""
    return _int(value, "depth", 1, MAX_DEPTH)


def _floats(values, name: str) -> np.ndarray:
    """The float64 array of a list of JSON numbers; a string, a bool, null
    or any other entry is a TypeError naming the field."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise TypeError(f"{name}: expected a number, got {bad!r}")
    return np.fromiter(map(float, values), dtype=np.float64, count=len(values))


def _float(value, name: str) -> float:
    """A scalar float field: `_floats` of one value."""
    return float(_floats([value], name)[0])


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


def measure_from_json(obj: dict) -> MeasureTree:
    with _malformed("measure"):
        root = obj.get("root", {})
        tree = DyadicTree(
            _depth(obj["depth"]),
            _float(root.get("origin", 0.0), "root.origin"),
            _float(root.get("length", 1.0), "root.length"),
        )
        return MeasureTree(tree, _floats(obj["leaf_masses"], "leaf_masses"))


def load_measure(path) -> MeasureTree:
    return measure_from_json(_read_json(path, "measure"))


def function_from_json(obj: dict) -> StepFunction:
    with _malformed("function"):
        return StepFunction(_depth(obj["depth"]), _floats(obj["leaf_values"], "leaf_values"))


def save_function(f: StepFunction, path) -> None:
    _save_leaves(path, {"depth": f.depth}, "leaf_values", f.values)


def load_function(path) -> StepFunction:
    return function_from_json(_read_json(path, "function"))


def shift_text(T: GeneralShift) -> str:
    """The JSON text of a shift file, without the final newline.

    A shift is written in one pass from its heap arrays, to the bytes
    json.dumps gives for its dict form: `_check_alpha` keeps every alpha
    finite, and json writes a finite float as its `repr`.  A canonical shift
    writes its selector and every coefficient it was given, in heap order.
    """
    if isinstance(T, CanonicalShift):
        levels, indices = heap_nodes(T._q_all)
        alphas = ", ".join([_ALPHA % a for a in zip(levels, indices, T._alpha_all.tolist())])
        return '{"kind": "canonical", "m": %d, "s": %d, "n": %d, "t": %d, "alphas": {%s}}' % (
            T.m, T.s_sel, T.n, T.t_sel, alphas
        )
    (ql, qi), (rl, ri), (sl, si) = (
        heap_nodes(pos) for pos in (T._r_pos >> T.shape.r, T._r_pos, T._s_pos)
    )
    terms = ", ".join([_TERM % t for t in zip(ql, qi, rl, ri, sl, si, T._alpha.tolist())])
    return '{"kind": "general", "r": %d, "s": %d, "terms": [%s]}' % (
        T.shape.r, T.shape.s, terms
    )


def _key_numbers(keys: list) -> np.ndarray:
    """The (level, index) pairs of "level,index" node keys, as an (n, 2)
    int64 array; a key outside the grammar is a ValueError."""
    out = np.empty((len(keys), 2), dtype=np.int64)
    for start in range(0, len(keys), _KEY_CHUNK):
        chunk = keys[start : start + _KEY_CHUNK]
        text = ";".join(chunk)
        # a key holding a ";" would pass the match as two keys
        if not _KEYS.fullmatch(text) or text.count(";") != len(chunk) - 1:
            bad = next(key for key in chunk if not _KEY.fullmatch(key))
            raise ValueError(f"bad node key {bad!r}")
        numbers = np.fromstring(text.replace(";", ","), dtype=np.int64, sep=",")
        out[start : start + len(chunk)] = numbers.reshape(-1, 2)
    return out


def shift_from_json(obj: dict, depth: int) -> GeneralShift:
    with _malformed("shift"):
        kind = obj["kind"]
        if kind == "petermichl":
            return petermichl(depth)
        if kind == "canonical":
            m, n = (_int(obj[k], k, 0, MAX_DEPTH) for k in "mn")
            s_sel, t_sel = (_int(obj[k], k) for k in "st")
            alphas = obj.get("alphas", {})
            q = heap_positions(*_key_numbers(list(alphas.keys())).T, depth)
            alpha = _floats(list(alphas.values()), "alpha")
            return CanonicalShift.from_heap(depth, m, s_sel, n, t_sel, q, alpha)
        if kind == "general":
            r, s = (_int(obj[k], k, 0, MAX_DEPTH) for k in "rs")
            terms = obj.get("terms", [])
            q, r_pos, s_pos = (
                heap_positions(*_key_numbers([t[k] for t in terms]).T, depth) for k in "QRS"
            )
            alpha = _floats([t["alpha"] for t in terms], "alpha")
            return GeneralShift.from_heap(depth, ShiftShape(r, s), q, r_pos, s_pos, alpha)
        raise ValueError(f"unknown shift kind {kind!r}")


def save_shift(T: GeneralShift, path) -> None:
    Path(path).write_text(shift_text(T) + "\n")


def load_shift(path, depth: int) -> GeneralShift:
    return shift_from_json(_read_json(path, "shift"), depth)


def norm_report(norm: str, params: dict, value: float, witness: Node | None) -> dict:
    return {
        "norm": norm,
        "params": params,
        "value": value,
        "witness_node": str(witness) if witness is not None else None,
    }
