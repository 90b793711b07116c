"""File formats and the command-line interface, including exit codes."""

import argparse
import csv
import itertools
import json
import re
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarlab import cli, studies, verify
from haarlab import io as hio
from haarlab.atomic import atb_upper_bound
from haarlab.cli import build_parser, main
from haarlab.martingale import NonFiniteError, StepFunction, haar_function
from haarlab.measure import GENERATORS, MeasureTree, generate, lebesgue, random_doubling
from haarlab.norms import (
    NormError,
    bmo_martingale,
    bmo_oscillation,
    h1_norm,
    haar_lambda2_norm,
    lambda_norm,
    lp_norm,
    weak_l1,
)
from haarlab.shift import CanonicalShift, GeneralShift, ShiftShape, dense_alphas, petermichl
from haarlab.studies import blowup_study, theorem_suite
from haarlab.tree import MAX_DEPTH, DyadicTree, Node
from haarlab.verify import run_verification


@pytest.fixture
def mu():
    return random_doubling(3, seed=31)


# --- file formats --------------------------------------------------------


def test_measure_roundtrip(tmp_path, mu):
    path = tmp_path / "mu.json"
    hio.save_measure(mu, path)
    again = hio.load_measure(path)
    assert again.depth == mu.depth
    assert np.array_equal(again.leaf_masses, mu.leaf_masses)


def test_function_roundtrip(tmp_path, mu):
    f = haar_function(mu, Node(1, 0))
    path = tmp_path / "f.json"
    hio.save_function(f, path)
    again = hio.load_function(path)
    assert np.array_equal(again.values, f.values)


def test_shift_roundtrips(tmp_path, mu):
    path = tmp_path / "T.json"

    T = petermichl(mu.depth)
    hio.save_shift(T, path)
    again = hio.load_shift(path, mu.depth)
    assert isinstance(again, GeneralShift)
    assert again.terms == T.terms

    C = CanonicalShift(mu.depth, 1, 0, 1, 1, dense_alphas(mu.depth, 1, 1, -1.0))
    hio.save_shift(C, path)
    again = hio.load_shift(path, mu.depth)
    assert isinstance(again, CanonicalShift)
    assert again.alphas == C.alphas
    assert (again.m, again.s_sel, again.n, again.t_sel) == (1, 0, 1, 1)

    path.write_text(json.dumps({"kind": "petermichl"}) + "\n")
    assert isinstance(hio.load_shift(path, mu.depth), GeneralShift)


def test_general_shift_file_is_stable(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    T = petermichl(6).adjoint()
    hio.save_shift(T, first)
    again = hio.load_shift(first, 6)
    assert again.terms == T.terms
    hio.save_shift(again, second)
    assert first.read_bytes() == second.read_bytes()


def _reference_text(T):
    """json.dumps of a general shift's dict form, built from its node terms."""
    terms = [
        {"Q": str(q), "R": str(r), "S": str(s), "alpha": a} for q, r, s, a in T.terms
    ]
    return json.dumps({"kind": "general", "r": T.shape.r, "s": T.shape.s, "terms": terms})


GENERAL_SHIFTS = {
    **{f"petermichl({D})": (D, lambda D=D: petermichl(D)) for D in range(3, 9)},
    **{f"petermichl({D}).adjoint": (D, lambda D=D: petermichl(D).adjoint()) for D in range(3, 9)},
    # alphas on every node: the terms whose R or S is a leaf are dropped
    "canonical(1,0,1,1).to_general": (
        4,
        lambda: CanonicalShift(
            4, 1, 0, 1, 1, {Node(k, j): 0.5 for k in range(5) for j in range(1 << k)}
        ).to_general(),
    ),
    "no terms": (3, lambda: GeneralShift(3, ShiftShape(0, 1), [])),
    "edge alphas": (
        3,
        lambda: GeneralShift(
            3,
            ShiftShape(0, 1),
            [(Node(1, 0), Node(1, 0), Node(2, 1), a) for a in (-0.0, 5e-324, 1 / 3, 1e-05, -1.0)],
        ),
    ),
}


@pytest.mark.parametrize("case", GENERAL_SHIFTS, ids=str)
def test_general_shift_writer_matches_json_dumps(tmp_path, case):
    depth, build = GENERAL_SHIFTS[case]
    T = build()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    hio.save_shift(T, first)
    assert first.read_text() == _reference_text(T) + "\n"
    again = hio.load_shift(first, depth)
    assert again.terms == T.terms
    assert [a.hex() for *_, a in again.terms] == [a.hex() for *_, a in T.terms]
    hio.save_shift(again, second)
    assert first.read_bytes() == second.read_bytes()


def test_canonical_writer_drops_leaf_terms():
    _, build = GENERAL_SHIFTS["canonical(1,0,1,1).to_general"]
    T = build()
    # Q below level 3 has leaf children: 8 + 16 of the 31 alphas are dropped
    assert len(T.terms) == 7 and all(q.level < 3 for q, *_ in T.terms)


def _reference_canonical_text(m, s_sel, n, t_sel, alphas):
    """json.dumps of a canonical shift's old dict form: the coefficients as
    floats, keyed by "level,index" in sorted `Node` order."""
    items = sorted((Node(*node), float(a)) for node, a in alphas.items())
    obj = {"kind": "canonical", "m": m, "s": s_sel, "n": n, "t": t_sel}
    return json.dumps(obj | {"alphas": {str(node): a for node, a in items}})


def _assert_canonical_bytes(tmp_path, path, depth, selector, alphas):
    """The file at `path` is the reference text, and saves again to itself."""
    assert path.read_text() == _reference_canonical_text(*selector, alphas) + "\n"
    again = tmp_path / "again.json"
    hio.save_shift(hio.load_shift(path, depth), again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("depth", range(2, 9))
def test_canonical_writer_matches_json_dumps(tmp_path, depth):
    path = tmp_path / "T.json"
    for m, n in itertools.product(range(3), repeat=2):
        for s_sel, t_sel in itertools.product(range(1 << m), range(1 << n)):
            alphas = dense_alphas(depth, m, n, -0.5 if (s_sel + t_sel) % 2 else 1.0)
            hio.save_shift(CanonicalShift(depth, m, s_sel, n, t_sel, alphas), path)
            _assert_canonical_bytes(tmp_path, path, depth, (m, s_sel, n, t_sel), alphas)


def test_canonical_writer_keeps_every_coefficient(tmp_path):
    path = tmp_path / "T.json"
    # alphas on every node, leaves included: the deep ones carry no term
    rng = np.random.default_rng(8)
    every = {Node(k, j): a for k in range(6) for j, a in enumerate(rng.uniform(-1, 1, 1 << k))}
    hio.save_shift(CanonicalShift(5, 2, 1, 1, 0, every), path)
    _assert_canonical_bytes(tmp_path, path, 5, (2, 1, 1, 0), every)
    # alphas whose repr is exponential, long or signed zero, and an int
    nodes = [Node(1, 0), Node(3, 5), Node(0, 0), Node(2, 2), Node(4, 15)]
    edge = dict(zip(nodes, [-0.0, 5e-324, 1 / 3, 1e-05, 1]))
    hio.save_shift(CanonicalShift(4, 1, 0, 1, 1, edge), path)
    _assert_canonical_bytes(tmp_path, path, 4, (1, 0, 1, 1), edge)


def test_canonical_file_keys_out_of_heap_order(tmp_path):
    alphas = {"2,3": 0.25, "0,0": -1, "3,0": 1e-05, "1,1": 0.5, "1,0": -0.0, "2,0": 5e-324}
    hand = tmp_path / "hand.json"
    obj = {"kind": "canonical", "m": 1, "s": 1, "n": 0, "t": 0, "alphas": alphas}
    hand.write_text(json.dumps(obj))
    path = tmp_path / "T.json"
    hio.save_shift(hio.load_shift(hand, 3), path)
    nodes = {tuple(map(int, key.split(","))): a for key, a in alphas.items()}
    _assert_canonical_bytes(tmp_path, path, 3, (1, 1, 0, 0), nodes)


def _general_file(path, **override):
    term = {"Q": "1,0", "R": "1,0", "S": "2,1", "alpha": -1.0, **override}
    path.write_text(json.dumps({"kind": "general", "r": 0, "s": 1, "terms": [term]}))
    return path


BAD_GENERAL_TERMS = [
    {"Q": "1,2,3"},
    {"R": "x,1"},
    {"S": "1"},
    {"Q": "1,1"},  # not R's 0-th ancestor
    {"Q": 7},
    {"alpha": float("nan")},
    {"S": "1,2,3"},
    {"R": ""},
    # an alpha that is not a JSON number; each of them used to load
    {"alpha": "-0.5"},
    {"alpha": " 1e-1 "},
    {"alpha": True},
]


@pytest.mark.parametrize("override", BAD_GENERAL_TERMS)
def test_general_shift_format_errors(tmp_path, override):
    _general_file(tmp_path / "ok.json")
    assert isinstance(hio.load_shift(tmp_path / "ok.json", 3), GeneralShift)
    with pytest.raises(hio.FormatError):
        hio.load_shift(_general_file(tmp_path / "bad.json", **override), 3)


# node keys outside the "level,index" grammar of ASCII digits; each of them
# used to load, most as a valid node
BAD_KEYS = [
    " 1,0",
    "1_0,0",
    "+1,0",
    "1,\u0660",  # ARABIC-INDIC DIGIT ZERO
    "1,0,0",
    "1,",
    "",
    "00000000000000000001,0",  # 20 digits
    "1,0;2,1",
]


def _canonical_file(path, alphas=None, **override):
    obj = {"kind": "canonical", "m": 1, "s": 0, "n": 1, "t": 1, "alphas": {"1,0": 0.5}}
    path.write_text(json.dumps(obj | override | ({"alphas": alphas} if alphas else {})))
    return path


@pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
def test_bad_node_keys_are_format_errors(tmp_path, key):
    assert isinstance(hio.load_shift(_canonical_file(tmp_path / "ok.json"), 3), CanonicalShift)
    for bad in (
        _general_file(tmp_path / "general.json", Q=key),
        _general_file(tmp_path / "general.json", S=key),
        _canonical_file(tmp_path / "canonical.json", {"0,0": 0.5, key: 0.5}),
    ):
        with pytest.raises(hio.FormatError, match="bad node key"):
            hio.load_shift(bad, 3)


def test_node_keys_parse_across_chunks(tmp_path):
    # petermichl(13).adjoint() has more terms than one 4096-key chunk
    path = tmp_path / "T.json"
    T = petermichl(13).adjoint()
    hio.save_shift(T, path)
    assert hio.load_shift(path, 13).terms == T.terms
    text = path.read_text()
    n_terms = len(json.loads(text)["terms"])
    assert n_terms > 4097
    # the last key of the first chunk, the first of the second, the last one
    for i in (4095, 4096, n_terms - 1):
        bad = json.loads(text)
        bad["terms"][i]["R"] = key = " " + bad["terms"][i]["R"]
        path.write_text(json.dumps(bad))
        with pytest.raises(hio.FormatError, match=re.escape(repr(key))):
            hio.load_shift(path, 13)


# the first and last node of each of the deepest levels: their indices take
# up to 19 digits and their heap positions reach 2**63 - 1
DEEP_NODES = [Node(k, j) for k in range(52, MAX_DEPTH + 1) for j in (0, (1 << k) - 1)]


def _below(q, r, s):
    return Node(q.level + r, (q.index << r) + s)


def test_depth_62_shifts_roundtrip(tmp_path):
    D = MAX_DEPTH
    same = [(q, q, q, 0.5) for q in DEEP_NODES if q.level < D]
    split = [(q, _below(q, 1, 1), _below(q, 1, 0), -0.25) for q in DEEP_NODES if q.level < D - 1]
    shifts = [
        GeneralShift(D, ShiftShape(0, 0), same),
        GeneralShift(D, ShiftShape(1, 1), split),
        CanonicalShift(D, 1, 1, 0, 0, dict.fromkeys(DEEP_NODES, 1.0)),
    ]
    # the nodes are read back from the position arrays
    assert shifts[0].terms == tuple(same) and shifts[1].terms == tuple(split)
    assert list(shifts[2].alphas) == DEEP_NODES
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for T in shifts:
        hio.save_shift(T, first)
        again = hio.load_shift(first, D)
        assert type(again) is type(T) and again.terms == T.terms
        for name in ("_r_pos", "_s_pos", "_alpha"):
            assert np.array_equal(getattr(again, name), getattr(T, name))
        hio.save_shift(again, second)
        assert second.read_bytes() == first.read_bytes()
    assert '"62,4611686018427387903": 1.0' in first.read_text()
    assert np.array_equal(again._q_all, T._q_all)
    # keys of 19 digits that leave the tree, or int64
    for key in ("62,4611686018427387904", "61,9999999999999999999", "9999999999999999999,0"):
        hio.save_shift(CanonicalShift(D, 0, 0, 0, 0, {}), first)
        first.write_text(first.read_text().replace('"alphas": {}', '"alphas": {"%s": 1.0}' % key))
        with pytest.raises(hio.FormatError):
            hio.load_shift(first, D)


# integer fields of a shift file: fractional, negative, a bool, of another
# type, or a selector depth above 62; each used to load, truncated by int()
BAD_SHIFT_FIELDS = [
    ("general", {"r": 0.9, "s": 1.7}),
    ("general", {"s": 1.5}),
    ("general", {"r": True}),
    ("general", {"s": -1}),
    ("general", {"r": "0"}),
    ("general", {"s": 63}),
    ("canonical", {"m": 1.5}),
    ("canonical", {"m": 1.5, "t": 1.9}),
    ("canonical", {"s": 0.5}),
    ("canonical", {"n": False}),
    ("canonical", {"t": -1}),
    ("canonical", {"m": 1e300}),
    ("canonical", {"n": None}),
]


@pytest.mark.parametrize("kind, override", BAD_SHIFT_FIELDS, ids=repr)
def test_fractional_shift_fields_are_format_errors(tmp_path, kind, override):
    write = _general_file if kind == "general" else _canonical_file
    path = tmp_path / "T.json"
    obj = json.loads(write(path).read_text()) | override
    path.write_text(json.dumps(obj))
    with pytest.raises(hio.FormatError, match="must be an integer"):
        hio.load_shift(path, 3)


def test_integral_float_shift_fields_load(tmp_path):
    path = tmp_path / "T.json"
    obj = json.loads(_general_file(path).read_text()) | {"r": 0.0, "s": 1.0}
    path.write_text(json.dumps(obj))
    assert hio.load_shift(path, 3).shape == ShiftShape(0, 1)
    obj = json.loads(_canonical_file(path).read_text()) | {"m": 1.0, "s": 0.0, "n": 1.0, "t": 1.0}
    path.write_text(json.dumps(obj))
    C = hio.load_shift(path, 3)
    assert (C.m, C.s_sel, C.n, C.t_sel) == (1, 0, 1, 1)
    assert all(type(v) is int for v in (C.m, C.s_sel, C.n, C.t_sel))


def test_format_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(hio.FormatError):
        hio.load_measure(bad)
    with pytest.raises(hio.FormatError):
        hio.load_function(bad)
    with pytest.raises(hio.FormatError):
        hio.load_shift(bad, 3)
    bad.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(hio.FormatError):
        hio.load_shift(bad, 3)
    with pytest.raises(hio.FormatError):
        hio.load_measure(tmp_path / "missing.json")
    for bad_value in (float("inf"), float("nan")):
        bad.write_text(json.dumps({"depth": 1, "leaf_masses": [1.0, bad_value]}))
        with pytest.raises(hio.FormatError):
            hio.load_measure(bad)
        bad.write_text(json.dumps({"depth": 1, "leaf_values": [1.0, bad_value]}))
        with pytest.raises(hio.FormatError):
            hio.load_function(bad)


# finite float64 bit patterns; positive ones below 2**1020, so that eight
# of them sum to a finite total mass
FINITE_BITS = st.integers(0, 2**64 - 1).filter(
    lambda b: np.isfinite(np.uint64(b).view(np.float64))
)
MASS_BITS = st.integers(1, 0x7FB0_0000_0000_0000)


def _floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(FINITE_BITS, min_size=8, max_size=8),
    masses=st.lists(MASS_BITS, min_size=8, max_size=8),
)
def test_readers_match_stdlib_json_bit_for_bit(tmp_path_factory, values, masses):
    path = tmp_path_factory.mktemp("exact") / "x.json"
    path.write_text(json.dumps({"depth": 3, "leaf_values": _floats(values).tolist()}))
    expected = np.array(json.loads(path.read_text())["leaf_values"], dtype=np.float64)
    assert np.array_equal(
        hio.load_function(path).values.view(np.int64), expected.view(np.int64)
    )
    path.write_text(json.dumps({"depth": 3, "leaf_masses": _floats(masses).tolist()}))
    expected = np.array(json.loads(path.read_text())["leaf_masses"], dtype=np.float64)
    assert np.array_equal(
        hio.load_measure(path).leaf_masses.view(np.int64), expected.view(np.int64)
    )


def _measure_dict(mu):
    """A measure file's dict form, as `MeasureTree.to_json` built it before
    the format moved to `haarlab.io`: json.dumps of it is the byte
    reference of `save_measure`."""
    return {
        "root": {
            "origin": mu.tree.root_origin,
            "length": mu.tree.root_length,
        },
        "depth": mu.depth,
        "leaf_masses": mu.leaf_masses.tolist(),
    }


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(FINITE_BITS, min_size=8, max_size=8),
    masses=st.lists(MASS_BITS, min_size=8, max_size=8),
)
def test_writers_match_stdlib_json_bytes(tmp_path_factory, values, masses):
    path = tmp_path_factory.mktemp("exact") / "x.json"
    f = StepFunction(3, _floats(values))
    hio.save_function(f, path)
    expected = json.dumps({"depth": 3, "leaf_values": f.values.tolist()}) + "\n"
    assert path.read_bytes() == expected.encode()
    mu = MeasureTree(DyadicTree(3), _floats(masses))
    hio.save_measure(mu, path)
    assert path.read_bytes() == (json.dumps(_measure_dict(mu)) + "\n").encode()


# where repr switches between positional and exponent notation, and the
# ends of the float64 range
EDGE_VALUES = [
    1e-4,
    np.nextafter(1e-4, 0),
    1e16,
    np.nextafter(1e16, 0),
    5e-324,
    -0.0,
    1.7976931348623157e308,
    -1.7976931348623157e308,
]


def test_writers_match_stdlib_json_at_edges(tmp_path):
    path = tmp_path / "x.json"
    f = StepFunction(3, np.array(EDGE_VALUES))
    hio.save_function(f, path)
    assert path.read_text() == json.dumps({"depth": 3, "leaf_values": EDGE_VALUES}) + "\n"
    masses = EDGE_VALUES[:5] + [1.0, 2.0, 3.0]
    mu = MeasureTree(DyadicTree(3, root_origin=-0.5, root_length=1e16), masses)
    hio.save_measure(mu, path)
    assert path.read_text() == json.dumps(_measure_dict(mu)) + "\n"
    assert np.array_equal(hio.load_measure(path).leaf_masses, mu.leaf_masses)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=repr)
def test_writers_refuse_non_finite_values(tmp_path, bad):
    path = tmp_path / "f.json"
    with pytest.raises(NonFiniteError, match="leaf values must be finite"):
        StepFunction(3, np.array([1.0] * 7 + [bad]))
    # a function's values can still be changed in place
    f = StepFunction(3, np.ones(8))
    f.values[-1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        hio.save_function(f, path)
    assert not path.exists()


# depth fields that are not an integer in range: huge, fractional, infinite
# (written by the stdlib as the non-JSON literal Infinity), or of another type
BAD_DEPTHS = [1e300, 3.5, float("inf"), -float("inf"), 63, 0, True, "3", None]


@pytest.mark.parametrize("depth", BAD_DEPTHS, ids=repr)
def test_bad_depth_is_a_format_error(tmp_path, depth):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"depth": depth, "leaf_masses": [1.0] * 8}))
    with pytest.raises(hio.FormatError):
        hio.load_measure(path)
    path.write_text(json.dumps({"depth": depth, "leaf_values": [1.0] * 8}))
    with pytest.raises(hio.FormatError):
        hio.load_function(path)
    with pytest.raises(hio.FormatError):
        hio.measure_from_json({"depth": depth, "leaf_masses": [1.0] * 8})
    with pytest.raises(hio.FormatError):
        hio.function_from_json({"depth": depth, "leaf_values": [1.0] * 8})


# leaf entries that are not JSON numbers: the strings and bools used to load
# as numbers, null as NaN, and a nested list crashed `load_measure` with a
# bare ValueError
BAD_NUMBERS = [" 0.5", True, "1e-1", None, [0.5]]
# root geometry that is not a JSON number; each used to load
BAD_ROOTS = [{"origin": "0"}, {"length": True}]


def _bad_leaf_files(tmp_path, bad):
    """A measure and a function file of depth 3 whose third leaf entry is `bad`."""
    leaves = [1.0, 2.0, bad, 4.0, 1.0, 2.0, 3.0, 4.0]
    mu_path, f_path = tmp_path / "bad_mu.json", tmp_path / "bad_f.json"
    mu_path.write_text(json.dumps({"depth": 3, "leaf_masses": leaves}))
    f_path.write_text(json.dumps({"depth": 3, "leaf_values": leaves}))
    return mu_path, f_path


def _bad_root_file(tmp_path, root):
    path = tmp_path / "bad_root.json"
    path.write_text(json.dumps({"root": root, "depth": 3, "leaf_masses": [1.0] * 8}))
    return path


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
def test_non_number_leaf_entries_are_format_errors(tmp_path, bad):
    mu_path, f_path = _bad_leaf_files(tmp_path, bad)
    with pytest.raises(hio.FormatError, match="leaf_masses: expected a number"):
        hio.load_measure(mu_path)
    with pytest.raises(hio.FormatError, match="leaf_values: expected a number"):
        hio.load_function(f_path)


@pytest.mark.parametrize("root", BAD_ROOTS, ids=repr)
def test_non_number_root_is_a_format_error(tmp_path, root):
    with pytest.raises(hio.FormatError, match=r"root\.(origin|length): expected a number"):
        hio.load_measure(_bad_root_file(tmp_path, root))


def test_integral_float_depth_loads(tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"depth": 3.0, "leaf_masses": [1.0] * 8}))
    assert hio.load_measure(path).depth == 3
    path.write_text(json.dumps({"depth": 3.0, "leaf_values": [1.0] * 8}))
    assert hio.load_function(path).depth == 3


def test_non_object_files_are_format_errors(tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("[1, 2]", '"x"', json.dumps({"root": 5, "depth": 2, "leaf_masses": [1] * 4})):
        bad.write_text(text)
        with pytest.raises(hio.FormatError):
            hio.load_measure(bad)
    bad.write_text(json.dumps({"kind": "canonical", "m": 1, "s": 0, "n": 1, "t": 1, "alphas": [1]}))
    with pytest.raises(hio.FormatError):
        hio.load_shift(bad, 3)


def test_norm_report():
    rep = hio.norm_report("lambda", {"q": 2.0}, 1.5, Node(1, 0))
    assert rep == {
        "norm": "lambda",
        "params": {"q": 2.0},
        "value": 1.5,
        "witness_node": "1,0",
    }
    assert hio.norm_report("lp", {}, 1.0, None)["witness_node"] is None


# --- CLI -----------------------------------------------------------------


def _gen_measure(tmp_path, kind="random_doubling", depth=4):
    path = tmp_path / "mu.json"
    code = main(
        ["measure", "gen", "--kind", kind, "--depth", str(depth), "--out", str(path)]
    )
    assert code == 0
    return path


def _save_function(tmp_path, mu_path, seed=0):
    mu = hio.load_measure(mu_path)
    f = StepFunction(
        mu.depth, np.random.default_rng(seed).standard_normal(1 << mu.depth)
    )
    path = tmp_path / "f.json"
    hio.save_function(f, path)
    return path


def test_cli_measure_gen_and_inspect(tmp_path, capsys):
    mu_path = _gen_measure(tmp_path)
    out = capsys.readouterr().out
    assert "balanced_constant" in out and "bal_form_constant" in out
    assert (tmp_path / "mu.json.manifest.json").exists()
    assert main(["measure", "inspect", str(mu_path)]) == 0
    out = capsys.readouterr().out
    assert "sandwich ok" in out
    # a depth-1 measure has no balance diagnostics: an input error, one line
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"depth": 1, "leaf_masses": [1.0, 2.0]}))
    assert main(["measure", "inspect", str(shallow)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid measure: balance diagnostics need depth >= 2\n"


def test_cli_measure_gen_bad_kind(tmp_path):
    code = main(
        ["measure", "gen", "--kind", "mystery", "--depth", "4", "--out", "x.json"]
    )
    assert code == 2


def test_cli_norm(tmp_path, capsys):
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    capsys.readouterr()
    code = main(
        [
            "norm",
            "--function",
            str(f_path),
            "--measure",
            str(mu_path),
            "--norm",
            "lambda",
            "--q",
            "2",
            "--alpha",
            "0.5",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["norm"] == "lambda"
    assert report["value"] > 0
    assert report["witness_node"] is not None


def test_cli_norm_rejects_unused_flags(tmp_path, capsys):
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    base = ["norm", "--function", str(f_path), "--measure", str(mu_path)]
    for flags in (
        ["--norm", "bmo", "--p", "3"],
        ["--norm", "lp", "--q", "2"],
        ["--norm", "lambda", "--p", "2", "--q", "2"],
        ["--norm", "h1", "--alpha", "0.5"],
        ["--norm", "atb-upper", "--alpha", "0.5"],
    ):
        assert main(base + flags) == 3, flags
    assert "--p not taken by --norm bmo" in capsys.readouterr().err
    assert main(base + ["--norm", "lambda", "--q", "2", "--alpha", "0.5"]) == 0


def test_cli_norm_exit_codes(tmp_path):
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    # parameter error: p < 1, a NaN parameter, or an infinite alpha
    for flags in (
        ["lp", "--p", "0.5"], ["lp", "--p", "nan"], ["lambda", "--alpha", "nan"],
        ["lambda", "--alpha", "inf"],
    ):
        code = main(
            ["norm", "--function", str(f_path), "--measure", str(mu_path), "--norm", *flags]
        )
        assert code == 3, flags
    # input error: missing function file
    code = main(
        ["norm", "--function", str(tmp_path / "nope.json"), "--measure", str(mu_path),
         "--norm", "lp"]
    )
    assert code == 2
    # input error: depth mismatch
    other = tmp_path / "other.json"
    hio.save_function(StepFunction(2, np.ones(4)), other)
    code = main(
        ["norm", "--function", str(other), "--measure", str(mu_path), "--norm", "lp"]
    )
    assert code == 2


def test_cli_lp_norm_of_an_underflowing_power(tmp_path, capsys):
    # 0.5^2000 underflows to 0, but the L^2000 norm of 0.5 on lebesgue is 0.5
    mu_path = _gen_measure(tmp_path, kind="lebesgue")
    f_path = tmp_path / "half.json"
    hio.save_function(StepFunction(4, np.full(16, 0.5)), f_path)
    capsys.readouterr()
    argv = ["norm", "--function", str(f_path), "--measure", str(mu_path), "--norm", "lp"]
    assert main(argv + ["--p", "2000"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.5


# --norm choice -> (extra flags, reported params, direct evaluation)
DIRECT_NORMS = {
    "lp": ([], {"p": 2.0}, lambda f, mu: lp_norm(f, mu, 2.0)),
    "weak-l1": ([], {}, weak_l1),
    "bmo": ([], {}, bmo_martingale),
    "bmo-osc": ([], {}, bmo_oscillation),
    "lambda": ([], {"q": 2.0, "alpha": 0.0}, lambda f, mu: lambda_norm(f, mu, 2.0, 0.0)),
    "h1": ([], {}, h1_norm),
    "atb-upper": ([], {}, atb_upper_bound),
}
DIRECT_NORM_CASES = list(DIRECT_NORMS.items()) + [
    ("lp", (["--p", "3"], {"p": 3.0}, lambda f, mu: lp_norm(f, mu, 3.0))),
    (
        "lambda",
        (
            ["--q", "3", "--alpha", "0.25"],
            {"q": 3.0, "alpha": 0.25},
            lambda f, mu: lambda_norm(f, mu, 3.0, 0.25),
        ),
    ),
]


def _subparser(name):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def test_cli_norm_choices_are_covered():
    norm = next(a for a in _subparser("norm")._actions if a.dest == "norm")
    assert list(norm.choices) == list(DIRECT_NORMS)


@pytest.mark.parametrize("norm,case", DIRECT_NORM_CASES)
def test_cli_norm_equals_direct_value(tmp_path, capsys, norm, case):
    flags, params, direct = case
    mu_path = _gen_measure(tmp_path)
    mu = hio.load_measure(mu_path)
    f = StepFunction(mu.depth, np.random.default_rng(3).standard_normal(1 << mu.depth))
    f = f - StepFunction(mu.depth, np.full(1 << mu.depth, np.sum(f.values * mu.leaf_masses)))
    f_path = tmp_path / "f.json"
    hio.save_function(f, f_path)
    capsys.readouterr()
    code = main(
        ["norm", "--function", str(f_path), "--measure", str(mu_path), "--norm", norm, *flags]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    expected = direct(f, mu)
    witness = None
    if norm == "lambda":
        expected, witness = expected.value, str(expected.witness_node)
    assert report == {
        "norm": norm, "params": params, "value": expected, "witness_node": witness
    }


@pytest.mark.parametrize("kind", list(GENERATORS))
def test_cli_measure_gen_every_kind(tmp_path, kind):
    path = tmp_path / "mu.json"
    code = main(
        ["measure", "gen", "--kind", kind, "--depth", "5", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    assert np.array_equal(
        hio.load_measure(path).leaf_masses, generate(kind, 5, seed=3).leaf_masses
    )


def test_cli_rejects_non_finite_files(tmp_path):
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    shift_path = tmp_path / "T.json"
    shift_path.write_text(json.dumps({"kind": "petermichl"}) + "\n")
    inf_mu = tmp_path / "inf_mu.json"
    obj = json.loads(mu_path.read_text())
    obj["leaf_masses"][3] = float("inf")
    inf_mu.write_text(json.dumps(obj))
    nan_f = tmp_path / "nan_f.json"
    obj = json.loads(f_path.read_text())
    obj["leaf_values"][5] = float("nan")
    nan_f.write_text(json.dumps(obj))
    # an inf mass: measure inspect and norm --measure are input errors
    assert main(["measure", "inspect", str(inf_mu)]) == 2
    assert main(
        ["norm", "--function", str(f_path), "--measure", str(inf_mu), "--norm", "bmo"]
    ) == 2
    # finite masses whose total overflows: input errors too
    big_mu = tmp_path / "big_mu.json"
    obj = json.loads(mu_path.read_text())
    obj["leaf_masses"][:2] = [1e308, 1e308]
    big_mu.write_text(json.dumps(obj))
    assert main(["measure", "inspect", str(big_mu)]) == 2
    assert main(
        ["norm", "--function", str(f_path), "--measure", str(big_mu), "--norm", "bmo"]
    ) == 2
    # a NaN leaf value: norm and apply are input errors
    assert main(
        ["norm", "--function", str(nan_f), "--measure", str(mu_path), "--norm", "bmo"]
    ) == 2
    assert main(
        ["apply", "--shift", str(shift_path), "--function", str(nan_f),
         "--measure", str(mu_path), "--out", str(tmp_path / "Tf.json")]
    ) == 2


def test_cli_rejects_undecodable_files(tmp_path, capsys):
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    shift_path = tmp_path / "T.json"
    shift_path.write_text(json.dumps({"kind": "petermichl"}) + "\n")
    garbage = tmp_path / "garbage.json"
    garbage.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main(["measure", "inspect", str(garbage)]) == 2
    assert main(
        ["norm", "--function", str(garbage), "--measure", str(mu_path), "--norm", "bmo"]
    ) == 2
    out = tmp_path / "Tf.json"
    assert main(
        ["apply", "--shift", str(garbage), "--function", str(f_path),
         "--measure", str(mu_path), "--out", str(out)]
    ) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("error: cannot load ") for line in err)


def test_cli_bad_depth_exits_2(tmp_path, capsys):
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    bad = tmp_path / "bad.json"
    for depth in (1e300, 3.5, float("inf")):
        bad.write_text(json.dumps({"depth": depth, "leaf_masses": [1.0] * 8}))
        assert main(["measure", "inspect", str(bad)]) == 2
        bad.write_text(json.dumps({"depth": depth, "leaf_values": [1.0] * 16}))
        assert main(
            ["norm", "--function", str(bad), "--measure", str(mu_path), "--norm", "bmo"]
        ) == 2
    assert "error: malformed function file: depth must be an integer" in capsys.readouterr().err
    assert main(
        ["norm", "--function", str(f_path), "--measure", str(mu_path), "--norm", "bmo"]
    ) == 0


def test_cli_non_number_fields_exit_2(tmp_path, capsys):
    mu_path = _gen_measure(tmp_path, depth=3)
    f_path = _save_function(tmp_path, mu_path)
    shift_path = tmp_path / "T.json"
    shift_path.write_text(json.dumps({"kind": "petermichl"}) + "\n")
    out = tmp_path / "Tf.json"
    bad_mus, bad_fs = [], []
    for i, bad in enumerate(BAD_NUMBERS):
        (tmp_path / f"leaf{i}").mkdir()
        bad_mu, bad_f = _bad_leaf_files(tmp_path / f"leaf{i}", bad)
        bad_mus.append(bad_mu)
        bad_fs.append(bad_f)
    for i, root in enumerate(BAD_ROOTS):
        (tmp_path / f"root{i}").mkdir()
        bad_mus.append(_bad_root_file(tmp_path / f"root{i}", root))
    capsys.readouterr()
    apply = ["apply", "--shift", str(shift_path), "--out", str(out)]
    for bad in bad_mus:
        assert main(["measure", "inspect", str(bad)]) == 2, bad.read_text()
        assert main(
            ["norm", "--function", str(f_path), "--measure", str(bad), "--norm", "bmo"]
        ) == 2
        assert main(apply + ["--function", str(f_path), "--measure", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(
            line.startswith("error: malformed measure file: ") for line in err
        )
    for bad in bad_fs:
        assert main(
            ["norm", "--function", str(bad), "--measure", str(mu_path), "--norm", "bmo"]
        ) == 2, bad.read_text()
        assert main(apply + ["--function", str(bad), "--measure", str(mu_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(
            line.startswith("error: malformed function file: ") for line in err
        )
    assert not out.exists()


@pytest.mark.parametrize("depth", [60, 63])
def test_cli_measure_gen_too_deep_to_allocate_exits_2(capsys, depth):
    # numpy refuses these sizes before allocating; depths 35-59 are never
    # tried here, since there it may attempt a real multi-GB allocation
    assert main(["measure", "gen", "--kind", "lebesgue", "--depth", str(depth)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid measure spec: ")


def test_cli_refused_allocation_is_a_config_error(monkeypatch, capsys):
    # where the kernel refuses an allocation numpy raises MemoryError, which
    # used to end these commands with a traceback and exit 1; forced here,
    # since a real attempt at depth 40 asks for terabytes
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "generate", refuse)
    monkeypatch.setattr(studies, "generate", refuse)
    monkeypatch.setattr(verify, "random_doubling", refuse)
    for argv, code, message in [
        (["measure", "gen", "--kind", "lebesgue", "--depth", "40"], 2, "invalid measure spec"),
        (["study", "theorem", "--name", "BMOtoBMO", "--depths", "40:40"], 3, "invalid study config"),
        (["study", "blowup", "--family", "lebesgue", "--depths", "40:40"], 3, "invalid study config"),
        (["verify", "--depth", "40", "--trials", "1"], 3, "invalid verify config"),
    ]:
        assert main(argv) == code
        assert capsys.readouterr().err == (
            f"error: {message}: Unable to allocate 8.00 TiB for an array\n"
        )


def test_cli_bad_shift_files_exit_2(tmp_path, capsys):
    mu_path = _gen_measure(tmp_path, depth=3)
    f_path = _save_function(tmp_path, mu_path)
    out = tmp_path / "Tf.json"
    shifts = [_general_file(tmp_path / f"g{i}.json", R=key) for i, key in enumerate(BAD_KEYS)]
    shifts += [_canonical_file(tmp_path / "c.json", {"1,\u0660": 0.5})]
    # alphas that are not JSON numbers
    for i, alpha in enumerate(["-0.5", " 1e-1 ", True]):
        shifts.append(_general_file(tmp_path / f"a{i}.json", alpha=alpha))
        shifts.append(_canonical_file(tmp_path / f"ca{i}.json", {"1,0": alpha}))
    for i, (kind, override) in enumerate(BAD_SHIFT_FIELDS):
        write = _general_file if kind == "general" else _canonical_file
        path = write(tmp_path / f"f{i}.json")
        path.write_text(json.dumps(json.loads(path.read_text()) | override))
        shifts.append(path)
    capsys.readouterr()
    for shift_path in shifts:
        assert main(
            ["apply", "--shift", str(shift_path), "--function", str(f_path),
             "--measure", str(mu_path), "--out", str(out)]
        ) == 2, shift_path.read_text()
        assert capsys.readouterr().err.startswith("error: malformed shift file: ")
    assert not out.exists()


# every command that reads a file, with the file each reads: (command, role)
FILE_READERS = [
    ("inspect", "measure"),
    ("norm", "measure"),
    ("norm", "function"),
    ("apply", "measure"),
    ("apply", "function"),
    ("apply", "shift"),
]


@pytest.mark.parametrize("content", ['{"depth": 3', "[]"], ids=["not-json", "not-an-object"])
@pytest.mark.parametrize("command, role", FILE_READERS)
def test_cli_malformed_input_file_exits_2(tmp_path, capsys, command, role, content):
    files = {"measure": _gen_measure(tmp_path, depth=3)}
    files["function"] = _save_function(tmp_path, files["measure"])
    files["shift"] = tmp_path / "T.json"
    files["shift"].write_text(json.dumps({"kind": "petermichl"}) + "\n")
    files[role] = tmp_path / "bad.json"
    files[role].write_text(content)
    out = tmp_path / "Tf.json"
    argv = {
        "inspect": ["measure", "inspect", str(files["measure"])],
        "norm": ["norm", "--function", str(files["function"]),
                 "--measure", str(files["measure"]), "--norm", "bmo"],
        "apply": ["apply", "--shift", str(files["shift"]), "--function", str(files["function"]),
                  "--measure", str(files["measure"]), "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["norm", "apply", "measure gen", "study theorem", "study blowup", "verify"]
)
def test_cli_unwritable_out_exits_2(tmp_path, capsys, command):
    # an --out file in a missing directory is an input error on one line,
    # and nothing is written
    mu_path = _gen_measure(tmp_path, depth=3)
    f_path = _save_function(tmp_path, mu_path)
    shift_path = tmp_path / "T.json"
    shift_path.write_text(json.dumps({"kind": "petermichl"}) + "\n")
    missing = tmp_path / "missing"
    files = {"--measure": str(mu_path), "--function": str(f_path)}
    argv = {
        "norm": ["norm", "--norm", "bmo"],
        "apply": ["apply", "--shift", str(shift_path)],
        "measure gen": ["measure", "gen", "--kind", "lebesgue", "--depth", "3"],
        "study theorem": ["study", "theorem", "--name", "H1L1", "--depths", "3:3"],
        "study blowup": ["study", "blowup", "--depths", "3:3"],
        "verify": ["verify", "--depth", "3", "--trials", "2"],
    }[command]
    if command in ("norm", "apply"):
        argv += [arg for item in files.items() for arg in item]
    capsys.readouterr()
    assert main(argv + ["--out", str(missing / "x")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write ")
    assert not missing.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_refuses_non_finite_results(tmp_path, capsys):
    mu_path = _gen_measure(tmp_path)
    big = tmp_path / "big.json"
    hio.save_function(StepFunction(4, np.repeat([1.5e308, -1.5e308], 8)), big)
    shift_path = tmp_path / "T.json"
    shift_path.write_text(json.dumps({"kind": "petermichl"}) + "\n")
    out = tmp_path / "Tf.json"
    capsys.readouterr()
    assert main(
        ["apply", "--shift", str(shift_path), "--function", str(big),
         "--measure", str(mu_path), "--out", str(out)]
    ) == 2
    assert not out.exists()
    assert not (tmp_path / "Tf.json.manifest.json").exists()
    assert "error: cannot apply shift: the image has non-finite values" in capsys.readouterr().err
    # alternating signs: these norms overflow on this input
    hio.save_function(StepFunction(4, np.resize([1.5e308, -1.5e308], 16)), big)
    report = tmp_path / "norm.json"
    for norm in ("lp", "bmo", "bmo-osc", "lambda", "h1"):
        assert main(
            ["norm", "--function", str(big), "--measure", str(mu_path), "--norm", norm,
             "--out", str(report)]
        ) == 2, norm
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: the {norm} norm of this input is not finite"), norm
    assert not report.exists()
    # the weak-L1 norm of this input is finite, and its report is written
    assert main(
        ["norm", "--function", str(big), "--measure", str(mu_path), "--norm", "weak-l1"]
    ) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and 1.5e308 <= json.loads(captured.out)["value"] < np.inf
    # on a lebesgue measure the finest-level coefficients overflow too; they
    # feed only leaf-level terms, which the Petermichl shift drops, so the
    # image is exactly zero
    (tmp_path / "leb").mkdir()
    leb_path = _gen_measure(tmp_path / "leb", kind="lebesgue")
    capsys.readouterr()
    assert main(
        ["apply", "--shift", str(shift_path), "--function", str(big),
         "--measure", str(leb_path), "--out", str(out)]
    ) == 0
    assert capsys.readouterr().err == ""
    assert not np.any(hio.load_function(out).values)
    for norm in ("lp", "bmo-osc", "lambda", "h1", "atb-upper"):
        assert main(
            ["norm", "--function", str(big), "--measure", str(leb_path), "--norm", norm]
        ) == 2, norm
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: the {norm} norm of this input is not finite"), norm
    # atb-upper takes no parameters: a root mean that is not zero, here a
    # finite -7.5e307, is a fault of the function, not of the flags
    hio.save_function(StepFunction(4, np.array([1.5e308, -1.5e308, -1.5e308, -1.5e308] * 4)), big)
    assert main(
        ["norm", "--function", str(big), "--measure", str(mu_path), "--norm", "atb-upper",
         "--out", str(report)]
    ) == 2
    assert "error: cannot bound this function: " in capsys.readouterr().err
    assert not report.exists()


def test_cli_apply(tmp_path):
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    shift_path = tmp_path / "T.json"
    shift_path.write_text(json.dumps({"kind": "petermichl"}) + "\n")
    out_path = tmp_path / "Tf.json"
    code = main(
        ["apply", "--shift", str(shift_path), "--function", str(f_path),
         "--measure", str(mu_path), "--out", str(out_path)]
    )
    assert code == 0
    mu = hio.load_measure(mu_path)
    from haarlab.shift import apply_shift

    expected = apply_shift(petermichl(mu.depth), hio.load_function(f_path), mu)
    assert np.allclose(hio.load_function(out_path).values, expected.values)
    # garbage shift file is an input error
    shift_path.write_text("nope")
    assert (
        main(
            ["apply", "--shift", str(shift_path), "--function", str(f_path),
             "--measure", str(mu_path), "--out", str(out_path)]
        )
        == 2
    )
    # so is a general shift file with a malformed or non-finite term
    for override in BAD_GENERAL_TERMS:
        _general_file(shift_path, **override)
        code = main(
            ["apply", "--shift", str(shift_path), "--function", str(f_path),
             "--measure", str(mu_path), "--out", str(out_path)]
        )
        assert code == 2, override


def test_cli_study_blowup(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "blowup", "--family", "geometric_unbalanced", "--depths", "4:6",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family,depth,seed")
    assert len(lines) == 1 + 3 * 3
    assert (tmp_path / "study.csv.manifest.json").exists()
    # reruns are byte-identical
    out2 = tmp_path / "study2.csv"
    main(
        ["study", "blowup", "--family", "geometric_unbalanced", "--depths", "4:6",
         "--out", str(out2)]
    )
    assert out.read_bytes() == out2.read_bytes()


def test_cli_study_theorem(tmp_path):
    out = tmp_path / "suite.csv"
    code = main(
        ["study", "theorem", "--name", "BMOtoBMO", "--family", "lebesgue",
         "--depths", "4:5", "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 5


def test_cli_family_flags_must_be_taken(tmp_path, capsys):
    out = str(tmp_path / "x.out")
    gen = ["measure", "gen", "--depth", "4", "--out", out]
    assert main(gen + ["--kind", "lebesgue", "--q", "0.3", "--M", "9", "--p-min", "0.1"]) == 3
    assert main(gen + ["--kind", "spine", "--q", "0.3"]) == 3
    assert "--q not taken by family spine" in capsys.readouterr().err
    assert main(gen + ["--kind", "mystery", "--q", "0.3"]) == 2
    assert main(gen + ["--kind", "spine", "--M", "9"]) == 0
    theorem = ["study", "theorem", "--name", "BMOtoBMO", "--depths", "4:4", "--trials", "1"]
    assert main(theorem + ["--family", "lebesgue", "--q", "0.3"]) == 3
    blowup = ["study", "blowup", "--depths", "4:4", "--out", out]
    assert main(blowup + ["--family", "lebesgue", "--p-max", "0.6"]) == 3
    # a flag goes to the selected families that take it
    both = ["--family", "lebesgue", "--family", "geometric_unbalanced", "--q", "0.3"]
    assert main(theorem + both + ["--out", out]) == 0
    rows = list(csv.reader((tmp_path / "x.out").read_text().splitlines()[1:]))
    assert {r[0] for r in rows} == {"lebesgue", "geometric_unbalanced,q=0.3"}


def test_cli_study_alpha_must_be_finite(capsys):
    # an infinite Lipschitz order was run and gave inf and nan estimates
    theorem = ["study", "theorem", "--name", "TheoremB", "--family", "lebesgue",
               "--depths", "4:4", "--trials", "1"]
    blowup = ["study", "blowup", "--family", "geometric_unbalanced", "--depths", "4:5"]
    for argv in (theorem, blowup):
        assert main(argv + ["--alpha", "inf"]) == 3
        assert "alpha must be a finite real >= 0" in capsys.readouterr().err
        assert main(argv + ["--alpha", "2"]) == 0


def test_cli_study_alpha_too_large_for_the_measures(capsys):
    # a finite Lipschitz order so large that mu(Q)**(-1/q - alpha) overflows
    # ended in an OverflowError traceback (blowup, exit 1) or wrote inf and
    # 1e120-sized estimates (TheoremB, exit 0)
    theorem = ["study", "theorem", "--name", "TheoremB", "--family", "lebesgue",
               "--depths", "4:4"]
    blowup = ["study", "blowup", "--family", "lebesgue", "--depths", "3:4"]
    for argv in (theorem, blowup):
        assert main(argv + ["--alpha", "400"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid study config: alpha=400 is too large for this measure: "
            "mu(Q)**(-400.5) leaves the float64 range\n"
        )
    # (1/16)**-250.5 = 2**1002 fits, and so does the closed form's 2**1004
    for argv in (theorem, blowup):
        assert main(argv + ["--alpha", "250"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()[1:]))
        assert rows and all(np.isfinite(float(row[5])) for row in rows)
    # the library raises the same NormError, a ValueError, before any work
    with pytest.raises(NormError, match="alpha=400 is too large"):
        blowup_study({"kind": "lebesgue"}, 400.0, [3, 4])
    with pytest.raises(NormError, match="alpha=400 is too large"):
        theorem_suite("TheoremB", [{"kind": "lebesgue"}], [4], alpha=400.0)
    # the closed form's child power overflows first at (1/8)**-401
    with pytest.raises(NormError, match=r"mu\(Q\)\*\*\(-401\)"):
        haar_lambda2_norm(lebesgue(3), Node(2, 0), 400.0)
    # the other suites do not read alpha
    theorem_suite("BMOtoBMO", [{"kind": "lebesgue"}], [4], alpha=400.0, n_random=0)


def test_cli_norm_alpha_too_large_for_the_measure(tmp_path, capsys):
    # `norm` printed numpy's overflow warning and exited 2, "not finite
    # (inf)", where `study` exits 3 on the same alpha
    mu_path = _gen_measure(tmp_path, kind="lebesgue")
    f_path = _save_function(tmp_path, mu_path)
    report = tmp_path / "norm.json"
    base = ["norm", "--function", str(f_path), "--measure", str(mu_path), "--norm", "lambda",
            "--out", str(report)]
    capsys.readouterr()
    for alpha in ("400", "300"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(base + ["--alpha", alpha]) == 3
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: invalid norm parameters: alpha={alpha} is too large for this measure: "
            f"mu(Q)**(-{alpha}.5) leaves the float64 range\n"
        )
        assert not report.exists()
    # (1/16)**-250.5 = 2**1002 fits
    assert main(base + ["--alpha", "250"]) == 0
    assert np.isfinite(json.loads(report.read_text())["value"])


def test_cli_rejects_negative_seed(tmp_path, capsys):
    # a negative seed was written to a blowup CSV (exit 0), raised numpy's
    # "expected non-negative integer" inside theorem and verify runs (exit
    # 3), and exited 0 or 2 from `measure gen` depending on the family
    out = tmp_path / "out"
    runs = [
        (["study", "blowup", "--family", "geometric_unbalanced", "--depths", "4:5"], 3),
        (["study", "theorem", "--name", "BMOtoBMO", "--depths", "4:4"], 3),
        (["verify", "--depth", "4", "--trials", "2"], 3),
        (["measure", "gen", "--kind", "lebesgue", "--depth", "4"], 2),
        (["measure", "gen", "--kind", "random_doubling", "--depth", "4"], 2),
    ]
    for argv, code in runs:
        for seed in ("-1", "-2"):
            assert main(argv + ["--seed", seed, "--out", str(out)]) == code, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --seed must be >= 0, got {seed}\n"
            assert not out.exists() and not (tmp_path / "out.manifest.json").exists()


def test_cli_json_outputs_parse_with_orjson(tmp_path, capsys):
    # `--norm lp --p inf` wrote "p": Infinity to its report and manifest,
    # which no strict JSON reader, orjson included, accepts
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    shift_path = tmp_path / "T.json"
    hio.save_shift(petermichl(4), shift_path)
    base = ["norm", "--function", str(f_path), "--measure", str(mu_path)]
    runs = [
        base + ["--norm", "lp", "--p", "inf", "--out", str(tmp_path / "inf.json")],
        base + ["--norm", "lambda", "--q", "3", "--alpha", "0.5",
                "--out", str(tmp_path / "lambda.json")],
        ["apply", "--shift", str(shift_path), "--function", str(f_path),
         "--measure", str(mu_path), "--out", str(tmp_path / "Tf.json")],
        ["study", "blowup", "--depths", "3:4", "--out", str(tmp_path / "b.csv")],
        ["study", "theorem", "--name", "TheoremB", "--depths", "3:3", "--trials", "1",
         "--out", str(tmp_path / "t.csv")],
        ["verify", "--depth", "3", "--trials", "5", "--out", str(tmp_path / "v.json")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    parsed = {p.name: orjson.loads(p.read_bytes()) for p in tmp_path.glob("*.json")}
    outputs = ["mu.json", "inf.json", "lambda.json", "Tf.json", "b.csv", "t.csv", "v.json"]
    expected = {"T.json", "f.json"} | {name + ".manifest.json" for name in outputs}
    assert set(parsed) == expected | {name for name in outputs if name.endswith(".json")}
    assert parsed["inf.json"]["params"] == {"p": "inf"}
    assert parsed["inf.json"]["value"] == np.max(np.abs(hio.load_function(f_path).values))
    assert parsed["inf.json.manifest.json"]["p"] == "inf"
    assert parsed["lambda.json"]["params"] == {"q": 3.0, "alpha": 0.5}
    # the report on stdout is the same JSON
    capsys.readouterr()
    assert main(base + ["--norm", "lp", "--p", "inf"]) == 0
    assert orjson.loads(capsys.readouterr().out) == parsed["inf.json"]


def test_cli_study_theorem_flags_must_be_read(tmp_path, capsys):
    # --alpha reaches only the Lambda suite and --trials only the suites with
    # a probe battery; elsewhere each was accepted and changed nothing
    base = ["study", "theorem", "--family", "lebesgue", "--depths", "4:4"]
    for name, flags, unread in [
        ("BMOtoBMO", ["--alpha", "inf"], "--alpha"),
        ("LInfBMO", ["--alpha", "0.25"], "--alpha"),
        ("H1L1", ["--trials", "3"], "--trials"),
        ("H1H1", ["--alpha", "0.5", "--trials", "12"], "--alpha, --trials"),
    ]:
        assert main(base + ["--name", name] + flags) == 3
        assert capsys.readouterr().err == f"error: {unread} not taken by suite {name}\n"
    # the manifest records the flags a suite read, defaulted or given, and
    # null for the others; the defaults are those of giving 0.5 and 12
    out, manifest = tmp_path / "s.csv", tmp_path / "s.csv.manifest.json"
    for name, flags, resolved in [
        ("TheoremB", [], [0.5, 12]),
        ("BMOtoBMO", [], [None, 12]),
        ("H1L1", [], [None, None]),
        ("TheoremB", ["--alpha", "0.25", "--trials", "2"], [0.25, 2]),
    ]:
        assert main(base + ["--name", name, "--out", str(out)] + flags) == 0
        config = json.loads(manifest.read_text())
        assert [config["alpha"], config["trials"]] == resolved
    defaulted = tmp_path / "d.csv"
    assert main(base + ["--name", "TheoremB", "--out", str(defaulted)]) == 0
    assert main(base + ["--name", "TheoremB", "--alpha", "0.5", "--trials", "12",
                        "--out", str(out)]) == 0
    assert out.read_bytes() == defaulted.read_bytes()
    blowup = ["study", "blowup", "--family", "lebesgue", "--depths", "4:4", "--out", str(out)]
    assert main(blowup) == 0
    assert json.loads(manifest.read_text())["alpha"] == 0.5


def test_cli_study_blowup_takes_one_family():
    code = main(
        ["study", "blowup", "--family", "lebesgue", "--family", "spine", "--depths", "4:5"]
    )
    assert code == 3


def test_cli_study_trials_only_on_theorem():
    with pytest.raises(SystemExit) as exc:
        main(["study", "blowup", "--family", "lebesgue", "--depths", "4:5", "--trials", "99"])
    assert exc.value.code == 2


def test_cli_study_bad_depths():
    code = main(
        ["study", "blowup", "--family", "lebesgue", "--depths", "6:4"]
    )
    assert code == 3
    code = main(
        ["study", "blowup", "--family", "lebesgue", "--depths", "four"]
    )
    assert code == 3


def test_cli_verify(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(
        ["verify", "--depth", "4", "--trials", "10", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    payload = json.loads(out.read_text())
    assert all(entry["passed"] for entry in payload)
    # depth 1 has no measure to check: a parameter error on one line, no traceback
    assert main(["verify", "--depth", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "error: invalid verify config: verification needs depth >= 2, got 1\n"
    with pytest.raises(ValueError):
        run_verification(depth=1, trials=10, seed=7)


def test_cli_trials_must_be_counts(capsys):
    # verify checks nothing without trials; a negative count is never valid
    for trials in ("0", "-3"):
        assert main(["verify", "--depth", "2", "--trials", trials]) == 3
        assert "trials >= 1" in capsys.readouterr().err
    theorem = ["study", "theorem", "--name", "BMOtoBMO", "--family", "lebesgue", "--depths", "4:4"]
    assert main(theorem + ["--trials", "-2"]) == 3
    assert "n_random must be >= 0" in capsys.readouterr().err
    assert main(theorem + ["--trials", "0"]) == 0
    with pytest.raises(ValueError):
        run_verification(depth=4, trials=-3, seed=7)


def test_cli_verify_rejects_tol():
    # --tol was accepted and ignored; it is no longer a flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--depth", "4", "--tol", "1e-9"])
    assert exc.value.code == 2
