"""File formats and the command-line interface, including exit codes."""

import json

import numpy as np
import pytest

from haarlab import io as hio
from haarlab.cli import main
from haarlab.martingale import StepFunction, haar_function
from haarlab.measure import random_doubling
from haarlab.shift import CanonicalShift, GeneralShift, dense_alphas, petermichl
from haarlab.tree import Node


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
]


@pytest.mark.parametrize("override", BAD_GENERAL_TERMS)
def test_general_shift_format_errors(tmp_path, override):
    _general_file(tmp_path / "ok.json")
    assert isinstance(hio.load_shift(tmp_path / "ok.json", 3), GeneralShift)
    with pytest.raises(hio.FormatError):
        hio.load_shift(_general_file(tmp_path / "bad.json", **override), 3)


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


def test_cli_norm_exit_codes(tmp_path):
    mu_path = _gen_measure(tmp_path)
    f_path = _save_function(tmp_path, mu_path)
    # parameter error: p < 1
    code = main(
        ["norm", "--function", str(f_path), "--measure", str(mu_path),
         "--norm", "lp", "--p", "0.5"]
    )
    assert code == 3
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


def test_cli_verify_rejects_tol():
    # --tol was accepted and ignored; it is no longer a flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--depth", "4", "--tol", "1e-9"])
    assert exc.value.code == 2
