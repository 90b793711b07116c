"""Blowup and boundedness studies plus the canonical CSV emitter."""

import numpy as np
import pytest

from haarlab.measure import MeasureError, geometric_unbalanced
from haarlab.norms import haar_lambda2_norm
from haarlab.studies import (
    THEOREM_NAMES,
    blowup_study,
    build_measure,
    default_shift_battery,
    family_label,
    predicted_blowup_ratio,
    rows_to_csv,
    theorem_suite,
    unbalanced_branch_node,
)
from haarlab.tree import Node


def test_family_label():
    assert family_label({"kind": "lebesgue"}) == "lebesgue"
    assert (
        family_label({"kind": "geometric_unbalanced", "q": 0.5})
        == "geometric_unbalanced,q=0.5"
    )


def test_build_measure_passes_params():
    mu = build_measure({"kind": "geometric_unbalanced", "q": 0.25}, 4, 0)
    expected = geometric_unbalanced(4, q=0.25)
    assert np.array_equal(mu.leaf_masses, expected.leaf_masses)


def test_unbalanced_branch_node():
    assert unbalanced_branch_node(6) == Node(4, 0)
    assert unbalanced_branch_node(6, level=2) == Node(2, 0)


def test_predicted_ratio_is_norm_quotient():
    mu = geometric_unbalanced(6, q=0.5)
    node = unbalanced_branch_node(6)
    left, _ = mu.tree.children(node)
    expected = haar_lambda2_norm(mu, left, 0.5) / haar_lambda2_norm(mu, node, 0.5)
    assert predicted_blowup_ratio(mu, node, 0.5) == pytest.approx(expected, rel=1e-12)


def test_blowup_study_grows_on_unbalanced():
    fam = {"kind": "geometric_unbalanced", "q": 0.5}
    rows = blowup_study(fam, 0.5, [4, 5, 6])
    key = "petermichl|lambda[q=2,alpha=0.5]"
    vals = [r.estimates[key] for r in rows]
    assert vals[0] < vals[1] < vals[2]
    # the measured ratio dominates its closed-form lower bound
    for r in rows:
        assert r.estimates[key] >= r.estimates["predicted_lower_bound"] * (1 - 1e-9)
    with pytest.raises(ValueError):
        blowup_study(fam, 0.5, [4, 4])
    with pytest.raises(ValueError):
        blowup_study(fam, 0.5, [])
    with pytest.raises(MeasureError, match="takes no parameter q"):
        blowup_study({"kind": "lebesgue", "q": 0.3}, 0.5, [4])


def test_default_shift_battery():
    battery = default_shift_battery(5)
    assert "petermichl" in battery and "petermichl_adj" in battery
    assert len(battery) == 5


def test_theorem_suite_shapes_and_names():
    rows = theorem_suite("LInfBMO", [{"kind": "lebesgue"}], [4, 5], n_random=2)
    assert len(rows) == 2
    assert all(len(r.estimates) == 5 for r in rows)
    assert all("|LInfBMO" in key for r in rows for key in r.estimates)
    with pytest.raises(ValueError):
        theorem_suite("NotASuite", [{"kind": "lebesgue"}], [4])
    with pytest.raises(MeasureError, match="takes no parameter q"):
        theorem_suite("LInfBMO", [{"kind": "lebesgue", "q": 0.3}], [4], n_random=1)
    assert set(THEOREM_NAMES) == {"LInfBMO", "BMOtoBMO", "H1L1", "H1H1", "TheoremB"}


def test_theorem_suite_deterministic():
    fams = [{"kind": "random_doubling", "p_min": 0.4, "p_max": 0.6}]
    a = theorem_suite("H1L1", fams, [4], seed=5, n_random=3)
    b = theorem_suite("H1L1", fams, [4], seed=5, n_random=3)
    assert a == b


def test_rows_to_csv_canonical():
    rows = blowup_study({"kind": "geometric_unbalanced", "q": 0.5}, 0.5, [4, 5])
    csv1 = rows_to_csv(rows)
    csv2 = rows_to_csv(list(reversed(rows)))
    assert csv1 == csv2  # canonical sort order
    lines = csv1.splitlines()
    assert lines[0] == "family,depth,seed,balanced_constant,norm_pair,estimate,witness_file"
    assert len(lines) == 1 + 2 * 3  # two depths, three estimates each
    # floats are emitted via repr, so parsing them back is lossless
    value = float(lines[1].split(",")[-2])
    assert np.isfinite(value)
