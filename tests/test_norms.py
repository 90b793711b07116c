"""Lp, weak-L1, BMO in two forms, Lipschitz semi-norms, H1, sibling lemma."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from haarlab.martingale import StepFunction, haar_function, square_function
from haarlab.measure import lebesgue, random_doubling
from haarlab.norms import (
    NormError,
    NormSpec,
    bmo_martingale,
    bmo_oscillation,
    h1_norm,
    haar_lambda2_norm,
    inner_product,
    lambda_norm,
    lp_norm,
    sibling_lemma_check,
    weak_l1,
)
from haarlab.tree import Node, TreeError


@pytest.fixture
def mu():
    return random_doubling(4, seed=7, p_min=0.1, p_max=0.9)


def _rand_f(mu, seed=0):
    rng = np.random.default_rng(seed)
    return StepFunction(mu.depth, rng.standard_normal(1 << mu.depth))


def test_lp_norm_lebesgue():
    mu = lebesgue(3)
    f = StepFunction(3, np.arange(8.0))
    assert lp_norm(f, mu, 1.0) == pytest.approx(np.mean(np.arange(8.0)))
    assert lp_norm(f, mu, 2.0) == pytest.approx(np.sqrt(np.mean(np.arange(8.0) ** 2)))
    assert lp_norm(f, mu, np.inf) == 7.0
    with pytest.raises(NormError):
        lp_norm(f, mu, 0.5)


def test_lp_norm_interpolates(mu):
    f = _rand_f(mu, 1)
    total = mu.total_mass
    # normalized Lp norms are non-decreasing in p
    norms = [lp_norm(f, mu, p) / total ** (1.0 / p) for p in (1.0, 2.0, 4.0)]
    assert norms[0] <= norms[1] * (1 + 1e-12) <= norms[2] * (1 + 1e-12) ** 2


def test_weak_l1(mu):
    f = _rand_f(mu, 2)
    assert weak_l1(f, mu) <= lp_norm(f, mu, 1.0) * (1 + 1e-12)
    # equality for (multiples of) indicators
    ind = 3.0 * StepFunction.indicator(mu.tree, Node(2, 1))
    assert weak_l1(ind, mu) == pytest.approx(lp_norm(ind, mu, 1.0), rel=1e-12)
    # exactness on a two-level function: sup over both attained levels
    g = StepFunction(mu.depth, np.where(np.arange(16) < 4, 5.0, 1.0))
    mass_high = float(np.sum(mu.leaf_masses[:4]))
    expected = max(5.0 * mass_high, 1.0 * mu.total_mass)
    assert weak_l1(g, mu) == pytest.approx(expected, rel=1e-12)


def test_bmo_kills_constants(mu):
    c = StepFunction.constant(mu.depth, 4.2)
    assert bmo_martingale(c, mu) == pytest.approx(0.0, abs=1e-12)
    assert bmo_oscillation(c, mu) == pytest.approx(0.0, abs=1e-12)
    f = _rand_f(mu, 3)
    shifted = f + c
    assert bmo_martingale(shifted, mu) == pytest.approx(bmo_martingale(f, mu), rel=1e-9)


def test_bmo_forms_comparable(mu):
    for seed in range(10):
        f = _rand_f(mu, seed)
        ratio = bmo_oscillation(f, mu) / bmo_martingale(f, mu)
        assert 1.0 - 1e-9 <= ratio <= 2.2


def test_lambda_norm_witness(mu):
    f = _rand_f(mu, 4)
    res = lambda_norm(f, mu, 2.0, 0.5)
    assert res.witness_node is not None
    assert res.value > 0
    with pytest.raises(NormError):
        lambda_norm(f, mu, 0.5, 0.0)
    with pytest.raises(NormError):
        lambda_norm(f, mu, 2.0, -0.1)
    with pytest.raises(NormError):
        lambda_norm(f, mu, np.inf, 0.0)


def test_lambda_scales_homogeneously(mu):
    f = _rand_f(mu, 5)
    a = lambda_norm(f, mu, 2.0, 0.3).value
    b = lambda_norm(3.0 * f, mu, 2.0, 0.3).value
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_haar_lambda2_closed_form(mu):
    for node in mu.tree.internal_nodes():
        for alpha in (0.0, 0.25, 1.0):
            closed = haar_lambda2_norm(mu, node, alpha)
            enum = lambda_norm(haar_function(mu, node), mu, 2.0, alpha).value
            assert closed == pytest.approx(enum, rel=1e-10)
    with pytest.raises(TreeError):
        haar_lambda2_norm(mu, Node(mu.depth, 0), 0.0)


def test_h1_norm_is_l1_of_square_function(mu):
    f = _rand_f(mu, 6)
    assert h1_norm(f, mu) == pytest.approx(
        lp_norm(square_function(f, mu), mu, 1.0), rel=1e-12
    )


def test_sibling_lemma_holds(mu):
    for seed in range(5):
        f = _rand_f(mu, seed)
        for node in mu.tree.internal_nodes():
            holds, slack = sibling_lemma_check(mu, node, f)
            assert holds and slack >= 0.0
    with pytest.raises(TreeError):
        sibling_lemma_check(mu, Node(mu.depth, 0), _rand_f(mu))


@settings(max_examples=50, deadline=None)
@given(
    masses=arrays(np.float64, 8, elements=st.floats(0.01, 100.0)),
    values=arrays(np.float64, 8, elements=st.floats(-100.0, 100.0)),
)
def test_sibling_lemma_property(masses, values):
    from haarlab.measure import MeasureTree
    from haarlab.tree import DyadicTree

    mu = MeasureTree(DyadicTree(3), masses)
    f = StepFunction(3, values)
    for node in mu.tree.internal_nodes():
        holds, _ = sibling_lemma_check(mu, node, f)
        assert holds


def test_inner_product_symmetric(mu):
    f, g = _rand_f(mu, 7), _rand_f(mu, 8)
    assert inner_product(f, g, mu) == pytest.approx(inner_product(g, f, mu), rel=1e-12)
    assert inner_product(f, f, mu) == pytest.approx(lp_norm(f, mu, 2.0) ** 2, rel=1e-12)


def test_norm_spec_dispatch(mu):
    f = _rand_f(mu, 9)
    assert NormSpec("lp", p=2.0)(f, mu) == pytest.approx(lp_norm(f, mu, 2.0))
    assert NormSpec("weak_l1")(f, mu) == pytest.approx(weak_l1(f, mu))
    assert NormSpec("bmo")(f, mu) == pytest.approx(bmo_martingale(f, mu))
    assert NormSpec("bmo_osc")(f, mu) == pytest.approx(bmo_oscillation(f, mu))
    assert NormSpec("lambda", q=2.0, alpha=0.5)(f, mu) == pytest.approx(
        lambda_norm(f, mu, 2.0, 0.5).value
    )
    assert NormSpec("h1")(f, mu) == pytest.approx(h1_norm(f, mu))
    labels = {
        NormSpec("lp", p=2.0): "lp[p=2]",
        NormSpec("lp", p=np.inf): "lp[p=inf]",
        NormSpec("weak_l1"): "weak_l1",
        NormSpec("bmo"): "bmo",
        NormSpec("bmo_osc"): "bmo_osc",
        NormSpec("lambda", q=2.0, alpha=0.5): "lambda[q=2,alpha=0.5]",
        NormSpec("lambda"): "lambda[q=2,alpha=0]",
        NormSpec("h1"): "h1",
    }
    for spec, label in labels.items():
        assert spec.label() == label
    with pytest.raises(NormError):
        NormSpec("nope")(f, mu)
