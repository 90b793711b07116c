"""Operator-norm estimation: power iteration, SVD oracle, probe lower bounds."""

import numpy as np
import pytest

from haarlab import opnorm
from haarlab.martingale import StepFunction, haar_function
from haarlab.measure import lebesgue, random_doubling
from haarlab.norms import NormSpec, lp_norm
from haarlab.opnorm import (
    dense_haar_matrix,
    l2_opnorm,
    opnorm_lower_bound,
    svd_opnorm,
)
from haarlab.shift import GeneralShift, ShiftShape, apply_shift, petermichl
from haarlab.tree import Node


@pytest.fixture
def mu():
    return random_doubling(4, seed=29, p_min=0.1, p_max=0.9)


def test_petermichl_l2_norm(mu):
    T = petermichl(mu.depth)
    est = l2_opnorm(T, mu, tol=1e-10)
    assert est.converged
    assert est.lower_bound == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert svd_opnorm(T, mu) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_l2_norm_measure_independent(mu):
    # the Haar-domain matrix ignores the measure entirely
    T = petermichl(4)
    a = svd_opnorm(T, mu)
    b = svd_opnorm(T, lebesgue(4))
    assert a == pytest.approx(b, rel=1e-12)


def test_witness_reproduces_value(mu):
    T = petermichl(mu.depth)
    est = l2_opnorm(T, mu, tol=1e-10)
    w = est.witness
    ratio = lp_norm(apply_shift(T, w, mu), mu, 2.0) / lp_norm(w, mu, 2.0)
    assert ratio == pytest.approx(est.lower_bound, rel=1e-12)
    assert float(est) == est.lower_bound


def test_zero_shift(mu):
    T = GeneralShift(mu.depth, ShiftShape(0, 0), [])
    est = l2_opnorm(T, mu)
    assert est.lower_bound == 0.0
    assert svd_opnorm(T, mu) == 0.0


def test_l2_opnorm_validation(mu):
    with pytest.raises(ValueError):
        l2_opnorm(petermichl(mu.depth), mu, tol=0.0)


def test_dense_matrix_shape(mu):
    mat = dense_haar_matrix(petermichl(mu.depth), mu)
    n = (1 << mu.depth) - 1
    assert mat.shape == (n, n)


def test_lower_bound_never_exceeds_l2_truth(mu):
    T = petermichl(mu.depth)
    l2 = NormSpec("lp", p=2.0)
    est = opnorm_lower_bound(T, mu, l2, l2, budget=10, seed=0)
    assert est.lower_bound <= svd_opnorm(T, mu) * (1 + 1e-9)
    assert est.lower_bound > 1.0  # probes find a nontrivial certificate


def test_lower_bound_monotone_in_budget(mu):
    T = petermichl(mu.depth)
    from_n = NormSpec("lp", p=np.inf)
    to_n = NormSpec("bmo")
    small = opnorm_lower_bound(T, mu, from_n, to_n, budget=5, seed=1)
    large = opnorm_lower_bound(T, mu, from_n, to_n, budget=25, seed=1)
    assert large.lower_bound >= small.lower_bound - 1e-12


def test_lower_bound_witness_certifies(mu):
    T = petermichl(mu.depth)
    from_n = NormSpec("bmo")
    to_n = NormSpec("bmo")
    est = opnorm_lower_bound(T, mu, from_n, to_n, budget=5, seed=2)
    w = est.witness
    ratio = to_n(apply_shift(T, w, mu), mu) / from_n(w, mu)
    assert ratio == pytest.approx(est.lower_bound, rel=1e-12)


def test_lower_bound_validation(mu):
    T = petermichl(mu.depth)
    l2 = NormSpec("lp", p=2.0)
    with pytest.raises(ValueError):
        opnorm_lower_bound(T, mu, l2, l2, budget=0)


def test_deterministic_probe_order(monkeypatch):
    # the order decides which of two equal ratios wins and so where the
    # greedy ascent starts: Haar functions in heap order, then for every
    # node in heap order its indicator and the recentred indicator
    mu = random_doubling(3, seed=5)
    seen = []
    ratio = opnorm._ratio

    def spy(T, f, mu_, from_norm, to_norm):
        seen.append(f.values.copy())
        return ratio(T, f, mu_, from_norm, to_norm)

    monkeypatch.setattr(opnorm, "_ratio", spy)
    l2 = NormSpec("lp", p=2.0)
    opnorm_lower_bound(petermichl(3), mu, l2, l2, budget=1, ascent_steps=0)
    n, tree = 1 << mu.depth, mu.tree
    for p in range(1, n):
        assert np.array_equal(seen[p - 1], haar_function(mu, tree.node_at(p)).values)
    for p in range(1, 2 * n):
        node = tree.node_at(p)
        ind = StepFunction.indicator(tree, node)
        centred = ind - StepFunction.constant(mu.depth, mu.mass(node) / mu.total_mass)
        assert np.array_equal(seen[n - 1 + 2 * (p - 1)], ind.values)
        assert np.array_equal(seen[n + 2 * (p - 1)], centred.values)
