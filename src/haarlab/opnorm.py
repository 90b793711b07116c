"""Operator-norm estimation: exact L2 norms by power iteration on the sparse
Haar-domain matrix, dense SVD cross-checks, and certified lower bounds for
non-Hilbertian norm pairs via probe batteries and greedy ascent.

Every estimate carries a witness function; the reported value is always the
re-evaluated ratio of the witness, so estimates can be reproduced
independently of the search that found them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.linalg

from .martingale import HaarSpectrum, StepFunction, haar_function, synthesize
from .measure import MeasureTree
from .norms import NormSpec
from .shift import Shift, apply_shift, haar_matrix
from .tree import Node


@dataclass(frozen=True)
class OpNormEstimate:
    from_norm: str
    to_norm: str
    lower_bound: float
    witness: StepFunction
    iterations: int
    converged: bool

    def __float__(self) -> float:
        return self.lower_bound


def dense_haar_matrix(T: Shift, mu: MeasureTree | None = None) -> np.ndarray:
    return haar_matrix(T, mu).toarray()


def svd_opnorm(T: Shift, mu: MeasureTree | None = None) -> float:
    """Dense SVD oracle; intended for small depths only."""
    mat = dense_haar_matrix(T, mu)
    return float(scipy.linalg.svdvals(mat)[0]) if mat.size else 0.0


def l2_opnorm(
    T: Shift, mu: MeasureTree, tol: float = 1e-10, seed: int = 0
) -> OpNormEstimate:
    """Largest singular value of the Haar-domain matrix via power iteration
    on T*T, with a deterministic seeded start and an iteration cap of
    10 * 2**depth.  Non-convergence is flagged, never raised.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    mat = haar_matrix(T, mu)
    n = mat.shape[0]
    rng = np.random.default_rng(seed)
    v = np.ones(n) + 0.01 * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    cap = 10 * (1 << T.depth)
    sigma_old = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, cap + 1):
        w = mat.T @ (mat @ v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            sigma_old = 0.0
            converged = True
            break
        v = w / lam
        sigma = np.sqrt(lam)
        if abs(sigma - sigma_old) <= tol * max(sigma, 1.0):
            sigma_old = sigma
            converged = True
            break
        sigma_old = sigma

    coeffs = np.zeros(1 << T.depth)
    if sigma_old == 0.0 or not np.isfinite(sigma_old):
        coeffs[1] = 1.0  # any unit vector certifies a zero operator
    else:
        coeffs[1:] = v
    witness = synthesize(HaarSpectrum(T.depth, 0.0, coeffs), mu)
    value = _ratio(T, witness, mu, NormSpec("lp", p=2), NormSpec("lp", p=2))
    return OpNormEstimate(
        from_norm="lp[p=2]",
        to_norm="lp[p=2]",
        lower_bound=value,
        witness=witness,
        iterations=iterations,
        converged=converged,
    )


def _ratio(
    T: Shift, f: StepFunction, mu: MeasureTree, from_norm: NormSpec, to_norm: NormSpec
) -> float:
    denom = from_norm(f, mu)
    if denom == 0.0 or not np.isfinite(denom):
        return -np.inf
    return to_norm(apply_shift(T, f, mu), mu) / denom


def node_probes(mu: MeasureTree, nodes: Iterable[Node]) -> Iterator[StepFunction]:
    """The probe battery on `nodes`: first the Haar functions of the internal
    ones, then, node by node, the indicator and the indicator recentred to
    zero mean (for source norms that kill constants).

    The order decides which of two equal ratios comes first, and so where
    `opnorm_lower_bound`'s greedy ascent starts.
    """
    nodes = list(nodes)
    for node in nodes:
        if node.level < mu.depth:
            yield haar_function(mu, node)
    total = mu.total_mass
    for node in nodes:
        ind = StepFunction.indicator(mu.tree, node)
        yield ind
        yield ind - StepFunction.constant(mu.depth, mu.mass(node) / total)


def opnorm_lower_bound(
    T: Shift,
    mu: MeasureTree,
    from_norm: NormSpec,
    to_norm: NormSpec,
    budget: int = 50,
    seed: int = 0,
    ascent_steps: int = 20,
) -> OpNormEstimate:
    """Certified lower bound for ||T||_{from -> to} over a probe battery.

    Probes: all Haar functions, all node indicators (raw and recentred to
    zero mean), then `budget` seeded random trials each followed by a short
    greedy single-leaf ascent.  Trial t draws its own generator from
    (seed, t), so enlarging the budget only appends probes and the bound is
    monotone in the budget.  Degenerate probes (zero source norm) are
    skipped.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n = 1 << mu.depth
    best_val, best_f = -np.inf, None
    for f in node_probes(mu, mu.tree.nodes()):
        val = _ratio(T, f, mu, from_norm, to_norm)
        if val > best_val:
            best_val, best_f = val, f

    def ascend(f: StepFunction, val: float, rng: np.random.Generator):
        scale = max(float(np.max(np.abs(f.values))), 1.0)
        for _ in range(ascent_steps):
            leaf = int(rng.integers(n))
            eps = scale * rng.choice([-0.5, -0.1, 0.1, 0.5])
            vals = f.values.copy()
            vals[leaf] += eps
            cand = StepFunction(mu.depth, vals)
            cand_val = _ratio(T, cand, mu, from_norm, to_norm)
            if cand_val > val:
                f, val = cand, cand_val
        return f, val

    # one ascent from the best deterministic probe; its start and seed do
    # not depend on the budget, so monotonicity in the budget is preserved
    if best_f is not None and np.isfinite(best_val):
        f, val = ascend(best_f, best_val, np.random.default_rng([seed, 999_983]))
        if val > best_val:
            best_val, best_f = val, f

    for trial in range(budget):
        rng = np.random.default_rng([seed, trial])
        f = StepFunction(mu.depth, rng.standard_normal(n))
        val = _ratio(T, f, mu, from_norm, to_norm)
        if np.isfinite(val):
            f, val = ascend(f, val, rng)
        if val > best_val:
            best_val, best_f = val, f

    if best_f is None:
        best_f = StepFunction.indicator(mu.tree, Node(0, 0))
        best_val = _ratio(T, best_f, mu, from_norm, to_norm)
    value = _ratio(T, best_f, mu, from_norm, to_norm)
    return OpNormEstimate(
        from_norm=from_norm.label(),
        to_norm=to_norm.label(),
        lower_bound=value,
        witness=best_f,
        iterations=budget,
        converged=True,
    )
