"""The full invariant battery behind the `verify` command.

Each check returns a (name, passed, detail) record; the battery is a pure
function of (depth, trials, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .martingale import (
    StepFunction,
    analyze,
    haar_basis_matrix,
    square_function,
    square_function_martingale,
    synthesize,
)
from .measure import MeasureTree, random_doubling
from .norms import (
    haar_lambda2_norm,
    inner_product,
    lambda_rows,
    lp_norm,
    sibling_slacks,
)
from .opnorm import l2_opnorm
from .shift import apply_shift, petermichl
from .studies import helpers, theorem_suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# dense Gram checks are quadratic in 2**depth; cap how many measures get one
GRAM_BUDGET = 40


def _battery(depth: int, trials: int, seed: int) -> list[tuple[MeasureTree, np.random.Generator]]:
    """Deterministic (measure, generator) pairs at depths 2..depth; each
    generator has drawn its measure's depth and nothing else."""
    battery = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d = int(rng.integers(2, depth + 1))
        wide = t % 3 == 0  # every third measure is strongly lopsided
        p_lo, p_hi = (0.05, 0.95) if wide else (0.25, 0.75)
        mu = random_doubling(d, seed=seed * 100_003 + t, p_min=p_lo, p_max=p_hi)
        battery.append((mu, rng))
    return battery


def _gram_deviations(measures: list[MeasureTree]) -> list[tuple[float, float]]:
    """(max |Gram - I|, max scaled mean) of the Haar basis of each measure.

    It calls numpy and `haar_basis_matrix` only, so it may run on a helper
    thread.  Each Gram matrix is one (H m) H^T product, with H m filled on
    the supports: bit for bit `H * mu.leaf_masses`."""
    devs = []
    for mu in measures:
        n = 1 << mu.depth
        H = haar_basis_matrix(mu)
        gram = haar_basis_matrix(mu, mu.leaf_masses) @ H.T
        gram.flat[::n] -= 1.0  # the diagonal of the (n - 1) x (n - 1) Gram matrix
        worst_gram = float(np.max(np.abs(gram, out=gram)))
        del gram
        means = H @ mu.leaf_masses
        # sup |h_I| = c_I / m(I), the row maxima of |H|, bit for bit
        scale = mu.haar_constant_heap[1:] / mu.min_child_heap[1:] * mu.total_mass
        devs.append((worst_gram, float(np.max(np.abs(means) / scale))))
    return devs


def check_basis(
    pairs: list[tuple[MeasureTree, StepFunction]],
    gram_deviations: Callable[[], list[tuple[float, float]]],
) -> list[CheckResult]:
    """Parseval and the round trip on every (measure, function) pair, then
    the `_gram_deviations` of the first GRAM_BUDGET measures, which the call
    `gram_deviations()` returns in any order: each is folded by a max over
    finite values, which the order does not change."""
    worst_gram = worst_pars = worst_round = worst_mean = 0.0
    for mu, f in pairs:
        spec = analyze(f, mu)
        l2sq = lp_norm(f, mu, 2.0) ** 2
        pars = spec.mean**2 * mu.total_mass + float(np.sum(spec.coeffs[1:] ** 2))
        worst_pars = max(worst_pars, abs(pars - l2sq) / l2sq)
        g = synthesize(spec, mu)
        worst_round = max(
            worst_round,
            float(np.max(np.abs(g.values - f.values)) / np.max(np.abs(f.values))),
        )
    for gram, mean in gram_deviations():
        worst_gram = max(worst_gram, gram)
        worst_mean = max(worst_mean, mean)
    return [
        CheckResult("orthonormality", worst_gram <= 1e-9, f"max |Gram - I| = {worst_gram:.3e}"),
        CheckResult("haar_mean_zero", worst_mean <= 1e-12, f"max scaled mean = {worst_mean:.3e}"),
        CheckResult("parseval", worst_pars <= 1e-9, f"max rel err = {worst_pars:.3e}"),
        CheckResult("roundtrip", worst_round <= 1e-9, f"max rel err = {worst_round:.3e}"),
    ]


def check_sandwich(pairs: list[tuple[MeasureTree, StepFunction]]) -> CheckResult:
    ok = True
    worst = ""
    for mu, _ in pairs:
        rep = mu.balanced_constant()
        root_b = np.sqrt(rep.balanced_constant)
        if not (root_b * (1 - 1e-12) <= rep.bal_form_constant <= 4 * root_b * (1 + 1e-12)):
            ok = False
            worst = f"B={rep.balanced_constant:.4g} form={rep.bal_form_constant:.4g}"
            break
    return CheckResult("balance_sandwich", ok, worst or "sqrt(B) <= form <= 4 sqrt(B)")


def check_sibling(pairs: list[tuple[MeasureTree, StepFunction]]) -> CheckResult:
    count = 0
    for mu, f in pairs:
        slack = sibling_slacks(f, mu)
        bad = np.flatnonzero(~(slack[1:] >= 0.0))  # NaN is a violation too
        if bad.size:
            p = int(bad[0]) + 1
            return CheckResult(
                "sibling_lemma",
                False,
                f"violated at {mu.tree.node_at(p)}, slack {slack[p]:.3e}",
            )
        count += mu.tree.n_internal
    return CheckResult("sibling_lemma", True, f"{count} trials, no violation")


def check_square_function(pairs: list[tuple[MeasureTree, StepFunction]]) -> CheckResult:
    worst = 0.0
    for mu, f in pairs:
        a = square_function(f, mu).values
        b = square_function_martingale(f, mu).values
        scale = max(float(np.max(a)), 1e-300)
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return CheckResult("square_function_two_forms", worst <= 1e-9, f"max rel err = {worst:.3e}")


def check_petermichl_norm(depth: int, trials: int, seed: int) -> CheckResult:
    worst = 0.0
    n_done = 0
    for mu, _ in _battery(depth, max(trials // 10, 5), seed + 1):
        est = l2_opnorm(petermichl(mu.depth), mu, tol=1e-10)
        worst = max(worst, abs(est.lower_bound - np.sqrt(2.0)))
        n_done += 1
    return CheckResult(
        "petermichl_sqrt2", worst <= 1e-6, f"{n_done} measures, max dev = {worst:.3e}"
    )


def check_lambda_closed_form(depth: int, trials: int, seed: int) -> CheckResult:
    worst = 0.0
    for mu, rng in _battery(min(depth, 7), max(trials // 10, 5), seed + 2):
        alpha = float(rng.uniform(0.0, 1.0))
        # one batch over the Haar functions, in heap order; each row gets
        # the value of its one-function lambda_norm
        enums, _ = lambda_rows(haar_basis_matrix(mu), mu, 2.0, alpha)
        for node, enum in zip(mu.tree.internal_nodes(), enums.tolist(), strict=True):
            closed = haar_lambda2_norm(mu, node, alpha)
            worst = max(worst, abs(closed - enum) / closed)
    return CheckResult("lambda_closed_form", worst <= 1e-9, f"max rel err = {worst:.3e}")


def check_adjoint_pairing(depth: int, trials: int, seed: int) -> CheckResult:
    worst = 0.0
    for mu, rng in _battery(depth, max(trials // 10, 5), seed + 3):
        T = petermichl(mu.depth)
        Tadj = T.adjoint()
        n = 1 << mu.depth
        f = StepFunction(mu.depth, rng.standard_normal(n))
        g = StepFunction(mu.depth, rng.standard_normal(n))
        lhs = inner_product(apply_shift(T, f, mu), g, mu)
        rhs = inner_product(f, apply_shift(Tadj, g, mu), mu)
        scale = max(lp_norm(f, mu, 2.0) * lp_norm(g, mu, 2.0), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return CheckResult("adjoint_pairing", worst <= 1e-9, f"max rel err = {worst:.3e}")


def check_theorem_suites(depth: int, seed: int) -> CheckResult:
    """Quick stagnation check on the even-split family at two depths."""
    lo = min(4, depth)
    hi = min(max(6, depth - 2), 8)
    if hi <= lo:
        hi = lo + 1
    rows = theorem_suite(
        "BMOtoBMO", [{"kind": "lebesgue"}], [lo, hi], seed=seed, n_random=6
    )
    by_depth = {r.depth: max(r.estimates.values()) for r in rows}
    ok = by_depth[hi] <= 1.25 * by_depth[lo]
    return CheckResult(
        "theorem_suite_stagnation",
        ok,
        f"max ratio {by_depth[lo]:.4g} @ depth {lo} vs {by_depth[hi]:.4g} @ depth {hi}",
    )


def run_verification(depth: int = 8, trials: int = 100, seed: int = 7) -> list[CheckResult]:
    """Every check; the basis, sandwich, sibling and square-function checks
    share the measures of one `_battery(depth, trials, seed)`, each with one
    function, the first standard-normal draw of its generator.

    The Gram lane: the dense Gram products of the deepest of the first
    GRAM_BUDGET measures run one at a time on a helper thread, at any CPU
    count, where BLAS releases the interpreter lock, while this thread runs
    every other check and then the shallower measures' products."""
    if depth < 2:
        raise ValueError(f"verification needs depth >= 2, got {depth}")
    if trials < 1:
        raise ValueError(f"verification needs trials >= 1, got {trials}")
    pairs = [
        (mu, StepFunction(mu.depth, rng.standard_normal(1 << mu.depth)))
        for mu, rng in _battery(depth, trials, seed)
    ]
    measures = [mu for mu, _ in pairs[:GRAM_BUDGET]]
    deepest = max(mu.depth for mu in measures)
    shallow = [mu for mu in measures if mu.depth < deepest]
    with helpers() as start:
        lane = start(_gram_deviations, [mu for mu in measures if mu.depth == deepest])
        others = [
            check_sandwich(pairs),
            check_sibling(pairs),
            check_square_function(pairs),
            check_petermichl_norm(depth, trials, seed),
            check_lambda_closed_form(depth, trials, seed),
            check_adjoint_pairing(depth, trials, seed),
            check_theorem_suites(depth, seed),
        ]
        basis = check_basis(pairs, lambda: _gram_deviations(shallow) + lane())
    return basis + others
