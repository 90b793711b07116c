"""Operator-norm estimation: exact L2 norms by power iteration on the sparse
Haar-domain matrix, dense SVD cross-checks, and certified lower bounds for
non-Hilbertian norm pairs via probe batteries and greedy ascent.  Its
`battery_maxima` is the one max-ratio fold, for the theorem suites too.

Every estimate carries a witness function; the reported value is always the
re-evaluated ratio of the witness, so estimates can be reproduced
independently of the search that found them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .martingale import (
    HaarSpectrum,
    StepFunction,
    _chunk_rows,
    analyze_rows,
    row_chunks,
    synthesize,
    synthesize_rows,
)
from .measure import MeasureTree
from .norms import NormSpec
from .shift import GeneralShift, haar_matrix
from .tree import Node, heap_levels


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


def svd_opnorm(T: GeneralShift, mu: MeasureTree | None = None) -> float:
    """Dense SVD oracle; intended for small depths only."""
    mat = haar_matrix(T, mu).toarray()
    return float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0


def l2_opnorm(T: GeneralShift, mu: MeasureTree, tol: float = 1e-10) -> OpNormEstimate:
    """Largest singular value of the Haar-domain matrix via power iteration
    on T*T, with a deterministic seeded start and an iteration cap of
    10 * 2**depth.  Non-convergence is flagged, never raised.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tolerance must be positive, got {tol}")
    mat = haar_matrix(T, mu)
    n = mat.shape[0]
    v = np.ones(n) + 0.01 * np.random.default_rng(0).standard_normal(n)
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


def _usable(denoms: np.ndarray) -> np.ndarray:
    """Indices of the denominators that are finite and positive."""
    return np.flatnonzero((denoms > 0.0) & np.isfinite(denoms))


def first_max(values: np.ndarray) -> int:
    """Index of the first maximum, where a NaN never wins: the element a
    running `if v > best` fold over `values` in order would end on."""
    return int(np.argmax(np.where(np.isnan(values), -np.inf, values)))


def _image_ratios(
    target: NormSpec, B: np.ndarray, rows, mu: MeasureTree, d: np.ndarray
) -> np.ndarray:
    """target(g) / d[rows] for the images g = synthesize_rows(0.0, B[rows],
    mu), the fold's and the ascent's one step; the rows B[rows] are freed
    once synthesized, before the images are evaluated."""
    return target.evaluate_rows(synthesize_rows(0.0, B[rows], mu), mu) / d[rows]


def _ratio_rows(
    T: GeneralShift, F: np.ndarray, mu: MeasureTree, from_norm: NormSpec, to_norm: NormSpec
) -> np.ndarray:
    """to_norm(T f) / from_norm(f) for every row f of a (P, 2**depth) array
    F; -inf where the denominator is not finite and positive."""
    denoms = from_norm.evaluate_rows(F, mu)
    ok = _usable(denoms)
    out = np.full(len(F), -np.inf)
    if ok.size:
        shifted = T.apply_rows(analyze_rows(F[ok], mu)[1])
        out[ok] = _image_ratios(to_norm, shifted, slice(None), mu, denoms[ok])
    return out


def _ratio(
    T: GeneralShift, f: StepFunction, mu: MeasureTree, from_norm: NormSpec, to_norm: NormSpec
) -> float:
    return float(_ratio_rows(T, f.values[None], mu, from_norm, to_norm)[0])


def battery_maxima(
    battery: dict[str, GeneralShift], mu: MeasureTree, chunks: Iterable, target: NormSpec
) -> dict[str, tuple[float, np.ndarray | None]]:
    """Per shift T of `battery`, the largest ratio target(T f) / denom over
    the rows f of the (F, denoms) `chunks` whose denominator is finite and
    positive, and the first row f that attains it; (-inf, None) where no
    ratio beats -inf.  A NaN ratio never wins.

    This fold alone decides which rows are evaluated.  Each chunk is
    analyzed once for all shifts.  Per shift, where the target has a
    certified bound on the shifted heaps (`NormSpec.upper_rows`), the row
    with the largest finite bound ratio is evaluated first and may raise the
    shift's maximum so far; then, in one batch, every row whose bound ratio
    is not below that maximum.  No other row is synthesized: rounding is
    monotone, so a skipped row's ratio is at most its bound ratio, strictly
    below a ratio already attained.  Without a bound every row is evaluated.
    So the maxima and rows are those of scoring every row in order."""
    best = dict.fromkeys(battery, (-np.inf, None))
    for F, denoms in chunks:
        ok = _usable(denoms)
        if not ok.size:
            continue
        _, coeffs = analyze_rows(F[ok], mu)
        d = denoms[ok]
        for name, T in battery.items():
            B = T.apply_rows(coeffs)
            upper = target.upper_rows(B, mu)
            bounds = np.full(len(B), np.inf) if upper is None else upper / d
            ratios, todo = np.full(len(B), -np.inf), np.ones(len(B), dtype=bool)
            bar = best[name][0]
            lead = first_max(np.where(np.isfinite(bounds), bounds, -np.inf))
            if np.isfinite(bounds[lead]):
                ratios[lead] = _image_ratios(target, B, [lead], mu, d)[0]
                todo[lead] = False
            todo &= ~(bounds < max(bar, ratios[lead]))  # a NaN ratio leaves the bar
            if todo.any():
                ratios[todo] = _image_ratios(target, B, todo, mu, d)
            del B  # free this shift's heaps before the next shift's are built
            i = first_max(ratios)
            if ratios[i] > bar:
                best[name] = (float(ratios[i]), F[ok[i]].copy())
    return best


def node_probe_rows(mu: MeasureTree, positions: np.ndarray) -> Iterator[np.ndarray]:
    """The probe battery on the nodes at heap `positions`, in (P, 2**depth)
    chunks of at most `_chunk_rows(depth)` rows: the Haar functions of the
    internal nodes, then, node by node, the indicator and the indicator
    recentred to zero mean (for source norms that kill constants).  The
    order decides which of two equal ratios comes first, and so where
    `opnorm_lower_bound`'s greedy ascent starts.

    A row is a fill (0, or minus the node's share of the mass) plus constant
    runs on the leaves of nodes, written by flat index: a Haar row has one
    run on each child, the others one on the node.  The values are those of
    `haar_function` and `StepFunction.indicator`, bit for bit."""
    n = 1 << mu.depth
    pos = np.asarray(positions, dtype=np.int64)
    q = pos[pos < n]
    c, mass = mu.haar_constant_heap[q], mu.mass_heap
    share = mass[pos] / mass[1]
    run_row = np.concatenate([np.repeat(np.arange(len(q)), 2), len(q) + np.arange(2 * len(pos))])
    run_node = np.concatenate([np.stack([2 * q, 2 * q + 1], 1).ravel(), np.repeat(pos, 2)])
    haar_val = np.stack([c / mass[2 * q], -c / mass[2 * q + 1]], 1).ravel()
    pair_val = np.stack([np.ones(len(pos)), 1.0 - share], 1).ravel()
    run_val = np.concatenate([haar_val, pair_val])
    level = heap_levels(run_node)
    run_len = n >> level
    run_lo = (run_node - (1 << level)) * run_len
    fill = np.zeros(len(q) + 2 * len(pos))
    fill[len(q) + 1 :: 2] = 0.0 - share  # not -share: +0.0 where the share underflows
    for chunk in row_chunks(len(fill), mu.depth):
        out = np.repeat(fill[chunk, None], n, axis=1)
        runs = slice(*np.searchsorted(run_row, (chunk.start, chunk.stop)))
        lens = run_len[runs]
        first = (run_row[runs] - chunk.start) * n + run_lo[runs]
        flat = np.repeat(first - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        out.reshape(-1)[flat] = np.repeat(run_val[runs], lens)
        yield out


def opnorm_lower_bound(
    T: GeneralShift,
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
    monotone in the budget.  Degenerate probes (a source norm that is 0 or
    not finite) are skipped.

    Everything is scored in batches of at most `martingale.CHUNK_BYTES`,
    with the values and witness of scoring one probe at a time.  The node
    probes are a one-shift `battery_maxima` fold, which skips the rows
    certified to lie below the maximum so far.  The random starts of a chunk
    of trials are scored together, and then each trial's ascent runs in
    trial order.  An ascent draws its step moves (leaf, then step size) from
    its generator whether or not a move is accepted, and scoring draws
    nothing, so all moves are drawn up front: the generator stream is that
    of the one-at-a-time loop.  The remaining moves from the current
    function are scored as one batch (a chunk at a time), the first that
    beats it is accepted, and the batch is rebuilt from the move after it:
    one batch per accepted move, plus one.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if ascent_steps < 0:
        raise ValueError(f"ascent_steps must be >= 0, got {ascent_steps}")
    n = 1 << mu.depth
    probes = node_probe_rows(mu, np.arange(1, 2 << mu.depth))
    chunks = ((F, from_norm.evaluate_rows(F, mu)) for F in probes)
    best_val, best_row = battery_maxima({"T": T}, mu, chunks, to_norm)["T"]
    best_f = None if best_row is None else StepFunction(mu.depth, best_row)

    def ascend(f: StepFunction, val: float, rng: np.random.Generator):
        scale = max(float(np.max(np.abs(f.values))), 1.0)
        leaves, steps = [], []
        for _ in range(ascent_steps):
            leaves.append(int(rng.integers(n)))
            steps.append(scale * rng.choice([-0.5, -0.1, 0.1, 0.5]))
        start = 0
        while start < ascent_steps:
            stop = min(ascent_steps, start + _chunk_rows(mu.depth))
            cands = np.tile(f.values, (stop - start, 1))
            cands[np.arange(stop - start), leaves[start:stop]] += steps[start:stop]
            cand_vals = _ratio_rows(T, cands, mu, from_norm, to_norm)
            better = np.flatnonzero(cand_vals > val)
            if better.size:
                k = int(better[0])
                f, val = StepFunction(mu.depth, cands[k].copy()), float(cand_vals[k])
                start += k + 1
            else:
                start = stop
        return f, val

    # one ascent from the best deterministic probe; its start and seed do
    # not depend on the budget, so monotonicity in the budget is preserved
    if best_f is not None and np.isfinite(best_val):
        f, val = ascend(best_f, best_val, np.random.default_rng([seed, 999_983]))
        if val > best_val:
            best_val, best_f = val, f

    for chunk in row_chunks(budget, mu.depth):
        rngs = [np.random.default_rng([seed, trial]) for trial in range(budget)[chunk]]
        starts = np.stack([rng.standard_normal(n) for rng in rngs])
        vals = _ratio_rows(T, starts, mu, from_norm, to_norm)
        for rng, values, val in zip(rngs, starts, vals.tolist()):
            f = StepFunction(mu.depth, values)
            if np.isfinite(val):
                f, val = ascend(f, val, rng)
            if val > best_val:
                best_val, best_f = val, f

    if best_f is None:
        best_f = StepFunction.indicator(mu.tree, Node(0, 0))
    value = _ratio(T, best_f, mu, from_norm, to_norm)
    return OpNormEstimate(
        from_norm=from_norm.label(),
        to_norm=to_norm.label(),
        lower_bound=value,
        witness=best_f,
        iterations=budget,
        converged=True,
    )
