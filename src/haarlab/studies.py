"""Verification studies: blowup of Lipschitz ratios on unbalanced measures
and bounded-ratio batteries for the boundedness results on balanced ones.

Studies are pure functions of (config, seed): per-trial randomness derives
from the seed plus trial index, so results are reproducible bit for bit.
"""

from __future__ import annotations

import contextvars
import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import AtomicBlock, haar_block, random_block, validate_block
from .martingale import analyze_rows, first_max, haar_function, row_chunks, synthesize_rows
from .measure import MeasureTree, generate
from .norms import NormSpec, contending_ratios, haar_lambda2_norm, lambda_norm
from .opnorm import node_probe_rows
from .shift import CanonicalShift, GeneralShift, apply_shift, petermichl
from .tree import Node


@dataclass(frozen=True)
class StudyRow:
    family: str
    depth: int
    seed: int
    balanced_constant: float
    estimates: dict[str, float] = field(default_factory=dict)


def build_measure(family: dict, depth: int, seed: int) -> MeasureTree:
    params = {k: v for k, v in family.items() if k != "kind"}
    return generate(family["kind"], depth, seed=seed, **params)


def family_label(family: dict) -> str:
    parts = [family["kind"]]
    for k in sorted(family):
        if k != "kind":
            parts.append(f"{k}={family[k]:g}" if isinstance(family[k], float) else f"{k}={family[k]}")
    return ",".join(parts)


# --- blowup study --------------------------------------------------------


def unbalanced_branch_node(depth: int, level: int | None = None) -> Node:
    """The leftmost node at the requested level (default: depth - 2), the
    distinguished branch of the geometric_unbalanced family."""
    if level is None:
        level = depth - 2
    return Node(level, 0)


def predicted_blowup_ratio(mu: MeasureTree, node: Node, alpha: float) -> float:
    """Closed-form lower bound for the Lipschitz ratio of the dyadic Hilbert
    transform at h_I: the image contains h_{I-} with disjointly supported
    remainder, so the ratio is at least ||h_{I-}|| / ||h_I||."""
    left, _ = mu.tree.children(node)
    return haar_lambda2_norm(mu, left, alpha) / haar_lambda2_norm(mu, node, alpha)


def blowup_study(
    family: dict, alpha: float, depths: list[int], seed: int = 0
) -> list[StudyRow]:
    """Lipschitz ratio of the dyadic Hilbert transform along the distinguished
    branch, per depth, for the given measure family."""
    if not depths or any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError("depths must be nonempty and strictly increasing")
    rows = []
    for depth in depths:
        mu = build_measure(family, depth, seed)
        node = unbalanced_branch_node(depth)
        h = haar_function(mu, node)
        th = apply_shift(petermichl(depth), h, mu)
        ests = {}
        for a in (alpha, 0.0):
            ratio = lambda_norm(th, mu, 2.0, a).value / lambda_norm(h, mu, 2.0, a).value
            ests[f"petermichl|{NormSpec('lambda', q=2.0, alpha=a).label()}"] = ratio
        ests["predicted_lower_bound"] = predicted_blowup_ratio(mu, node, alpha)
        rows.append(
            StudyRow(
                family=family_label(family),
                depth=depth,
                seed=seed,
                balanced_constant=mu.balanced_constant().balanced_constant,
                estimates=ests,
            )
        )
    return rows


# --- theorem suites ------------------------------------------------------

# The one table of boundedness suites: name -> (source norm, target norm).
# A source of None means the inputs are atomic blocks and the denominator is
# the block cost (the H1 suites).  The suite's alpha parametrises every norm
# of the pair that takes it; the Lambda exponent q stays NormSpec's 2.
SUITES: dict[str, tuple[NormSpec | None, NormSpec]] = {
    "LInfBMO": (NormSpec("lp", p=np.inf), NormSpec("bmo")),
    "BMOtoBMO": (NormSpec("bmo"), NormSpec("bmo")),
    "H1L1": (None, NormSpec("lp", p=1.0)),
    "H1H1": (None, NormSpec("h1")),
    "TheoremB": (NormSpec("lambda"), NormSpec("lambda")),
}
THEOREM_NAMES = tuple(SUITES)


def default_shift_battery(depth: int) -> dict[str, GeneralShift]:
    """The shifts exercised by the boundedness suites: the dyadic Hilbert
    transform, its adjoint, and canonical shifts of complexity <= 2 with
    coefficients identically +1 or -1 on every node whose selected
    descendants sit above the leaves."""
    hilbert = petermichl(depth)
    battery = {"petermichl": hilbert, "petermichl_adj": hilbert.adjoint()}
    for m, s_sel, n, t_sel, a in [
        (1, 0, 0, 0, 1.0),
        (0, 0, 1, 1, -1.0),
        (2, 1, 1, 0, 1.0),
    ]:
        name = f"canonical[m={m},s={s_sel},n={n},t={t_sel},a={a:+g}]"
        q = np.arange(1, 1 << max(depth - max(m, n), 0))
        battery[name] = CanonicalShift.from_heap(depth, m, s_sel, n, t_sel, q, np.full(len(q), a))
    return battery


# deep nodes sampled per probe or block battery, and random blocks per battery
DEEP_NODE_SAMPLE = 48
N_RANDOM_BLOCKS = 10


def _sampled_nodes(mu: MeasureTree, rng: np.random.Generator) -> np.ndarray:
    """Heap positions of all shallow nodes plus a seeded sample of deeper
    ones.  The deep nodes are drawn by index: the i-th deep node, in
    level-then-index order, sits at heap position 2**(shallow_max + 1) + i."""
    shallow_max = min(4, mu.depth)
    first_deep = 2 << shallow_max
    positions = np.arange(1, first_deep)
    n_deep = (2 << mu.depth) - first_deep
    if n_deep:
        picks = rng.choice(n_deep, size=min(DEEP_NODE_SAMPLE, n_deep), replace=False)
        positions = np.concatenate([positions, first_deep + np.sort(picks)])
    return positions


def probe_battery(mu: MeasureTree, seed: int, n_random: int = 12) -> np.ndarray:
    """The probes as one (P, 2**depth) array: the `node_probe_rows` of the
    sampled nodes (Haar functions, then indicators raw and recentred), then
    n_random pairs of random rows, a standard normal and a random sign."""
    if n_random < 0:
        raise ValueError(f"n_random must be >= 0, got {n_random}")
    rng = np.random.default_rng([seed, mu.depth])
    rows = list(node_probe_rows(mu, _sampled_nodes(mu, rng)))
    n = 1 << mu.depth
    for t in range(n_random):
        trng = np.random.default_rng([seed, mu.depth, t])
        rows.append(np.stack([trng.standard_normal(n), trng.choice([-1.0, 1.0], size=n)]))
    return np.concatenate(rows)


def block_battery(mu: MeasureTree, seed: int) -> list[AtomicBlock]:
    """Canonical Haar blocks plus random validated multi-subatom blocks."""
    rng = np.random.default_rng([seed, mu.depth, 7])
    blocks = [
        haar_block(mu, mu.tree.node_at(int(p)))
        for p in _sampled_nodes(mu, rng)
        if p < 1 << mu.depth
    ]
    for t in range(N_RANDOM_BLOCKS):
        trng = np.random.default_rng([seed, mu.depth, 7, t])
        base = int(trng.integers(0, mu.depth))
        b = random_block(mu, base, int(trng.integers(2, 6)), trng)
        if validate_block(b, mu).valid:
            blocks.append(b)
    return blocks


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _suite_maxima(
    battery: dict[str, GeneralShift],
    mu: MeasureTree,
    inputs: np.ndarray,
    denoms: np.ndarray,
    target: NormSpec,
) -> dict[str, float]:
    """Max ratio per shift of target(T f) / denom over the rows f of
    `inputs`, skipping denominators that are not finite and positive; -inf
    where none is.  Chunk by chunk, the spectra are shared across shifts,
    and the target is evaluated only on the images that can still beat the
    running maximum (`norms.contending_ratios`): every skipped image is
    certified not to raise it, so the maxima are those of evaluating all.

    A shift's running maximum depends on no other shift, so the shifts are
    split over one worker per usable CPU (at most one per shift).  The
    calling thread is worker 0 and helper threads run the others; each
    worker walks every chunk in order and computes its spectra itself, so
    each shift's fold, and its maximum, is the one-worker fold.  The numpy
    and scipy kernels release the interpreter lock, so the workers overlap."""
    rows = np.flatnonzero((denoms > 0.0) & np.isfinite(denoms))

    def fold(share: list[str]) -> dict[str, float]:
        best = dict.fromkeys(share, -np.inf)
        for chunk in row_chunks(len(rows), mu.depth):
            picked = rows[chunk]
            _, coeffs = analyze_rows(inputs[picked], mu)
            for shift_name in share:
                images = synthesize_rows(0.0, battery[shift_name].apply_rows(coeffs), mu)
                ratios = contending_ratios(target, images, mu, denoms[picked], best[shift_name])
                i = first_max(ratios)
                if ratios[i] > best[shift_name]:
                    best[shift_name] = float(ratios[i])
        return best

    names = list(battery)
    workers = max(1, min(len(names), _usable_cpus()))
    shares = [names[w::workers] for w in range(workers)]
    # a pool with no task starts no thread: one worker runs inline.  Each
    # helper runs in a copy of the caller's context, which holds numpy's
    # floating-point error state.
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        helpers = [pool.submit(contextvars.copy_context().run, fold, share) for share in shares[1:]]
        best = fold(shares[0])
        for helper in helpers:
            best.update(helper.result())
    return {shift_name: best[shift_name] for shift_name in names}


def theorem_suite(
    name: str,
    families: list[dict],
    depths: list[int],
    seed: int = 0,
    alpha: float = 0.5,
    n_random: int = 12,
) -> list[StudyRow]:
    """Maximum probed ratio per (family, depth, shift) for one boundedness
    suite, over `default_shift_battery`; `alpha` is the Lipschitz order of
    the Lambda_2 suites.  Bounded behavior shows up as a stagnating max
    across depths; blowup families show monotone growth instead."""
    if name not in SUITES:
        raise ValueError(f"unknown theorem suite {name!r}; choose from {THEOREM_NAMES}")
    if n_random < 0:
        raise ValueError(f"n_random must be >= 0, got {n_random}")
    source, target = (
        None if spec is None else replace(spec, alpha=alpha) for spec in SUITES[name]
    )
    rows = []
    for family in families:
        for depth in depths:
            mu = build_measure(family, depth, seed)
            if source is None:
                blocks = block_battery(mu, seed)
                inputs = np.stack([b.function(depth).values for b in blocks])
                denoms = np.array([b.cost for b in blocks])
            else:
                inputs = probe_battery(mu, seed, n_random=n_random)
                denoms = np.concatenate([
                    source.evaluate_rows(inputs[chunk], mu)
                    for chunk in row_chunks(len(inputs), depth)
                ])
            maxima = _suite_maxima(default_shift_battery(depth), mu, inputs, denoms, target)
            ests = {f"{shift_name}|{name}": v for shift_name, v in maxima.items()}
            rows.append(
                StudyRow(
                    family=family_label(family),
                    depth=depth,
                    seed=seed,
                    balanced_constant=mu.balanced_constant().balanced_constant,
                    estimates=ests,
                )
            )
    return rows


# --- CSV output ----------------------------------------------------------

CSV_COLUMNS = [
    "family",
    "depth",
    "seed",
    "balanced_constant",
    "norm_pair",
    "estimate",
    "witness_file",
]


def rows_to_csv(rows: list[StudyRow]) -> str:
    """Canonical CSV: sorted by (family, depth, norm pair), repeatable byte
    for byte for a fixed config and seed."""
    flat = []
    for row in rows:
        for pair, est in row.estimates.items():
            flat.append(
                (row.family, row.depth, row.seed, row.balanced_constant, pair, est)
            )
    flat.sort(key=lambda t: (t[0], t[1], t[4]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for family, depth, seed, b, pair, est in flat:
        writer.writerow([family, depth, seed, repr(b), pair, repr(est), ""])
    return buf.getvalue()
