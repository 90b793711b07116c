"""Verification studies: blowup of Lipschitz ratios on unbalanced measures
and bounded-ratio batteries for the boundedness results on balanced ones.

Studies are pure functions of (config, seed): per-trial randomness derives
from the seed plus trial index, so results are reproducible bit for bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import io
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .atomic import AtomicBlock, haar_block, random_block, validate_block
from .martingale import haar_function, row_chunks
from .measure import MeasureTree, generate
from .norms import NormSpec, check_lambda_range, haar_lambda2_norm, lambda_norm
from .opnorm import battery_maxima, node_probe_rows
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
        check_lambda_range(mu, 2.0, alpha)
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
# the block cost (the H1 suites).  The suite's alpha parametrises the norms
# of the pair that take it; the Lambda exponent q stays NormSpec's 2.
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


@contextlib.contextmanager
def helpers() -> Iterator[Callable]:
    """`start(fn, *args)` runs fn(*args) on a helper thread and returns a
    function that waits for the call and returns its result or raises its
    exception.  This is the one place the package starts threads.

    At most `_usable_cpus() - 1` helpers, and at least one, run at once.
    Each runs in a copy of the caller's context, which holds numpy's
    floating-point error state.  A block that starts no helper starts no
    thread, and every helper has ended when the block exits, also when
    the caller raises."""
    # imported on first use: concurrent.futures loads logging, queue and
    # traceback, which commands that start no helper need not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1)) as pool:
        yield lambda fn, *args: pool.submit(contextvars.copy_context().run, fn, *args).result


def _suite_maxima(
    battery: dict[str, GeneralShift],
    mu: MeasureTree,
    inputs: np.ndarray,
    denoms_of: Callable[[slice], np.ndarray],
    target: NormSpec,
) -> dict[str, float]:
    """Max ratio per shift of target(T f) / denominator over the rows f of
    `inputs` (`opnorm.battery_maxima`); `denoms_of(s)` gives the
    denominators of the rows `inputs[s]`.

    The `row_chunks` go to W = min(usable CPUs, chunks) workers: worker w
    folds chunks w, w + W, ... with its own maxima and source norms, so a
    skipped image is certified below its worker's maximum and the max over
    the workers is the one-worker fold's (no ratio is -0.0).  Worker 0 is
    the calling thread, so one chunk runs inline, and the others are
    `helpers`.  The workers share only read-only inputs and the shifts,
    whose lazy matrices are the same whoever builds them; numpy and scipy
    release the interpreter lock, so the workers overlap."""
    slices = list(row_chunks(len(inputs), mu.depth))

    def fold(share: list[slice]) -> dict[str, tuple[float, np.ndarray | None]]:
        return battery_maxima(battery, mu, ((inputs[s], denoms_of(s)) for s in share), target)

    workers = max(1, min(len(slices), _usable_cpus()))
    with helpers() as start:
        waits = [start(fold, slices[w::workers]) for w in range(1, workers)]
        folds = [fold(slices[::workers])] + [wait() for wait in waits]
    return {name: max(maxima[name][0] for maxima in folds) for name in battery}


def theorem_suite(
    name: str,
    families: list[dict],
    depths: list[int],
    seed: int = 0,
    alpha: float = 0.5,
    n_random: int = 12,
) -> list[StudyRow]:
    """Maximum probed ratio per (family, depth, shift) for one boundedness
    suite, over `default_shift_battery`.  Bounded behavior shows up as a
    stagnating max across depths; blowup families show monotone growth
    instead.

    Every suite accepts both knobs, but only TheoremB reads `alpha` (the
    Lipschitz order of its Lambda_2 norms), and only the probe suites
    (LInfBMO, BMOtoBMO, TheoremB) read `n_random`; the H1 suites take
    atomic blocks."""
    if name not in SUITES:
        raise ValueError(f"unknown theorem suite {name!r}; choose from {THEOREM_NAMES}")
    if n_random < 0:
        raise ValueError(f"n_random must be >= 0, got {n_random}")
    source, target = (
        replace(spec, alpha=alpha) if spec is not None and "alpha" in spec.params() else spec
        for spec in SUITES[name]
    )
    lipschitz = [spec for spec in (source, target) if spec is not None and spec.name == "lambda"]
    rows = []
    for family in families:
        for depth in depths:
            mu = build_measure(family, depth, seed)
            for spec in lipschitz:
                check_lambda_range(mu, spec.q, spec.alpha)
            if source is None:
                blocks = block_battery(mu, seed)
                inputs = np.stack([b.function(depth).values for b in blocks])
                costs = np.array([b.cost for b in blocks])
                denoms_of = lambda s: costs[s]
            else:
                inputs = probe_battery(mu, seed, n_random=n_random)
                denoms_of = lambda s: source.evaluate_rows(inputs[s], mu)
            maxima = _suite_maxima(default_shift_battery(depth), mu, inputs, denoms_of, target)
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
