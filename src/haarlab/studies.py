"""Verification studies: blowup of Lipschitz ratios on unbalanced measures
and bounded-ratio batteries for the boundedness results on balanced ones.

Studies are pure functions of (config, seed): per-trial randomness derives
from the seed plus trial index, so results are reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import AtomicBlock, haar_block, random_block, validate_block
from .martingale import StepFunction, analyze, haar_function, synthesize
from .measure import MeasureTree, generate
from .norms import NormSpec, haar_lambda2_norm, lambda_norm
from .opnorm import node_probes
from .shift import CanonicalShift, Shift, apply_shift, dense_alphas, petermichl
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
# the block cost (the H1 suites).  The suite's q and alpha parametrise every
# norm of the pair that takes them.
SUITES: dict[str, tuple[NormSpec | None, NormSpec]] = {
    "LInfBMO": (NormSpec("lp", p=np.inf), NormSpec("bmo")),
    "BMOtoBMO": (NormSpec("bmo"), NormSpec("bmo")),
    "H1L1": (None, NormSpec("lp", p=1.0)),
    "H1H1": (None, NormSpec("h1")),
    "TheoremB": (NormSpec("lambda"), NormSpec("lambda")),
}
THEOREM_NAMES = tuple(SUITES)


def default_shift_battery(depth: int) -> dict[str, Shift]:
    """The shifts exercised by the boundedness suites: the dyadic Hilbert
    transform, its adjoint, and canonical shifts of complexity <= 2 with
    coefficients identically +1 or -1."""
    battery: dict[str, Shift] = {
        "petermichl": petermichl(depth),
        "petermichl_adj": petermichl(depth).adjoint(),
    }
    for m, s_sel, n, t_sel, a in [
        (1, 0, 0, 0, 1.0),
        (0, 0, 1, 1, -1.0),
        (2, 1, 1, 0, 1.0),
    ]:
        name = f"canonical[m={m},s={s_sel},n={n},t={t_sel},a={a:+g}]"
        battery[name] = CanonicalShift(
            depth, m, s_sel, n, t_sel, dense_alphas(depth, m, n, a)
        )
    return battery


def _sampled_nodes(mu: MeasureTree, rng: np.random.Generator, cap: int = 48):
    """All shallow nodes plus a seeded sample of deeper ones."""
    tree = mu.tree
    shallow_max = min(4, tree.depth)
    nodes = [Node(k, j) for k in range(shallow_max + 1) for j in range(1 << k)]
    deep = [
        Node(k, j)
        for k in range(shallow_max + 1, tree.depth + 1)
        for j in range(1 << k)
    ]
    if deep:
        picks = rng.choice(len(deep), size=min(cap, len(deep)), replace=False)
        nodes.extend(deep[int(i)] for i in sorted(picks))
    return nodes


def probe_battery(
    mu: MeasureTree, seed: int, n_random: int = 12
) -> list[StepFunction]:
    """Haar functions, indicators (raw and recentred) of sampled nodes, and
    random functions."""
    rng = np.random.default_rng([seed, mu.depth])
    probes = list(node_probes(mu, _sampled_nodes(mu, rng)))
    n = 1 << mu.depth
    for t in range(n_random):
        trng = np.random.default_rng([seed, mu.depth, t])
        probes.append(StepFunction(mu.depth, trng.standard_normal(n)))
        probes.append(StepFunction(mu.depth, trng.choice([-1.0, 1.0], size=n)))
    return probes


def block_battery(
    mu: MeasureTree, seed: int, n_blocks: int = 10
) -> list[AtomicBlock]:
    """Canonical Haar blocks plus random validated multi-subatom blocks."""
    rng = np.random.default_rng([seed, mu.depth, 7])
    blocks = [
        haar_block(mu, node)
        for node in _sampled_nodes(mu, rng)
        if node.level < mu.depth
    ]
    for t in range(n_blocks):
        trng = np.random.default_rng([seed, mu.depth, 7, t])
        base = int(trng.integers(0, mu.depth))
        b = random_block(mu, base, int(trng.integers(2, 6)), trng)
        if validate_block(b, mu).valid:
            blocks.append(b)
    return blocks


def _suite_maxima(
    battery: dict[str, Shift],
    mu: MeasureTree,
    inputs: list[tuple[StepFunction, float]],
    target: NormSpec,
) -> dict[str, float]:
    """Max ratio per shift over (input, denominator) pairs; spectra are
    shared across shifts."""
    spectra = [(analyze(f, mu), denom) for f, denom in inputs]
    out = {}
    for shift_name, T in battery.items():
        best = -np.inf
        for spec, denom in spectra:
            if denom <= 0.0 or not np.isfinite(denom):
                continue
            tf = synthesize(T.apply_spectrum(spec), mu)
            best = max(best, target(tf, mu) / denom)
        out[shift_name] = best
    return out


def theorem_suite(
    name: str,
    families: list[dict],
    depths: list[int],
    seed: int = 0,
    q: float = 2.0,
    alpha: float = 0.5,
    n_random: int = 12,
    shifts=None,
) -> list[StudyRow]:
    """Maximum probed ratio per (family, depth, shift) for one boundedness
    suite.  Bounded behavior shows up as a stagnating max across depths;
    blowup families show monotone growth instead."""
    if name not in SUITES:
        raise ValueError(f"unknown theorem suite {name!r}; choose from {THEOREM_NAMES}")
    source, target = (
        None if spec is None else replace(spec, q=q, alpha=alpha) for spec in SUITES[name]
    )
    rows = []
    for family in families:
        for depth in depths:
            mu = build_measure(family, depth, seed)
            if source is None:
                inputs = [(b.function(depth), b.cost) for b in block_battery(mu, seed)]
            else:
                inputs = [
                    (f, source(f, mu)) for f in probe_battery(mu, seed, n_random=n_random)
                ]
            battery = shifts(depth) if shifts is not None else default_shift_battery(depth)
            maxima = _suite_maxima(battery, mu, inputs, target)
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
