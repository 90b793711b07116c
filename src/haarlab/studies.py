"""Verification studies: blowup of Lipschitz ratios on unbalanced measures
and bounded-ratio batteries for the boundedness results on balanced ones.

Studies are pure functions of (config, seed): per-trial randomness derives
from the seed plus trial index, so results are reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .atomic import AtomicBlock, haar_block, random_block, validate_block
from .martingale import StepFunction, haar_function
from .measure import MeasureTree, generate
from .norms import NormSpec, h1_norm, haar_lambda2_norm, lambda_norm, lp_norm
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
            ests[f"petermichl|lambda[q=2,alpha={a:g}]"] = ratio
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

THEOREM_NAMES = ("LInfBMO", "BMOtoBMO", "H1L1", "H1H1", "TheoremB")


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
    """Haar functions, indicators (raw and recentred), and random functions."""
    rng = np.random.default_rng([seed, mu.depth])
    total = mu.total_mass
    probes = []
    for node in _sampled_nodes(mu, rng):
        if node.level < mu.depth:
            probes.append(haar_function(mu, node))
        ind = StepFunction.indicator(mu.tree, node)
        probes.append(ind)
        probes.append(ind - StepFunction.constant(mu.depth, mu.mass(node) / total))
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


def suite_norm_pair(name: str, q: float, alpha: float) -> tuple[NormSpec, NormSpec]:
    if name == "LInfBMO":
        return NormSpec("lp", p=np.inf), NormSpec("bmo")
    if name == "BMOtoBMO":
        return NormSpec("bmo"), NormSpec("bmo")
    if name == "TheoremB":
        lam = NormSpec("lambda", q=q, alpha=alpha)
        return lam, lam
    raise ValueError(f"unknown probe suite {name!r}")


def _suite_maxima(
    name: str,
    battery: dict[str, Shift],
    mu: MeasureTree,
    probes: list[StepFunction],
    blocks: list[AtomicBlock],
    q: float,
    alpha: float,
) -> dict[str, float]:
    """Max ratio per shift; source norms and spectra are shared across shifts."""
    from .martingale import analyze, synthesize

    if name in ("H1L1", "H1H1"):
        inputs = [(analyze(b.function(mu.depth), mu), b.cost) for b in blocks]
        to_norm = (
            (lambda f: lp_norm(f, mu, 1.0)) if name == "H1L1" else (lambda f: h1_norm(f, mu))
        )
    else:
        from_norm, to_spec = suite_norm_pair(name, q, alpha)
        inputs = [(analyze(f, mu), from_norm(f, mu)) for f in probes]
        to_norm = lambda f: to_spec(f, mu)
    out = {}
    for shift_name, T in battery.items():
        best = -np.inf
        for spec, denom in inputs:
            if denom <= 0.0 or not np.isfinite(denom):
                continue
            tf = synthesize(T.apply_spectrum(spec), mu)
            best = max(best, to_norm(tf) / denom)
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
    if name not in THEOREM_NAMES:
        raise ValueError(f"unknown theorem suite {name!r}; choose from {THEOREM_NAMES}")
    rows = []
    for family in families:
        for depth in depths:
            mu = build_measure(family, depth, seed)
            probes = probe_battery(mu, seed, n_random=n_random)
            blocks = (
                block_battery(mu, seed) if name in ("H1L1", "H1H1") else []
            )
            battery = shifts(depth) if shifts is not None else default_shift_battery(depth)
            maxima = _suite_maxima(name, battery, mu, probes, blocks, q, alpha)
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
