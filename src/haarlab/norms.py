"""Function-space norms on step functions: Lp, weak-L1, martingale BMO,
its oscillation characterization, martingale Lipschitz semi-norms, and H1.

Everything is exact leafwise summation; suprema over dyadic nodes return a
witness node where the supremum is attained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .martingale import (
    StepFunction,
    average_heap,
    haar_constant,
    square_function,
)
from .measure import MeasureTree
from .tree import Node, TreeError, aggregate_heap, leaf_broadcast


class NormError(ValueError):
    """Invalid norm parameters."""


@dataclass(frozen=True)
class NormValue:
    value: float
    witness_node: Node | None = None


def lp_norm(f: StepFunction, mu: MeasureTree, p: float) -> float:
    if p < 1:
        raise NormError(f"p must be >= 1, got {p}")
    if np.isinf(p):
        return float(np.max(np.abs(f.values)))
    return float(np.sum(np.abs(f.values) ** p * mu.leaf_masses) ** (1.0 / p))


def inner_product(f: StepFunction, g: StepFunction, mu: MeasureTree) -> float:
    return float(np.sum(f.values * g.values * mu.leaf_masses))


def weak_l1(f: StepFunction, mu: MeasureTree) -> float:
    """sup over attained levels v of v * mu{|f| >= v}; exact on step functions."""
    absvals = np.abs(f.values)
    order = np.argsort(absvals)[::-1]
    sorted_vals = absvals[order]
    cum_mass = np.cumsum(mu.leaf_masses[order])
    return float(np.max(sorted_vals * cum_mass, initial=0.0))


def _level_slice(k: int) -> slice:
    return slice(1 << k, 1 << (k + 1))


def _parent_avg_leafwise(mu: MeasureTree, avg: np.ndarray, k: int) -> np.ndarray:
    """Leafwise average over the parent generation of level k (root: itself)."""
    level = max(k - 1, 0)
    return leaf_broadcast(mu.depth, avg[_level_slice(level)], level)


def bmo_martingale(f: StepFunction, mu: MeasureTree) -> float:
    """sup_k || E_k |f - E_{k-1} f| ||_inf, with E_{-1} the root average."""
    avg = average_heap(f, mu)
    best = 0.0
    for k in range(mu.depth + 1):
        dev = np.abs(f.values - _parent_avg_leafwise(mu, avg, k))
        if k == mu.depth:
            level_sup = float(np.max(dev))
        else:
            dev_int = aggregate_heap(mu.depth, dev * mu.leaf_masses)
            sl = _level_slice(k)
            level_sup = float(np.max(dev_int[sl] / mu.mass_heap[sl]))
        best = max(best, level_sup)
    return best


def bmo_oscillation(f: StepFunction, mu: MeasureTree) -> float:
    """sup_I <|f - <f>_I|>_I plus sup_I |<f>_parent - <f>_I|."""
    avg = average_heap(f, mu)
    osc = 0.0
    for k in range(mu.depth + 1):
        sl = _level_slice(k)
        dev = np.abs(f.values - leaf_broadcast(mu.depth, avg[sl], k))
        dev_int = aggregate_heap(mu.depth, dev * mu.leaf_masses)
        osc = max(osc, float(np.max(dev_int[sl] / mu.mass_heap[sl])))
    n = 1 << mu.depth
    pos = np.arange(2, 2 * n)
    jump = float(np.max(np.abs(avg[pos // 2] - avg[pos])))
    return osc + jump


def lambda_norm(
    f: StepFunction, mu: MeasureTree, q: float, alpha: float
) -> NormValue:
    """Martingale Lipschitz semi-norm:
    sup_Q mu(Q)^(-1/q-alpha) (int_Q |f - <f>_parent|^q dmu)^(1/q),
    with the root acting as its own parent.
    """
    if q < 1 or not np.isfinite(q):
        raise NormError(f"q must be a finite real >= 1, got {q}")
    if alpha < 0:
        raise NormError(f"alpha must be >= 0, got {alpha}")
    avg = average_heap(f, mu)
    best, witness = 0.0, Node(0, 0)
    for k in range(mu.depth + 1):
        dev = np.abs(f.values - _parent_avg_leafwise(mu, avg, k)) ** q
        dev_int = aggregate_heap(mu.depth, dev * mu.leaf_masses)
        sl = _level_slice(k)
        vals = dev_int[sl] ** (1.0 / q) * mu.mass_heap[sl] ** (-1.0 / q - alpha)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, witness = float(vals[j]), Node(k, j)
    return NormValue(best, witness)


def haar_lambda2_norm(mu: MeasureTree, node: Node, alpha: float) -> float:
    """Closed form for the Lambda_2(alpha) semi-norm of h_I.

    The supremum is attained either on an ancestor J of I (value
    mu(J)^(-1/2-alpha), maximal at J = I), or on a child of I (value
    c_I / mu(child)^(1+alpha)); everything strictly below the children
    contributes zero.
    """
    if alpha < 0:
        raise NormError(f"alpha must be >= 0, got {alpha}")
    tree = mu.tree
    if tree.is_leaf(node):
        raise TreeError(f"no Haar function at leaf {node}")
    best = 0.0
    j = node
    while True:
        best = max(best, mu.mass(j) ** (-0.5 - alpha))
        if j.level == 0:
            break
        j = tree.parent(j)
    c = haar_constant(mu, node)
    for child in tree.children(node):
        best = max(best, c * mu.mass(child) ** (-1.0 - alpha))
    return best


def h1_norm(f: StepFunction, mu: MeasureTree) -> float:
    """L1 norm of the square function."""
    return lp_norm(square_function(f, mu), mu, 1.0)


def sibling_lemma_check(
    mu: MeasureTree, node: Node, f: StepFunction, tol: float = 1e-12
) -> tuple[bool, float]:
    """Check |<f>_{I-} - <f>_{I+}| <= 2 |<f>_{small child} - <f>_I| + tol,
    where the hypothesis requires the *other* child to carry at least half
    of mu(I).  Returns (holds, slack = RHS - LHS).
    """
    tree = mu.tree
    if tree.is_leaf(node):
        raise TreeError(f"sibling check needs an internal node, got {node}")
    left, right = tree.children(node)
    half = 0.5 * mu.mass(node)
    if mu.mass(right) >= half:
        anchor = left
    elif mu.mass(left) >= half:
        anchor = right
    else:  # impossible: the two children sum to mu(I)
        raise NormError("neither child carries half of the parent mass")
    avg = average_heap(f, mu)
    t = tree.heap
    lhs = abs(avg[t(left)] - avg[t(right)])
    rhs = 2.0 * abs(avg[t(anchor)] - avg[t(node)])
    slack = rhs + tol - lhs
    return bool(slack >= 0.0), float(slack)


# --- norm descriptors used by the experiment layer ----------------------


@dataclass(frozen=True)
class NormEntry:
    """How a named norm is evaluated: `evaluate(f, mu, **params)` and the
    names of the `NormSpec` fields it reads, in label order."""

    evaluate: Callable[..., NormValue]
    params: tuple[str, ...] = ()


# The one table of named norms.  `NormSpec`, `haarlab norm` (which spells
# the names with '-' for '_') and the theorem suites all read it.  Entries
# call the module-level functions by name, so a rebound function (as the
# benchmark's tracer installs) is the one that runs.
NORMS: dict[str, NormEntry] = {
    "lp": NormEntry(lambda f, mu, p: NormValue(lp_norm(f, mu, p)), ("p",)),
    "weak_l1": NormEntry(lambda f, mu: NormValue(weak_l1(f, mu))),
    "bmo": NormEntry(lambda f, mu: NormValue(bmo_martingale(f, mu))),
    "bmo_osc": NormEntry(lambda f, mu: NormValue(bmo_oscillation(f, mu))),
    "lambda": NormEntry(lambda f, mu, q, alpha: lambda_norm(f, mu, q, alpha), ("q", "alpha")),
    "h1": NormEntry(lambda f, mu: NormValue(h1_norm(f, mu))),
}


@dataclass(frozen=True)
class NormSpec:
    """A named norm from `NORMS` with its parameters; callable on (f, mu).

    A norm reads only the fields its table entry names; the others keep
    their defaults and are ignored.
    """

    name: str
    p: float = 2.0
    q: float = 2.0
    alpha: float = 0.0

    def params(self) -> dict[str, float]:
        """The parameters the norm reads, by name."""
        if self.name not in NORMS:
            raise NormError(f"unknown norm {self.name!r}")
        return {k: getattr(self, k) for k in NORMS[self.name].params}

    def evaluate(self, f: StepFunction, mu: MeasureTree) -> NormValue:
        """The norm's value, with a witness node where the norm has one."""
        params = self.params()  # raises NormError for an unknown name
        return NORMS[self.name].evaluate(f, mu, **params)

    def __call__(self, f: StepFunction, mu: MeasureTree) -> float:
        return self.evaluate(f, mu).value

    def label(self) -> str:
        params = ",".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{self.name}[{params}]" if params else self.name
