"""Function-space norms on step functions: Lp, weak-L1, martingale BMO,
its oscillation characterization, martingale Lipschitz semi-norms, and H1.

Everything is exact leafwise summation; suprema over dyadic nodes return a
witness node where the supremum is attained.  Each norm has one
implementation on the probe axis (`lp_rows`, `bmo_rows`, ...: one value per
row of a (P, 2**depth) array, see `martingale`); the one-function forms
(`lp_norm`, `bmo_martingale`, ...) evaluate a one-row batch.

BMO and Lambda_q(alpha) also have a cheap certified upper bound per row
(`bmo_upper_rows`, `lambda_upper_rows`), taken on the Haar coefficients of
a mean-zero image rather than on its leaf values: a bound on the value the
kernel *computes* on the synthesized image, rounding included.  This module
holds only the norms and their bounds; how rows are scored against a
running maximum, and which are skipped, is `opnorm.battery_maxima`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .martingale import (
    StepFunction,
    average_heap,
    average_rows,
    square_function_rows,
)
from .measure import MeasureTree
from . import tree as _tree
from .tree import Node, TreeError, level_sums

# The norms sum levels with `level_sums`.  `aggregate_heap` stays bound here
# because the benchmark tracer rebinds it in every haarlab module that holds
# it, and perfbench/selftest.py checks that rebinding, and its undoing, on
# this module.
aggregate_heap = _tree.aggregate_heap


class NormError(ValueError):
    """Invalid norm parameters."""


@dataclass(frozen=True)
class NormValue:
    value: float
    witness_node: Node | None = None


def lp_rows(F: np.ndarray, mu: MeasureTree, p: float) -> np.ndarray:
    """The Lp(mu) norm of every row of F (..., 2**depth)."""
    if not p >= 1:
        raise NormError(f"p must be >= 1, got {p}")
    if p == np.inf:
        return np.maximum.reduce(np.abs(F), axis=-1)
    sums = np.add.reduce(np.abs(F) ** p * mu.leaf_masses, axis=-1)
    # the root is a scalar pow per row: numpy's array pow rounds differently
    # from its scalar pow in the last bit on a few percent of inputs
    roots = np.array([s ** (1.0 / p) for s in sums]) if sums.ndim else sums ** (1.0 / p)
    low = sums < np.finfo(float).tiny
    if np.any(low):
        # |f|^p fell below the normal range, to 0.0 for a large p: such a
        # row is M (sum (|f|/M)^p mu)^(1/p) with M = max |f|, and 0 if M is
        absF = np.abs(F[low])
        M = np.maximum.reduce(absF, axis=-1)
        ratios = np.divide(absF, M[:, None], out=np.zeros_like(absF), where=M[:, None] > 0)
        scaled = np.add.reduce(ratios**p * mu.leaf_masses, axis=-1)
        fixed = [m * s ** (1.0 / p) for m, s in zip(M, scaled)]
        if not sums.ndim:
            return fixed[0]
        roots[low] = fixed
    return roots


def lp_norm(f: StepFunction, mu: MeasureTree, p: float) -> float:
    return float(lp_rows(f.values, mu, p))


def inner_product(f: StepFunction, g: StepFunction, mu: MeasureTree) -> float:
    return float(np.sum(f.values * g.values * mu.leaf_masses))


def weak_l1_rows(F: np.ndarray, mu: MeasureTree) -> np.ndarray:
    """sup over attained levels v of v * mu{|f| >= v} for every row f of F;
    exact on step functions."""
    absvals = np.abs(F)
    order = np.argsort(absvals, axis=-1)[..., ::-1]
    sorted_vals = np.take_along_axis(absvals, order, axis=-1)
    cum_mass = np.cumsum(mu.leaf_masses[order], axis=-1)
    return np.max(sorted_vals * cum_mass, axis=-1, initial=0.0)


def weak_l1(f: StepFunction, mu: MeasureTree) -> float:
    """sup over attained levels v of v * mu{|f| >= v}; exact on step functions."""
    return float(weak_l1_rows(f.values, mu))


def _level_deviations(F: np.ndarray, mu: MeasureTree, avg: np.ndarray, up: int):
    """Per level k: (k, leafwise |f - <f>_A| for every row f of F, masses of
    the level-k nodes), where A is the ancestor `up` levels above (the root
    where none is).  `avg` holds the rows' average heaps.  The deviations
    share one buffer: the caller may overwrite it, and the next level does."""
    dev = np.empty(F.shape)
    for k in range(mu.depth + 1):
        a = max(k - up, 0)
        shape = F.shape[:-1] + (1 << a, -1)  # the leaves under each level-a node
        np.subtract(F.reshape(shape), avg[..., 1 << a : 2 << a, None], out=dev.reshape(shape))
        yield k, np.abs(dev, out=dev), mu.mass_heap[1 << k : 2 << k]


def _winnable(level_maxima: np.ndarray) -> np.ndarray:
    """The level maxima a running fold `if m > best: best = m` from best = 0.0
    can pick; NaN and non-positive maxima become 0.0.  The fold's result is
    the max over the last axis, and its first level is the first argmax."""
    return np.where(level_maxima > 0.0, level_maxima, 0.0)


def bmo_rows(F: np.ndarray, mu: MeasureTree) -> np.ndarray:
    """sup_k || E_k |f - E_{k-1} f| ||_inf for every row f of F, with E_{-1}
    the root average."""
    level_maxima = np.empty(F.shape[:-1] + (mu.depth + 1,))
    for k, dev, mass in _level_deviations(F, mu, average_rows(F, mu), up=1):
        if k < mu.depth:
            dev *= mu.leaf_masses
            dev = level_sums(mu.depth, dev, k) / mass
        level_maxima[..., k] = np.maximum.reduce(dev, axis=-1)
    return np.maximum.reduce(_winnable(level_maxima), axis=-1)


def bmo_martingale(f: StepFunction, mu: MeasureTree) -> float:
    """sup_k || E_k |f - E_{k-1} f| ||_inf, with E_{-1} the root average."""
    return float(bmo_rows(f.values, mu))


def bmo_osc_rows(F: np.ndarray, mu: MeasureTree) -> np.ndarray:
    """sup_I <|f - <f>_I|>_I plus sup_I |<f>_parent - <f>_I| for every row
    f of F."""
    avg = average_rows(F, mu)
    level_maxima = np.empty(F.shape[:-1] + (mu.depth + 1,))
    for k, dev, mass in _level_deviations(F, mu, avg, up=0):
        dev *= mu.leaf_masses
        level_maxima[..., k] = np.maximum.reduce(level_sums(mu.depth, dev, k) / mass, axis=-1)
    n = 1 << mu.depth
    children = avg[..., 2 : 2 * n].reshape(F.shape[:-1] + (n - 1, 2))
    jump = np.maximum.reduce(np.abs(avg[..., 1:n, None] - children), axis=(-2, -1))
    return np.maximum.reduce(_winnable(level_maxima), axis=-1) + jump


def bmo_oscillation(f: StepFunction, mu: MeasureTree) -> float:
    """sup_I <|f - <f>_I|>_I plus sup_I |<f>_parent - <f>_I|."""
    return float(bmo_osc_rows(f.values, mu))


def _check_lambda(q: float, alpha: float) -> None:
    if q < 1 or not np.isfinite(q):
        raise NormError(f"q must be a finite real >= 1, got {q}")
    if not 0 <= alpha < np.inf:
        raise NormError(f"alpha must be a finite real >= 0, got {alpha}")


def check_lambda_range(mu: MeasureTree, q: float, alpha: float) -> None:
    """NormError unless q and alpha are valid and the mass factor
    mu(Q)**(-1/q - alpha) of Lambda_q(alpha) is finite and nonzero on every
    node Q of mu: it is largest on the lightest leaf and smallest on the
    root.  A run checks each measure here, so that an alpha too large for it
    stops the run instead of overflowing inside it."""
    _check_lambda(q, alpha)
    exponent = -1.0 / q - alpha
    with np.errstate(over="ignore", under="ignore"):
        high, low = np.array([mu.leaf_masses.min(), mu.total_mass]) ** exponent
    if not (high < np.inf and low > 0.0):
        raise NormError(
            f"alpha={alpha:g} is too large for this measure: "
            f"mu(Q)**({exponent:g}) leaves the float64 range"
        )


def lambda_rows(
    F: np.ndarray, mu: MeasureTree, q: float, alpha: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The Lambda_q(alpha) semi-norm of every row of F (see `lambda_norm`),
    and the levels and indices of the rows' witness nodes: the first node of
    the first level that attains the supremum, or (0, 0) when it is 0."""
    _check_lambda(q, alpha)
    level_maxima = np.empty(F.shape[:-1] + (mu.depth + 1,))
    argmaxima = np.empty(F.shape[:-1] + (mu.depth + 1,), dtype=np.int64)
    for k, dev, mass in _level_deviations(F, mu, average_rows(F, mu), up=1):
        dev **= q
        dev *= mu.leaf_masses
        vals = level_sums(mu.depth, dev, k) ** (1.0 / q)
        vals *= mass ** (-1.0 / q - alpha)
        # a level holding a NaN has max NaN and never wins, as in a fold
        level_maxima[..., k] = np.maximum.reduce(vals, axis=-1)
        argmaxima[..., k] = vals.argmax(axis=-1)
    best = _winnable(level_maxima)
    level = best.argmax(axis=-1)  # level 0, the root, when no level wins
    index = np.take_along_axis(argmaxima, level[..., None], -1)[..., 0]
    return np.maximum.reduce(best, axis=-1), (level, index)


def lambda_norm(
    f: StepFunction, mu: MeasureTree, q: float, alpha: float
) -> NormValue:
    """Martingale Lipschitz semi-norm:
    sup_Q mu(Q)^(-1/q-alpha) (int_Q |f - <f>_parent|^q dmu)^(1/q),
    with the root acting as its own parent.
    """
    value, (level, index) = lambda_rows(f.values, mu, q, alpha)
    return NormValue(float(value), Node(int(level), int(index)))


def haar_lambda2_norm(mu: MeasureTree, node: Node, alpha: float) -> float:
    """Closed form for the Lambda_2(alpha) semi-norm of h_I.

    The supremum is attained either on an ancestor J of I (value
    mu(J)^(-1/2-alpha), maximal at J = I), or on a child of I (value
    c_I / mu(child)^(1+alpha)); everything strictly below the children
    contributes zero.
    """
    _check_lambda(2.0, alpha)
    if mu.tree.is_leaf(node):
        raise TreeError(f"no Haar function at leaf {node}")
    p = mu.tree.heap(node)
    # the masses of I and its ancestors (p >> i), then of its children, as
    # Python floats: numpy's array power differs from the scalar power in the
    # last bit on some masses
    path = mu.mass_heap[[p >> i for i in range(p.bit_length())]].tolist()
    children = mu.mass_heap[[2 * p, 2 * p + 1]].tolist()
    c = float(mu.haar_constant_heap[p])
    best = 0.0
    try:
        for m in path:
            best = max(best, m ** (-0.5 - alpha))
        for m in children:
            best = max(best, c * m ** (-1.0 - alpha))
    except OverflowError:
        # a mass power overflowed, so the lightest leaf's mu**(-1 - alpha)
        # does too: the range check at q = 1 raises its NormError
        check_lambda_range(mu, 1.0, alpha)
        raise
    return best


def h1_rows(F: np.ndarray, mu: MeasureTree) -> np.ndarray:
    """L1 norm of the square function of every row of F."""
    return lp_rows(square_function_rows(F, mu), mu, 1.0)


def h1_norm(f: StepFunction, mu: MeasureTree) -> float:
    """L1 norm of the square function."""
    return float(h1_rows(f.values, mu))


# --- certified upper bounds on the computed suprema -----------------------

# Range guard of `_path_bound`: the quantities it checks must stay at or
# below _HIGH, and Lambda's mass factors within [_LOW, _HIGH], well inside
# the normal range of float64.
_LOW, _HIGH = 2.0**-1000, 2.0**1000
# slack for the rounding of the kernels' sums, powers, products and
# divisions, and for a level value that ends below the normal range
_REL_SLACK, _ABS_SLACK = 1e-9, 2.0**-1022


def _path_bound(
    B: np.ndarray, mu: MeasureTree, q: float, weight: float | np.ndarray
) -> np.ndarray:
    """Per row b of the coefficient heaps B (..., 2**depth; slot 0 is not
    read), an upper bound on the value `bmo_rows` (q = 1, weight 1) or
    `lambda_rows` (weight_P = min(mu(P-), mu(P+))^-alpha over the internal
    nodes P) *computes* for the image g = synthesize_rows(0.0, b, mu).  The
    contract is mean 0: for another mean the bound proves nothing.  A zero
    row gets 0; a row that cannot be certified, one with a NaN or an inf
    coefficient included, gets a bound that is not finite.

    U is the max-plus path sum of the coefficients, taken bottom-up in one
    pass: U = 0 at the leaves and U(S) = max over the children J of S of
    |b_S| c_S / m_J + U(J), with c_S = `haar_constant_heap` and m the mass
    heap.  U never decreases toward the root, so U(root) is its maximum.
    With W = max_P weight_P, e = 64 (D + 1) 2^-53 at depth D, and
    A = (2D + 3) max(t, t^(1/q)), t = 2^-1070 / min(1, smallest leaf mass),
    the bound is

        (max_P U(P) weight_P + (e U(root) + A) W)(1 + 1e-9) + 2^-1022.

    Proof.  Write u = 2^-53, and M_Q for the exact sum of the leaf masses
    m_x under Q, which the pairwise-summed m_Q matches to a relative Du.
    (1) Exact image.  Let G_x = sum over the nodes S above x of
    +-b_S c_S / m_J, J the child of S holding x: the synthesis without
    rounding.  For x under an internal node P, G_x - G_P sums the terms of
    the nodes S under P, where G_P sums those above P, so
    |G_x - G_P| <= U(P); the mean is 0, so |G_x| <= U(root).
    (2) Synthesis rounding.  A term fl(fl(b_S c_S) / m_J) is b_S c_S / m_J
    to a relative 2u, plus, where the product or the quotient lands below
    the normal range, an absolute 2^-1075 / m_J + 2^-1075 <= t / 16; the
    running sum rounds each term at most D times.  Along a path the terms
    sum to at most U(root), so |g_x - G_x| <= (D + 3)u U(root) + D t / 16.
    (3) Computed averages.  The kernels read c_P = fl(fl(sum fl(g_y m_y))
    / m_P) from `average_rows`.  The products, the pairwise sum and the
    division put c_P within (2D + 3)u max|g| + n_P 2^-1075 / m_P + 2^-1075
    of <g>_P = sum g_y m_y / M_P.  The middle term is the products g_y m_y
    that underflow: at masses near 1e-300 it is not small against a small
    g, and n_P / m_P <= (1 + Du) / min leaf mass bounds it by t / 16.
    Exactly, <G>_P - G_P = sum over S under P of b_S c_S (M_S- / m_S- -
    M_S+ / m_S+) / M_P, and |b_S| c_S is |b_S| c_S / m_J times m_J for
    either child J, so this is at most 2Du U(P).
    (4) Deviations.  Both kernels take d_x = |fl(g_x - c_P)| for x under a
    child Q of P (the root is its own parent at level 0).  By (1)-(3),
    d_x <= Delta_P = (1 + u)(U(P)(1 + 2Du) + (4D + 7)u U(root) + (2D + 1) t / 16).
    (5) Level values.  BMO's leaf level reads d_x itself.  Elsewhere the
    kernels sum fl(fl(d_x^q) m_x) pairwise over x under Q into S_Q; a power
    or product below the normal range rounds by at most 2^-1074, so
    S_Q <= (Delta_P^q M_Q + n_Q 2^-1073)(1 + (D + 3)u).  BMO reads
    fl(S_Q / m_Q), Lambda fl(fl(S_Q^(1/q)) fl(m_Q^(-1/q-alpha))); the q-th
    root is subadditive, so a level value is at most
    (Delta_P + (t / 4)^(1/q)) m_Q^-alpha (1 + (2D + 8)u) + 2^-1075, and
    m_Q^-alpha <= weight_P because m_Q is a child mass of P, or the root
    mass, which is at least each child mass.
    (6) U as computed.  It takes fl(|b_S| fl(c_S / m_J)) and sums: with the
    quotients c_S / m_J normal, U(P) <= U~(P)(1 + 3Du) + D t / 32.
    The kernel returns the largest level value or 0.  By (4)-(6) every
    level value is at most (U~(P)(1 + 6Du) weight_P + ((4D + 8)u U~(root)
    + D t / 2 + (t / 4)^(1/q)) W)(1 + (2D + 9)u) + 2^-1075, and the
    bound's e, A, 1e-9 and 2^-1022 dominate each term at any depth that
    fits in memory.

    Guard.  The error model needs no overflow, and it needs the quotients
    c_S / m_J normal.  Every |b_S| c_S / m_J, |g_x|, |c_P| and d_x is at
    most D~ = (U~(root)(1 + e) + A)(1 + 1e-9), a per-row scalar; rows with
    max(D~, D~^q) max(1, mu(root)) > 2^1000 could overflow a product
    b_S c_S, g_y m_y, d_x^q m_x or a sum of them, and get +inf.  A level
    value cannot overflow where the bound is finite: it lies below it.
    Lambda's mass factors m_Q^(-1/q-alpha) must be normal too; where they
    leave [2^-1000, 2^1000], the caller passes weight = +inf, and where a
    quotient c_S / m_J is below the normal range the bound sets weight =
    +inf itself: then only the zero rows stay finite.  A NaN or an inf
    coefficient makes U(root), and so the bound, NaN or inf.
    """
    depth, n, lead = mu.depth, 1 << mu.depth, B.shape[:-1]
    c, mass, half = mu.haar_constant_heap, mu.mass_heap, n >> 1
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # slot p of each: c_p / m_2p and c_p / m_2p+1, over internal nodes p
        left, right = c / mass[0 : 2 * n : 2], c / mass[1 : 2 * n : 2]
        if not min(left[1:].min(), right[1:].min()) >= 2.0**-1022:
            weight = np.inf
        # one pass, in place: U[..., p] holds |b_p| until level(p) is done
        U = np.abs(B)
        U[..., half:] *= c[half:] / mu.min_child_heap[half:]
        via_left, via_right = np.empty(lead + (half >> 1,)), np.empty(lead + (half >> 1,))
        lo = half
        while lo > 1:
            lo >>= 1
            b, vl, vr = U[..., lo : 2 * lo], via_left[..., :lo], via_right[..., :lo]
            kids = U[..., 2 * lo : 4 * lo]
            np.add(np.multiply(b, left[lo : 2 * lo], out=vl), kids[..., 0::2], out=vl)
            np.add(np.multiply(b, right[lo : 2 * lo], out=vr), kids[..., 1::2], out=vr)
            np.maximum(vl, vr, out=b)
        root = U[..., 1].copy()
        if np.ndim(weight):
            top = np.max(np.multiply(U[..., 1:], weight, out=U[..., 1:]), axis=-1)
            w_max = weight.max()
        else:
            top, w_max = root * weight, weight
        e = 64 * (depth + 1) * 2.0**-53
        t = 2.0**-1070 / min(1.0, mu.leaf_masses.min())
        a = (2 * depth + 3) * max(t, t ** (1.0 / q))
        reach = (root * (1.0 + e) + a) * (1.0 + _REL_SLACK)
        ok = np.maximum(reach, reach**q) * max(1.0, mu.total_mass) <= _HIGH
        bound = (top + (e * root + a) * w_max) * (1.0 + _REL_SLACK) + _ABS_SLACK
        bound = np.where(ok, bound, np.inf)
    zero = np.asarray(root == 0.0)
    if zero.any():  # U(root) is 0 on a zero row, but may underflow to it
        zero[zero] = ~B[zero][..., 1:].any(axis=-1)
    return np.where(zero, 0.0, bound)


def bmo_upper_rows(B: np.ndarray, mu: MeasureTree) -> np.ndarray:
    """A certified upper bound on `bmo_rows(synthesize_rows(0.0, B, mu),
    mu)`, row by row of the coefficient heaps B: the largest path sum
    U(root) of |b_S| c_S / mu(child) with slack (see `_path_bound`); not
    finite where it cannot be certified."""
    return _path_bound(B, mu, 1.0, 1.0)


def lambda_upper_rows(B: np.ndarray, mu: MeasureTree, q: float, alpha: float) -> np.ndarray:
    """A certified upper bound on the values of `lambda_rows(
    synthesize_rows(0.0, B, mu), mu, q, alpha)`, row by row of the
    coefficient heaps B: max over internal nodes P of the path sum U(P)
    times min(mu(P-), mu(P+))^-alpha, with slack (see `_path_bound`); not
    finite where it cannot be certified."""
    _check_lambda(q, alpha)
    with np.errstate(over="ignore", under="ignore"):
        factors = mu.mass_heap[1:] ** (-1.0 / q - alpha)
        weight = mu.min_child_heap[1:] ** -alpha
    if not (factors.min() >= _LOW and factors.max() <= _HIGH):
        weight = np.inf
    return _path_bound(B, mu, q, weight)


# slack added to the right-hand side of the sibling lemma, for rounding
SIBLING_TOL = 1e-12


def sibling_slacks(f: StepFunction, mu: MeasureTree) -> np.ndarray:
    """Heap of the sibling-lemma slack over internal nodes I (slot 0 is NaN):
    2 |<f>_A - <f>_I| + SIBLING_TOL - |<f>_{I-} - <f>_{I+}|, where the anchor
    A is the child whose sibling carries at least half of mu(I): I- when
    mu(I+) >= mu(I)/2, else I+.  Such a sibling always exists, because mu(I)
    is the rounded sum of the two child masses.
    """
    n = 1 << mu.depth
    avg = average_heap(f, mu)
    left, right = avg[2 : 2 * n : 2], avg[3 : 2 * n : 2]
    anchor = np.where(mu.mass_heap[3 : 2 * n : 2] >= 0.5 * mu.mass_heap[1:n], left, right)
    slack = 2.0 * np.abs(anchor - avg[1:n]) + SIBLING_TOL - np.abs(left - right)
    return np.append(np.nan, slack)


def sibling_lemma_check(mu: MeasureTree, node: Node, f: StepFunction) -> tuple[bool, float]:
    """Check |<f>_{I-} - <f>_{I+}| <= 2 |<f>_{small child} - <f>_I| + SIBLING_TOL
    at one internal node.  Returns (holds, slack = RHS - LHS).
    """
    if mu.tree.is_leaf(node):
        raise TreeError(f"sibling check needs an internal node, got {node}")
    slack = float(sibling_slacks(f, mu)[mu.tree.heap(node)])
    return slack >= 0.0, slack


# --- norm descriptors used by the experiment layer ----------------------


@dataclass(frozen=True)
class NormEntry:
    """How a named norm is evaluated on the rows of a (P, 2**depth) array:
    `rows(F, mu, **params)` returns the P values and, for a norm with witness
    nodes, the arrays of their levels and indices, else None; `params` names
    the `NormSpec` fields it reads, in label order.  `upper(B, mu, **params)`,
    where given, takes P coefficient heaps B and returns a certified upper
    bound on each of the P values `rows` computes on the images
    `synthesize_rows(0.0, B, mu)` (not finite where it certifies nothing)."""

    rows: Callable[..., tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]]
    params: tuple[str, ...] = ()
    upper: Callable[..., np.ndarray] | None = None


# The one table of named norms.  `NormSpec`, `haarlab norm` (which spells
# the names with '-' for '_') and the theorem suites all read it.
NORMS: dict[str, NormEntry] = {
    "lp": NormEntry(lambda F, mu, p: (lp_rows(F, mu, p), None), ("p",)),
    "weak_l1": NormEntry(lambda F, mu: (weak_l1_rows(F, mu), None)),
    "bmo": NormEntry(lambda F, mu: (bmo_rows(F, mu), None), upper=bmo_upper_rows),
    "bmo_osc": NormEntry(lambda F, mu: (bmo_osc_rows(F, mu), None)),
    "lambda": NormEntry(lambda_rows, ("q", "alpha"), lambda_upper_rows),
    "h1": NormEntry(lambda F, mu: (h1_rows(F, mu), None)),
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

    def evaluate_rows(self, F: np.ndarray, mu: MeasureTree) -> np.ndarray:
        """The norm of every row of a (P, 2**depth) array."""
        params = self.params()  # raises NormError for an unknown name
        return NORMS[self.name].rows(F, mu, **params)[0]

    def upper_rows(self, B: np.ndarray, mu: MeasureTree) -> np.ndarray | None:
        """A certified upper bound on what `evaluate_rows` computes for the
        image `synthesize_rows(0.0, b, mu)` of every row b of the coefficient
        heaps B, or None where the norm has no bound."""
        params = self.params()
        upper = NORMS[self.name].upper
        return None if upper is None else upper(B, mu, **params)

    def evaluate(self, f: StepFunction, mu: MeasureTree) -> NormValue:
        """The norm's value, with a witness node where the norm has one: the
        one-row case of `evaluate_rows`."""
        params = self.params()
        value, witness = NORMS[self.name].rows(f.values, mu, **params)
        node = None if witness is None else Node(int(witness[0]), int(witness[1]))
        return NormValue(float(value), node)

    def __call__(self, f: StepFunction, mu: MeasureTree) -> float:
        return self.evaluate(f, mu).value

    def label(self) -> str:
        params = ",".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{self.name}[{params}]" if params else self.name
