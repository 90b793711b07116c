"""Haar shift operators and martingale function spaces on finite dyadic
trees with general positive measures."""

from .atomic import (
    AtomicBlock,
    BlockValidation,
    Subatom,
    atb_upper_bound,
    haar_block,
    random_block,
    validate_block,
)
from .martingale import (
    HaarSpectrum,
    NonFiniteError,
    StepFunction,
    analyze,
    average,
    difference,
    expectation,
    haar_constant,
    haar_function,
    haar_l1_norm,
    haar_linf_norm,
    square_function,
    square_function_martingale,
    synthesize,
)
from .measure import (
    BalanceReport,
    MeasureError,
    MeasureTree,
    generate,
    geometric_unbalanced,
    lebesgue,
    random_doubling,
    spine,
)
from .norms import (
    NormSpec,
    bmo_martingale,
    bmo_oscillation,
    h1_norm,
    haar_lambda2_norm,
    inner_product,
    lambda_norm,
    lp_norm,
    sibling_lemma_check,
    weak_l1,
)
from .opnorm import OpNormEstimate, l2_opnorm, opnorm_lower_bound, svd_opnorm
from .shift import (
    CanonicalShift,
    GeneralShift,
    ShiftError,
    ShiftShape,
    apply_shift,
    dense_alphas,
    haar_matrix,
    petermichl,
)
from .studies import (
    StudyRow,
    blowup_study,
    predicted_blowup_ratio,
    rows_to_csv,
    theorem_suite,
)
from .tree import DyadicTree, Node, TreeError
from .verify import run_verification

__version__ = "0.1.0"
