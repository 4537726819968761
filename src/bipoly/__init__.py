"""Private distributed matrix multiplication with bivariate polynomial shares.

The library covers the full pipeline at desk scale: exact prime-field
linear algebra, masked polynomial encoding with derivative shares,
in-order multi-message worker computation, interpolation decoding,
rank- and enumeration-based privacy verification, closed-form threshold
and upload-cost analytics for the proposed scheme and its univariate
baseline, and a Monte Carlo straggler simulator.
"""

__version__ = "0.1.0"

from .bivariate import (
    EvalPoint,
    SchemeParams,
    build_support,
    support_degree_sum,
    xi,
)
from .errors import BipolyError
from .fieldcore import PrimeField, is_prime, prime_field
from .scheme import (
    DecodedProduct,
    Encoding,
    PartialResult,
    WorkerShare,
    compute_all,
    decode,
    encode,
    failure_bound_d,
    max_m_for_budget,
    random_prefix_subset,
    recovery_threshold,
    sample_points,
    upload_cost_bits,
    worker_compute,
)
from .baseline import GaspParams, gasp_max_m, gasp_rth, gasp_upload_cost_bits
from .privacy import (
    MaskMatrices,
    PrivacyCheck,
    exhaustive_mi_check,
    mask_matrices,
    perfect_privacy_check,
    sweep_collusion_subsets,
)
from .simulator import WorkerClass, budget_sweep

__all__ = [
    "__version__",
    "BipolyError",
    "DecodedProduct",
    "Encoding",
    "EvalPoint",
    "GaspParams",
    "MaskMatrices",
    "PartialResult",
    "PrimeField",
    "PrivacyCheck",
    "SchemeParams",
    "WorkerClass",
    "WorkerShare",
    "build_support",
    "budget_sweep",
    "compute_all",
    "decode",
    "encode",
    "exhaustive_mi_check",
    "failure_bound_d",
    "gasp_max_m",
    "gasp_rth",
    "gasp_upload_cost_bits",
    "is_prime",
    "mask_matrices",
    "max_m_for_budget",
    "perfect_privacy_check",
    "prime_field",
    "random_prefix_subset",
    "recovery_threshold",
    "sample_points",
    "support_degree_sum",
    "sweep_collusion_subsets",
    "upload_cost_bits",
    "worker_compute",
    "xi",
]
