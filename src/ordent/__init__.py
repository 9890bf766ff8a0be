"""ordent: entropy and Gaussian-approximation toolkit for central order statistics.

The k-th order statistic of n i.i.d. draws concentrates, for k ~ np, around
the p-quantile of the parent law, and its distribution approaches a Gaussian.
This package computes the exact entropy of uniform order statistics, splits
the KL divergence from the limiting Gaussian into three interpretable terms,
evaluates the supporting moment/tail/norm bounds at finite n, and drives
convergence-rate experiments over the built-in parent families.
"""

from .bounds import (
    EpsilonWindow,
    beta_tail_bound,
    corollary1_check,
    default_epsilon,
    holder_constant,
    k3_bound,
    quantile_mse_bound,
    stirling_constant_check,
)
from .distributions import (
    BetaLaw,
    Cauchy,
    ClampedProbabilityWarning,
    DistributionSpecError,
    Exponential,
    F1,
    F2,
    Gaussian,
    ParentDistribution,
    Uniform,
    beta_fourth_central_moment,
    beta_log_pdf,
    beta_mean_var,
    beta_sample,
    make_parent,
    parse_distribution,
    random_stream,
)
from .entropy_kl import (
    ConditionViolation,
    GaussianReference,
    KlDecomposition,
    entropy_expansion_linear_coefficient,
    gaussian_reference,
    k1_term,
    k2_term,
    k3_term,
    kl_decompose,
    kl_direct,
    uniform_order_stat_entropy_exact,
    uniform_order_stat_entropy_expansion,
)
from .experiments import (
    ConditionCheck,
    ExperimentReport,
    RateFit,
    condition_check,
    fit_rate,
    log_grid,
    parse_n_grid,
    rate_sweep,
)
from .order_stats import (
    MomentBoundConstant,
    OrderStatSpec,
    moment_bound_constant,
    order_stat_cdf,
    order_stat_pdf,
    quantile_envelope,
    round_rank,
    sample_order_stat,
    verify_moment_bound,
)
from .quadrature import QuadResult, QuadResults, adaptive_quad, beta_expectation
from .reports import BoundReport
from .special import harmonic, t_sequence

__version__ = "0.1.0"
