"""Simulation and statistical-verification lab for random multiplicative
functions: seeded Rademacher/Steinhaus samplers, large-prime-factor partial
sums and their conditional variances, truncated Euler products with L2
integrals, and Monte Carlo suites for the supporting inequalities."""

from .euler import (
    ParsevalCheckResult,
    euler_product,
    expected_product_identity_check,
    parseval_identity_check,
)
from .harness import (
    SegmentScale,
    TrialCarry,
    doob_check,
    fluctuation_scale,
    hoeffding_tail_check,
    hypercontractive_check,
    partial_sum_second_moment_check,
    run_trial,
    sigma_event_statistic,
    submartingale_z_check,
    test_points,
    variance_ratio_ensemble,
    y_submartingale_check,
)
from .reporting import MomentReport
from .rmf import Model, SampledFunction, prime_value_matrix, value_matrix
from .sieve import (
    PrimeTables,
    build_tables,
    divisor_m,
    factorize,
    largest_prime_factor,
    squarefree_count,
)
from .sums import (
    GridCarry,
    conditional_variance,
    exact_expected_variance,
    grid_plan,
    grid_statistics,
    increment_decomposition_check,
    interval_sum_pconstraint,
    large_prime_sum,
    large_prime_sum_bruteforce,
    quotient_sums,
)

__version__ = "0.1.0"
