"""Exact combinatorial sequences with fast base-p divisibility predictors.

Two independent routes answer "what is the highest power of x dividing y":
a brute-force oracle that builds y as an exact big integer and strips
factors, and a closed-form fast path that works purely in base-p digit
arithmetic.  A verification harness sweeps every claim against the
oracle; the CLI (`valuata`) exposes queries, sweeps and benchmarks.
"""

from .digits import (
    DigitExpansion,
    KernelRangeError,
    digit_sum,
    expand,
    is_prime,
    kummer_carries,
    popcount_valuation,
    vp_factorial,
)
from .msums import (
    WitnessFailure,
    divisibility_propagation_witness,
    msum_B,
    msum_closed_t0,
    msum_closed_t1,
    msum_closed_t2,
    msum_recurrence_step,
)
from .sequences import (
    SEQUENCES,
    DomainError,
    IntegralityError,
    binomial,
    bsum_range_values,
    catalan,
    central_binomial,
    central_multinomial,
    central_multinomial_product,
    central_multinomial_values,
    check_congruence,
    delannoy_values,
    eval_B,
    eval_B_via_macmahon,
    eval_B_via_trinomial,
    eval_M,
    eval_T,
    franel,
    franel_values,
    fuss_catalan,
    fuss_catalan_values,
    hexagonal_values,
    legendre,
    legendre_rational,
    legendre_values,
    motzkin_values,
    schroder_large,
    schroder_large_values,
    schroder_little,
    schroder_little_values,
    square_sum_values,
    trinomial_values,
)
from .theorems import (
    CLAIMS,
    Claim,
    HarnessGrid,
    HarnessResult,
    HypothesisViolation,
    TheoremReport,
    predict_bsum_omega,
    predict_central_binomial_v2,
    predict_delannoy_v3,
    predict_legendre_omega,
    predict_motzkin_omega,
    predict_schroder_v3,
    predict_trinomial_omega,
    run_harness,
)
from .valuation import (
    INFINITE,
    Factorization,
    InvalidBaseError,
    Valuation,
    ZeroInputError,
    factorize,
    omega,
    vp_binomial_fast,
    vp_int,
)

__version__ = "0.1.0"
