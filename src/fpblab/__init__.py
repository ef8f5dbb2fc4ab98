"""
fpblab: exact computation, sampling, and verification for fixed-point-biased
(pattern-avoiding) random permutations.

The measure with bias parameter q > 0 weights a permutation proportionally
to q raised to its number of fixed points, either on all permutations of
length n or on the avoiders of a single length-3 pattern. The lab computes
these laws exactly (big integers and rationals), samples them with seeded
counter-based randomness, and verifies their limit behavior (Poisson,
Bernoulli pair, negative binomial, Rayleigh, normal, and the three-regime
growth of the normalization constant) at desk scale.
"""
from .asymptotics import (
    ConvergenceTable,
    LimitLawSpec,
    RegimePrediction,
    convergence_table,
    dominant_singularity,
    factorial_moment_prediction,
    growth_prediction,
    growth_ratio,
    limit_law,
    mean_coefficient,
    normalization_growth,
    rayleigh_moment,
    regime_of,
    variance_coefficient,
)
from .config import BudgetExceededError, budgets
from .dist import (
    BernoulliSum,
    FixedPointPMF,
    MeasureSpec,
    NegativeBinomial,
    Normal,
    Poisson,
    Provenance,
    Rayleigh,
    UnsupportedMeasureError,
    fixed_point_row,
    fp_pmf,
    kolmogorov_distance,
    pmf_from_json,
    pmf_moment,
    pmf_to_json,
    tv_distance,
)
from .perms import (
    PATTERNS,
    EnumerationCapError,
    Permutation,
    avoids,
    contains_pattern,
    enumerate_avoiders,
    enumerate_permutations,
    fixed_points,
    format_perm,
    parse_perm,
    symmetry,
)
from .sampling import (
    RandomSource,
    biased_avoider_permutation,
    monte_carlo_fp_pmf,
    uniform_avoider,
)
from .series import (
    avoider_normalization,
    avoider_polynomials,
    avoider_polynomials_231,
    avoider_row,
    avoider_series,
    catalan_numbers,
    derangement_numbers,
    factorial_moment_coefficient,
    unrestricted_normalization,
)

__version__ = "0.1.0"
