"""
Closed-form growth predictions, limit-law specifications, and convergence
tables.

The normalization constant of the biased avoiding measure changes regime at
q = 3, where the dominant singularity of the generating function moves from
the branch point 1/4 onto a pole at (q-2)/(q-1)^2:

    subcritical  q < 3:  4 / ((3-q)^2 sqrt(pi)) * n^(-3/2) * 4^n
    critical     q = 3:  2 / sqrt(pi) * n^(-1/2) * 4^n
    supercritical q > 3: (q-1)(q-3)/(q-2)^2 * ((q-1)^2/(q-2))^n

Regime classification is exact on rational q (never a float comparison at
the boundary), and large-n magnitudes are carried in log space.

The five built-in limit laws for the fixed-point count:

    1 poisson        bias q on all permutations      -> Poisson(q)
    2 bernoulli-pair bias q on 123-avoiders          -> Bernoulli(q/(3+q)) + Bernoulli(q/(3+q))
    3 neg-binomial   bias q < 3 on 132/321/213       -> NegativeBinomial(2, 1-q/3)
    4 rayleigh       bias q = 3, scaled by sqrt(n)   -> Rayleigh(3/sqrt(2))
    5 normal         bias q > 3, centered and scaled -> Normal(0, 1)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import series, special
from .config import check_budget
from .dist import (
    BernoulliSum,
    MeasureSpec,
    NegativeBinomial,
    Normal,
    Poisson,
    Rayleigh,
    fp_pmf,
    kolmogorov_distance,
    tv_distance,
)
from .series import as_rational

LAW_NAMES = {1: "poisson", 2: "bernoulli-pair", 3: "neg-binomial", 4: "rayleigh", 5: "normal"}
LAW_IDS = {name: law_id for law_id, name in LAW_NAMES.items()}


def regime_of(q) -> str:
    """subcritical (q < 3), critical (q = 3), or supercritical (q > 3); exact."""
    q = as_rational(q)
    if q <= 0:
        raise ValueError("bias parameter q must be positive")
    if q < 3:
        return "subcritical"
    if q == 3:
        return "critical"
    return "supercritical"


def dominant_singularity(q) -> Fraction:
    """Location of the singularity that governs coefficient growth."""
    q = as_rational(q)
    regime_of(q)
    if q <= 3:
        return Fraction(1, 4)
    return (q - 2) / (q - 1) ** 2


@dataclass(frozen=True)
class RegimePrediction:
    regime: str
    dominant_singularity: Fraction
    prefactor: float
    polynomial_power: Fraction  # exponent of n in the prediction
    growth_base: float  # reciprocal of the dominant singularity


def growth_prediction(q) -> RegimePrediction:
    """The regime, singularity, and closed-form growth data for bias q."""
    q = as_rational(q)
    regime = regime_of(q)
    zeta = dominant_singularity(q)
    if regime == "subcritical":
        pref = 4.0 / (float(3 - q) ** 2 * math.sqrt(math.pi))
        power = Fraction(-3, 2)
    elif regime == "critical":
        pref = 2.0 / math.sqrt(math.pi)
        power = Fraction(-1, 2)
    else:
        pref = float((q - 1) * (q - 3) / (q - 2) ** 2)
        power = Fraction(0)
    return RegimePrediction(
        regime=regime,
        dominant_singularity=zeta,
        prefactor=pref,
        polynomial_power=power,
        growth_base=float(1 / zeta),
    )


def normalization_growth(q, n: int, log: bool = False) -> float:
    """
    Predicted normalization constant of the biased avoiding measure at
    length n (the three-regime closed form). With log=True the natural log
    is returned, which is the only safe representation once 4^n overflows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pred = growth_prediction(q)
    logval = (
        math.log(pred.prefactor)
        + float(pred.polynomial_power) * math.log(n)
        + n * math.log(pred.growth_base)
    )
    return logval if log else math.exp(logval)


def growth_ratio(q, n: int) -> float:
    """Exact normalization over predicted growth, computed in log space."""
    exact = series.avoider_normalization(q, n)
    return math.exp(special.log_of_fraction(exact) - normalization_growth(q, n, log=True))


def mean_coefficient(q) -> Fraction:
    """Per-n mean of the fixed-point count in the supercritical regime."""
    q = as_rational(q)
    if q <= 3:
        raise ValueError("the linear mean applies only above the phase point q = 3")
    return q * (q - 3) / ((q - 1) * (q - 2))


def variance_coefficient(q) -> Fraction:
    """Per-n variance of the fixed-point count in the supercritical regime."""
    q = as_rational(q)
    if q <= 3:
        raise ValueError("the linear variance applies only above the phase point q = 3")
    return 2 * q * (2 * q - 3) / ((q - 1) ** 2 * (q - 2) ** 2)


@dataclass(frozen=True)
class LimitLawSpec:
    """
    A fully parameterized limit law with its centering and scaling, the
    measure whose fixed-point law tends to it, and the distance that
    checks it.
    """

    law_id: int
    q: Fraction
    law: object

    @property
    def name(self) -> str:
        return LAW_NAMES[self.law_id]

    @property
    def tau(self) -> str | None:
        """The pattern whose avoiders the measure weights; None for all permutations."""
        return {1: None, 2: "123"}.get(self.law_id, "321")

    def centering(self, n: int) -> float:
        if self.law_id == 5:
            return float(mean_coefficient(self.q)) * n
        return 0.0

    def scaling(self, n: int) -> float:
        if self.law_id == 4:
            return math.sqrt(n)
        if self.law_id == 5:
            return math.sqrt(float(variance_coefficient(self.q)) * n)
        return 1.0

    def distance(self, pmf, n: int) -> float:
        """
        Distance of a fixed-point law at length n from this limit: total
        variation for a discrete law, Kolmogorov after centering and
        scaling for a continuous one.
        """
        if self.law.discrete:
            return tv_distance(pmf, self.law)
        return kolmogorov_distance(pmf, self.law, self.centering(n), self.scaling(n))


def limit_law(law_id: int | str, q) -> LimitLawSpec:
    """
    Build the limit law for the given check id (1..5 or its name) at bias q.

    Hypothesis checks are exact on the rational q: the negative-binomial law
    needs 0 < q < 3, the Rayleigh law needs q = 3, the normal law needs
    q > 3; the Poisson and Bernoulli-pair laws accept any q > 0.
    """
    if isinstance(law_id, str):
        if law_id not in LAW_IDS:
            raise ValueError(f"unknown law {law_id!r}; known: {sorted(LAW_IDS)}")
        law_id = LAW_IDS[law_id]
    q = as_rational(q)
    if q <= 0:
        raise ValueError("bias parameter q must be positive")
    if law_id == 1:
        return LimitLawSpec(1, q, Poisson(q))
    if law_id == 2:
        return LimitLawSpec(2, q, BernoulliSum(q / (3 + q)))
    if law_id == 3:
        if not q < 3:
            raise ValueError(f"the negative-binomial limit requires 0 < q < 3, got q={q}")
        return LimitLawSpec(3, q, NegativeBinomial(2, 1 - q / 3))
    if law_id == 4:
        if q != 3:
            raise ValueError(f"the Rayleigh limit requires q = 3 exactly, got q={q}")
        return LimitLawSpec(4, q, Rayleigh(3.0 / math.sqrt(2.0)))
    if law_id == 5:
        if not q > 3:
            raise ValueError(f"the normal limit requires q > 3, got q={q}")
        return LimitLawSpec(5, q, Normal(0.0, 1.0))
    raise ValueError(f"law id must be 1..5, got {law_id}")


def factorial_moment_prediction(m: int, n: int) -> float:
    """Critical-regime factorial-moment growth: 3^m Gamma(m/2+1) n^(m/2)."""
    return 3.0**m * special.gamma_half_integer(m + 2) * n ** (m / 2.0)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    exact: float  # log-value for growth tables, plain value otherwise
    predicted: float
    ratio: float


@dataclass(frozen=True)
class ConvergenceTable:
    kind: str
    rows: tuple[ConvergenceRow, ...]
    ratio_monotone: bool  # reported, not asserted: |ratio-1| nonincreasing


def convergence_table(kind: str, q, n_grid, m: int | None = None,
                      law_id: int | None = None) -> ConvergenceTable:
    """
    Exact-versus-predicted table along an n grid.

    kind "growth": log normalization constant against the three-regime
    closed form. kind "moments": factorial moments at the critical bias
    against 3^m Gamma(m/2+1) n^(m/2) (requires q = 3 and m). kind
    "distance": the distance used by the given limit law check, per n
    (predicted and ratio columns carry nan).
    """
    n_grid = sorted(int(n) for n in n_grid)
    if n_grid and n_grid[0] < 0:
        raise ValueError("n must be >= 0")
    q = as_rational(q)
    rows = []
    if kind == "growth":
        regime_of(q)  # refuses q <= 0 before the pass, as `verify --growth` does
        # one pass of the normalization recurrence: avoider_series(q, top)[n] = U_n / b^n
        top = max(n_grid, default=0)
        check_budget("eval", top)
        u = series._scaled_normalizations(q, top)
        for n in n_grid:
            exact_log = special.log_of_fraction(Fraction(u[n], q.denominator**n))
            pred_log = normalization_growth(q, n, log=True)
            rows.append(ConvergenceRow(n, exact_log, pred_log, math.exp(exact_log - pred_log)))
    elif kind == "moments":
        if m is None:
            raise ValueError("kind='moments' needs the order m")
        if q != 3:
            raise ValueError("the factorial-moment prediction holds at the critical bias q = 3 only")
        for n in n_grid:  # refused in ascending n, as a table built one n at a time is
            check_budget("eval", n)
            if m < 1:
                raise ValueError("moment order m must be >= 1")
            if n < 1:  # the moment and its prediction are both 0 there
                raise ValueError("n must be >= 1")
        # one derivative pass: at q = 3, factorial_moment_coefficient(m, q, n) over
        # avoider_normalization(q, n) is 3^m d[m][n] / d[0][n], and int true
        # division rounds that rational as float(Fraction) does
        d = series._scaled_derivatives(q, m, n_grid[-1]) if n_grid else []
        for n in n_grid:
            exact = 3**m * d[m][n] / d[0][n]
            pred = factorial_moment_prediction(m, n)
            rows.append(ConvergenceRow(n, exact, pred, exact / pred))
    elif kind == "distance":
        if law_id is None:
            raise ValueError("kind='distance' needs a law_id")
        spec_law = limit_law(law_id, q)
        for n in n_grid:
            pmf = fp_pmf(MeasureSpec(n, q, spec_law.tau), mode="scaled-float")
            rows.append(ConvergenceRow(n, spec_law.distance(pmf, n), float("nan"), float("nan")))
    else:
        raise ValueError(f"unknown table kind {kind!r}")
    if kind == "distance":
        monotone = all(rows[i + 1].exact <= rows[i].exact for i in range(len(rows) - 1))
    else:
        monotone = all(
            abs(rows[i + 1].ratio - 1) <= abs(rows[i].ratio - 1) for i in range(len(rows) - 1)
        )
    return ConvergenceTable(kind, tuple(rows), monotone)
