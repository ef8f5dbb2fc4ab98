"""Regime classification, growth predictions, limit laws, convergence tables."""
import math
from fractions import Fraction

import pytest

from fpblab import asymptotics as asym
from fpblab import series, special
from fpblab.config import BudgetExceededError
from fpblab.dist import BernoulliSum, NegativeBinomial, Normal, Poisson, Rayleigh

F = Fraction


def test_regime_classification_is_exact():
    assert asym.regime_of(F(29999, 10000)) == "subcritical"
    assert asym.regime_of(3) == "critical"
    assert asym.regime_of(F(30001, 10000)) == "supercritical"
    assert asym.regime_of("1/2") == "subcritical"
    with pytest.raises(TypeError):
        asym.regime_of(3.0)  # float q cannot decide the boundary exactly
    with pytest.raises(ValueError):
        asym.regime_of(0)


def test_dominant_singularity():
    assert asym.dominant_singularity(2) == F(1, 4)
    assert asym.dominant_singularity(3) == F(1, 4)
    # continuity at the phase point, symbolically
    q = F(3)
    assert (q - 2) / (q - 1) ** 2 == F(1, 4)
    # strictly inside 1/4 above it
    for q in (F(31, 10), F(4), F(100)):
        assert asym.dominant_singularity(q) < F(1, 4)


def test_growth_prediction_fields():
    p = asym.growth_prediction(4)
    assert p.regime == "supercritical"
    assert p.prefactor == pytest.approx(3 / 4)  # (q-1)(q-3)/(q-2)^2 at q=4
    assert p.growth_base == pytest.approx(9 / 2)  # (q-1)^2/(q-2) at q=4
    assert p.polynomial_power == 0
    p = asym.growth_prediction(2)
    assert p.prefactor == pytest.approx(4 / math.sqrt(math.pi))
    assert p.polynomial_power == F(-3, 2)
    assert p.growth_base == 4.0
    p = asym.growth_prediction(3)
    assert p.prefactor == pytest.approx(2 / math.sqrt(math.pi))
    assert p.polynomial_power == F(-1, 2)


def test_growth_value_log_mode():
    want = math.log(2 / math.sqrt(math.pi)) - 0.5 * math.log(100) + 100 * math.log(4)
    assert asym.normalization_growth(3, 100, log=True) == pytest.approx(want)
    assert asym.normalization_growth(4, 1, log=False) == pytest.approx(3 / 4 * 9 / 2)
    with pytest.raises(ValueError):
        asym.normalization_growth(-1, 10)


def test_growth_ratio_against_catalan():
    # at q = 1 the normalization is the Catalan number; its standard
    # asymptotic is the subcritical formula
    assert abs(asym.growth_ratio(1, 1000) - 1) < 0.01
    assert abs(asym.growth_ratio(4, 200) - 1) < 0.01


def test_supercritical_mean_and_variance_coefficients():
    assert asym.mean_coefficient(4) == F(2, 3)
    assert asym.variance_coefficient(4) == F(10, 9)
    for q in (F(31, 10), F(7, 2), F(5), F(12)):
        assert asym.variance_coefficient(q) > 0
    with pytest.raises(ValueError):
        asym.mean_coefficient(3)


def test_limit_law_parameterizations():
    law = asym.limit_law(3, 2)
    assert isinstance(law.law, NegativeBinomial)
    assert law.law.r == 2 and law.law.p == F(1, 3)
    assert law.centering(100) == 0 and law.scaling(100) == 1
    law = asym.limit_law(5, 4)
    assert isinstance(law.law, Normal)
    assert law.centering(300) == pytest.approx(200)
    assert law.scaling(300) == pytest.approx(math.sqrt(10 / 9 * 300))
    law = asym.limit_law(4, 3)
    assert isinstance(law.law, Rayleigh)
    assert law.law.sigma == pytest.approx(3 / math.sqrt(2))
    assert law.scaling(400) == 20.0
    assert isinstance(asym.limit_law(1, F(1, 2)).law, Poisson)
    blaw = asym.limit_law(2, 1).law
    assert isinstance(blaw, BernoulliSum) and blaw.p == F(1, 4)
    assert asym.limit_law("neg-binomial", 2).law_id == 3


def test_limit_law_hypothesis_refusals():
    with pytest.raises(ValueError, match="0 < q < 3"):
        asym.limit_law(3, 3)
    with pytest.raises(ValueError, match="q = 3"):
        asym.limit_law(4, 2)
    with pytest.raises(ValueError, match="q > 3"):
        asym.limit_law(5, 3)
    with pytest.raises(ValueError, match="law"):
        asym.limit_law(9, 1)
    with pytest.raises(ValueError, match="unknown law"):
        asym.limit_law("gauss", 4)


def test_convergence_table_growth():
    table = asym.convergence_table("growth", 1, [50, 200, 800])
    assert [r.n for r in table.rows] == [50, 200, 800]
    assert table.ratio_monotone
    assert abs(table.rows[-1].ratio - 1) < 0.01
    # exact column is a log value: e^exact should equal the Catalan number
    cat = series.catalan_numbers(50)[50]
    assert table.rows[0].exact == pytest.approx(math.log(cat), rel=1e-12)


def test_convergence_table_moments():
    table = asym.convergence_table("moments", 3, [100, 400], m=1)
    assert all(0.8 < r.ratio < 1.0 for r in table.rows)
    assert table.ratio_monotone
    with pytest.raises(ValueError, match="critical"):
        asym.convergence_table("moments", 2, [100], m=1)
    with pytest.raises(ValueError, match="order m"):
        asym.convergence_table("moments", 3, [100])


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_moments_table_equals_per_n_fractions(m):
    # one derivative pass gives the same floats as the exact per-n Fractions
    grid = [1, 2, 3, 4, 5, 17, 64, 333, 1000]
    table = asym.convergence_table("moments", 3, grid, m=m)
    assert [r.n for r in table.rows] == grid
    for r in table.rows:
        z = series.avoider_normalization(3, r.n)
        assert r.exact == float(series.factorial_moment_coefficient(m, 3, r.n) / z), (m, r.n)
        assert r.exact == 0.0 if r.n < m else r.exact > 0


def test_growth_table_equals_the_series():
    grid = [1, 7, 50, 321]
    for q in (F(2), F(7, 3), F(10, 3), F(1, 2**300 + 1)):
        values = series.avoider_series(q, max(grid))
        table = asym.convergence_table("growth", q, grid)
        assert [r.exact for r in table.rows] == [special.log_of_fraction(values[n]) for n in grid]


def test_moments_table_refusals_in_ascending_n(monkeypatch):
    # refused at the first n in ascending order that a per-n table would refuse
    monkeypatch.setenv("FPBL_BUDGET", "eval=100")
    with pytest.raises(BudgetExceededError, match="eval size 200 exceeds budget 100"):
        asym.convergence_table("moments", 3, [300, 5, 200], m=1)
    with pytest.raises(BudgetExceededError, match="eval size 200 exceeds budget 100"):
        asym.convergence_table("moments", 3, [200], m=0)
    with pytest.raises(ValueError, match="order m must be >= 1"):
        asym.convergence_table("moments", 3, [5, 200], m=0)
    # at n = 0 both the moment and its prediction are 0: no ratio to report
    with pytest.raises(ValueError, match="n must be >= 1"):
        asym.convergence_table("moments", 3, [0, 5], m=2)
    assert asym.convergence_table("moments", 3, [], m=0).rows == ()


def test_convergence_table_distance():
    table = asym.convergence_table("distance", 2, [50, 200], law_id=3)
    assert table.rows[1].exact < table.rows[0].exact
    assert math.isnan(table.rows[0].predicted)
    with pytest.raises(ValueError, match="law_id"):
        asym.convergence_table("distance", 2, [50])
    with pytest.raises(ValueError, match="kind"):
        asym.convergence_table("bogus", 2, [50])


def test_factorial_moment_prediction_values():
    assert asym.factorial_moment_prediction(2, 100) == pytest.approx(9 * 100)
    assert asym.factorial_moment_prediction(1, 100) == pytest.approx(3 * math.gamma(1.5) * 10)
