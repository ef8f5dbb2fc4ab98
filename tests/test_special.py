"""In-house special functions against the math module as an independent oracle."""
import math
from fractions import Fraction

import pytest

from fpblab import special


def test_erf_absolute_accuracy():
    worst = 0.0
    x = -8.0
    while x <= 8.0:
        worst = max(worst, abs(special.erf(x) - math.erf(x)))
        x += 0.0137
    assert worst < 1e-12, worst


def test_erf_symmetry_and_limits():
    assert special.erf(0.0) == 0.0
    assert special.erf(-2.5) == -special.erf(2.5)
    assert special.erfc(40.0) == 0.0
    assert abs(special.erfc(0.0) - 1.0) < 1e-15
    assert abs(special.erfc(-3.0) - (2.0 - special.erfc(3.0))) < 1e-15


def test_normal_cdf_values():
    assert abs(special.normal_cdf(0.0) - 0.5) < 1e-15
    assert abs(special.normal_cdf(1.96) - 0.9750021048517795) < 1e-12
    assert abs(special.normal_cdf(-1.0) + special.normal_cdf(1.0) - 1.0) < 1e-14
    assert abs(special.normal_cdf(3.0, mu=1.0, sigma=2.0) - special.normal_cdf(1.0)) < 1e-14


def test_gamma_half_integers_exact():
    assert special.gamma_half_integer(2) == 1.0  # Gamma(1)
    assert special.gamma_half_integer(8) == 6.0  # Gamma(4) = 3!
    assert abs(special.gamma_half_integer(1) - math.sqrt(math.pi)) < 1e-15
    assert abs(special.gamma_half_integer(3) - math.sqrt(math.pi) / 2) < 1e-15
    for t in range(1, 20):
        assert abs(special.gamma_half_integer(t) - math.gamma(t / 2)) < 1e-12 * math.gamma(t / 2)
    with pytest.raises(ValueError):
        special.gamma_half_integer(0)


def test_log_of_int_beyond_float_range():
    big = 7**5000
    want = 5000 * math.log(7)
    assert abs(special.log_of_int(big) - want) < 1e-9 * want
    assert special.log_of_int(1) == 0.0
    with pytest.raises(ValueError):
        special.log_of_int(0)


def test_log_of_fraction():
    fr = Fraction(7**2000, 3**1500)
    want = 2000 * math.log(7) - 1500 * math.log(3)
    assert abs(special.log_of_fraction(fr) - want) < 1e-8
    assert abs(special.log_of_fraction(Fraction(1, 4)) + math.log(4)) < 1e-15
