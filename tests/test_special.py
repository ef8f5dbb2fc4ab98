"""In-house special functions against the math module as an independent oracle."""
import math
import struct
import sys
from fractions import Fraction

import numpy as np
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


# The scalar erf and erfc that summed the series to a stop rule, one x at a time:
# the oracles of the elementwise forms, which must give the same bits.


def _oracle_series(x: float) -> tuple[float, int]:
    """The Maclaurin sum on 0 <= x <= 3, and the term at which its stop rule stops."""
    x2 = x * x
    term = x
    total = x
    k = 0
    while True:
        k += 1
        term *= -x2 / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) < 1e-20 * abs(total) + 5e-324:
            return total, k


def _oracle_erf(x: float) -> float:
    if x < 0:
        return -_oracle_erf(-x)
    if x <= 3.0:
        return 2.0 / math.sqrt(math.pi) * _oracle_series(x)[0]
    return 1.0 - _oracle_erfc(x)


def _oracle_erfc(x: float) -> float:
    if x < 0:
        return 2.0 - _oracle_erfc(-x)
    if x <= 3.0:
        return 1.0 - _oracle_erf(x)
    if x > 27.0:
        return 0.0
    tail = 0.0
    for j in range(100, 0, -1):
        den = (2 * x if j % 2 else x) + tail
        tail = j / den
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + tail)


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


def _edge_points() -> list[float]:
    edges = [0.0, 5e-324, 1e-310, sys.float_info.min, 1e-160, 1e-8, math.inf, math.nan]
    for c in (3.0, 27.0):
        edges += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
    return edges + [-x for x in edges]


_GRID = np.concatenate([np.linspace(-30.0, 30.0, 24_001), np.linspace(2.9, 3.1, 2_001), _edge_points()])


@pytest.mark.parametrize("name", ["erf", "erfc"])
def test_elementwise_erf_has_the_bits_of_the_scalar_series(name):
    fn, oracle = getattr(special, name), {"erf": _oracle_erf, "erfc": _oracle_erfc}[name]
    got = fn(_GRID)
    assert got.shape == _GRID.shape
    bad = [x for x, g in zip(_GRID.tolist(), got.tolist()) if not _same_bits(g, oracle(x))]
    assert not bad, bad[:5]
    # a float in, a float out, with the same bits
    for x in _edge_points():
        value = fn(x)
        assert type(value) is float and _same_bits(value, oracle(x)), x


def test_the_fixed_term_count_reaches_the_stop_rule_everywhere():
    # every term the scalar series adds, the fixed count adds too; x = 3 needs the most
    stops = [_oracle_series(abs(x))[1] for x in _GRID.tolist() if abs(x) <= 3.0]
    assert max(stops) == _oracle_series(3.0)[1] == special._TAYLOR_TERMS


def test_normal_cdf_is_elementwise():
    xs = np.linspace(-9.0, 9.0, 1_001)
    got = special.normal_cdf(xs)
    want = [0.5 * _oracle_erfc(-(x / math.sqrt(2.0))) for x in xs.tolist()]
    assert all(_same_bits(g, w) for g, w in zip(got.tolist(), want))
    assert got.reshape(7, 11, 13).shape == special.normal_cdf(xs.reshape(7, 11, 13)).shape


def test_exp_has_the_bits_of_math_exp():
    xs = np.linspace(-750.0, 709.0, 20_001)
    assert special.exp(xs).tolist() == [math.exp(x) for x in xs.tolist()]
    assert type(special.exp(0.5)) is float and special.exp(0.5) == math.exp(0.5)
