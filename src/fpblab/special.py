"""
Self-contained special functions: erf/erfc, the normal cdf, and Gamma at
integers and half-integers.

The distance checks need a normal cdf that is identical on every platform,
so erf is implemented here from its defining series rather than calling the
platform libm:

- |x| <= 3: the Maclaurin series erf(x) = 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1)),
  summed to convergence (worst-case cancellation at x = 3 leaves ~3e-14
  absolute error, well inside the 1e-12 target).
- x > 3: the Laplace continued fraction
  erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/(2x + 2/(x + 3/(2x + ...)))),
  evaluated bottom-up at fixed depth (converges geometrically for x > 3).

Gamma is exact at integers and half-integers (products of odd numbers
times sqrt(pi)), the only arguments the moment predictions take. Both are
cross-checked against math.gamma/math.erf in the tests.
"""
from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)
_TAYLOR_CUTOFF = 3.0
_CF_DEPTH = 100


def erf(x: float) -> float:
    """Error function, absolute error below 1e-13 everywhere."""
    if x < 0:
        return -erf(-x)
    if x <= _TAYLOR_CUTOFF:
        # sum_k (-1)^k x^(2k+1) / (k! (2k+1)), term recurrence on x^2
        x2 = x * x
        term = x  # x^(2k+1)/k! without the 1/(2k+1)
        total = x
        k = 0
        while True:
            k += 1
            term *= -x2 / k
            contrib = term / (2 * k + 1)
            total += contrib
            if abs(contrib) < 1e-20 * abs(total) + 5e-324:
                break
        return 2.0 / _SQRT_PI * total
    return 1.0 - erfc(x)


def erfc(x: float) -> float:
    """Complementary error function."""
    if x < 0:
        return 2.0 - erfc(-x)
    if x <= _TAYLOR_CUTOFF:
        return 1.0 - erf(x)
    if x > 27.0:
        return 0.0  # exp(-x^2) underflows
    # bottom-up continued fraction: x + 1/(2x + 2/(x + 3/(2x + ...)))
    tail = 0.0
    for j in range(_CF_DEPTH, 0, -1):
        den = (2 * x if j % 2 else x) + tail
        tail = j / den
    return math.exp(-x * x) / _SQRT_PI / (x + tail)


def normal_cdf(x: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    """Gaussian cdf via the in-house erfc."""
    z = (x - mu) / (sigma * math.sqrt(2.0))
    return 0.5 * erfc(-z)


def gamma_half_integer(twice_x: int) -> float:
    """
    Gamma(twice_x / 2) exactly (up to final float rounding).

    Integer arguments give factorials; half-integers use
    Gamma(k + 1/2) = (2k)! / (4^k k!) * sqrt(pi).
    """
    if twice_x <= 0:
        raise ValueError("argument must be a positive multiple of 1/2")
    if twice_x % 2 == 0:
        return float(math.factorial(twice_x // 2 - 1))
    k = (twice_x - 1) // 2  # Gamma(k + 1/2)
    return math.factorial(2 * k) / (4**k * math.factorial(k)) * _SQRT_PI


def log_of_int(x: int) -> float:
    """
    Natural log of a (possibly huge) positive integer.

    Extracts a 53-bit mantissa with bit_length so values far beyond float
    range still convert exactly enough for ratio work in log space.
    """
    if x <= 0:
        raise ValueError("log_of_int needs a positive integer")
    bits = x.bit_length()
    if bits <= 53:
        return math.log(x)
    shift = bits - 53
    return math.log(x >> shift) + shift * math.log(2.0)


def log_of_fraction(fr) -> float:
    """Natural log of a positive Fraction (or int)."""
    num = getattr(fr, "numerator", fr)
    den = getattr(fr, "denominator", 1)
    return log_of_int(num) - log_of_int(den)
