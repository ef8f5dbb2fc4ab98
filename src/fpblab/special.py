"""
Self-contained special functions: erf/erfc, the normal cdf, and Gamma at
integers and half-integers.

The distance checks need a normal cdf that is identical on every platform,
so erf is implemented here from its defining series rather than calling the
platform libm:

- |x| <= 3: the Maclaurin series erf(x) = 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1))
  (worst-case cancellation at x = 3 leaves ~3e-14 absolute error, well
  inside the 1e-12 target).
- |x| > 3: the Laplace continued fraction
  erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/(2x + 2/(x + 3/(2x + ...)))),
  evaluated bottom-up at fixed depth (converges geometrically for x > 3);
  past x = 27, exp(-x^2) underflows and erfc is 0.
- x < 0: erf(x) = -erf(-x) and erfc(x) = 2 - erfc(-x).

`erf`, `erfc`, `normal_cdf` and `exp` take a float (and return a float) or
an array (and return an array of its shape), and work elementwise: one
numpy pass per step of the recurrence serves the whole support of a law.
Each element sees the same IEEE operations, in the same order, as one scalar
evaluation:

- The series runs a fixed _TAYLOR_TERMS terms for every |x| <= 3. That is
  the term at which the rule "stop once a term is below 1e-20 of the sum"
  stops at x = 3, the slowest point (fewer terms suffice below it). Past
  that point the terms shrink and each is below 1e-20 of the sum, far
  below half an ulp of it, so adding it leaves the sum's float unchanged:
  the fixed count gives the bits that summing to the stop rule gives.
- exp(-x^2) is taken element by element with `math.exp`, not `np.exp`:
  numpy dispatches its exp by CPU feature, and on a Xeon with numpy 2.4
  its result differed from libm's in the last bit on about 5% of inputs.

Everything else is +, -, *, / on doubles, correctly rounded on every IEEE
platform, so erf is platform-stable for |x| <= 3. For |x| > 3 it is as
stable as the platform libm's exp, which the continued fraction calls.

Gamma is exact at integers and half-integers (products of odd numbers
times sqrt(pi)), the only arguments the moment predictions take. Both are
cross-checked against math.gamma/math.erf in the tests.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_TAYLOR_CUTOFF = 3.0
_TAYLOR_TERMS = 53
_CF_DEPTH = 100
_ERFC_UNDERFLOW = 27.0


def _float_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def exp(x):
    """`math.exp` elementwise (libm's bits, not numpy's)."""
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return _float_or_array(out)


def _erf_series(a: np.ndarray) -> np.ndarray:
    """erf on 0 <= a <= 3: sum_k (-1)^k a^(2k+1) / (k! (2k+1)), term recurrence on a^2."""
    x2 = a * a
    term = a.copy()  # a^(2k+1)/k! without the 1/(2k+1)
    total = a.copy()
    for k in range(1, _TAYLOR_TERMS + 1):
        term *= -x2 / k
        total += term / (2 * k + 1)
    return 2.0 / _SQRT_PI * total


def _erfc_fraction(a: np.ndarray) -> np.ndarray:
    """erfc on a > 3 (nan passes through): the continued fraction, 0 past the underflow."""
    out = np.zeros_like(a)
    live = ~(a > _ERFC_UNDERFLOW)
    a = a[live]
    # bottom-up: a + 1/(2a + 2/(a + 3/(2a + ...)))
    tail = np.zeros_like(a)
    twice = 2 * a
    for j in range(_CF_DEPTH, 0, -1):
        tail = j / ((twice if j % 2 else a) + tail)
    out[live] = exp(-a * a) / _SQRT_PI / (a + tail)
    return out


def _erf_parts(x):
    """(x, |x| <= 3, erf(|x|) there, erfc(|x|) elsewhere) as arrays."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    small = a <= _TAYLOR_CUTOFF
    return x, small, _erf_series(a[small]), _erfc_fraction(a[~small])


def erf(x):
    """Error function, elementwise; absolute error below 1e-13 everywhere."""
    x, small, series, fraction = _erf_parts(x)
    out = np.empty_like(x)
    out[small] = series
    out[~small] = 1.0 - fraction
    return _float_or_array(np.where(x < 0, -out, out))


def erfc(x):
    """Complementary error function, elementwise."""
    x, small, series, fraction = _erf_parts(x)
    out = np.empty_like(x)
    out[small] = 1.0 - series
    out[~small] = fraction
    return _float_or_array(np.where(x < 0, 2.0 - out, out))


def normal_cdf(x, mu: float = 0.0, sigma: float = 1.0):
    """Gaussian cdf via the in-house erfc, elementwise in x."""
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
