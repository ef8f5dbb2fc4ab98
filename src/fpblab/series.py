"""
Exact big-integer series engine for fixed-point-biased permutation counts.

Everything here is driven by one bivariate generating function: for any of
the three patterns 132, 321, 213, the total weight of avoiders of length n
with bias q on fixed points has generating function

    G(z, q) = 2 / (1 + 2(1-q)z + sqrt(1-4z)).

Multiplying numerator and denominator by the conjugate clears the square
root (the rationalization of a square-root singularity; Flajolet and
Sedgewick, Analytic Combinatorics, 2009, ch. VII):

    G(z, q) = (C(z) + 1 - q) / ((2 - q) + (1 - q)^2 z),

with C the Catalan series, so for n >= 1

    (2 - q) g_n = Catalan(n) - (1 - q)^2 g_{n-1}.

At q = 2 the constant term of the denominator vanishes; there G = C^2 and
g_n = Catalan(n+1). The fixed-q engines run this first-order recurrence and
return plain values:

- normalizations at a rational q = a/b (`avoider_series`, a list of
  Fractions): on U_n = g_n b^n the recurrence reads
  (2b-a) U_n = Catalan(n) b^(n+1) - (b-a)^2 U_{n-1}, with an exact
  division; O(n) big-integer operations up to n. The pair U_n / b^n is
  already in lowest terms: U_n = sum_k c_k a^k b^(n-k), with c_k the
  avoiders of length n with k fixed points, and c_n = 1 (the identity),
  so U_n = a^n (mod b), and a^n is prime to b (q is in lowest terms).
  `zn` prints U_n / b^n straight from the integers (`_normalization_texts`),
  without a gcd per n;
- factorial moments: [z^n] m! (qz)^m G^(m+1) = q^m g_n^(m)(q), from the
  m-fold q-derivative (Leibniz) of the recurrence in O(m n) operations; at
  q = 2 one ballot coefficient of C^(2m+2) instead.

The rows in q, one count per fixed-point number, come from a closed form
of their own (`avoider_row`, below); `avoider_polynomials` stacks them.

The 231 and 312 avoiders (the same rows: inversion keeps fixed points)
have no such closed form. Their rows (`avoider_polynomials_231`) come from
the continued fraction of Elizalde ("Fixed points and excedances in
restricted permutations", Electron. J. Combin. 18(2), 2011),

    F_j(z) = 1 / (1 - z F_{j+1}(z) - (q - 1) Catalan(j) z^(j+1)),

with F_0 the generating function of the rows. Level j first changes the
coefficient of z^(2j+1) in F_0, so rows up to N need the levels
j <= (N-1)/2 alone, level j only through z^(N-j), and below the last one
F = C, the Catalan series (the q = 1 solution). Expanding them costs about
N^3 / 7 products of integers of up to 2 N^2 bits (q packed into each
integer).

The tests check these engines against the convolution recurrences of the
square-root form, the synthetic division by 2 - q, and exhaustive
enumeration. Every size is checked against the budgets of `config`, which
FPBL_BUDGET alone sets.

Each row has a closed form. In the square-root form the avoiders
with k fixed points have the column series A_k(z) = z^k psi^(k+1), with
psi = 1/(1 - z(C - 1)). The series w = z psi solves w = z phi(w) for
phi(w) = (1-w)^2/(1-2w), so A_k = w^(k+1)/z, and Lagrange inversion
(Flajolet and Sedgewick, Thm A.2) gives

    a[k][n] = [z^(n+1)] w^(k+1) = (k+1)/(n+1) p_(n-k),
    p_j = [w^j] phi(w)^(n+1).

Since phi'/phi = 2w/((1-w)(1-2w)), P = phi^(n+1) satisfies
(1 - 3w + 2w^2) P' = 2(n+1) w P, which reads

    p_0 = 1, p_1 = 0, (j+1) p_(j+1) = 3j p_j + 2(n+2-j) p_(j-1).

For j <= n every term is nonnegative, so row n costs O(n) operations and
no cancellation: in integers (`avoider_row`, both divisions exact), or in
floats (`scaled_weight_row`, t[k] = a[k][n] q^k / base^n, the base set by
q alone: 4 up to the phase point q = 3, the growth rate (q-1)^2/(q-2) past
it), where the recurrence runs on p_j / q^j and every entry keeps machine-epsilon
relative accuracy at any n. The floats split powers of two off exactly,
so nothing overflows or underflows on the way; an entry rounds to 0 only
when its own value lies below the float range. A row at n = 2000 takes
about a millisecond. `scaled_weight_rows` stacks these rows into the
table t[n, k].

    >>> [avoider_row(n) for n in range(5)]
    [(1,), (0, 1), (1, 0, 1), (2, 2, 0, 1), (6, 4, 3, 0, 1)]
    >>> (scaled_weight_row(1.0, 4) * 4**4).round(12).tolist()  # q = 1, base 4
    [6.0, 4.0, 3.0, 0.0, 1.0]

On all of S_n the normalization Z_n = sum_k binom(n,k) D_(n-k) q^k (D the
derangements) has exponential generating function e^((q-1)z) / (1-z), so
Z_n = n Z_(n-1) + (q-1)^n, and U_n = b^n Z_n = n b U_(n-1) + (a-b)^n in
integers. U_n = a^n (mod b) (the identity's term), so `zn` prints both
measures' U_n / b^n from one pass each (`_scaled_normalizations`), no gcd.

    >>> [unrestricted_normalization(2, n) for n in range(5)]
    [Fraction(1, 1), Fraction(2, 1), Fraction(5, 1), Fraction(16, 1), Fraction(65, 1)]

Catalan and derangement numbers come from their own recurrences so they can
serve as independent oracles for the series code. `_value_to_text` is the
one formatter of exact and float values, at any number of digits.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import mul

import numpy as np

from .config import BudgetExceededError, budgets, check_budget

TAU_CLASS = ("132", "321", "213")  # patterns sharing the generating function
_SHIFT = 512  # scaled_weight_row shifts its recurrence down by 2^_SHIFT once past it


def as_rational(q) -> Fraction:
    """Coerce int/str/Fraction to an exact rational ("a/b" and "0.25" both work)."""
    if isinstance(q, float):
        raise TypeError(
            "exact modes require an exact rational q (int, Fraction, or string); "
            "floats are only accepted in scaled-float mode"
        )
    return Fraction(q)


# ---------------------------------------------------------------------------
# Reference integer sequences (independent recurrences; they act as oracles)
# ---------------------------------------------------------------------------

_catalan_cache: list[int] = [1]


def catalan_numbers(n_max: int) -> list[int]:
    """Catalan numbers C_0..C_n via the ratio recurrence C_n = C_{n-1}*2(2n-1)/(n+1)."""
    c = _catalan_cache
    while len(c) <= n_max:
        n = len(c)
        c.append(c[-1] * 2 * (2 * n - 1) // (n + 1))
    return c[: n_max + 1]


def derangement_numbers(n_max: int) -> list[int]:
    """D_0..D_n with D_0 = 1, D_1 = 0, D_n = (n-1)(D_{n-1} + D_{n-2})."""
    d = [1, 0]
    for n in range(2, n_max + 1):
        d.append((n - 1) * (d[n - 1] + d[n - 2]))
    return d[: n_max + 1]


# ---------------------------------------------------------------------------
# Exact engines
# ---------------------------------------------------------------------------


def avoider_polynomials(n_max: int) -> list[tuple[int, ...]]:
    """
    Length-n fixed-point polynomials for the 132/321/213 avoidance classes,
    as coefficient rows for n = 0..n_max: the rows of `avoider_row`.

    Row n has n+1 entries: entry k counts the avoiders of length n with
    exactly k fixed points (the identity makes entry n a 1). The row sums
    to Catalan(n), and sum_k row[k] q^k is the normalization constant of the
    biased avoiding measure.
    """
    check_budget("poly", n_max)
    return [avoider_row(n) for n in range(n_max + 1)]


def avoider_row(n: int) -> tuple[int, ...]:
    """
    Counts of the avoiders of length n by fixed-point number k = 0..n, in
    O(n) big-integer operations:
    a[k][n] = (k+1)/(n+1) p_(n-k), with p_j = [w^j] ((1-w)^2/(1-2w))^(n+1)
    from the positive recurrence of the module docstring. Both divisions
    are exact.
    """
    check_budget("poly", n)
    p = [1, 0]
    for j in range(1, n):
        p.append((3 * j * p[j] + 2 * (n + 2 - j) * p[j - 1]) // (j + 1))
    return tuple((k + 1) * p[n - k] // (n + 1) for k in range(n + 1))


def avoider_polynomials_231(n_max: int) -> list[tuple[int, ...]]:
    """
    Length-n fixed-point polynomials for the 231 and 312 avoidance classes,
    as coefficient rows for n = 0..n_max, from Elizalde's continued fraction.

    Row n has n+1 entries: entry k counts the 231-avoiders (equally the
    312-avoiders, their inverses) of length n with exactly k fixed points.
    The row sums to Catalan(n).

    The levels of the continued fraction (see the module docstring) are
    expanded from the deepest one up at q = x = 2^bits, with x above
    Catalan(n_max): the coefficient of z^n in F_0 is then one integer whose
    base-x digits are row n, since every entry lies in 0..Catalan(n). Sizes
    past the `enum` budget are refused.

    >>> avoider_polynomials_231(4)
    [(1,), (0, 1), (1, 0, 1), (1, 3, 0, 1), (4, 4, 5, 0, 1)]
    """
    cap = budgets()["enum"]
    if n_max > cap:
        raise BudgetExceededError(
            f"the 231/312 series rows are capped at n={cap} (the enum budget); got n={n_max}"
        )
    cat = catalan_numbers(n_max)
    bits = cat[n_max].bit_length()
    x = 1 << bits
    depth = (n_max - 1) // 2
    f = cat[: n_max - depth]  # below the last level q no longer shows: F = C
    for j in range(depth, -1, -1):
        tail, f = f, [1]  # F_{j+1} through z^(n_max-j-1), then F_j through z^(n_max-j)
        shift = (x - 1) * cat[j]
        for m in range(1, n_max - j + 1):
            v = sum(t * g for t, g in zip(tail, reversed(f)))
            if m > j:
                v += shift * f[m - j - 1]
            f.append(v)
    mask = x - 1
    return [tuple((f[n] >> (bits * k)) & mask for k in range(n + 1)) for n in range(n_max + 1)]


def _scaled_derivatives(q: Fraction, m_max: int, n_max: int) -> list[list[int]]:
    """
    d[m][n] = b^n * (d/dq)^m g_n at q = a/b != 2, for m <= m_max and n <= n_max.

    Differentiating (2-q) g_n + (1-q)^2 g_{n-1} = Catalan(n) m times (Leibniz)
    and scaling by b^(n+1) gives, for n >= 1,

        (2b-a) d[m][n] = [m=0] Catalan(n) b^(n+1) + m b d[m-1][n]
                         - (b-a)^2 d[m][n-1] + 2m(b-a) b d[m-1][n-1]
                         - m(m-1) b^2 d[m-2][n-1],

    with d[0][0] = 1. Every d[m][n] is an integer (g_n has integer
    coefficients and degree n), so each division is exact.
    """
    a, b = q.numerator, q.denominator
    c, s, t = 2 * b - a, (b - a) ** 2, (b - a) * b
    cat = catalan_numbers(n_max)
    d = [[0] * (n_max + 1) for _ in range(m_max + 1)]
    d[0][0] = 1
    bp = b
    for n in range(1, n_max + 1):
        bp *= b  # b^(n+1)
        d[0][n] = (cat[n] * bp - s * d[0][n - 1]) // c
        for m in range(1, m_max + 1):
            acc = m * b * d[m - 1][n] - s * d[m][n - 1] + 2 * m * t * d[m - 1][n - 1]
            if m >= 2:
                acc -= m * (m - 1) * b * b * d[m - 2][n - 1]
            d[m][n] = acc // c
    return d


def _scaled_normalizations(q: Fraction, n_max: int, tau: str | None = "321") -> list[int]:
    """U_n = b^n Z_n(q) at q = a/b, n = 0..n_max, on the 132/321/213 avoiders or (tau=None) all of S_n."""
    if tau is None:
        u, b, step = [1], q.denominator, 1
        for n in range(1, n_max + 1):
            step *= q.numerator - b
            u.append(n * b * u[-1] + step)
        return u
    if q == 2:  # G = C^2, so g_n = Catalan(n+1)
        return catalan_numbers(n_max + 1)[1:]
    return _scaled_derivatives(q, 0, n_max)[0]


def avoider_series(q, n_max: int) -> list[Fraction]:
    """
    Exact normalization constants of the biased avoiding measure, n = 0..n_max.

    Entry n = sum over avoiders of length n of q^(fixed points), as a
    Fraction. At q = 1 these are the Catalan numbers; q = 0 counts the
    fixed-point-free avoiders (the measure itself needs q > 0, the series
    does not).
    """
    q = as_rational(q)
    check_budget("eval", n_max)
    u, b = _scaled_normalizations(q, n_max), q.denominator
    return [Fraction(u[n], b**n) for n in range(n_max + 1)]


def _normalization_texts(q, n_max: int, tau: str | None) -> list[str]:
    """`_value_to_text` of each U_n / b^n of `_scaled_normalizations`: in lowest terms, so no gcd."""
    q = as_rational(q)
    check_budget("eval", n_max)
    texts, bn = [], 1
    for u in _scaled_normalizations(q, n_max, tau):
        texts.append(_ratio_to_text(u, bn))
        bn *= q.denominator
    return texts


def avoider_normalization(q, n: int) -> Fraction:
    """Normalization constant of the biased avoiding measure at a single n."""
    q = as_rational(q)
    check_budget("eval", n)
    return Fraction(_scaled_normalizations(q, n)[n], q.denominator**n)


def _scaled_factorial_moment(m: int, q: Fraction, n: int) -> int:
    """
    b^(n+m) * [z^n] m! (qz)^m G^(m+1) at q = a/b.

    That coefficient is q^m g_n^(m)(q). At q = 2, where the derivative
    recurrence would divide by zero, G^(m+1) = C^(2m+2), and powers of the
    Catalan series have the ballot coefficients [z^j] C^r = r/(2j+r) binom(2j+r, j):
    one of them, at j = n - m, is the answer.
    """
    if q == 2:
        if n < m:
            return 0
        r, j = 2 * m + 2, n - m
        return factorial(m) * 2**m * (r * comb(2 * j + r, j) // (2 * j + r))
    return q.numerator**m * _scaled_derivatives(q, m, n)[m][n]


def factorial_moment_coefficient(m: int, q, n: int) -> Fraction:
    """
    [z^n] of the m-th falling-factorial weight series at bias q, exactly.

    The series is m! (qz)^m G^{m+1}; dividing the result by the length-n
    normalization gives the m-th factorial moment of the fixed-point count
    under the biased avoiding measure.
    """
    if m < 1:
        raise ValueError("moment order m must be >= 1")
    q = as_rational(q)
    check_budget("eval", n)
    return Fraction(_scaled_factorial_moment(m, q, n), q.denominator ** (n + m))


def unrestricted_normalization(q, n: int) -> Fraction:
    """
    Total bias weight of all of S_n, sum_k binom(n,k) D_(n-k) q^k, from the
    first-order recurrence of the module docstring, within the `eval` budget.

    At q = 1 this is n!; at q = 0 it is the derangement number D_n.
    """
    q = as_rational(q)
    check_budget("eval", n)
    return Fraction(_scaled_normalizations(q, n, None)[n], q.denominator**n)


def bias_weights(counts, q: Fraction) -> list[int]:
    """
    Integer weights c_k a^k b^(n-k) for counts c_0..c_n by fixed-point
    number and q = a/b: b^n times the bias weights c_k q^k, so the law
    they give is the same, with one common denominator.
    """
    n = len(counts) - 1
    a_pow = accumulate([q.numerator] * n, mul, initial=1)
    b_pow = list(accumulate([q.denominator] * n, mul, initial=1))
    return [c * x * y for c, x, y in zip(counts, a_pow, reversed(b_pow))]


def unrestricted_weights(q, n: int) -> list[int]:
    """Integer weights of all of S_n by fixed-point count k: `bias_weights` of binom(n,k)*D_{n-k}."""
    d = derangement_numbers(n)
    counts, c = [], 1
    for k in range(n + 1):
        counts.append(c * d[n - k])
        c = c * (n - k) // (k + 1)
    return bias_weights(counts, as_rational(q))


def _power_parts(x: float, n: int) -> tuple[float, int]:
    """(m, e) with x^n = m * 2^e, by binary powering with the exponent kept apart."""
    m, e = math.frexp(x)
    pm, pe = 1.0, 0
    while n:
        if n & 1:
            pm, d = math.frexp(pm * m)
            pe += e + d
        m, d = math.frexp(m * m)
        e = 2 * e + d
        n >>= 1
    return pm, pe


def _default_base(q: float) -> float:
    """4 up to the phase point q = 3; above it the growth rate (q-1)^2/(q-2) > 4."""
    return 4.0 if q <= 3 else (q - 1) * ((q - 1) / (q - 2))


def scaled_weight_row(q: float, n: int) -> np.ndarray:
    """
    Row n of `scaled_weight_rows`: t[k] = a[k][n] q^k / base^n, k = 0..n,
    with base = `_default_base(q)`.

    With q = mq 2^eq (0.5 <= mq < 1) the recurrence of the module docstring
    runs on v_j = p_j / mq^j,

        (j+1) v_(j+1) = (3j/mq) v_j + (2(n+2-j)/mq^2) v_(j-1),

    whose coefficients stay below 6j and 8(n+2-j) at any q. The values are
    shifted down by 2^512 once they pass it, with the shifts counted in an
    integer exponent. Then t[n-j] = (n-j+1)/(n+1) v_j 2^(-eq j) (q/base)^n,
    with (q/base)^n as a mantissa and an exponent, and one ldexp per entry
    rounds it into float range. O(n) operations.
    """
    q = float(q)
    if q <= 0:
        raise ValueError("bias parameter q must be positive")
    base = _default_base(q)
    mq, eq = math.frexp(q)
    c3, c2 = 3.0 / mq, 2.0 / (mq * mq)
    big = 2.0**_SHIFT
    vals, shifts = [1.0], [0]
    prev, cur, shift = 0.0, 1.0, 0  # v_(j-1), v_j at 2^shift; v_(-1) = 0
    for j in range(n):
        prev, cur = cur, (j * c3 * cur + (n + 2 - j) * c2 * prev) / (j + 1)
        if cur > big:
            prev, cur, shift = math.ldexp(prev, -_SHIFT), math.ldexp(cur, -_SHIFT), shift + _SHIFT
        vals.append(cur)
        shifts.append(shift)
    rm, re_ = _power_parts(q / base, n)
    j = np.arange(n + 1)
    mant = np.array(vals) * ((n + 1 - j) / (n + 1)) * rm
    return np.ldexp(mant, np.array(shifts) - eq * j + re_)[::-1]


def scaled_weight_rows(q: float, n_max: int, k_max: int | None = None) -> np.ndarray:
    """
    Scaled bias weights t[n, k] = a[k][n] * q^k / base^n (float engine), the
    rows of `scaled_weight_row` for n = 0..n_max, cut at k_max.

    For q <= 3 rows are scaled by 4^n; above the phase point the
    normalization grows like ((q-1)^2/(q-2))^n > 4^n and that base is used
    instead so the mass-carrying entries stay representable. Each row still
    normalizes to the same probability vector.
    """
    if k_max is None:
        k_max = n_max
    t = np.zeros((n_max + 1, k_max + 1))
    for n in range(n_max + 1):
        row = scaled_weight_row(q, n)[: k_max + 1]
        t[n, : len(row)] = row
    return t


# ---------------------------------------------------------------------------
# Number text: what the lab prints, and reads back, at any number of digits
# ---------------------------------------------------------------------------

_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")  # what _value_to_text writes for exact values


def _value_to_text(v) -> str:
    """
    "a" or "a/b" for an int or Fraction, at any number of digits, and
    repr(float(v)) for anything else (a numpy float's own repr would read
    np.float64(...)).
    """
    if isinstance(v, Fraction):
        return _ratio_to_text(v.numerator, v.denominator)
    if isinstance(v, int):
        return _int_to_str(v)
    return repr(float(v))


def _ratio_to_text(num: int, den: int) -> str:
    """"num", or "num/den" unless den is 1, for num/den in lowest terms with den > 0."""
    if den == 1:
        return _int_to_str(num)
    return f"{_int_to_str(num)}/{_int_to_str(den)}"


def _int_to_str(x: int) -> str:
    # str() refuses ints beyond the interpreter's digit limit; Decimal renders
    # the same digits without touching that process-wide setting (imported
    # here because few runs need it and every CLI start would pay for it)
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(x))


def _text_to_rational(text: str) -> Fraction:
    """Fraction(text), which also reads `_value_to_text`'s exact texts past the digit limit."""
    try:
        return Fraction(text)
    except ValueError:
        if not _RATIONAL_TEXT.fullmatch(text):
            raise
    # Fraction() and int() stop at the digit limit; Decimal parses exactly
    from decimal import Decimal

    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))
