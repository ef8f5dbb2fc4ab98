"""
Independent reference values for checking fpblab's outputs.

Nothing here imports fpblab. The exact references come from the
rationalized form of the avoider generating function,

    G(z, q) = (C(z) + 1 - q) / ((2 - q) + (1 - q)^2 z),

where C is the Catalan series, so (2-q) g_n = Cat(n) - (1-q)^2 g_{n-1} for
q != 2 and g_n = Cat(n+1) at q = 2. Differentiating m times in q gives the
derivative series g_n^(m), and the m-th factorial-moment coefficient is
q^m g_n^(m)(q). Small pattern classes are enumerated from their own
decompositions, and pattern avoidance is tested in linear time.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

PATTERNS = ("123", "132", "213", "231", "312", "321")


@lru_cache(maxsize=4)
def catalan(n_max: int) -> tuple[int, ...]:
    """Cat(0..n_max) from the binomial formula."""
    return tuple(math.comb(2 * n, n) // (n + 1) for n in range(n_max + 1))


@lru_cache(maxsize=16)
def derivative_table(q: Fraction, n_max: int, m_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """
    d[m][n] = g_n^(m)(q), the m-th q-derivative of the length-n avoider
    weight, for n <= n_max and m <= m_max, with q != 2.

    Leibniz on (2-q) g_n + (1-q)^2 g_{n-1} = Cat(n) gives, for n >= 1,

        (2-q) g_n^(m) = [m=0] Cat(n) + m g_n^(m-1) - (1-q)^2 g_{n-1}^(m)
                        + 2m(1-q) g_{n-1}^(m-1) - m(m-1) g_{n-1}^(m-2),

    with g_0 = 1 and g_0^(m) = 0 for m >= 1.
    """
    q = Fraction(q)
    if q == 2:
        raise ValueError("the derivative recurrence divides by 2 - q")
    cat = catalan(n_max)
    two_minus_q, one_minus_q = 2 - q, 1 - q
    sq = one_minus_q**2
    d = [[Fraction(0)] * (n_max + 1) for _ in range(m_max + 1)]
    d[0][0] = Fraction(1)
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            acc = -sq * d[m][n - 1]
            if m == 0:
                acc += cat[n]
            if m >= 1:
                acc += m * d[m - 1][n] + 2 * m * one_minus_q * d[m - 1][n - 1]
            if m >= 2:
                acc -= m * (m - 1) * d[m - 2][n - 1]
            d[m][n] = acc / two_minus_q
    return tuple(tuple(row) for row in d)


def normalization(q: Fraction, n_max: int) -> list[Fraction]:
    """g_0..g_n_max at bias q: the total q^(fixed points) weight of 321-avoiders."""
    q = Fraction(q)
    if q == 2:
        return [Fraction(c) for c in catalan(n_max + 1)[1:]]
    return list(derivative_table(q, n_max, 0)[0])


def factorial_moment_coefficient(m: int, q: Fraction, n: int) -> Fraction:
    """sum_k (k)_m a[k][n] q^k = q^m g_n^(m)(q)."""
    q = Fraction(q)
    return q**m * derivative_table(q, n, m)[m][n]


def avoider_moments(q: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Mean and second factorial moment of the fixed-point count of a q-biased 321-avoider."""
    g = normalization(q, n)[n]
    return factorial_moment_coefficient(1, q, n) / g, factorial_moment_coefficient(2, q, n) / g


def derangements(n_max: int) -> list[int]:
    """D_0..D_n_max from D_n = n D_{n-1} + (-1)^n."""
    d = [1]
    for n in range(1, n_max + 1):
        d.append(n * d[-1] + (-1) ** n)
    return d


def unrestricted_law(q: Fraction, n: int) -> list[Fraction]:
    """Exact law of the fixed-point count under bias q on all of S_n."""
    q = Fraction(q)
    d = derangements(n)
    w = [math.comb(n, k) * d[n - k] * q**k for k in range(n + 1)]
    total = sum(w)
    return [x / total for x in w]


def poisson_pmf(lam: float, k: int) -> float:
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


def tv_to_poisson(law: list[Fraction], lam: float) -> float:
    """Total variation to Poisson(lam), counting Poisson mass beyond n in full."""
    acc = 0.0
    mass = 0.0
    for k, p in enumerate(law):
        lk = poisson_pmf(lam, k)
        acc += abs(float(p) - lk)
        mass += lk
    return (acc + max(1.0 - mass, 0.0)) / 2.0


# ---------------------------------------------------------------------------
# Small pattern classes and avoidance tests
# ---------------------------------------------------------------------------


def _split_class(n: int, pivot_is_max: bool) -> list[tuple[int, ...]]:
    """
    Permutations alpha . pivot . beta with every entry of alpha below every
    entry of beta, alpha and beta again of this form. Pivot n gives the
    231-avoiders, pivot 1 gives the 312-avoiders.
    """
    if n == 0:
        return [()]
    out = []
    for left in range(n):
        right = n - 1 - left
        for a in _split_class(left, pivot_is_max):
            for b in _split_class(right, pivot_is_max):
                if pivot_is_max:
                    out.append(a + (n,) + tuple(v + left for v in b))
                else:
                    out.append(tuple(v + 1 for v in a) + (1,) + tuple(v + left + 1 for v in b))
    return out


def avoider_class(n: int, tau: str) -> list[tuple[int, ...]]:
    """All 231- or 312-avoiders of length n."""
    if tau == "231":
        return _split_class(n, pivot_is_max=True)
    if tau == "312":
        return _split_class(n, pivot_is_max=False)
    raise ValueError(f"no decomposition for pattern {tau}")


def _has_321(s) -> bool:
    n = len(s)
    suffix_min = [n + 1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = min(s[i], suffix_min[i + 1])
    prefix_max = 0
    for j, v in enumerate(s):
        if prefix_max > v > suffix_min[j + 1]:
            return True
        prefix_max = max(prefix_max, v)
    return False


def _has_132(s) -> bool:
    # scan from the right; `two` is the largest value seen that has a larger
    # value to its left among the scanned entries, so s[i] < two closes a 132
    stack: list[int] = []
    two = 0
    for v in reversed(s):
        if v < two:
            return True
        while stack and stack[-1] < v:
            two = stack.pop()
        stack.append(v)
    return False


def contains(s, tau: str) -> bool:
    """Whether the permutation s (values 1..n) contains the length-3 pattern tau."""
    n = len(s)
    rev = s[::-1]
    comp = [n + 1 - v for v in s]
    return {
        "321": lambda: _has_321(s),
        "123": lambda: _has_321(rev),
        "132": lambda: _has_132(s),
        "231": lambda: _has_132(rev),
        "312": lambda: _has_132(comp),
        "213": lambda: _has_132(comp[::-1]),
    }[tau]()
