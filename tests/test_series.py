"""Series engine: recurrences against enumeration oracles and each other."""
import sys
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpblab import dist, perms, series
from fpblab.config import BudgetExceededError

# biases for the oracle comparisons: q = 2 takes the Catalan route, q = 3 is
# the phase point, and the thirds keep denominators in the scaled recurrences
ORACLE_QS = tuple(Fraction(q) for q in ("0", "1/2", "1", "2", "3", "7/3", "10/3"))
# a bias just above 2 with a 10 000-bit denominator: 2b - a = -1 there
HUGE_Q = 2 + Fraction(1, 2**9999 + 1)


def brute_counts(n, tau):
    return perms.fixed_point_counts(perms.enumerate_avoiders(n, tau), n)


# ---------------------------------------------------------------------------
# Oracles: the convolution recurrences that the square-root form
# G = 2 / (1 + 2(1-q)z + sqrt(1-4z)) gives directly,
#     g_n = (q-1) g_{n-1} + sum_{j=1..n} Catalan(j-1) g_{n-j},
# independent of the rationalized closed form the engine runs.
# ---------------------------------------------------------------------------


def catalan_numbers_by_convolution(n_max):
    """Catalan numbers by C_0 = 1, C_{n+1} = sum_i C_i C_{n-i} (the engine uses the ratio route)."""
    c = [1]
    for n in range(n_max):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return c


def _oracle_scaled_series(q, n_max):
    """U_n = g_n * b^n at q = a/b, all integers (weights Catalan(j-1) * b^j)."""
    a, b = q.numerator, q.denominator
    cat = catalan_numbers_by_convolution(n_max)
    w = [0] + [cat[j - 1] * b**j for j in range(1, n_max + 1)]
    u = [1]
    for n in range(1, n_max + 1):
        u.append((a - b) * u[n - 1] + sum(w[j] * u[n - j] for j in range(1, n + 1)))
    return u


def oracle_series(q, n_max):
    """g_0..g_n_max at a fixed rational q."""
    q = Fraction(q)
    u = _oracle_scaled_series(q, n_max)
    return [Fraction(u[n], q.denominator**n) for n in range(n_max + 1)]


def oracle_factorial_moments(m, q, n_max):
    """
    [z^n] m! (qz)^m G^(m+1) for n = 0..n_max, with G^(m+1) by repeated
    convolution of the b^n-scaled series (the scaling is multiplicative).
    """
    q = Fraction(q)
    u = _oracle_scaled_series(q, n_max)
    power = [1] + [0] * n_max
    for _ in range(m + 1):
        power = [sum(power[i] * u[j - i] for i in range(j + 1)) for j in range(n_max + 1)]
    scale = factorial(m) * q.numerator**m
    return [Fraction(0) if n < m else Fraction(scale * power[n - m], q.denominator**n) for n in range(n_max + 1)]


def oracle_polynomial_rows(n_max):
    """Coefficient lists of g_n(q) for n = 0..n_max, by the convolution in q."""
    cat = catalan_numbers_by_convolution(n_max)
    g = [[1]]
    for n in range(1, n_max + 1):
        acc = [0] * (n + 1)
        for k, v in enumerate(g[n - 1]):  # (q-1) * g_{n-1}
            acc[k + 1] += v
            acc[k] -= v
        for j in range(1, n + 1):
            for k, v in enumerate(g[n - j]):
                acc[k] += cat[j - 1] * v
        g.append(acc)
    return g


def oracle_division_rows(n_max):
    """
    Coefficient lists of g_n(q) for n = 0..n_max by one exact synthetic
    division per n: g_n = (Catalan(n) - (1-q)^2 g_{n-1}) / (2-q) of the
    rationalized form. Dividing by 2 - q from the constant term up gives
    r_k = (p_k + r_{k-1}) / 2, with p_k the q^k coefficient of the numerator;
    every r_k is an integer.
    """
    cat = catalan_numbers_by_convolution(n_max)
    g = [[1]]
    for n in range(1, n_max + 1):
        pp = [0, 0, *g[-1], 0]  # pp[k + 2] = g_{n-1}[k], zero outside the row
        row, r = [], 0
        for k in range(n + 1):
            p = 2 * pp[k + 1] - pp[k] - pp[k + 2] + (cat[n] if k == 0 else 0)
            r = (p + r) >> 1
            row.append(r)
        g.append(row)
    return g


def oracle_unrestricted_normalization(q, n):
    """Z_n(q) = sum_k binom(n,k) D_(n-k) q^k, the closed form, one Fraction term per k."""
    q = Fraction(q)
    d = series.derangement_numbers(n)
    return sum((comb(n, k) * d[n - k] * q**k for k in range(n + 1)), Fraction(0))


def oracle_bias_weights(counts, q):
    """c_k a^k b^(n-k), each power from scratch."""
    n, a, b = len(counts) - 1, q.numerator, q.denominator
    return [c * a**k * b ** (n - k) for k, c in enumerate(counts)]


def oracle_columns(k_max, n_max):
    """
    a[k][n] from alpha*A_k = 2z*A_{k-1}, alpha = 1 + 2z + sqrt(1-4z):
    a[k][n] = a[k-1][n-1] + sum_{j=2..n} Catalan(j-1) a[k][n-j].
    """
    cat = catalan_numbers_by_convolution(n_max)
    cols = []
    for k in range(k_max + 1):
        col = [0] * (n_max + 1)
        for n in range(n_max + 1):
            acc = 1 if k == 0 and n == 0 else 0
            if k > 0 and n > 0:
                acc = cols[k - 1][n - 1]
            col[n] = acc + sum(cat[j - 1] * col[n - j] for j in range(2, n + 1))
        cols.append(col)
    return cols


def oracle_scaled_columns(n_max, k_max, q, base):
    """
    t[n, k] = a[k][n] q^k / base^n by the column recurrence, one row at a time:
    t[n] = (q/base) shift(t[n-1]) + sum_{j=2..n} Catalan(j-1)/base^j t[n-j],
    with the same weights as the engine and one matrix-vector product per row.
    """
    t = np.zeros((n_max + 1, k_max + 1))
    t[0, 0] = 1.0
    w = np.zeros(n_max + 1)
    if n_max >= 2:
        w[2] = 1.0 / base**2
        for j in range(3, n_max + 1):
            w[j] = w[j - 1] * (2 * (2 * j - 3) / j) / base
    wr = w[::-1].copy()
    qb = q / base
    for n in range(1, n_max + 1):
        row = np.zeros(k_max + 1)
        row[1:] = qb * t[n - 1, :k_max]
        if n >= 2:
            row += wr[n_max - n : n_max - 1] @ t[: n - 1]
        t[n] = row
    return t


def test_series_match_convolution_oracle():
    for q in ORACLE_QS:
        expect = oracle_series(q, 60)
        assert series.avoider_series(q, 60) == expect, q
        assert [series.avoider_normalization(q, n) for n in (0, 1, 2, 59, 60)] == [
            expect[n] for n in (0, 1, 2, 59, 60)
        ], q


def test_polynomial_rows_match_convolution_oracle():
    table = series.avoider_polynomials(60)
    expect = oracle_polynomial_rows(60)
    assert [list(table[n]) for n in range(61)] == expect


def test_closed_form_rows_match_polynomial_table():
    # the O(n) Lagrange-inversion row against the synthetic-division table
    table = oracle_division_rows(200)
    for n in range(201):
        assert list(series.avoider_row(n)) == table[n], n


def test_factorial_moments_match_power_oracle():
    for q in ORACLE_QS:
        for m in (1, 2, 3):
            expect = oracle_factorial_moments(m, q, 40)
            assert [series.factorial_moment_coefficient(m, q, n) for n in range(41)] == expect, (q, m)


def test_huge_denominator_matches_oracle():
    q = HUGE_Q
    assert q.denominator.bit_length() == 10_000
    assert series.avoider_series(q, 20) == oracle_series(q, 20)
    for m in (1, 2, 3):
        expect = oracle_factorial_moments(m, q, 20)
        assert [series.factorial_moment_coefficient(m, q, n) for n in range(21)] == expect, m


def test_columns_match_recurrence_oracle():
    rows = [series.avoider_row(n) for n in range(41)]

    def columns(k_max, n_max):  # a[k][n] from the rows, indexed [k][n]
        return [[row[k] if k < len(row) else 0 for row in rows[: n_max + 1]] for k in range(k_max + 1)]

    for k_max in (0, 1, 5, 12):
        assert columns(k_max, 40) == oracle_columns(k_max, 40), k_max
    assert columns(12, 12) == oracle_columns(12, 12)


def test_lengths_zero_and_one():
    for q in ORACLE_QS + (HUGE_Q,):
        assert series.avoider_series(q, 0) == [1]
        assert series.avoider_series(q, 1) == [1, q]
        assert series.avoider_normalization(q, 0) == 1
        assert series.avoider_normalization(q, 1) == q
        for m in (1, 2, 3):
            assert series.factorial_moment_coefficient(m, q, 0) == 0
            assert series.factorial_moment_coefficient(m, q, 1) == (q if m == 1 else 0)
    assert series.avoider_polynomials(0) == [(1,)]
    assert series.avoider_polynomials(1) == [(1,), (0, 1)]
    assert series.avoider_row(0) == (1,)
    assert series.avoider_row(1) == (0, 1)
    assert series.avoider_polynomials_231(0) == [(1,)]
    assert series.avoider_polynomials_231(1) == [(1,), (0, 1)]


def test_catalan_routes_agree():
    assert series.catalan_numbers(60) == catalan_numbers_by_convolution(60)
    assert series.catalan_numbers(5) == [1, 1, 2, 5, 14, 42]


def test_derangements():
    assert series.derangement_numbers(8) == [1, 0, 1, 2, 9, 44, 265, 1854, 14833]
    # oracle: brute count of fixed-point-free permutations
    for n in range(8):
        brute = sum(1 for s in perms.enumerate_permutations(n) if perms.fixed_points(s) == 0)
        assert series.derangement_numbers(n)[n] == brute


def test_polynomials_match_enumeration_for_all_three_patterns():
    table = series.avoider_polynomials(9)
    for n in range(10):
        for tau in series.TAU_CLASS:
            counts = brute_counts(n, tau)
            assert list(table[n]) == counts, (n, tau)
            assert list(series.avoider_row(n)) == counts, (n, tau)


def test_polynomial_examples():
    table = series.avoider_polynomials(4)
    assert table[1] == (0, 1)  # q
    assert table[3] == (2, 2, 0, 1)  # q^3 + 2q + 2
    assert table[4] == (6, 4, 3, 0, 1)  # q^4 + 3q^2 + 4q + 6


def test_polynomial_invariants():
    cat = series.catalan_numbers(40)
    table = series.avoider_polynomials(40)
    for n in range(41):
        row = table[n]
        assert len(row) == n + 1
        assert all(c >= 0 for c in row)
        assert sum(row) == cat[n]  # mass identity at q = 1
        if n >= 2:
            assert row[n - 1] == 0  # no permutation has n-1 fixed points
        assert row[n] == 1  # only the identity has n fixed points


def test_231_rows_match_enumeration():
    # one continued fraction serves both patterns: inversion keeps fixed points
    table = series.avoider_polynomials_231(12)
    for n in range(13):
        for tau in ("231", "312"):
            assert list(table[n]) == brute_counts(n, tau), (n, tau)


def test_231_rows_one_call_equals_separate_calls(monkeypatch):
    # the truncation depth and the packing width both follow n_max
    monkeypatch.setenv("FPBL_BUDGET", "enum=40")
    cat = series.catalan_numbers(40)
    table = series.avoider_polynomials_231(40)
    for n in range(41):
        assert series.avoider_polynomials_231(n) == table[: n + 1], n
        row = table[n]
        assert len(row) == n + 1 and sum(row) == cat[n]
        assert row[n] == 1 and (n < 2 or row[n - 1] == 0)


def test_eval_engine():
    assert [int(v) for v in series.avoider_series(1, 12)] == series.catalan_numbers(12)
    assert series.avoider_series(2, 3)[3] == 14  # 8 + 4 + 2
    assert series.avoider_series(0, 4)[4] == 6  # fixed-point-free 321-avoiders of length 4
    table = series.avoider_polynomials(10)
    for q in (Fraction(1, 2), Fraction(7, 3), Fraction(5)):
        ser = series.avoider_series(q, 10)
        for n in range(11):
            assert ser[n] == sum(c * q**k for k, c in enumerate(table[n])), (q, n)


# any rational: q = 0, negative q, q = 2 (the Catalan route), denominators up to 2^4096
_TEXT_QS = st.one_of(st.sampled_from([Fraction(0), Fraction(2), Fraction(-1), Fraction(-3, 2)]),
                     st.builds(Fraction, st.integers(-(2**4096), 2**4096), st.integers(1, 2**4096)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), _TEXT_QS)
@example(0, Fraction(1, 2))
@example(30, Fraction(2))
@example(30, Fraction(0))
@example(12, HUGE_Q)
def test_series_text_is_value_text_of_series(n_max, q):
    # printed straight from U_n and b^n: the pairs are in lowest terms, so no gcd is needed
    want = [series._value_to_text(v) for v in series.avoider_series(q, n_max)]
    assert series._normalization_texts(q, n_max, "321") == want
    # the measure on all of S_n: its pairs U_n, b^n are in lowest terms too
    want = [series._value_to_text(oracle_unrestricted_normalization(q, n)) for n in range(n_max + 1)]
    assert series._normalization_texts(q, n_max, None) == want


def test_eval_engine_float_rejected():
    with pytest.raises(TypeError, match="exact rational"):
        series.avoider_series(0.5, 5)
    with pytest.raises(TypeError, match="exact rational"):
        series._normalization_texts(0.5, 5, "321")
    with pytest.raises(TypeError, match="exact rational"):
        series._normalization_texts(0.5, 5, None)


def test_scaled_float_columns_track_exact():
    # spec regression band: absolute error <= 1e-10 for n <= 200, k <= n
    n_max = 200
    exact = oracle_columns(n_max, n_max)
    scaled = series.scaled_weight_rows(1, n_max)  # a[k][n] / 4^n, indexed [n, k]
    worst = 0.0
    for n in range(n_max + 1):
        for k in range(n + 1):
            worst = max(worst, abs(float(scaled[n, k]) - exact[k][n] / 4.0**n))
    assert worst <= 1e-10, worst


# the smallest tables, sizes on both sides of two powers of two, and n = 300
@pytest.mark.parametrize("n_max", [0, 1, 2, 63, 64, 65, 128, 129, 300])
@pytest.mark.parametrize("q,base", [(0.5, 4.0), (1.0, 4.0), (2.0, 4.0), (3.0, 4.0), (4.0, 4.5),
                                    (5.0, 16 / 3)])
def test_scaled_columns_match_row_by_row_oracle(n_max, q, base):
    for k_max in sorted({0, 1, 5, n_max}):
        want = oracle_scaled_columns(n_max, k_max, q, base)
        got = series.scaled_weight_rows(q, n_max, k_max, base)
        assert got.shape == want.shape
        assert np.array_equal(got == 0.0, want == 0.0), k_max
        nz = want != 0.0
        assert np.all(np.abs(got[nz] - want[nz]) <= 1e-12 * want[nz]), k_max
        # seeded scaled-float dumps draw from these tables: a rerun must repeat them
        assert np.array_equal(series.scaled_weight_rows(q, n_max, k_max, base), got), k_max


@pytest.mark.parametrize("q", [Fraction(1e-300), Fraction(1e-3), Fraction(1e3), Fraction(1e300), HUGE_Q])
def test_scaled_weight_row_extreme_biases(q):
    # nothing overflows or underflows on the way: only entries below the
    # float range round to 0, and each row normalizes to a law
    qf = float(q)
    base = Fraction(series._default_base(qf))
    for n in (0, 1, 2, 60):
        row = series.scaled_weight_row(qf, n)
        assert row.shape == (n + 1,) and np.isfinite(row).all() and row.sum() > 0, n
        assert abs((row / row.sum()).sum() - 1) <= 1e-15, n
        law = dist.fp_pmf(dist.MeasureSpec(n, q, "321"), mode="scaled-float")
        assert abs(sum(law.weights.values()) - 1) <= 1e-15, n
    # row is now the n = 60 row: each entry against its exact value
    want = np.array([float(c * q**k / base**60) for k, c in enumerate(series.avoider_row(60))])
    sel = want > 1e-290 * want.max()
    assert np.all(np.abs(row[sel] - want[sel]) <= 1e-12 * want[sel])
    assert np.all(row[~sel] <= 1e-280 * want.max())


def test_unrestricted_closed_form():
    assert series.unrestricted_normalization(1, 4) == 24
    assert series.unrestricted_normalization(0, 4) == 9  # derangements
    # n = 3 polynomial is q^3 + 3q + 2
    for q in (1, 2, Fraction(1, 2)):
        q = Fraction(q)
        assert series.unrestricted_normalization(q, 3) == q**3 + 3 * q + 2
    for n in range(8):
        for q in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
            brute = sum(q ** perms.fixed_points(s) for s in perms.enumerate_permutations(n))
            assert series.unrestricted_normalization(q, n) == brute


# q = 0 counts derangements, q = 2 and 1/2 invert each other's powers, a negative q too
UNRESTRICTED_QS = tuple(Fraction(q) for q in ("0", "1", "2", "1/2", "7/3", "-1/3"))


@pytest.mark.parametrize("q", UNRESTRICTED_QS)
def test_unrestricted_recurrence_matches_closed_form(q):
    # one pass of U_n = n b U_(n-1) + (a-b)^n against the closed form, term by term
    want = [oracle_unrestricted_normalization(q, n) for n in range(61)]
    u = series._scaled_normalizations(q, 60, None)
    assert [Fraction(u[n], q.denominator**n) for n in range(61)] == want
    assert [series.unrestricted_normalization(q, n) for n in range(61)] == want
    # U_n = a^n (mod b): U_n / b^n is the lowest-terms pair the text route prints
    assert all(u[n] % q.denominator == q.numerator**n % q.denominator for n in range(61))


@pytest.mark.parametrize("q", UNRESTRICTED_QS + (Fraction(13, 7), Fraction(1, 1000)))
def test_weights_match_per_k_powers(q):
    # the running products give the integers of the per-k powers
    d = series.derangement_numbers(60)
    for n in range(61):
        counts = [comb(n, k) * d[n - k] for k in range(n + 1)]
        assert series.unrestricted_weights(q, n) == oracle_bias_weights(counts, q), n
        row = series.avoider_row(n)
        assert series.bias_weights(row, q) == oracle_bias_weights(row, q), n


def test_factorial_moment_examples():
    # order 1, n = 3: the weight series coefficient is 3q^3 + 2q
    for q in (1, 2, Fraction(1, 3)):
        q = Fraction(q)
        assert series.factorial_moment_coefficient(1, q, 3) == 3 * q**3 + 2 * q
    assert series.factorial_moment_coefficient(2, 1, 3) == 6  # only the identity contributes
    assert series.factorial_moment_coefficient(1, Fraction(5, 7), 1) == Fraction(5, 7)


def test_factorial_moments_match_coefficient_sums():
    # spec consistency window: n <= 30, m <= 3, against the polynomial route
    table = series.avoider_polynomials(30)
    for q in (Fraction(3), Fraction(1, 2)):
        for n in (5, 12, 30):
            row = table[n]
            for m in (1, 2, 3):
                direct = Fraction(0)
                for k in range(n + 1):
                    falling = 1
                    for i in range(m):
                        falling *= k - i
                    direct += falling * row[k] * q**k
                assert series.factorial_moment_coefficient(m, q, n) == direct, (q, n, m)


def test_factorial_moments_match_enumeration():
    for n in range(1, 8):
        for m in (1, 2, 4):
            direct = Fraction(0)
            for sigma in perms.enumerate_avoiders(n, "321"):
                k = perms.fixed_points(sigma)
                falling = 1
                for i in range(m):
                    falling *= k - i
                direct += falling * Fraction(2) ** k
            assert series.factorial_moment_coefficient(m, 2, n) == direct


def test_budget_refusals(monkeypatch):
    # FPBL_BUDGET is the one source of the budgets
    monkeypatch.setenv("FPBL_BUDGET", "poly=5,eval=10,enum=5")
    with pytest.raises(BudgetExceededError, match="poly"):
        series.avoider_polynomials(10)
    with pytest.raises(BudgetExceededError, match="poly size 10 exceeds budget 5; use avoider_series at large n$"):
        series.avoider_row(10)
    assert len(series.avoider_row(5)) == 6
    with pytest.raises(BudgetExceededError, match="capped at n=5"):
        series.avoider_polynomials_231(6)
    assert len(series.avoider_polynomials_231(5)) == 6
    with pytest.raises(BudgetExceededError, match="eval"):
        series.avoider_series(2, 50)
    with pytest.raises(BudgetExceededError, match="eval size 50 exceeds budget 10"):
        series._normalization_texts(2, 50, "321")
    with pytest.raises(BudgetExceededError, match="eval size 50 exceeds budget 10$"):
        series._normalization_texts(2, 50, None)
    with pytest.raises(BudgetExceededError, match="eval size 11 exceeds budget 10$"):
        series.unrestricted_normalization(2, 11)
    assert series.unrestricted_normalization(2, 10) == oracle_unrestricted_normalization(2, 10)
    with pytest.raises(BudgetExceededError, match="eval"):
        series.avoider_normalization(2, 50)
    with pytest.raises(BudgetExceededError, match="eval"):
        series.factorial_moment_coefficient(1, 2, 50)


def test_budget_env_override(monkeypatch):
    from fpblab.config import budgets

    monkeypatch.setenv("FPBL_BUDGET", "poly=7, eval=123")
    assert budgets()["poly"] == 7
    assert budgets()["eval"] == 123
    assert budgets()["enum"] == 12  # keys left unset keep their defaults
    assert sorted(budgets()) == ["enum", "eval", "poly"]
    # no engine reads a columns budget, and all of S_n is capped by a constant
    for raw in ("bogus=1", "columns=1", "enum_plain=1"):
        monkeypatch.setenv("FPBL_BUDGET", raw)
        with pytest.raises(ValueError, match="unknown FPBL_BUDGET key"):
            budgets()


def test_scaled_weight_rows_supercritical_base():
    # above the phase point the rows are rescaled so that entries stay finite
    import numpy as np

    rows = series.scaled_weight_rows(4.0, 300)
    assert np.isfinite(rows).all()
    assert rows[300].sum() > 0
    row = series.avoider_polynomials(60)[60]
    z = sum(c * 4**k for k, c in enumerate(row))
    w = rows[60]
    pmf_exact = [float(Fraction(c * 4**k, z)) for k, c in enumerate(row)]
    pmf_float = w / w.sum()
    assert max(abs(a - b) for a, b in zip(pmf_exact, pmf_float)) < 1e-12


def test_int_to_str_restores_digit_limit():
    before = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 0):  # 0 means no limit
            sys.set_int_max_str_digits(limit)
            assert series._int_to_str(10**9000) == "1" + "0" * 9000
            assert series._int_to_str(-(10**9000)) == "-1" + "0" * 9000
            assert series._int_to_str(12345) == "12345"
            assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(4300)
        assert series._value_to_text(Fraction(10**9000, 7)) == f"1{'0' * 9000}/7"
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_value_text_reads_back_past_the_digit_limit():
    # the one number formatter of the lab and its reader, for numbers of any size
    big = Fraction(3**20000, 7**9000)  # 9546 and 7606 digits
    for v in (Fraction(0), Fraction(12), Fraction(-5, 3), big, -big, Fraction(3**20000)):
        assert series._text_to_rational(series._value_to_text(v)) == v
    assert series._value_to_text(10**5000) == "1" + "0" * 5000
    assert series._value_to_text(np.float64(0.1)) == "0.1"  # not np.float64(0.1)
    assert series._value_to_text(2.5) == "2.5"
    with pytest.raises(ValueError):
        series._text_to_rational("1" * 5000 + "/x")


def test_int_to_str_leaves_digit_limit_setting_alone(monkeypatch):
    # renders past the digit limit without calling the process-wide setter
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)

    def refuse(limit):
        raise AssertionError("process-wide digit limit changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    try:
        assert series._int_to_str(10**9000) == "1" + "0" * 9000
    finally:
        monkeypatch.undo()
        sys.set_int_max_str_digits(before)
