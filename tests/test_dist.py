"""Fixed-point laws, reference laws, distances, moments, serialization."""
import functools
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpblab import dist, perms, sampling, series
from fpblab.dist import (
    BernoulliSum,
    FixedPointPMF,
    MeasureSpec,
    NegativeBinomial,
    Normal,
    Poisson,
    Provenance,
    Rayleigh,
    UnsupportedMeasureError,
    fp_pmf,
    kolmogorov_distance,
    pmf_from_json,
    pmf_moment,
    pmf_to_json,
    tv_distance,
)

F = Fraction


def test_measure_spec_validation():
    spec = MeasureSpec(5, "1/2", "321")
    assert spec.q == F(1, 2) and spec.tau == "321"
    with pytest.raises(ValueError):
        MeasureSpec(5, 0)
    with pytest.raises(ValueError):
        MeasureSpec(5, 1, "124")
    with pytest.raises(TypeError):
        MeasureSpec(5, 0.5)


def test_fp_pmf_examples():
    pmf = fp_pmf(MeasureSpec(3, 1, "321"))
    assert [pmf.pmf(k) for k in range(4)] == [F(2, 5), F(2, 5), 0, F(1, 5)]
    pmf = fp_pmf(MeasureSpec(3, 2, "321"))
    assert [pmf.pmf(k) for k in range(4)] == [F(1, 7), F(2, 7), 0, F(4, 7)]
    pmf = fp_pmf(MeasureSpec(2, 5))
    assert [pmf.pmf(k) for k in range(3)] == [F(1, 26), 0, F(25, 26)]


def test_fp_pmf_routes_agree():
    # series route vs enumeration route for the three-pattern class
    for n in (4, 7, 10):
        for q in (F(1, 2), F(2)):
            via_series = fp_pmf(MeasureSpec(n, q, "321"))
            counts = perms.fixed_point_counts(perms.enumerate_avoiders(n, "321"), n)
            z = sum(c * q**k for k, c in enumerate(counts))
            for k in range(n + 1):
                assert via_series.pmf(k) == counts[k] * q**k / z


def test_fp_pmf_enumeration_patterns():
    for tau, kind in (("123", "enumeration"), ("231", "series"), ("312", "series")):
        pmf = fp_pmf(MeasureSpec(6, F(3, 2), tau))
        assert pmf.provenance.kind == kind
        assert sum(pmf.weights.values()) == 1
    # support of the 123-avoiding law is {0, 1, 2}
    pmf = fp_pmf(MeasureSpec(9, 2, "123"))
    assert set(pmf.support) <= {0, 1, 2}


def test_fixed_point_row_routes_every_pattern():
    for tau in perms.PATTERNS:
        for n in range(9):
            assert list(dist.fixed_point_row(n, tau)) == _enumerated_counts(n, tau), (n, tau)


@functools.cache
def _enumerated_counts(n, tau):
    return perms.fixed_point_counts(perms.enumerate_avoiders(n, tau), n)


# q from the named biases, and rationals with up to 4096-bit terms; larger
# terms at larger n are slow only in the Fraction(w_k, Z) gcds of the law
_LAW_QS = st.one_of(st.sampled_from([F(2), F(3), F(1, 2)]),
                    st.builds(F, st.integers(1, 2**4096), st.integers(1, 2**4096)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), _LAW_QS)
def test_231_and_312_laws_equal_the_enumerated_law(n, q):
    _check_231_and_312_laws(n, q)


@functools.cache
def _enumerated_unrestricted_counts(n):
    counts = [0] * (n + 1)
    for sigma in itertools.permutations(range(n)):
        counts[sum(i == v for i, v in enumerate(sigma))] += 1
    return counts


@pytest.mark.parametrize("tau", ["321", "132", "213", None])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), _LAW_QS)
@example(0, F(2))
@example(0, F(3))
@example(0, F(1, 2))
@example(1, F(2))
@example(1, F(3))
@example(1, F(1, 2))
def test_laws_equal_the_enumerated_law(tau, n, q):
    counts = _enumerated_unrestricted_counts(n) if tau is None else _enumerated_counts(n, tau)
    z = sum(c * q**k for k, c in enumerate(counts))
    assert fp_pmf(MeasureSpec(n, q, tau)).weights == {k: c * q**k / z for k, c in enumerate(counts) if c}


def test_231_and_312_laws_at_a_million_bit_denominator():
    # pinned outside @example, whose report would repr q past the digit limit
    for n in (0, 1):
        _check_231_and_312_laws(n, 1 + F(1, 2**999_999))


def _check_231_and_312_laws(n, q):
    counts = _enumerated_counts(n, "231")
    assert _enumerated_counts(n, "312") == counts
    z = sum(c * q**k for k, c in enumerate(counts))
    want = {k: c * q**k / z for k, c in enumerate(counts) if c}
    assert fp_pmf(MeasureSpec(n, q, "231")).weights == want
    assert fp_pmf(MeasureSpec(n, q, "312")).weights == want


def test_fp_pmf_mass_invariants():
    for n in (2, 5, 9):
        for tau in (None, "321", "231"):
            pmf = fp_pmf(MeasureSpec(n, F(7, 5), tau))
            assert sum(pmf.weights.values()) == 1
            assert pmf.pmf(n - 1) == 0
            assert all(0 <= k <= n for k in pmf.support)


def test_fp_pmf_refusals_name_alternatives():
    with pytest.raises(UnsupportedMeasureError, match="scaled-float"):
        fp_pmf(MeasureSpec(2000, 2, "321"))
    with pytest.raises(UnsupportedMeasureError, match="no series route|series"):
        fp_pmf(MeasureSpec(50, 2, "231"))
    with pytest.raises(UnsupportedMeasureError, match="monte-carlo|uniform"):
        fp_pmf(MeasureSpec(100, 2, "321"), mode="monte-carlo",
               rng=sampling.RandomSource(1), samples=10)
    with pytest.raises(ValueError, match="rng"):
        fp_pmf(MeasureSpec(100, 1, "321"), mode="monte-carlo")


def test_scaled_float_matches_exact():
    for q in (F(2), F(3), F(4), F(1, 2)):
        exact = fp_pmf(MeasureSpec(80, q, "321")).as_float()
        flt = fp_pmf(MeasureSpec(80, q, "321"), mode="scaled-float")
        for k in range(81):
            assert abs(exact.pmf(k) - flt.pmf(k)) < 1e-12
        assert abs(sum(flt.weights.values()) - 1.0) < 1e-12


def test_float_pmf_validation():
    with pytest.raises(ValueError, match="sum"):
        FixedPointPMF(3, {0: 0.5, 1: 0.4}, "float", Provenance("series"))
    with pytest.raises(ValueError, match="n-1"):
        FixedPointPMF(3, {2: 1}, "exact", Provenance("series"))
    with pytest.raises(ValueError, match="support"):
        FixedPointPMF(3, {4: 1}, "exact", Provenance("series"))
    # float weights are checked as one array; the first bad weight still names the error
    with pytest.raises(ValueError, match=r"weights must be nonnegative, got -0\.25$"):
        FixedPointPMF(3, {0: 1.0, 1: -0.25, 3: math.nan}, "float", Provenance("series"))
    with pytest.raises(ValueError, match=r"weights must be finite, got nan$"):
        FixedPointPMF(3, {0: math.nan, 1: -0.25}, "float", Provenance("series"))
    with pytest.raises(ValueError, match="support"):
        FixedPointPMF(3, {0: 0.5, -1: 0.5}, "float", Provenance("series"))
    # keys given out of order come out sorted; a rational weight in float mode is read as a float
    law = FixedPointPMF(3, {3: 0.25, 0: F(3, 4), 1: 0.0}, "float", Provenance("series"))
    assert list(law.weights.items()) == [(0, 0.75), (3, 0.25)]


@pytest.mark.parametrize("q", [F(10**400), F(1, 10**400)], ids=["1e400", "1e-400"])
def test_scaled_float_refuses_q_outside_float_range(q):
    with pytest.raises(UnsupportedMeasureError, match=r"outside the float range .*--mode exact"):
        fp_pmf(MeasureSpec(10, q, "321"), mode="scaled-float")
    with pytest.raises(UnsupportedMeasureError, match="outside the float range"):
        fp_pmf(MeasureSpec(10, 1, "321"), mode="scaled-float").reweighted(q)
    # routes that run on exact weights serve it, as does the exact mode
    assert fp_pmf(MeasureSpec(10, q, None), mode="scaled-float").mode == "float"
    assert (fp_pmf(MeasureSpec(10, q, "321")).reweighted(1 / q).weights
            == fp_pmf(MeasureSpec(10, 1, "321")).weights)


def test_float_reweighting_neither_overflows_nor_underflows():
    # q^k alone overflows at q = 1e200, and underflows every weight at q = 1e-200
    law = fp_pmf(MeasureSpec(10, 1, "321"), mode="scaled-float").reweighted(F(10**200))
    assert law.weights == {10: 1.0} and law.spec.q == 10**200
    law = FixedPointPMF(4, {2: 0.5, 4: 0.5}, "float", Provenance("series")).reweighted(F(1, 10**200))
    assert law.weights == {2: 1.0}


@pytest.mark.parametrize("q", [F(1, 3), F(3)], ids=["1/3", "3"])
def test_float_reweighting_matches_the_exact_law(q):
    got = fp_pmf(MeasureSpec(30, 1, "321"), mode="scaled-float").reweighted(q)
    want = fp_pmf(MeasureSpec(30, 1, "321")).reweighted(q).as_float()
    assert got.mode == "float" and got.support == want.support
    for k, v in want.weights.items():
        assert got.weights[k] == pytest.approx(v, rel=1e-12, abs=0), k


def test_reference_law_examples():
    b = BernoulliSum(F(1, 4))
    assert [b.pmf(k) for k in range(3)] == [F(9, 16), F(6, 16), F(1, 16)]
    nb = NegativeBinomial(2, F(1, 3))
    assert nb.pmf(0) == F(1, 9)
    assert nb.pmf(1) == F(4, 27)
    assert nb.pmf(5) == 6 * F(2, 3) ** 5 * F(1, 9)
    assert nb.mean() == 4
    assert Rayleigh(3 / math.sqrt(2)).cdf(0) == 0.0
    p = Poisson(2)
    assert abs(sum(p.pmf(k) for k in range(60)) - 1.0) < 1e-14
    assert abs(p.pmf(0) - math.exp(-2)) < 1e-15
    degenerate = NegativeBinomial(2, 1)
    assert degenerate.pmf(0) == 1 and degenerate.pmf(1) == 0


def test_reference_law_domain_validation():
    with pytest.raises(ValueError):
        Poisson(0)
    with pytest.raises(ValueError):
        BernoulliSum(F(3, 2))
    with pytest.raises(ValueError):
        NegativeBinomial(0, F(1, 2))
    with pytest.raises(ValueError):
        Rayleigh(0)
    with pytest.raises(ValueError):
        Normal(0, 0)


def test_tv_distance_examples():
    # uniform 321-avoiders at n = 8 against the q = 1 negative-binomial limit
    d8 = tv_distance(fp_pmf(MeasureSpec(8, 1, "321")).as_float(), NegativeBinomial(2, F(2, 3)))
    d12 = tv_distance(fp_pmf(MeasureSpec(12, 1, "321")).as_float(), NegativeBinomial(2, F(2, 3)))
    assert 0 < d12 < d8 < 0.2
    # Poisson limit of the unrestricted biased law
    d = tv_distance(fp_pmf(MeasureSpec(200, 2)).as_float(), Poisson(2))
    assert d < 0.01


def test_tv_distance_tail_inclusion():
    # a law equal to the pmf on its support still pays the tail beyond n
    law = NegativeBinomial(2, F(2, 3))
    n = 25
    w = {k: law.pmf(k) for k in range(n - 1)}
    w[0] += 1 - sum(w.values())  # fold the tail into one cell to normalize
    pmf = FixedPointPMF(n, w, "exact", Provenance("series"))
    tail = float(1 - sum(law.pmf(k) for k in range(n + 1)))
    assert tv_distance(pmf, law) >= tail / 2


def test_distance_type_refusals():
    pmf = fp_pmf(MeasureSpec(5, 1, "321"))
    with pytest.raises(ValueError, match="kolmogorov"):
        tv_distance(pmf, Rayleigh(1.0))
    with pytest.raises(ValueError, match="tv_distance"):
        kolmogorov_distance(pmf, Poisson(1))
    with pytest.raises(ValueError, match="scale"):
        kolmogorov_distance(pmf, Normal(), scale=0)


def test_kolmogorov_known_value():
    # two-point law {0, 2} with equal mass vs Normal(0,1) after centering at 1:
    # sup deviation is |0.5 - Phi(-1)| = 0.3413...
    pmf = FixedPointPMF(2, {0: F(1, 2), 2: F(1, 2)}, "exact", Provenance("series"))
    d = kolmogorov_distance(pmf, Normal(), center=1.0, scale=1.0)
    assert abs(d - (0.5 - dist.special.normal_cdf(-1.0))) < 1e-12


def test_moment_examples():
    pmf = fp_pmf(MeasureSpec(3, 1, "321"))
    assert pmf_moment(pmf, 1) == 1
    bern = FixedPointPMF(9, {0: F(9, 16), 1: F(6, 16), 2: F(1, 16)}, "exact", Provenance("series"))
    assert pmf_moment(bern, 2, "factorial") == F(1, 8)
    assert pmf_moment(bern, 1) == F(1, 2)
    # Poisson-limit mean oracle
    mean = float(pmf_moment(fp_pmf(MeasureSpec(200, 2)), 1))
    assert abs(mean - 2) < 0.02


def test_factorial_moment_identity_against_series():
    # moments of the law equal the weight-series coefficient over the normalizer
    for n in (6, 15, 30):
        for q in (F(3), F(1, 2)):
            pmf = fp_pmf(MeasureSpec(n, q, "321"))
            z = series.avoider_normalization(q, n)
            for m in (1, 2, 3):
                expect = series.factorial_moment_coefficient(m, q, n) / z
                assert pmf_moment(pmf, m, "factorial") == expect


def test_reweighting_identity():
    for n in (3, 8, 12):
        for tau in ("321", "123", "231"):
            base = fp_pmf(MeasureSpec(n, 1, tau))
            for q in (F(2), F(1, 3)):
                direct = fp_pmf(MeasureSpec(n, q, tau))
                tilted = base.reweighted(q)
                assert direct.weights == tilted.weights, (n, tau, q)


def test_normalization_identity():
    # expected bias weight under the uniform avoiding law equals the ratio of
    # normalization constants
    for n in (4, 9, 40):
        for q in (F(2), F(5, 3)):
            uniform = fp_pmf(MeasureSpec(n, 1, "321"))
            lhs = sum(q**k * w for k, w in uniform.weights.items())
            rhs = series.avoider_normalization(q, n) / series.avoider_normalization(1, n)
            assert lhs == rhs


def test_pmf_json_round_trip():
    pmf = fp_pmf(MeasureSpec(6, F(3, 7), "132"))
    text = pmf_to_json(pmf)
    data = json.loads(text)
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" == text
    back = pmf_from_json(text)
    assert back.weights == pmf.weights
    assert back.spec.q == pmf.spec.q and back.spec.tau == "132"
    flt = pmf_to_json(pmf.as_float())
    assert pmf_from_json(flt).mode == "float"


def test_pmf_json_round_trip_past_the_digit_limit():
    # q = 10^-49 at n = 100 gives weights with 4900-digit denominators, and
    # q = 10^-5000 a q field of 5001 digits: more than int/str convert at once
    limit_bits = 4300 * math.log2(10)
    for spec in (MeasureSpec(100, F(1, 10**49), "321"), MeasureSpec(2, F(1, 10**5000), "132")):
        pmf = fp_pmf(spec)
        assert max(v.denominator.bit_length() for v in pmf.weights.values()) > limit_bits
        text = pmf_to_json(pmf)
        back = pmf_from_json(text)
        assert back.weights == pmf.weights and back.spec == spec
        assert pmf_to_json(back) == text


def test_pmf_from_json_refuses_negative_and_undefined_mass():
    def text(weights, mode="exact"):
        return json.dumps({"n": 2, "mode": mode, "weights": weights})

    with pytest.raises(ValueError, match="nonnegative"):
        pmf_from_json(text([["0", "3/2"], ["2", "-1/2"]]))
    with pytest.raises(ValueError, match="nonnegative"):
        pmf_from_json(text([["0", "1.5"], ["2", "-0.5"]], "float"))
    with pytest.raises(ValueError, match="finite"):
        pmf_from_json(text([["0", "1e999"], ["2", "-1e999"]], "float"))
    with pytest.raises(ValueError):
        pmf_from_json(text([["0", "1/0"]]))
    with pytest.raises(ValueError):
        pmf_from_json(json.dumps({"n": 2, "mode": "exact", "q": "1/0", "weights": [["0", "1"]]}))
    with pytest.raises(ValueError, match="finite"):
        FixedPointPMF(2, {0: float("nan"), 2: 1.0}, "float", Provenance("series"))


_NUMBER_TEXTS = st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "3/2", "2/4", "1/0", "0/0", "0.5",
                                 "-0.5", "1e999", "-1e999", "inf", "-inf", "nan", "1e-400", "x", ""])
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=4),
                          _NUMBER_TEXTS, st.integers().map(str))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_WEIGHT_ROWS = st.lists(st.one_of(st.tuples(st.one_of(st.integers(-1, 5).map(str), _JSON_SCALARS),
                                            st.one_of(_NUMBER_TEXTS, _JSON_SCALARS)).map(list),
                                  _JSON_VALUES), max_size=4)
_PAYLOADS = st.fixed_dictionaries(
    {"n": st.one_of(st.integers(-2, 5), _JSON_SCALARS),
     "mode": st.one_of(st.sampled_from(["exact", "float"]), _JSON_SCALARS),
     "weights": st.one_of(_WEIGHT_ROWS, _JSON_VALUES)},
    optional={"q": st.one_of(_NUMBER_TEXTS, _JSON_SCALARS),
              "tau": st.one_of(st.sampled_from(["321", "123", "231"]), _JSON_SCALARS),
              "provenance": _JSON_VALUES, "samples": _JSON_VALUES, "seed": _JSON_VALUES},
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_PAYLOADS.map(json.dumps), _JSON_VALUES.map(json.dumps), st.text(max_size=20)))
def test_pmf_from_json_returns_a_law_or_raises_value_error(text):
    try:
        pmf = pmf_from_json(text)
    except ValueError:
        return
    assert isinstance(pmf.n, int) and pmf.n >= 0
    assert all(0 <= k <= pmf.n and v > 0 for k, v in pmf.weights.items())
    if pmf.mode == "exact":
        assert sum(pmf.weights.values()) == 1
    else:
        assert all(math.isfinite(v) for v in pmf.weights.values())
        assert math.isclose(sum(pmf.weights.values()), 1.0, abs_tol=1e-9)


def test_monte_carlo_mode_reweights_123():
    rng = sampling.RandomSource(21)
    est = fp_pmf(MeasureSpec(60, 2, "123"), mode="monte-carlo", rng=rng, samples=4000)
    base = fp_pmf(MeasureSpec(60, 1, "123"), mode="monte-carlo",
                  rng=sampling.RandomSource(21), samples=4000)
    assert est.weights == base.reweighted(2).weights
    assert est.provenance.kind == "monte-carlo"
    assert est.provenance.samples == 4000 and est.provenance.seed == 21


def test_monte_carlo_mode_at_n0():
    # the empty permutation has no fixed point, for every sampled pattern
    for tau in ("321", "123", "132", "213"):
        est = fp_pmf(MeasureSpec(0, 1, tau), mode="monte-carlo",
                     rng=sampling.RandomSource(5), samples=4)
        assert est.weights == {0: 1}, tau
