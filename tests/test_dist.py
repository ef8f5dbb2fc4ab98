"""Fixed-point laws, reference laws, distances, moments, serialization."""
import json
import math
from fractions import Fraction

import pytest

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
    for tau in ("123", "231", "312"):
        pmf = fp_pmf(MeasureSpec(6, F(3, 2), tau))
        assert pmf.provenance.kind == "enumeration"
        assert sum(pmf.weights.values()) == 1
    # support of the 123-avoiding law is {0, 1, 2}
    pmf = fp_pmf(MeasureSpec(9, 2, "123"))
    assert set(pmf.support) <= {0, 1, 2}


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
