"""
Exact and float fixed-point laws, reference limit laws, and distances.

A FixedPointPMF is the law of the number of fixed points of a random
permutation under one of the three measure families:

- bias q on all of S_n                  (tau = None),
- uniform / bias q on the avoiders of a length-3 pattern tau.

Exact mode carries Fractions that sum to one exactly, from the closed
form or from the integer row of counts that `fixed_point_row` takes from
the series engines (132/321/213 and 231/312) or from enumeration (123);
float mode carries doubles from the positively-scaled row engine
`series.scaled_weight_row` (entries accurate to machine-epsilon scale, sums
normalized). It runs the O(n) positive recurrence of the closed form for
row n alone (one law at n = 2000 and q = 3 takes about 3 ms on a 2-core
Xeon). Monte-Carlo estimates record (seed, stream_id, sample count) so
checks are reproducible bit for bit.

`pmf_to_json` writes every exact number in full, past the interpreter's
digit limit for int/str conversion, and `pmf_from_json` reads back every
text it writes.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping

import numpy as np

from . import series, special
from .config import BudgetExceededError, budgets
from .perms import EnumerationCapError, check_pattern, enumerate_avoiders, fixed_point_counts
from .series import TAU_CLASS, as_rational


class UnsupportedMeasureError(ValueError):
    """Raised when a (n, q, tau, mode) combination has no legal computation route."""


@dataclass(frozen=True)
class MeasureSpec:
    """Selects a fixed-point-biased measure: (n, q) plus an optional pattern."""

    n: int
    q: Fraction
    tau: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "q", as_rational(self.q))
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.q <= 0:
            raise ValueError("bias parameter q must be positive")
        if self.tau is not None:
            object.__setattr__(self, "tau", check_pattern(self.tau))

    def describe(self) -> str:
        where = "all permutations" if self.tau is None else f"{self.tau}-avoiders"
        return f"bias {self.q} on {where} of length {self.n}"


@dataclass(frozen=True)
class Provenance:
    kind: str  # "series" | "enumeration" | "closed-form" | "monte-carlo"
    samples: int | None = None
    seed: int | None = None
    stream_id: int | None = None


def _float_bias(q: Fraction) -> float:
    """
    q as a double, refused unless it lies in the normal float range: the
    scaled-float engines run on float(q), which overflows above that range,
    and below it keeps fewer than 53 bits of q or none.
    """
    lo, hi = sys.float_info.min, sys.float_info.max
    if not lo <= q <= hi:
        raise UnsupportedMeasureError(
            f"q = {series._value_to_text(q)} lies outside the float range [{lo!r}, {hi!r}] that "
            f"mode 'scaled-float' computes in; the exact mode serves it (pmf --mode exact, "
            f"sample --fp-mode exact)"
        )
    return float(q)


def _exact_sum(values) -> Fraction:
    """
    Sum of rationals, adding the numerators over each distinct denominator
    first: one big-integer gcd per denominator instead of one per term (the
    terms of one law mostly share a denominator).
    """
    by_denominator: dict[int, int] = {}
    for v in values:
        v = Fraction(v)
        by_denominator[v.denominator] = by_denominator.get(v.denominator, 0) + v.numerator
    return sum((Fraction(num, den) for den, num in by_denominator.items()), Fraction(0))


class FixedPointPMF:
    """
    Law of the fixed-point count; weights indexed by k with sum 1.

    mode "exact" holds Fractions (exact sum); mode "float" holds doubles
    (sum within 1e-12 after normalization). Weights must be nonnegative and
    finite, and rational in exact mode. No measure puts mass on k = n-1
    when n >= 2, and that is enforced here.
    """

    def __init__(self, n: int, weights: Mapping[int, Fraction | float], mode: str,
                 provenance: Provenance, spec: MeasureSpec | None = None):
        if mode not in ("exact", "float"):
            raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
        self.n = n
        self.mode = mode
        self.provenance = provenance
        self.spec = spec
        clean = {k: v for k, v in weights.items() if v != 0}
        # weights that are all Python floats are checked as one array; any other
        # weights, or a bad float, go one by one, so the first bad weight names the error
        probs = None
        if mode == "float" and not set(map(type, clean.values())) - {float}:
            probs = np.fromiter(clean.values(), float, len(clean))
        if probs is None or not (np.isfinite(probs).all() and (probs >= 0).all()):
            for v in clean.values():
                if not isinstance(v, (int, Fraction)) and not math.isfinite(v):
                    raise ValueError(f"weights must be finite, got {v!r}")
                if v < 0:
                    raise ValueError(f"weights must be nonnegative, got {v}")
        if clean and (min(clean) < 0 or max(clean) > n):
            raise ValueError("support must lie in 0..n")
        if n >= 2 and clean.get(n - 1, 0) != 0:
            raise ValueError(f"impossible mass at k = n-1 = {n - 1}")
        if mode == "exact":
            if not all(isinstance(v, Rational) for v in clean.values()):
                raise ValueError("exact weights must be rationals")
            total = _exact_sum(clean.values())
            if total != 1:
                raise ValueError(f"exact weights must sum to 1, got {total}")
        else:
            total = sum(clean.values())
            if not math.isclose(float(total), 1.0, rel_tol=0, abs_tol=1e-9):
                raise ValueError(f"float weights sum to {float(total)}, expected 1")
            if probs is None:
                clean = {k: float(v) / float(total) for k, v in clean.items()}
            else:
                clean = dict(zip(clean, (probs / total).tolist()))
        keys = list(clean)
        self.weights = clean if keys == sorted(keys) else dict(sorted(clean.items()))

    def pmf(self, k: int):
        return self.weights.get(k, Fraction(0) if self.mode == "exact" else 0.0)

    @property
    def support(self) -> list[int]:
        return list(self.weights)

    def reweighted(self, q) -> "FixedPointPMF":
        """
        Tilt by q^k and renormalize (the change of measure between bias
        levels): result(k) = q^k * self(k) / sum_j q^j * self(j).
        """
        q = as_rational(q)
        if self.mode == "exact":
            w = {k: q**k * v for k, v in self.weights.items()}
            z = sum(w.values())
            w = {k: v / z for k, v in w.items()}
        else:
            qf = _float_bias(q)
            # tilt by q^(k - top), top the end of the support that q favours: no factor
            # exceeds 1 and top's weight is untilted, so nothing overflows and z > 0
            top = max(self.weights) if qf > 1 else min(self.weights)
            w = {k: qf ** (k - top) * v for k, v in self.weights.items()}
            z = sum(w.values())
            w = {k: v / z for k, v in w.items()}
        new_spec = None
        if self.spec is not None:
            new_spec = MeasureSpec(self.n, self.spec.q * q, self.spec.tau)
        return FixedPointPMF(self.n, w, self.mode, self.provenance, new_spec)

    def as_float(self) -> "FixedPointPMF":
        if self.mode == "float":
            return self
        return FixedPointPMF(self.n, {k: float(v) for k, v in self.weights.items()},
                             "float", self.provenance, self.spec)


def _measure_weights(spec: MeasureSpec) -> tuple[list[int], str]:
    """
    The integer weights w_k of `spec` by fixed-point count (b^n times its
    bias weights, q = a/b) and their route: the closed form for tau = None,
    else `series.bias_weights` of `fixed_point_row`. Every exact law and
    exact count draw takes its weights here.
    """
    n, q, tau = spec.n, spec.q, spec.tau
    if tau is None:
        return series.unrestricted_weights(q, n), "closed-form"
    try:
        counts = fixed_point_row(n, tau)
    except (BudgetExceededError, EnumerationCapError) as exc:
        raise UnsupportedMeasureError(
            f"no exact route for {spec.describe()}: {exc}"
            + ("; mode='scaled-float' serves any n" if tau in TAU_CLASS else "")
        ) from exc
    return series.bias_weights(counts, q), "enumeration" if tau == "123" else "series"


def _pmf_from_weights(spec: MeasureSpec, mode: str) -> FixedPointPMF:
    """
    The law of `spec` from `_measure_weights`: the Fractions w_k / z in mode "exact", in mode
    "float" the ints' true quotients, the correctly rounded doubles of those Fractions.
    """
    weights, kind = _measure_weights(spec)
    z = sum(weights)
    if mode == "exact":
        probs = {k: Fraction(w, z) for k, w in enumerate(weights) if w}
    else:
        probs = {k: w / z for k, w in enumerate(weights) if w}
    return FixedPointPMF(spec.n, probs, mode, Provenance(kind), spec)


def fixed_point_row(n: int, tau: str) -> tuple[int, ...]:
    """
    Counts (F_0..F_n) of the tau-avoiders of length n by fixed-point number;
    every exact law on an avoidance class is F_k q^k / sum_j F_j q^j.

    The row comes from `series.avoider_row` for 132/321/213 (within the
    poly budget), from `series.avoider_polynomials_231` for 231/312 and
    from enumeration for 123 (both within the enum budget). Past its budget
    a route raises `BudgetExceededError`, or `EnumerationCapError` for 123.
    """
    tau = check_pattern(tau)
    if tau in TAU_CLASS:
        return series.avoider_row(n)
    if tau != "123":
        return series.avoider_polynomials_231(n)[n]
    return tuple(fixed_point_counts(enumerate_avoiders(n, tau), n))


def fp_pmf(spec: MeasureSpec, mode: str = "exact", rng=None, samples: int | None = None) -> FixedPointPMF:
    """
    The fixed-point law under the measure selected by `spec`.

    mode "exact": closed form (no pattern), or the counts of
    `fixed_point_row`: series rows for 132/321/213 (n within the poly
    budget) and for 231/312 (n within the enum budget), enumeration for 123
    (n within the enum budget). mode "scaled-float": the positive row
    engine for 132/321/213 at any n and any q in the normal float range
    (outside it the engine is refused), the exact law elsewhere. mode
    "monte-carlo": empirical law from the samplers (uniform for q = 1; for
    pattern 123 any q via exact reweighting over the finite support
    {0,1,2}); needs `rng` and `samples`.
    """
    caps = budgets()
    n, q, tau = spec.n, spec.q, spec.tau
    if mode == "exact":
        return _pmf_from_weights(spec, "exact")
    if mode == "scaled-float":
        if tau is None or (tau not in TAU_CLASS and n <= caps["enum"]):
            return _pmf_from_weights(spec, "float")
        if tau not in TAU_CLASS:
            raise UnsupportedMeasureError(
                f"pattern {tau} has no large-n float route (only 132/321/213 do); "
                f"its exact rows are capped at n={caps['enum']}"
            )
        w = series.scaled_weight_row(_float_bias(q), n)
        w /= w.sum()
        support = np.flatnonzero(w > 0.0)
        weights = dict(zip(support.tolist(), w[support].tolist()))
        return FixedPointPMF(n, weights, "float", Provenance("series"), spec)
    if mode == "monte-carlo":
        from . import sampling  # deferred: sampling builds on this module

        if rng is None or samples is None:
            raise ValueError("monte-carlo mode needs rng= and samples=")
        if tau == "123":
            base = sampling.monte_carlo_fp_pmf(n, tau, samples, rng)
            return base if q == 1 else base.reweighted(q)
        if tau in TAU_CLASS and q == 1:
            return sampling.monte_carlo_fp_pmf(n, tau, samples, rng)
        raise UnsupportedMeasureError(
            f"monte-carlo fp law only for uniform avoiders (q=1, patterns 321/132/213/123) "
            f"or pattern 123 at any q (finite support {{0,1,2}} reweights exactly); "
            f"got {spec.describe()}"
        )
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Reference laws
# ---------------------------------------------------------------------------


class Poisson:
    """Poisson(lam); pmf is float-valued (e^-lam is irrational)."""

    discrete = True

    def __init__(self, lam):
        self.lam = float(lam)
        if self.lam <= 0:
            raise ValueError("Poisson rate must be positive")

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return math.exp(-self.lam + k * math.log(self.lam) - math.lgamma(k + 1))

    def pmf_array(self, n: int) -> np.ndarray:
        """pmf(0..n) as floats."""
        return np.fromiter(map(self.pmf, range(n + 1)), float, n + 1)

    def __repr__(self):
        return f"Poisson({self.lam})"


class BernoulliSum:
    """Sum of two independent Bernoulli(p); exact pmf when p is rational."""

    discrete = True

    def __init__(self, p):
        self.p = as_rational(p) if not isinstance(p, float) else p
        if not 0 < self.p < 1:
            raise ValueError("Bernoulli parameter must lie in (0,1)")

    def pmf(self, k: int):
        p = self.p
        one = Fraction(1) if isinstance(p, Fraction) else 1.0
        if k == 0:
            return (one - p) ** 2
        if k == 1:
            return 2 * p * (one - p)
        if k == 2:
            return p * p
        return 0 * one

    def pmf_array(self, n: int) -> np.ndarray:
        """float(pmf(k)) for k = 0..n."""
        out = np.zeros(n + 1)
        out[:3] = [float(self.pmf(k)) for k in range(min(n, 2) + 1)]
        return out

    def __repr__(self):
        return f"BernoulliSum({self.p})"


class NegativeBinomial:
    """
    NegativeBinomial(r, p): pmf(k) = binom(k+r-1, k) (1-p)^k p^r, k >= 0.

    Counts failures before the r-th success; exact pmf for rational p.
    """

    discrete = True

    def __init__(self, r: int, p):
        if not (isinstance(r, int) and r >= 1):
            raise ValueError("r must be a positive integer")
        self.r = r
        self.p = as_rational(p) if not isinstance(p, float) else p
        if not 0 < self.p <= 1:
            raise ValueError("p must lie in (0,1]")

    def pmf(self, k: int):
        if k < 0:
            return Fraction(0) if isinstance(self.p, Fraction) else 0.0
        return math.comb(k + self.r - 1, k) * (1 - self.p) ** k * self.p**self.r

    def pmf_array(self, n: int) -> np.ndarray:
        """
        float(pmf(k)) for k = 0..n. For p = a/b each cell is the int quotient
        binom(k+r-1, k) c^k a^r / (b^k b^r), c = b - a, over running powers:
        int true division rounds correctly, as the Fraction's float does,
        with no gcd and no Fraction.
        """
        if isinstance(self.p, float):
            return np.fromiter(map(self.pmf, range(n + 1)), float, n + 1)
        r, a, b = self.r, self.p.numerator, self.p.denominator
        c = b - a
        num, den = a**r, b**r
        out = np.empty(n + 1)
        for k in range(n + 1):
            out[k] = math.comb(k + r - 1, k) * num / den
            num *= c
            den *= b
        return out

    def __repr__(self):
        return f"NegativeBinomial({self.r}, {self.p})"


class Rayleigh:
    """Rayleigh(sigma): density (x/sigma^2) exp(-x^2 / 2 sigma^2) on x >= 0."""

    discrete = False

    def __init__(self, sigma):
        self.sigma = float(sigma)
        if self.sigma <= 0:
            raise ValueError("Rayleigh scale must be positive")

    def cdf(self, x):
        """The cdf at a float or elementwise over an array; exp per element by `special.exp`."""
        x = np.asarray(x, dtype=float)
        out = np.where(x <= 0, 0.0, 1.0 - special.exp(-x * x / (2.0 * self.sigma**2)))
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"Rayleigh({self.sigma})"


class Normal:
    """
    Normal(mu, var), cdf through the in-house erf (platform-stable as
    `special` states), at a float or elementwise over an array.
    """

    discrete = False

    def __init__(self, mu=0.0, var=1.0):
        self.mu = float(mu)
        self.var = float(var)
        if self.var <= 0:
            raise ValueError("variance must be positive")

    def cdf(self, x):
        return special.normal_cdf(x, self.mu, math.sqrt(self.var))

    def __repr__(self):
        return f"Normal({self.mu}, {self.var})"


# ---------------------------------------------------------------------------
# Distances and moments
# ---------------------------------------------------------------------------


def tv_distance(pmf: FixedPointPMF, law) -> float:
    """
    Total variation distance between a fixed-point law and a discrete
    reference law: half the l1 difference over 0..n plus, in full, the
    reference law's tail mass beyond n (so truncation can only increase
    the reported distance, never hide error).

    The sums run in k order (`np.cumsum`, not numpy's pairwise sum), so
    they give the bits of a running sum over k.
    """
    if not getattr(law, "discrete", False):
        raise ValueError(f"{law!r} is continuous; use kolmogorov_distance with a scaling")
    p = np.zeros(pmf.n + 1)
    p[list(pmf.weights)] = np.fromiter(pmf.weights.values(), float, len(pmf.weights))
    lk = law.pmf_array(pmf.n)
    acc = np.cumsum(np.abs(p - lk))[-1]
    acc += max(1.0 - np.cumsum(lk)[-1], 0.0)
    return float(acc / 2.0)


def kolmogorov_distance(pmf: FixedPointPMF, law, center=0.0, scale=1.0) -> float:
    """
    sup_x |F_pmf(x) - F_law((x - center)/scale)| against a continuous law.

    The sup over all reals is attained at the jump points of the discrete
    cdf, approaching from either side, so both F(k) and F(k-1) are compared
    with the law's cdf at k (no continuity correction, by design). The
    running cdf is `np.cumsum`, a sum in k order, and F(k-1) is its previous
    entry, so both carry the bits of a running sum over the support.
    """
    scale = float(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    if getattr(law, "discrete", True):
        raise ValueError(f"{law!r} is discrete; use tv_distance")
    ks = np.fromiter(pmf.weights, float, len(pmf.weights))
    lc = law.cdf((ks - float(center)) / scale)
    run = np.cumsum(np.fromiter(pmf.weights.values(), float, len(pmf.weights)))
    left = np.concatenate(([0.0], run[:-1]))  # the left limit at each jump
    return float(max(np.abs(left - lc).max(), np.abs(run - lc).max()))


def pmf_moment(pmf: FixedPointPMF, m: int, kind: str = "raw"):
    """m-th raw moment sum k^m p_k, or falling-factorial moment sum (k)_m p_k."""
    if m < 1:
        raise ValueError("moment order must be >= 1")
    if kind not in ("raw", "factorial"):
        raise ValueError("kind must be 'raw' or 'factorial'")
    zero = Fraction(0) if pmf.mode == "exact" else 0.0
    total = zero
    for k, v in pmf.weights.items():
        if kind == "raw":
            term = k**m
        else:
            term = 1
            for i in range(m):
                term *= k - i
        total += term * v
    return total


# ---------------------------------------------------------------------------
# Serialization (schema frozen; JSON round-trips byte-identically)
# ---------------------------------------------------------------------------


def pmf_to_json(pmf: FixedPointPMF) -> str:
    spec = pmf.spec
    payload = {
        "n": pmf.n,
        "q": series._value_to_text(spec.q) if spec is not None else None,
        "tau": spec.tau if spec is not None else None,
        "mode": pmf.mode,
        "weights": [[str(k), series._value_to_text(v)] for k, v in pmf.weights.items()],
        "seed": pmf.provenance.seed,
        "stream_id": pmf.provenance.stream_id,
        "samples": pmf.provenance.samples,
        "provenance": pmf.provenance.kind,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_value(text: str):
    if "/" not in text and ("." in text or "e" in text or "inf" in text):
        return float(text)
    return series._text_to_rational(text)


def pmf_from_json(text: str) -> FixedPointPMF:
    """Read back `pmf_to_json`; text that does not hold a valid law raises ValueError."""
    try:
        data = json.loads(text)
        n = data["n"]
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        spec = None
        if data.get("q") is not None:
            spec = MeasureSpec(n, series._text_to_rational(data["q"]), data.get("tau"))
        prov = Provenance(data.get("provenance", "series"), data.get("samples"),
                          data.get("seed"), data.get("stream_id"))
        weights = {int(k): _parse_value(v) for k, v in data["weights"]}
        return FixedPointPMF(n, weights, data["mode"], prov, spec)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError, OverflowError) as exc:
        # wrong types or shapes, a zero denominator, a float too large to read
        raise ValueError(f"not a fixed-point law: {exc!r}") from exc
