"""
Seeded random generation for all the measures in the lab.

Randomness contract: every sampler takes a RandomSource, a thin wrapper
around numpy's counter-based Philox bit generator keyed by
(seed, stream_id). Identical keys give identical output on every platform;
distinct stream ids give independent streams, so parallel work partitions
by stream id. Exact discrete draws (inverse cdf over big-integer weights,
rational accept/reject) go through `RandomSource.randbelow`, which never
rounds.

Every uniform avoider is one uniform Dyck path (cycle-lemma construction)
mapped to a permutation; see docs/dyck_321_bijection.md. 321-avoiders come
through the profile bijection and 123-avoiders are their reverses;
132-avoiders come through the first-return decomposition U A D B of the
path (A is the head above the maximum, B the tail below it), and
213-avoiders are reverse-complements of 132-avoiders.

Every exact discrete draw over big-integer weights (fixed-point counts,
the enumeration route) goes through one inverse-cdf helper.

Whole-permutation sampling of biased avoiders is rejection from the
uniform sampler (accept with probability q^fp, exact), which is only
offered for q <= 1: above the phase point the acceptance rate decays
exponentially, and fixed-point-count sampling covers every verification
need there.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb

import numpy as np

from . import series
from .config import budgets
from .dist import FixedPointPMF, MeasureSpec, Provenance, UnsupportedMeasureError, fp_pmf
from .perms import check_pattern, enumerate_avoiders, fixed_point_counts, fixed_points, profile_to_perm
from .series import as_rational

_MAX_BATCH_CELLS = 8_000_000  # soft cap on rows*length per vectorized batch


class RandomSource:
    """
    Reproducible random stream keyed by (seed, stream_id).

    Philox is counter-based, so the key fully determines the stream
    regardless of platform or thread count. Sources are cheap value-like
    objects; use one per task and `spawn` new stream ids for parallel work
    (never share one source between threads).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, stream_id: int) -> "RandomSource":
        return RandomSource(self.seed, stream_id)

    def randbelow(self, bound: int) -> int:
        """Exact uniform integer in [0, bound), for arbitrary-size bounds."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = max((bound - 1).bit_length(), 1)
        words = (bits + 63) // 64
        mask = (1 << bits) - 1
        while True:
            x = 0
            for w in self.generator.integers(0, 2**64, size=words, dtype=np.uint64):
                x = (x << 64) | int(w)
            x &= mask
            if x < bound:
                return x

    def bernoulli_power(self, q: Fraction, exponent: int) -> bool:
        """Exact Bernoulli(q^exponent) event for rational q <= 1."""
        if exponent == 0:
            return True
        a, b = q.numerator, q.denominator
        return self.randbelow(b**exponent) < a**exponent

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class DyckPath:
    """2n steps of +-1 with nonnegative prefix sums and zero total."""

    steps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(int(s) for s in self.steps))
        if len(self.steps) % 2:
            raise ValueError("a Dyck path has an even number of steps")
        height = 0
        for s in self.steps:
            if s not in (1, -1):
                raise ValueError("steps must be +1 or -1")
            height += s
            if height < 0:
                raise ValueError("prefix sums must stay nonnegative")
        if height != 0:
            raise ValueError("total must be zero")

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2


# ---------------------------------------------------------------------------
# Dyck paths and the 321-avoider bijection (batch kernels + scalar wrappers)
# ---------------------------------------------------------------------------


def _batch_dyck_steps(n: int, rows: int, gen: np.random.Generator) -> np.ndarray:
    """
    `rows` independent uniform Dyck paths of semilength n, as (rows, 2n) +-1.

    Cycle lemma: shuffle n+1 up-steps and n down-steps (sum +1); rotating to
    start just after the last minimum of the prefix sums makes every prefix
    positive, and dropping the leading up-step leaves a uniform Dyck path.
    """
    m = 2 * n + 1
    arr = np.tile(
        np.concatenate([np.ones(n + 1, dtype=np.int8), -np.ones(n, dtype=np.int8)]),
        (rows, 1),
    )
    arr = gen.permuted(arr, axis=1)
    prefix = np.cumsum(arr, axis=1, dtype=np.int32)
    last_min = m - 1 - np.argmin(prefix[:, ::-1], axis=1)
    idx = (np.arange(m)[None, :] + (last_min[:, None] + 1)) % m
    rotated = np.take_along_axis(arr, idx, axis=1)
    return rotated[:, 1:]


def uniform_dyck(n: int, rng: RandomSource) -> DyckPath:
    """One uniform Dyck path of semilength n."""
    if n < 1:
        raise ValueError("semilength must be >= 1")
    return DyckPath(tuple(int(s) for s in _batch_dyck_steps(n, 1, rng.generator)[0]))


def _profiles_from_dyck(steps: np.ndarray) -> np.ndarray:
    """Profile H[x] = number of up-steps before the x-th down-step (rows, n)."""
    rows, two_n = steps.shape
    n = two_n // 2
    ups = np.cumsum(steps > 0, axis=1, dtype=np.int32)
    return ups[steps < 0].reshape(rows, n)


def _excedance_mask(profiles: np.ndarray) -> np.ndarray:
    rows, n = profiles.shape
    exc = np.empty((rows, n), dtype=bool)
    exc[:, 0] = True
    exc[:, 1:] = profiles[:, 1:] > profiles[:, :-1]
    return exc


def _perms_from_profiles(profiles: np.ndarray) -> np.ndarray:
    """Materialize the 321-avoiders for a batch of profiles, (rows, n) int32."""
    rows, n = profiles.shape
    exc = _excedance_mask(profiles)
    sigma = np.zeros((rows, n), dtype=np.int32)
    r_idx, c_idx = np.nonzero(exc)
    sigma[r_idx, c_idx] = profiles[r_idx, c_idx]
    used = np.zeros((rows, n + 1), dtype=bool)
    used[r_idx, profiles[r_idx, c_idx]] = True
    fill_rows, fill_vals = np.nonzero(~used[:, 1:])
    gap_rows, gap_cols = np.nonzero(~exc)
    # both nonzero scans run row-major, so the i-th gap in a row receives the
    # i-th unused value of that row (increasing fill, as the bijection requires)
    sigma[gap_rows, gap_cols] = fill_vals + 1
    return sigma


def _fp_from_profiles(profiles: np.ndarray, reverse: bool = False) -> np.ndarray:
    """
    Fixed-point counts of the encoded 321-avoiders, without materializing.

    With reverse=True, counts fixed points of the reversed permutations
    (i.e. of the corresponding 123-avoiders): sigma_x = n+1-x happens either
    at an excedance position carrying that value, or at a fill position
    whose rank among fill positions matches the value's rank among unused
    values.
    """
    rows, n = profiles.shape
    exc = _excedance_mask(profiles)
    pos = np.arange(1, n + 1)
    if not reverse:
        return ((exc) & (profiles == pos)).sum(axis=1)
    target = n + 1 - pos
    exc_part = (exc & (profiles == target)).sum(axis=1)
    used = np.zeros((rows, n + 1), dtype=bool)
    used[np.arange(rows)[:, None], profiles] = True
    cum_used = np.cumsum(used[:, 1:], axis=1)
    cum_exc = np.cumsum(exc, axis=1)
    fill_rank = pos - cum_exc
    target_unused = ~used[:, target]
    target_rank = target - cum_used[:, target - 1]
    fill_part = ((~exc) & target_unused & (target_rank == fill_rank)).sum(axis=1)
    return exc_part + fill_part


def dyck_to_321_avoider(path: DyckPath) -> tuple[int, ...]:
    """
    The documented bijection from Dyck paths to 321-avoiding permutations.

    The path's profile (up-steps before each down-step) is the
    weak-excedance profile of the permutation; see docs/dyck_321_bijection.md
    for the construction and the full worked table at n = 4.
    """
    steps = np.array(path.steps, dtype=np.int8)[None, :]
    prof = _profiles_from_dyck(steps)[0]
    return profile_to_perm([int(h) for h in prof])


def _perms_132_from_dyck(steps: np.ndarray) -> np.ndarray:
    """
    The 132-avoiders of a batch of Dyck paths, (rows, n) int32.

    First-return decomposition U A D B: the first pair takes the maximum,
    A maps to the head before it (values above B's) and B to the tail. Read
    flat, the pair of the k-th up-step and its matching down-step, the d-th
    down-step, puts the value n+1-k at position d. A pair's two steps share
    the level h (the up-step leaves h, the down-step returns to it), and the
    steps of one level alternate U, D, U, D, so a stable sort by level puts
    every up-step right before its match.
    """
    rows, two_n = steps.shape
    n = two_n // 2
    up = steps > 0
    level = np.cumsum(steps, axis=1, dtype=np.int32) - up
    order = np.argsort(level, axis=1, kind="stable")
    ups = np.cumsum(up, axis=1, dtype=np.int32)
    up_at, down_at = order[:, 0::2], order[:, 1::2]
    k = np.take_along_axis(ups, up_at, axis=1)
    d = down_at - np.take_along_axis(ups, down_at, axis=1)  # 0-based down-step rank
    sigma = np.empty((rows, n), dtype=np.int32)
    np.put_along_axis(sigma, d, n + 1 - k, axis=1)
    return sigma


def _avoiders_from_dyck(steps: np.ndarray, tau: str) -> np.ndarray:
    """Map a batch of Dyck paths to tau-avoiders for tau in {321, 123, 132, 213}."""
    if tau in ("321", "123"):
        sigma = _perms_from_profiles(_profiles_from_dyck(steps))
        return sigma[:, ::-1] if tau == "123" else sigma
    sigma = _perms_132_from_dyck(steps)
    # reverse-complement: sigma'_x = n+1 - sigma_{n+1-x}
    return sigma.shape[1] + 1 - sigma[:, ::-1] if tau == "213" else sigma


def _batch_rows(n: int, remaining: int) -> int:
    return max(1, min(remaining, _MAX_BATCH_CELLS // max(2 * n + 1, 1), 200_000))


# ---------------------------------------------------------------------------
# Uniform avoider samplers
# ---------------------------------------------------------------------------


def _dyck_pattern(tau: str) -> str:
    tau = check_pattern(tau)
    if tau not in ("321", "132", "213", "123"):
        raise UnsupportedMeasureError(
            f"no uniform sampler for pattern {tau}; enumerate at n <= {budgets()['enum']} instead"
        )
    return tau


def uniform_avoider(n: int, tau: str, rng: RandomSource) -> tuple[int, ...]:
    """
    One uniform element of S_n(tau) for tau in {321, 132, 213, 123}.

    Patterns 231 and 312 are refused: no polynomial sampler is provided for
    them (their generating function is out of the lab's exact toolkit), use
    `enumerate_avoiders` within the `enum` budget instead.
    """
    tau = _dyck_pattern(tau)
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = _batch_dyck_steps(n, 1, rng.generator)
    return tuple(int(v) for v in _avoiders_from_dyck(steps, tau)[0])


def uniform_avoider_fp_batch(n: int, tau: str, count: int, rng: RandomSource) -> np.ndarray:
    """Fixed-point counts of `count` uniform tau-avoiders, drawn in vectorized batches."""
    tau = _dyck_pattern(tau)
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        b = _batch_rows(n, count - done)
        # drop each batch's paths as soon as they are mapped: kept alive through
        # the count, they cost ~40% more page faults per batch at n = 1000
        if tau in ("321", "123"):
            prof = _profiles_from_dyck(_batch_dyck_steps(n, b, rng.generator))
            out[done : done + b] = _fp_from_profiles(prof, reverse=(tau == "123"))
        else:
            # reverse-complement preserves fixed points, so 213 counts those of 132
            sigma = _perms_132_from_dyck(_batch_dyck_steps(n, b, rng.generator))
            out[done : done + b] = (sigma == np.arange(1, n + 1)).sum(axis=1)
        done += b
    return out


# ---------------------------------------------------------------------------
# Exact discrete draws over big-integer weights
# ---------------------------------------------------------------------------


def _bias(q) -> Fraction:
    """The exact bias q; refused unless positive, as in `MeasureSpec`."""
    q = as_rational(q)
    if q <= 0:
        raise ValueError("bias parameter q must be positive")
    return q


def _bias_weights(counts: list[int], q: Fraction) -> list[int]:
    """Integer weights c_k a^k b^(n-k), proportional to c_k q^k for q = a/b."""
    n = len(counts) - 1
    a, b = q.numerator, q.denominator
    return [c * a**k * b ** (n - k) for k, c in enumerate(counts)]


def _inverse_cdf(weights: list[int], count: int, rng: RandomSource) -> np.ndarray:
    """`count` exact draws of k with probability weights[k] / sum(weights)."""
    total = sum(weights)
    if total < 2**63:
        cum = np.cumsum(np.array(weights, dtype=np.uint64))
        draws = rng.generator.integers(0, total, size=count, dtype=np.uint64)
        return np.searchsorted(cum, draws, side="right").astype(np.int64)
    cum_list = list(accumulate(weights))
    return np.array([bisect.bisect_right(cum_list, rng.randbelow(total)) for _ in range(count)],
                    dtype=np.int64)


# ---------------------------------------------------------------------------
# Exact sampler for the biased measure on all of S_n
# ---------------------------------------------------------------------------


def _unrestricted_integer_weights(n: int, q: Fraction) -> list[int]:
    d = series.derangement_numbers(n)
    return _bias_weights([comb(n, k) * d[n - k] for k in range(n + 1)], q)


def sample_biased_unrestricted(n: int, q, rng: RandomSource) -> tuple[int, ...]:
    """One permutation under the bias-q measure on S_n: row 0 of the batch sampler."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(int(v) for v in sample_biased_unrestricted_batch(n, q, rng, 1)[0])


def sample_biased_unrestricted_batch(n: int, q, rng: RandomSource, count: int) -> np.ndarray:
    """
    `count` permutations distributed exactly under the bias-q measure on
    S_n, as a (count, n) int32 array.

    Construction: draw the number of fixed points K by exact inverse cdf
    over the integer weights binom(n,k) D_{n-k} a^k b^{n-k}; take a uniform
    K-subset as the fixed-point set; place a uniform derangement on the
    complement by reshuffling the rows that still fix a point (expected ~e
    tries).
    """
    q = _bias(q)
    ks = _inverse_cdf(_unrestricted_integer_weights(n, q), count, rng)
    gen = rng.generator
    perm_rows = np.tile(np.arange(n, dtype=np.int32), (count, 1))
    perm_rows = gen.permuted(perm_rows, axis=1)
    sigma = np.zeros((count, n), dtype=np.int32)
    row_ids = np.arange(count)
    for k in np.unique(ks):
        grp = row_ids[ks == k]
        fix = perm_rows[grp, :k]
        sigma[grp[:, None], fix] = fix + 1
        m = n - k
        if m == 0:
            continue
        pos = perm_rows[grp, k:]
        vals = gen.permuted(pos, axis=1)
        todo = np.arange(len(grp))
        while todo.size:
            bad = (vals[todo] == pos[todo]).any(axis=1)
            todo = todo[bad]
            if todo.size:
                vals[todo] = gen.permuted(vals[todo], axis=1)
        sigma[grp[:, None], pos] = vals + 1
    return sigma


# ---------------------------------------------------------------------------
# Fixed-point-count sampling and biased avoider permutations
# ---------------------------------------------------------------------------


def _avoider_integer_weights(n: int, q: Fraction, tau: str) -> list[int]:
    caps = budgets()
    if tau in series.TAU_CLASS and n <= caps["poly"]:
        poly = series.avoider_polynomials(n)[n]
        counts = [poly.coefficient(k) for k in range(n + 1)]
    elif n <= caps["enum"]:
        counts = fixed_point_counts(enumerate_avoiders(n, tau), n)
    else:
        raise UnsupportedMeasureError(
            f"no exact weights for pattern {tau} at n={n} (enumeration cap {caps['enum']})"
        )
    return _bias_weights(counts, q)


def sample_fp_count(n: int, q, tau: str, rng: RandomSource, mode: str = "exact") -> int:
    """
    Draw the fixed-point count of a biased tau-avoider (the law itself,
    no permutation is constructed). Exact inverse cdf over big-integer
    weights, or float inverse cdf in scaled-float mode.
    """
    return int(sample_fp_count_batch(n, q, tau, rng, 1, mode=mode)[0])


def sample_fp_count_batch(n: int, q, tau: str, rng: RandomSource, count: int,
                          mode: str = "exact") -> np.ndarray:
    q = _bias(q)
    tau = check_pattern(tau)
    if mode == "exact":
        return _inverse_cdf(_avoider_integer_weights(n, q, tau), count, rng)
    if mode == "scaled-float":
        pmf = fp_pmf(MeasureSpec(n, q, tau), mode="scaled-float")
        ks = np.array(pmf.support)
        cdf = np.cumsum([pmf.weights[k] for k in pmf.support])
        cdf[-1] = 1.0
        u = rng.generator.random(count)
        return ks[np.searchsorted(cdf, u, side="right")]
    raise ValueError(f"unknown mode {mode!r}")


def biased_avoider_permutation(n: int, q, tau: str, rng: RandomSource,
                               route: str | None = None) -> tuple[tuple[int, ...], int]:
    """
    One whole permutation under the biased avoiding measure, with the number
    of uniform-sampler attempts used (expected attempts = Catalan(n) over
    the normalization constant).

    Routes: "rejection" (q <= 1, patterns 321/132/213/123: draw uniform
    avoiders, accept with exact probability q^fp) or "enumeration" (n
    within the enumeration cap, any q and any pattern: draw the fixed-point
    count k by exact inverse cdf, then a uniform avoider with k fixed
    points from the enumerated table). Supercritical whole-permutation
    sampling at large n is refused by design.
    """
    q = _bias(q)
    tau = check_pattern(tau)
    caps = budgets()
    if route is None:
        if q <= 1 and tau in ("321", "132", "213", "123"):
            route = "rejection"
        elif n <= caps["enum"]:
            route = "enumeration"
        else:
            raise UnsupportedMeasureError(
                f"whole-permutation sampling for q={q} > 1, tau={tau} at n={n} is unsupported "
                f"(rejection is exponentially slow above the phase point); "
                f"use sample_fp_count for the fixed-point law, or n <= {caps['enum']} for tables"
            )
    if route == "rejection":
        if q > 1:
            raise UnsupportedMeasureError("rejection route requires q <= 1")
        attempts = 0
        while True:
            attempts += 1
            sigma = uniform_avoider(n, tau, rng)
            if rng.bernoulli_power(q, fixed_points(sigma)):
                return sigma, attempts
    if route == "enumeration":
        if n > caps["enum"]:
            raise UnsupportedMeasureError(f"enumeration route capped at n={caps['enum']}")
        groups = _enumeration_table(n, tau)
        k = int(_inverse_cdf(_bias_weights([len(g) for g in groups], q), 1, rng)[0])
        return groups[k][rng.randbelow(len(groups[k]))], 1
    raise ValueError(f"unknown route {route!r}")


_enum_tables: dict[tuple[int, str], list[list[tuple[int, ...]]]] = {}


def _enumeration_table(n: int, tau: str) -> list[list[tuple[int, ...]]]:
    """All tau-avoiders of length n grouped by fixed-point count, for every q."""
    key = (n, tau)
    if key not in _enum_tables:
        groups: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
        for sigma in enumerate_avoiders(n, tau):
            groups[fixed_points(sigma)].append(sigma)
        _enum_tables[key] = groups
    return _enum_tables[key]


def biased_avoider_batch(n: int, q, rng: RandomSource, count: int,
                         tau: str = "321") -> tuple[np.ndarray, int]:
    """
    Vectorized rejection sampler for biased 321- or 123-avoiders, q <= 1.

    Returns (permutations as a (count, n) array, total uniform attempts).
    """
    q = _bias(q)
    tau = check_pattern(tau)
    if tau not in ("321", "123"):
        raise UnsupportedMeasureError("batch rejection only for patterns 321 and 123")
    if q > 1:
        raise UnsupportedMeasureError("rejection route requires q <= 1")
    a, b = q.numerator, q.denominator
    gen = rng.generator
    out = np.empty((count, n), dtype=np.int32)
    got = 0
    attempts = 0
    while got < count:
        rows = _batch_rows(n, max(count - got, 1024))
        sigma = _avoiders_from_dyck(_batch_dyck_steps(n, rows, gen), tau)
        fps = (sigma == np.arange(1, n + 1)).sum(axis=1)
        attempts += rows
        accept = np.ones(rows, dtype=bool)
        if q != 1:
            for f in np.unique(fps):
                sel = fps == f
                bound = b ** int(f)
                if f == 0:
                    continue
                if bound < 2**63:
                    draws = gen.integers(0, bound, size=int(sel.sum()), dtype=np.uint64)
                    accept[sel] = draws < a ** int(f)
                else:
                    accept[sel] = [rng.bernoulli_power(q, int(f)) for _ in range(int(sel.sum()))]
        acc_idx = np.nonzero(accept)[0]
        take = min(len(acc_idx), count - got)
        if take < len(acc_idx):
            # stop the attempt counter at the draw that produced the last
            # sample we keep, so the reported rate stays unbiased
            attempts -= rows - (int(acc_idx[take - 1]) + 1)
        if take:
            out[got : got + take] = sigma[acc_idx[:take]]
        got += take
    return out, attempts


def monte_carlo_fp_pmf(n: int, tau: str, samples: int, rng: RandomSource) -> FixedPointPMF:
    """
    Empirical fixed-point law of `samples` uniform tau-avoiders.

    Weights are exact rationals count/samples; the provenance records
    (seed, stream_id, samples) so the estimate is reproducible bit for bit.
    """
    tau = check_pattern(tau)
    fps = uniform_avoider_fp_batch(n, tau, samples, rng)
    counts = np.bincount(fps, minlength=1)
    weights = {int(k): Fraction(int(c), samples) for k, c in enumerate(counts) if c}
    prov = Provenance("monte-carlo", samples=samples, seed=rng.seed, stream_id=rng.stream_id)
    return FixedPointPMF(n, weights, "exact", prov, MeasureSpec(n, Fraction(1), tau))
