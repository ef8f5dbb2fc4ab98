"""
Seeded random generation for all the measures in the lab.

Randomness contract: every sampler takes a RandomSource, a thin wrapper
around numpy's counter-based Philox bit generator keyed by
(seed, stream_id). Identical keys give identical output on every platform;
distinct stream ids give independent streams, so parallel work partitions
by stream id. Exact discrete draws (inverse cdf over big-integer weights,
rational accept/reject) go through `RandomSource.randbelow`, which never
rounds.

Every uniform avoider is one uniform Dyck path mapped to a permutation;
see docs/dyck_321_bijection.md. The path is the cycle-lemma rotation of a
uniform walk of n+1 up-steps and n down-steps, and every such walk is
drawn by `_walk_job`, exact bit rejection with a complement branch.
321-avoiders come through the profile bijection and 123-avoiders are
their reverses; 132-avoiders come through the first-return decomposition
U A D B of the path (A is the head above the maximum, B the tail below
it), and 213-avoiders are reverse-complements of 132-avoiders.

The fixed-point batch sampler counts 321/123 fixed points straight from
the walks, without rotating them to Dyck paths or building the
permutations. It draws batch i+1 on one helper thread while the main
thread counts batch i; only the helper draws, in batch order, so the
random stream is the one of drawing the batches one after another.
Every other sampler draws on the calling thread.

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
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil, comb, exp, lgamma, log

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


def _walk_job(n: int, rows: int, gen: np.random.Generator):
    """
    A (rows, 2n+1) int8 buffer and the call that fills it with independent
    uniform walks of n+1 up-steps (+1) and n down-steps (-1). Every uniform
    Dyck path starts here, so the stream is the same whether the call runs
    at once or on a helper thread.

    Exact bit rejection (docs/dyck_321_bijection.md, "Drawing the walk"): a
    raw row is 2n+1 bits of raw Philox words, the last word masked, bit j
    giving column j. Rows with n+1 ones are kept as drawn and rows with n
    ones complemented; the complement maps the second set one-to-one onto
    the first, so every walk has exactly two preimages and is drawn
    uniformly. The test compares integer popcounts and never rounds. About
    2/sqrt(pi n) of the raw rows are kept (3.6% at n = 1000), so the cost
    per walk grows like n^1.5, against n for a per-row shuffle: the shuffle
    wins only from about n = 60 000, above every default and every test.
    Raw rows are drawn in chunks sized from that rate, with a few spare
    rows so that one chunk nearly always suffices, and capped at
    _MAX_BATCH_CELLS bits.
    """
    m = 2 * n + 1
    words = (m + 63) // 64
    mask = np.uint64((1 << (m - 64 * (words - 1))) - 1)  # the bits of the last word
    # 2 C(m, n) / 2^m sizes the chunks only and never decides a row
    rate = 2 * exp(lgamma(m + 1) - lgamma(n + 1) - lgamma(n + 2) - m * log(2))
    max_raw = max(1, _MAX_BATCH_CELLS // m)
    walks = np.empty((rows, m), dtype=np.int8)

    def fill():
        got = 0
        while got < rows:
            size = min(ceil((rows - got + 3) / rate), max_raw)
            raw = gen.bit_generator.random_raw(size * words).reshape(size, words)
            raw[:, -1] &= mask
            # ones - n is 1 for a row kept as drawn and 0 for one complemented
            up = np.bitwise_count(raw).sum(axis=1, dtype=np.int32)
            up -= n
            keep = np.flatnonzero(up.view(np.uint32) <= 1)[: rows - got]
            bits = np.unpackbits(raw[keep].astype("<u8", copy=False).view(np.uint8), axis=1,
                                 count=m, bitorder="little")
            # a column is an up-step where its bit equals the row's flag
            step = np.equal(bits, up[keep, None].astype(np.uint8)).view(np.int8)
            out = walks[got : got + len(keep)]
            np.add(step, step, out=out)
            out -= 1
            got += len(keep)

    return walks, fill


def _dyck_starts(walks: np.ndarray, dtype) -> np.ndarray:
    """
    Column of each walk where its Dyck path starts (cycle lemma), in
    [2, m+1] for walks of length m: read it modulo m.

    The walk sums to +1; read cyclically from just after the last minimum of
    its prefix sums every prefix is positive, and dropping that leading
    up-step leaves a uniform Dyck path, whose first step is therefore two
    columns after the last minimum.
    """
    m = walks.shape[1]
    prefix = np.cumsum(walks, axis=1, dtype=dtype)
    # the last minimum sits at column m-1-argmin of the reversed sums
    return m + 1 - np.argmin(prefix[:, ::-1], axis=1)


def _walk_dtype(n: int):
    """The narrowest dtype holding a walk's prefix sums and its column offsets (up to 2n+2)."""
    return np.int16 if 2 * n + 2 < 2**15 else np.int32


def _dyck_from_walks(walks: np.ndarray) -> np.ndarray:
    """The Dyck paths of a batch of walks, as (rows, 2n) +-1."""
    rows, m = walks.shape
    start = _dyck_starts(walks, _walk_dtype(m // 2))
    idx = (np.arange(m - 1)[None, :] + start[:, None]) % m
    return walks[np.arange(rows)[:, None], idx]


def _batch_dyck_steps(n: int, rows: int, gen: np.random.Generator) -> np.ndarray:
    """`rows` independent uniform Dyck paths of semilength n, as (rows, 2n) +-1."""
    walks, fill = _walk_job(n, rows, gen)
    fill()
    return _dyck_from_walks(walks)


def uniform_dyck(n: int, rng: RandomSource) -> DyckPath:
    """One uniform Dyck path of semilength n."""
    if n < 0:
        raise ValueError("semilength must be >= 0")
    return DyckPath(tuple(_batch_dyck_steps(n, 1, rng.generator)[0].tolist()))


def _profiles_from_dyck(steps: np.ndarray) -> np.ndarray:
    """Profile H[x] = number of up-steps before the x-th down-step (rows, n)."""
    rows, two_n = steps.shape
    n = two_n // 2
    ups = np.cumsum(steps > 0, axis=1, dtype=np.int32)
    return ups[steps < 0].reshape(rows, n)


def _perms_from_profiles(profiles: np.ndarray) -> np.ndarray:
    """Materialize the 321-avoiders for a batch of profiles, (rows, n) int32."""
    rows, n = profiles.shape
    exc = np.empty((rows, n), dtype=bool)
    exc[:, :1] = True
    exc[:, 1:] = profiles[:, 1:] > profiles[:, :-1]
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


def _fp_from_walks(walks: np.ndarray, reverse: bool = False) -> np.ndarray:
    """
    Fixed-point counts of the 321-avoiders that a batch of walks encode, or
    with reverse=True of their reverses (the 123-avoiders), without rotating
    the walks or materializing the permutations.

    The down-step columns, shifted cyclically by the Dyck start and sorted,
    are the Dyck indices t of the down-steps, and the profile is
    H = t - arange(n). Position x+1 is a weak excedance when the step before
    its down-step is an up-step; a fixed point is one with H = x+1. A fixed
    point of the reverse is a point on the anti-diagonal: the excedance one
    is the down-step at Dyck index n, if an up-step precedes it, and the
    fill one is where the fill rank of position x+1 equals the rank of the
    unused value n-x among unused values; see docs/dyck_321_bijection.md.
    """
    rows, m = walks.shape
    n = m // 2
    dt = _walk_dtype(n)
    start = _dyck_starts(walks, dt)
    cols = np.flatnonzero(walks < 0).reshape(rows, n)
    cols -= (np.arange(rows) * m)[:, None]
    t = cols.astype(dt)
    del cols
    t -= start.astype(dt)[:, None]
    t %= dt(m)
    t.sort(axis=1)
    exc = np.diff(t, axis=1, prepend=dt(-1)) > 1
    if not reverse:
        return (exc & (t == np.arange(1, m, 2, dtype=dt))).sum(axis=1)
    r = np.arange(rows)
    exc_part = (walks[r, (start + n) % m] < 0) & (walks[r, (start + n - 1) % m] > 0)
    t -= np.arange(n, dtype=dt)  # the profile H, values 1..n
    used = np.zeros((rows, n + 1), dtype=bool)
    np.put_along_axis(used, t, True, axis=1)
    used = used[:, 1:]
    pos = np.arange(1, n + 1, dtype=dt)
    fill_rank = pos - np.cumsum(exc, axis=1, dtype=dt)
    value_rank = pos - np.cumsum(used, axis=1, dtype=dt)
    # position x+1 targets the value n-x: read the value ranks reversed
    fill = ~exc & ~used[:, ::-1] & (value_rank[:, ::-1] == fill_rank)
    return exc_part + fill.sum(axis=1)


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


DYCK_PATTERNS = ("321", "123", "132", "213")  # the patterns the Dyck kernel maps to


def _dyck_pattern(tau: str) -> str:
    tau = check_pattern(tau)
    if tau not in DYCK_PATTERNS:
        raise UnsupportedMeasureError(
            f"no uniform sampler for pattern {tau}; enumerate at n <= {budgets()['enum']} instead"
        )
    return tau


def uniform_avoider(n: int, tau: str, rng: RandomSource) -> tuple[int, ...]:
    """
    One uniform element of S_n(tau) for tau in {321, 132, 213, 123}.

    Patterns 231 and 312 are refused only because the Dyck kernel has no
    branch for them yet (the reverse of a 132-avoider avoids 231, and its
    complement avoids 312); use `enumerate_avoiders` within the `enum`
    budget instead.
    """
    tau = _dyck_pattern(tau)
    if n < 0:
        raise ValueError("n must be >= 0")
    steps = _batch_dyck_steps(n, 1, rng.generator)
    return tuple(_avoiders_from_dyck(steps, tau)[0].tolist())


def _walk_batches(n: int, count: int, gen: np.random.Generator):
    """
    Uniform walks for `count` paths, in `_batch_rows` batches.

    While the caller maps batch i, a helper thread draws batch i+1. Only the
    helper touches `gen`, in batch order, so the stream is the one of
    drawing the batches one after another. The helper runs `_walk_job`'s
    fill: Philox draws, popcounts and bit unpacking, numpy calls that
    release the GIL for all but their Python glue. It is joined before each
    batch is handed out, and when the caller stops early.
    """
    sizes, done = [], 0
    while done < count:
        sizes.append(_batch_rows(n, count - done))
        done += sizes[-1]
    if not sizes:
        return
    walks, fill = _walk_job(n, sizes[0], gen)
    fill()
    for rows in sizes[1:]:
        following, fill = _walk_job(n, rows, gen)
        join = _start_helper(fill)
        try:
            yield walks
        finally:
            join()
        walks = following
    yield walks


def _start_helper(job):
    """Run `job` on a new thread; the returned call joins it and re-raises its error."""
    failed = []

    def run():
        try:
            job()
        except BaseException as exc:  # handed to the joining thread
            failed.append(exc)

    thread = threading.Thread(target=run, name="fpblab-walks")
    thread.start()

    def join():
        thread.join()
        if failed:
            raise failed[0]

    return join


def uniform_avoider_fp_batch(n: int, tau: str, count: int, rng: RandomSource) -> np.ndarray:
    """Fixed-point counts of `count` uniform tau-avoiders, drawn in vectorized batches."""
    tau = _dyck_pattern(tau)
    out = np.empty(count, dtype=np.int64)
    done = 0
    batches = _walk_batches(n, count, rng.generator)
    try:
        for walks in batches:
            b = len(walks)
            if tau in ("321", "123"):
                out[done : done + b] = _fp_from_walks(walks, reverse=(tau == "123"))
            else:
                # reverse-complement preserves fixed points, so 213 counts those of 132
                sigma = _perms_132_from_dyck(_dyck_from_walks(walks))
                out[done : done + b] = (sigma == np.arange(1, n + 1)).sum(axis=1)
            done += b
    finally:
        batches.close()  # joins the helper thread if the loop stops early
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
    if n < 0:
        raise ValueError("n must be >= 0")
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
        if q <= 1 and tau in DYCK_PATTERNS:
            route = "rejection"
        elif n <= caps["enum"]:
            route = "enumeration"
        else:
            why = ("rejection is exponentially slow above the phase point" if q > 1
                   else f"rejection needs a uniform sampler, which pattern {tau} lacks")
            raise UnsupportedMeasureError(
                f"whole-permutation sampling for q={q}, tau={tau} at n={n} is unsupported ({why}); "
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
    Vectorized rejection sampler for biased tau-avoiders, q <= 1, for tau in
    {321, 123, 132, 213}; at q = 1 every attempt is accepted.

    Returns (permutations as a (count, n) array, total uniform attempts).
    """
    q = _bias(q)
    tau = _dyck_pattern(tau)
    if q > 1:
        raise UnsupportedMeasureError("rejection route requires q <= 1")
    a, b = q.numerator, q.denominator
    gen = rng.generator
    out = np.empty((count, n), dtype=np.int32)
    got = 0
    attempts = 0
    while got < count:
        # size each round from the acceptance seen so far (all rows at q = 1)
        need = count - got
        rows = _batch_rows(n, ceil(need * attempts / max(got, 1)) if attempts else need)
        sigma = _avoiders_from_dyck(_batch_dyck_steps(n, rows, gen), tau)
        attempts += rows
        accept = np.ones(rows, dtype=bool)
        if q != 1:
            fps = (sigma == np.arange(1, n + 1)).sum(axis=1)
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
    if samples < 1:
        raise ValueError("samples must be positive")
    tau = check_pattern(tau)
    fps = uniform_avoider_fp_batch(n, tau, samples, rng)
    counts = np.bincount(fps, minlength=1)
    weights = {int(k): Fraction(int(c), samples) for k, c in enumerate(counts) if c}
    prov = Provenance("monte-carlo", samples=samples, seed=rng.seed, stream_id=rng.stream_id)
    return FixedPointPMF(n, weights, "exact", prov, MeasureSpec(n, Fraction(1), tau))
