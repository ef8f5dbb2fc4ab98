"""
Seeded random generation for all the measures in the lab.

Randomness contract: every sampler takes a RandomSource, a thin wrapper
around numpy's counter-based Philox bit generator keyed by
(seed, stream_id). Identical keys give identical output on every platform;
distinct stream ids give independent streams, so parallel work partitions
by stream id. Exact discrete draws (inverse cdf over big-integer weights,
rational accept/reject) go through `RandomSource.randbelow` or its batch
form `randbelow_batch`, which never round.

Every uniform avoider is one uniform Dyck path mapped to a permutation;
see docs/dyck_321_bijection.md. The path is the cycle-lemma rotation of a
uniform walk of n+1 up-steps and n down-steps, and every such walk is
drawn by `_walk_job` from raw bits: a row with too few ones is
complemented, one with at most a few too many is kept, and its excess
ones, chosen uniformly, are cleared. 321-avoiders come through the
profile bijection and 123-avoiders are their reverses; 132-avoiders come
through the first-return decomposition U A D B of the path (A is the head
above the maximum, B the tail below it), and 213-avoiders are
reverse-complements of 132-avoiders.

A batch of walks is held bit-packed, one bit a step, and every batch
kernel rotates it one way: word shifts and one gather of word pairs turn
the packed walks into packed Dyck paths (`_dyck_words`), which the
kernels that map steps unpack (`_unpack_paths`). One count,
`_fp_from_walks`, gives the fixed points of all four patterns a block of
rows at a time. For 321/123 it reads them straight off the packed paths,
with no step unpacked, nothing sorted and no permutation built: a 321
fixed point is a hill of the path, counted by halfwords of 16 steps
through a table built on first use; a 123 fixed point
is a peak at the middle or the one fill crossing, which a rank/select
bisection over the path's step-pair masks finds. For 132/213 it unpacks
the paths of a block, and a fixed point is a pair of matching steps that
mirror each other about the middle of the path. The per-call sampler
`uniform_avoider` is a one-row batch of `biased_avoider_permutation` at
q = 1. The fixed-point batch sampler draws ahead: while the calling thread
counts batch i, one helper thread draws batch i+1. Only the helper draws
after the first batch, in batch order, so the random stream is the one of
drawing the batches one after another. Every other sampler draws and maps
on the calling thread.

Every exact discrete draw over big-integer weights (fixed-point counts,
the enumeration route) goes through one inverse-cdf helper. Once the total
weight reaches 2^63 it takes its uniforms from
`RandomSource.randbelow_batch`, as does the exact accept step of the
vectorized rejection sampler once b^fp does. That method draws candidates
in rounds: a candidate is one `randbelow` attempt (whole uint64 words,
read big-endian and masked), and a round draws one candidate for each
draw still owed, at most _MAX_BATCH_CELLS bits, in a single generator
call. Every owed draw takes at least one candidate, so a round never draws
past the candidate where one-at-a-time `randbelow` calls would stop: the
values and the generator state afterwards are theirs. The draws stay
numpy word rows: a round keeps its candidates by a word-by-word comparison
with the bound, the accept step compares them with a^fp the same way, and
the inverse cdf places each draw among the cumulative weights by its top
64 bits, comparing whole numbers in Python only where those tie.

Whole permutations of biased avoiders come from one call,
`biased_avoider_permutation(n, q, tau, rng, count)`. For q <= 1 and the
Dyck patterns it is exact rejection from the uniform batch sampler
(accept with probability q^fp), in rounds of boundedly many rows.
Otherwise it draws from the enumerated avoiders, within the `enum` cap
only: above the phase point the acceptance rate of rejection decays
exponentially, and fixed-point-count sampling covers every verification
need past the cap.
"""
from __future__ import annotations

import bisect
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, exp, isqrt, lgamma, log

import numpy as np

from . import series
from .config import budgets
from .dist import FixedPointPMF, MeasureSpec, Provenance, UnsupportedMeasureError, _measure_weights, fp_pmf
from .perms import check_pattern, enumerate_avoiders, fixed_points

_MAX_BATCH_CELLS = 8_000_000  # soft cap on rows*length per vectorized batch
# rows per block of a fixed-point count: at most _BLOCK, and few enough that the count's
# largest temporary stays within _BLOCK_BYTES, in cache and below the size above which
# malloc hands freed memory back to the system (every block would fault its pages anew);
# the packed 123 search costs numpy calls per block, not per row, so blocks are large
_BLOCK = 1024
_BLOCK_BYTES = 2**19


class RandomSource:
    """
    Reproducible random stream keyed by (seed, stream_id).

    Philox is counter-based, so the key fully determines the stream
    regardless of platform or thread count. Sources are cheap value-like
    objects; use one per task, with its own stream id for parallel work
    (never share one source between threads). The seed and the stream id
    are each one uint64 word of the key, so each must lie in [0, 2^64).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        for name, value in (("seed", self.seed), ("stream id", self.stream_id)):
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must be in [0, 2^64), got {value}")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def randbelow(self, bound: int) -> int:
        """
        Exact uniform integer in [0, bound), for arbitrary-size bounds: the
        first candidate below bound, each candidate the words of one
        `random_raw` call read big-endian and masked, as in `randbelow_batch`.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = max((bound - 1).bit_length(), 1)
        words = (bits + 63) // 64
        mask = (1 << bits) - 1
        raw = self.generator.bit_generator.random_raw
        while True:
            if words == 1:
                x = raw() & mask
            else:
                x = int.from_bytes(raw(words).astype(">u8").tobytes(), "big") & mask
            if x < bound:
                return x

    def randbelow_batch(self, bound: int, count: int) -> np.ndarray:
        """
        `count` exact uniform integers in [0, bound): the values of `count`
        `randbelow` calls, leaving the generator in the same state, as a
        (count, words) uint64 array, row i the words of the i-th value with
        the most significant first (words: those that hold bound - 1).

        A candidate is the raw uint64 words (`bit_generator.random_raw`,
        the words `integers(0, 2**64, dtype=np.uint64)` returns) that hold
        the bits of bound - 1, read big-endian and masked to them; it is
        kept iff it is below bound (`_words_below`). Each round draws one
        candidate per draw still owed, at most _MAX_BATCH_CELLS bits, in one
        call. Every owed draw takes at least one candidate, so a round never
        draws past the candidate where the sequential calls would stop.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if count < 0:
            raise ValueError("count must be >= 0")
        bits = max((bound - 1).bit_length(), 1)
        words = (bits + 63) // 64
        mask = np.uint64((1 << bits - 64 * (words - 1)) - 1)  # of the first word
        cap = max(1, _MAX_BATCH_CELLS // (64 * words))
        out = np.empty((count, words), dtype=np.uint64)
        got = 0
        while got < count:
            need = min(count - got, cap)
            raw = self.generator.bit_generator.random_raw(need * words).reshape(need, words)
            raw[:, 0] &= mask
            kept = raw[_words_below(raw, bound)]
            out[got : got + len(kept)] = kept
            got += len(kept)
        return out

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"


def _words_below(x: np.ndarray, value: int) -> np.ndarray:
    """
    Whether each row of x, the uint64 words of a number with the most
    significant first, is below the integer value >= 0: the first word
    where the row and value differ decides.
    """
    words = x.shape[1]
    if value >> 64 * words:
        return np.ones(len(x), dtype=bool)
    limit = np.array([(value >> 64 * j) & (2**64 - 1) for j in range(words - 1, -1, -1)], dtype=np.uint64)
    differ = x != limit
    first = differ.argmax(axis=1)
    at = np.arange(len(x))
    return differ[at, first] & (x[at, first] < limit[first])


# ---------------------------------------------------------------------------
# Dyck paths and their maps to avoiders (batch kernels)
# ---------------------------------------------------------------------------


def _window(n: int) -> int:
    """
    The window w of `_walk_job`: how many ones over n+1 a kept raw row may
    hold. A wider window draws fewer raw rows a walk but clears more ones
    (docs/dyck_321_bijection.md, "Drawing the walk", for the timings).
    What decides the best w is the rows a batch draws as much as n: a
    round of clearing costs numpy calls per batch, and saves raw words per
    row. The cut at n = 128 stands in for batch size. The batches the
    program draws below it are mostly small (rounds of at most 546 rows in
    the q < 1 dumps at n = 60, 8-row dumps), where w = 0 is fastest, though
    the 66 115-row batches of `verify --law 3 --n 60` would take w = 1 at a
    tenth less. Above it, w grows like n^(1/4), the best w of the sweep at
    n = 1000 (3998-row batches), 4000 and 16 000; at n = 200 with 1024 rows
    the formula's w = 2 is within a tenth of the best, w = 1. Only n = 1000
    is measured end to end by the benchmark.
    """
    return isqrt(isqrt(n)) - 1 if n >= 128 else 0


@lru_cache(maxsize=256)
def _raw_layout(n: int):
    """
    How the walks of n+1 up-steps and n down-steps are drawn from raw words:
    the uint64 words per raw row (2n+1 bits, bit j giving column j), the
    mask of those bits as one read-only little-endian word per raw word,
    the window w of `_window`, and the call that sizes a chunk of raw rows
    for `need` more walks. A walk's chunk decides where the generator is
    left, so the chunk size is part of every seeded stream.

    A raw row is kept when it has k ones, n-w <= k <= n+1+w, which happens
    with probability sum C(2n+1, k) / 2^(2n+1) over those k, about
    2 (w+1) / sqrt(pi n) at large n; a chunk is sized from that rate with
    three spare rows, which nearly always makes one chunk suffice, and
    capped at _MAX_BATCH_CELLS bits (read at each call, so the cached
    layout follows the cap).
    """
    m = 2 * n + 1
    words = (m + 63) // 64
    full = np.full(words, 2**64 - 1, dtype="<u8")
    full[-1] = (1 << (m - 64 * (words - 1))) - 1
    full.flags.writeable = False  # shared by every caller of the cached layout
    w = _window(n)
    # the float rate sizes the chunks only and never decides a row
    rate = sum(exp(lgamma(m + 1) - lgamma(k + 1) - lgamma(m - k + 1) - m * log(2))
               for k in range(max(n - w, 0), min(n + 1 + w, m) + 1))
    return words, full, w, lambda need: min(ceil((need + 3) / rate), max(1, _MAX_BATCH_CELLS // m))


def _walk_job(n: int, rows: int, gen: np.random.Generator):
    """
    A (rows, words) little-endian uint64 buffer and the call that fills it
    with independent uniform walks of n+1 up-steps and n down-steps, bit
    packed: bit j of a row (bit j % 64 of word j // 64) is set where column j
    is an up-step, and the bits above column 2n are clear. Every batch of
    uniform Dyck paths starts here, so the stream is the same whether the
    call runs at once or on a helper thread.

    Windowed bit rejection (docs/dyck_321_bijection.md, "Drawing the
    walk"): a raw row is 2n+1 bits of raw Philox words, the last word
    masked, bit j giving column j. A row with at most n ones is
    complemented (XOR with the mask of all 2n+1 bits), and the row is kept
    if it then holds n+1+e ones with e at most the window w of `_window`;
    `_clear_excess` then clears e of its ones, each a uniformly chosen set
    bit. Raw bits are exchangeable, and the complement and the uniform
    clearing commute with every permutation of the columns, so the law of
    a kept row is invariant under them; the walks of n+1 ones are one orbit,
    so it is uniform. The tests compare integer popcounts and never round.
    At w = 0 no bit is cleared and a row is kept iff it has n or n+1 ones.
    A wider window keeps about w+1 times as many raw rows, each row's
    clearing costs about e random words, and raw rows are drawn in the
    chunks that `_raw_layout` sizes, with each chunk's clearing drawn right
    after it.
    """
    words, full, w, chunk = _raw_layout(n)
    walks = np.empty((rows, words), dtype="<u8")

    def fill():
        got = 0
        while got < rows:
            size = chunk(rows - got)
            raw = gen.bit_generator.random_raw(size * words).reshape(size, words)
            raw[:, -1] &= full[-1]
            # d = ones - n, kept within [-w, w+1]; a row with d <= 0 is complemented,
            # and its excess over n+1 ones is then -d (d-1 otherwise)
            d = np.bitwise_count(raw).sum(axis=1, dtype=np.int32)
            d -= n
            keep = np.flatnonzero((d + w).view(np.uint32) <= 2 * w + 1)[: rows - got]
            out = walks[got : got + len(keep)]
            out[:] = raw[keep]
            d = d[keep]
            low = d <= 0
            out[low] ^= full
            if w:
                _clear_excess(out, np.where(low, -d, d - 1), n, gen)
            got += len(keep)

    return walks, fill


def _clear_excess(walks: np.ndarray, excess: np.ndarray, n: int, gen: np.random.Generator):
    """
    Clear excess[i] of the ones of packed row i, which holds n+1+excess[i],
    one at a time, each a uniformly chosen set bit. Round r serves the rows
    with more than r to clear, in row order: it draws each one's rank among
    its set bits (`_randbelow_rows`), finds the word that holds it from the
    word-prefix popcounts and the bit by `_select_bits`, and clears it.
    """
    todo = np.flatnonzero(excess)
    r = 0
    while todo.size:
        rank = _randbelow_rows(excess[todo] + (n + 1 - r), gen)
        sub = walks[todo]
        upto = np.bitwise_count(sub).cumsum(axis=1, dtype=np.int64)
        word = (upto <= rank[:, None]).sum(axis=1)
        at = np.arange(len(todo))
        val = sub[at, word]
        bit = _select_bits(val, rank - upto[at, word] + np.bitwise_count(val))
        walks[todo, word] = val ^ (np.uint64(1) << bit.astype(np.uint64))
        r += 1
        todo = todo[excess[todo] > r]


def _randbelow_rows(bound: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """
    One exact uniform integer in [0, bound[i]) for each i, as int64, each
    bound below 2^53: as in `RandomSource.randbelow`, a candidate is a raw
    word masked to the bits of bound - 1 (at least one bit) and the draw is
    the first candidate below the bound. Each round draws one candidate for every draw still
    owed, in order, so one bound draws what `randbelow` would.
    """
    bits = np.maximum(np.frexp((bound - 1).astype(np.float64))[1], 1).astype(np.uint64)
    mask = (np.uint64(1) << bits) - np.uint64(1)
    out = np.empty(len(bound), dtype=np.int64)
    todo = np.arange(len(bound))
    while todo.size:
        x = gen.bit_generator.random_raw(todo.size) & mask[todo]
        ok = x < bound[todo]
        out[todo[ok]] = x[ok]
        todo = todo[~ok]
    return out


def _byte_tables():
    """
    For each byte of 8 steps (first step in the low bit, bit 1 a down-step):
    its net sum, its lowest prefix sum less that net sum, and the last
    position (0..7) where that lowest prefix sum is reached.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    prefix = np.cumsum(1 - 2 * bits.astype(np.int8), axis=1)
    net = prefix[:, -1]
    return (net.astype(np.int8), (prefix.min(axis=1) - net).astype(np.int8),
            7 - np.argmin(prefix[:, ::-1], axis=1))


def _read_only(*tables):
    """The tables, made read-only: every caller of a cached table shares it."""
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=1)
def _start_tables():
    """
    The byte tables of `_byte_tables` for halfwords of 16 steps (bit 1 a
    down-step): each halfword's net sum, its lowest prefix sum less that
    net sum, and the last position (0..15) where that lowest prefix sum is
    reached. The halfword whose first step is in the low bit of byte lo and
    whose ninth is in the low bit of byte hi sits at 256 lo + hi, where a
    '>u2' view of packed rows reads it. The high byte's lowest prefix sum is
    the low byte's net sum plus its own, and a tie goes to the high byte,
    the later one. Built on first use.
    """
    net, low, last = _byte_tables()
    last = last.astype(np.int8)
    lowest = low + net  # the lowest prefix sum of each byte
    whole = net[:, None] + net[None, :]
    high = net[:, None] + lowest[None, :]  # the lowest prefix sum within the high byte
    low16 = np.minimum(high, lowest[:, None]) - whole
    # broadcast arithmetic, not np.where, which is slow to broadcast
    last16 = last[:, None] + (high <= lowest[:, None]) * (8 + last[None, :] - last[:, None])
    return _read_only(whole.ravel(), low16.ravel(), last16.astype(np.uint8).ravel())


def _dyck_starts(walks: np.ndarray, n: int) -> np.ndarray:
    """
    Column of each packed walk of `_walk_job` where its Dyck path starts
    (cycle lemma), in [2, 2n+2]: a column of the doubled row (the row twice
    over), so the path is the 2n steps from there on.

    The walk sums to +1; read cyclically from just after the last minimum of
    its prefix sums every prefix is positive, and dropping that leading
    up-step leaves a uniform Dyck path, whose first step is therefore two
    columns after the last minimum.

    The prefix sums run over halfwords, a sixteenth of the columns: the
    halfwords of the down-steps (the walk XOR the mask of its 2n+1 columns)
    index the tables of `_start_tables`, which give each halfword's net sum,
    lowest prefix sum and last position of it. Padding bits stay clear, so
    they read as up-steps and never reach a minimum.
    """
    down = (walks ^ _raw_layout(n)[1]).astype("<u8", copy=False).view(">u2")
    net, low, last = _start_tables()
    at = down.astype(np.intp)  # one conversion for both lookups
    prefix = np.take(net, at).cumsum(axis=1, dtype=_walk_dtype(n))
    prefix += np.take(low, at)  # the lowest prefix sum within each halfword
    half = down.shape[1] - 1 - prefix[:, ::-1].argmin(axis=1)  # the last halfword reaching the minimum
    return 16 * half + last[down[np.arange(len(walks)), half]] + 2


def _walk_dtype(n: int):
    """
    The dtype of the prefix sums of the walks of `_walk_job` and of their
    Dyck paths, the padding bits of packed rows included: they stay within
    max(n+1, 64) in size, and int16 is used while 2n+2 < 2^15.
    """
    return np.int16 if 2 * n + 2 < 2**15 else np.int32


def _unpack_paths(path: np.ndarray, n: int) -> np.ndarray:
    """Packed Dyck paths (`_dyck_words`) as (rows, 2n) bool, True an up-step."""
    path = path.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(path, axis=1, count=2 * n, bitorder="little").view(bool)


def _steps(up: np.ndarray) -> np.ndarray:
    """The +-1 int8 steps of paths given as up-step flags."""
    steps = up.view(np.int8) * np.int8(2)
    steps -= 1
    return steps


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


def _block_rows(row_bytes: int) -> int:
    """Rows per block of a count whose largest temporary takes `row_bytes` bytes a row."""
    return max(1, min(_BLOCK, _BLOCK_BYTES // max(row_bytes, 1)))


def _packed_block_rows(n: int) -> tuple[int, int]:
    """
    Rows per block of the packed 321/123 count, and per part of a block
    that is rotated at once. A block's largest temporary, the stacked
    step-pair masks of the 123 search, takes two path rows of words a row; a
    part's, the halfword table lookups of the Dyck starts and of the hill
    count, takes an intp index per path halfword.
    """
    words = _raw_layout(n)[0]
    return _block_rows(16 * words), _block_rows(32 * words)


def _dyck_words(walks: np.ndarray, n: int) -> np.ndarray:
    """
    The Dyck paths of a batch of packed walks of `_walk_job`, packed as the
    walks are: (rows, words) uint64, bit t of a row (bit t % 64 of word
    t // 64) set where path step t is an up-step, the bits from 2n on clear.

    The path is the 2n columns of the doubled walk (walk | walk << m) from
    the Dyck start s on. The doubled rows are built by word shifts, a row's
    words s // 64 .. s // 64 + words are gathered as one window of a strided
    view, and each path word joins the bits of a pair of them, shifted by
    s % 64. The high word's shift is taken in two parts, since a uint64 shift
    by 64 is not defined.
    """
    rows, words = walks.shape
    m = 2 * n + 1
    start = _dyck_starts(walks, n)  # in [2, m+1]
    # words enough for the window of words+1 from the last start
    doubled = np.zeros((rows, (m + 1) // 64 + words + 1), dtype=np.uint64)
    doubled[:, :words] = walks
    q, r = divmod(m, 64)
    doubled[:, q : q + words] |= walks << r
    if r:
        doubled[:, q + 1 : q + words + 1] |= walks >> (64 - r)
    row_stride, step = doubled.strides
    windows = np.ndarray((rows, doubled.shape[1] - words, words + 1), doubled.dtype, doubled, 0,
                         (row_stride, step, step))
    pairs = windows[np.arange(rows), start >> 6]
    del doubled, windows
    shift = (start & 63).astype(np.uint64)[:, None]
    path = pairs[:, :-1] >> shift
    path |= (pairs[:, 1:] << 1) << (63 - shift)
    path[:, -1] &= (1 << (2 * n - 64 * (words - 1))) - 1
    return path


@lru_cache(maxsize=1)
def _hill_table():
    """
    For each even height h = 0, 2, .., 16 and each halfword of 16 path
    steps (bit 1 an up-step), indexed as in `_start_tables`: the hills
    within the halfword when it starts at height h, up-steps from height 0
    followed by a down-step, flat at 65536 h/2 + halfword. A halfword of a
    path starts at an even step, so at an even height, and from height 16
    on it holds no hill. Built on first use from the hills of each byte at
    each height -8..8 before it: those of the low byte at h and those of the
    high byte at h plus the low byte's net sum, clipped to 8, from where a
    byte holds none. At an even h no hill spans the two bytes, since bit 7
    of the low byte starts at an odd height.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little").astype(np.int8)
    steps = 2 * bits - 1
    byte, t = np.nonzero(bits[:, :-1] > bits[:, 1:])  # the up-steps followed by a down-step
    start = (np.cumsum(steps, axis=1) - steps)[byte, t]  # their heights less the byte's starting height
    hills = np.bincount(256 * (8 - start) + byte, minlength=17 * 256).astype(np.uint8).reshape(17, 256)
    height = np.arange(0, 17, 2, dtype=np.int8)
    after = height[:, None] + steps.sum(axis=1, dtype=np.int8)  # (h, lo): the height after the low byte
    table = hills[np.minimum(after, 8) + 8]  # (h, lo, hi): the high byte's hills
    table += hills[np.minimum(height, 8) + 8][:, :, None]  # the low byte's
    return _read_only(table.ravel())[0]


def _select_table():
    """The position of the k-th set bit (k from 0) of each byte, flat at 8 byte + k."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    return np.argsort(1 - bits, axis=1, kind="stable").astype(np.uint8).ravel()


_SELECT = _select_table()
_LANES = 0x0101010101010101  # a one in each byte lane of a word


def _hill_counts(path: np.ndarray) -> np.ndarray:
    """
    The fixed points of the 321-avoiders of packed Dyck paths
    (`_dyck_words`): the hills, up-steps from height 0 followed by a
    down-step (t_x = 2x+1 after an up-step). The heights run over
    halfwords: `_hill_table`, indexed by each halfword and its starting
    height clipped to 0..16, counts the hills within it. A path is at
    height 0 only before an even step, and a halfword ends with an odd one,
    so no hill straddles two halfwords. The clear bits past the path read
    as down-steps below height 0, where no up-step follows.
    """
    at = path.astype("<u8", copy=False).view(">u2").astype(np.intp)  # halfwords as `_hill_table` reads them
    net = np.take(_start_tables()[0], at)
    np.negative(net, out=net)  # the start tables read bit 1 as a down-step
    height = net.cumsum(axis=1, dtype=np.int32)
    height -= net  # before each halfword, an even height
    np.clip(height, 0, 16, out=height)
    height <<= 15  # h/2 slabs of 65536 in: the slab of the even height h
    at += height
    return np.take(_hill_table(), at).sum(axis=1, dtype=np.int64)


def _select_bits(words: np.ndarray, k: np.ndarray) -> np.ndarray:
    """
    The position in each uint64 word of its k-th set bit (k from 0, below
    the word's popcount), by bytes: the popcounts of the bytes, summed into
    every later lane by one multiplication, give the byte that holds the
    bit, and `_SELECT` the bit within it.
    """
    k = k.astype(np.uint64)
    upto = np.bitwise_count(words.view(np.uint8)).view(np.uint64) * _LANES  # bits in lanes 0..j
    # a lane's high bit survives the subtraction where its count exceeds k
    lane = 8 - np.bitwise_count(((upto | 0x80 * _LANES) - (k + 1) * _LANES) & 0x80 * _LANES)
    lane <<= 3
    k -= ((upto << 8) >> lane) & 255  # the set bits of the lanes below
    k += ((words >> lane) & 255) << 3
    return lane + np.take(_SELECT, k)


def _fill_points(path: np.ndarray, n: int) -> np.ndarray:
    """
    Whether the 321-avoider of each packed Dyck path (`_dyck_words`) has a
    fill point on the anti-diagonal, the fill part of the 123 count; see
    docs/dyck_321_bijection.md, "The pairing".

    The fill positions are the second steps of DD pairs and the unused
    values the first steps of UU pairs, K of each in a row. The i-th fill
    position pairs with the i-th unused value, and g(i), the down-rank of
    the i-th DD plus the up-rank of the i-th UU, increases strictly with i,
    so the row has a fill point iff g(i) = n-1 for some i; as g(i) >= 2i,
    only i <= (n-1)/2 can. A lower-bound bisection over i finds it, every
    row at once: select finds the i-th set bit of the stacked DD and UU
    masks, the word by one `searchsorted` over their flat word-prefix
    popcounts and the bit by `_select_bits`, and rank counts the up-steps
    before it from the path's own prefix popcounts. Each mask also holds
    the bit at step 2n, a sentinel past the K pairs, so that a select
    beyond them stays within its row; no answer is read there.
    """
    rows, words = path.shape
    masks = np.empty((2 * rows, words), dtype=np.uint64)
    dd, uu = masks[:rows], masks[rows:]
    np.left_shift(path, 1, out=dd)
    dd[:, 1:] |= path[:, :-1] >> 63
    dd |= path
    np.invert(dd, out=dd)  # a down-step after a down-step, and the bits from 2n on
    dd[:, -1] &= (1 << (2 * n + 1 - 64 * (words - 1))) - 1
    np.right_shift(path, 1, out=uu)
    uu[:, :-1] |= path[:, 1:] << 63
    uu &= path  # an up-step before an up-step
    uu[:, -1] |= 1 << (2 * n - 64 * (words - 1))
    ones = np.bitwise_count(masks).ravel().cumsum(dtype=np.int32)
    ends = ones[words - 1 :: words]
    first = np.concatenate(([0], ends[:-1]), dtype=np.int32)  # the set bits before each mask row
    pairs = ends[:rows] - first[:rows] - 1  # K, the sentinel left out
    ups = np.bitwise_count(path).ravel().cumsum(dtype=np.int32)
    flat_masks, flat_path = masks.ravel(), path.ravel()
    row = np.arange(rows)
    # the up-steps before each row (n a row), and where it starts in flat bits and in flat mask words
    ups_before = np.concatenate((n * row, n * row))
    bits_before = 64 * words * row
    mask_words = np.concatenate((0 * row, np.full(rows, rows * words)))
    mask_starts = words * np.arange(2 * rows)  # the flat word each mask row starts at
    found = np.zeros(rows, dtype=bool)
    base = np.zeros(rows, dtype=np.int32)
    # the probes base + half - 1 cover i = 0 .. 2^j - 2, so 2^j - 1 exceeds the candidates i <= (n-1)/2;
    # the last probe that leaves base where it is lands on the lower bound, so a fill point is probed
    half = 1 << ((n - 1) // 2 + 1).bit_length()
    while half > 1:
        half >>= 1
        i = base + (half - 1)
        rank = first + np.tile(np.minimum(i, pairs), 2)
        # the flat mask word of the rank-th set bit: the first of its row whose running
        # popcount exceeds the rank, by a bisection over that row's words alone
        at = mask_starts.copy()
        size = words
        while size > 1:
            step = size // 2
            at += step * (ones[at + (step - 1)] <= rank)
            size -= step
        word = flat_masks[at]
        bit = _select_bits(word, rank - ones[at] + np.bitwise_count(word))
        at -= mask_words  # the path word of that bit
        up_rank = ups[at] - ups_before - np.bitwise_count(flat_path[at] >> bit)
        g = 64 * at[:rows] + bit[:rows].astype(np.int64) - bits_before - up_rank[:rows] + up_rank[rows:]
        live = i < pairs
        found |= live & (g == n - 1)
        base += half * (live & (g < n - 1))
    return found


def _fp_from_walks(walks: np.ndarray, n: int, tau: str) -> np.ndarray:
    """
    Fixed-point counts of the tau-avoiders, tau in DYCK_PATTERNS, that a
    batch of packed walks of `_walk_job` encode, a block of rows at a time:
    each block is rotated into packed paths (`_dyck_words`) in parts and
    counted by `_fp_from_paths`. 321 and 123 take the blocks of
    `_packed_block_rows` (321 one part a block); 132 and 213 blocks whose
    two height rows of `_mirror_pairs` stay within _BLOCK_BYTES.
    """
    rows = len(walks)
    out = np.zeros(rows, dtype=np.int64)
    if n == 0:
        return out
    if tau in ("132", "213"):
        block = part = _block_rows(2 * (n + 1) * np.dtype(_walk_dtype(n)).itemsize)
    else:
        block, part = _packed_block_rows(n)
        if tau == "321":
            block = part  # the hill count is row-wise, as the rotation is
    for i in range(0, rows, block):
        parts = [_dyck_words(walks[j : j + part], n) for j in range(i, min(i + block, rows), part)]
        path = np.concatenate(parts) if len(parts) > 1 else parts[0]
        out[i : i + len(path)] = _fp_from_paths(path, n, tau)
    return out


def _fp_from_paths(path: np.ndarray, n: int, tau: str) -> np.ndarray:
    """
    Fixed-point counts of the tau-avoiders of packed Dyck paths
    (`_dyck_words`, n >= 1), tau in DYCK_PATTERNS; see
    docs/dyck_321_bijection.md, "The count". 321 and 123 are counted
    straight from the packed paths, without materializing the permutations.
    A 321 fixed point is a hill (`_hill_counts`). A fixed point of the
    reverse (the 123-avoider) lies on the anti-diagonal: the excedance one
    is a peak at Dyck index n, an up-step at n-1 and a down-step at n, and
    the fill one a fill position y that receives the value n+1-y
    (`_fill_points`). 132 and 213 are counted from the unpacked paths as
    the pairs of matching steps that mirror each other about the middle
    (`_mirror_pairs`), since reverse-complement keeps fixed points.
    """
    if tau == "321":
        return _hill_counts(path)
    if tau == "123":
        peak = (path[:, (n - 1) // 64] >> (n - 1) % 64) & ~(path[:, n // 64] >> n % 64) & 1
        return _fill_points(path, n) + peak
    return _mirror_pairs(_unpack_paths(path, n))


def _mirror_pairs(up: np.ndarray) -> np.ndarray:
    """
    The fixed points of the 132-avoiders of Dyck paths given as up-step
    flags (rows, 2n), without building them; see docs/dyck_321_bijection.md,
    "The other patterns".

    The k-th up-step, at step u, and its matching down-step, the d-th, at
    step t, put n+1-k at position d. The steps between them are balanced,
    so k + d = (u + t + 3) / 2, and the position is fixed iff t = 2n-1-u:
    the pair is its own mirror image about the middle of the path. One pair
    spans the middle at each level j below the middle's height: the last
    up-step from j in the first half and the first down-step to j in the
    second, which read backwards from the path's end is the last up-step
    from j of the second half. So a fixed point is a step i < n where both
    halves stand at one height before the step, and every later height of
    each half is above it.
    """
    rows, n = len(up), up.shape[1] // 2
    dtype = _walk_dtype(n)
    height = np.zeros((2, rows, n + 1), dtype=dtype)  # each half's height after i steps
    np.cumsum(_steps(up[:, :n]), axis=1, dtype=dtype, out=height[0, :, 1:])
    np.cumsum(_steps(~up[:, : n - 1 : -1]), axis=1, dtype=dtype, out=height[1, :, 1:])
    last = height[:, :, :-1] < np.minimum.accumulate(height[:, :, :0:-1], axis=2)[:, :, ::-1]
    last[0] &= last[1]
    last[0] &= height[0, :, :-1] == height[1, :, :-1]
    return last[0].sum(axis=1)


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
    """
    Map a batch of Dyck paths to tau-avoiders for tau in {321, 123, 132, 213}:
    321 by the profile bijection of docs/dyck_321_bijection.md, 123 as its
    reverse, 132 by the first-return decomposition and 213 as its
    reverse-complement.
    """
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
    One uniform element of S_n(tau) for tau in {321, 132, 213, 123}: a
    one-row `biased_avoider_permutation` at q = 1, which draws one walk
    (`_walk_job(n, 1, ·)`) and no accept draw. A call costs about 0.1 ms
    at n = 4 and 60, nearly all of it numpy call overhead, and about 0.3 ms
    at n = 1000 (2 vCPU, Python 3.11, numpy 2.4); draw many avoiders in
    one batch call.

    Patterns 231 and 312 are refused only because the Dyck kernel has no
    branch for them yet (the reverse of a 132-avoider avoids 231, and its
    complement avoids 312); use `enumerate_avoiders` within the `enum`
    budget instead.
    """
    return tuple(biased_avoider_permutation(n, 1, _dyck_pattern(tau), rng, 1)[0][0].tolist())


def _start_helper(job):
    """Run `job` on a new thread; the returned call joins it and re-raises its error."""
    failed = []

    def run():
        try:
            job()
        except BaseException as exc:  # handed to the joining thread
            failed.append(exc)

    thread = threading.Thread(target=run, name="fpblab-batch")
    thread.start()

    def join():
        thread.join()
        if failed:
            raise failed[0]

    return join


def uniform_avoider_fp_batch(n: int, tau: str, count: int, rng: RandomSource) -> np.ndarray:
    """
    Fixed-point counts of `count` uniform tau-avoiders, drawn in vectorized
    batches of `_batch_rows` walks and counted by `_fp_from_walks`.

    While the calling thread counts batch i, a helper thread draws batch
    i+1 (the `fill` of its `_walk_job`, which calls only private kernels:
    a traced public function would open its span on the helper). The first
    batch is drawn on the calling thread and every later one by the helper,
    in batch order, so the stream is the one of drawing the batches one
    after another. The helper is joined before the next batch is counted,
    also when the count fails, and its error is re-raised here.
    """
    _check_sizes(n, count)
    tau = _dyck_pattern(tau)
    out = np.empty(count, dtype=np.int64)
    if not count:
        return out  # a draw at count = 0 would still move the generator
    gen = rng.generator
    walks, fill = _walk_job(n, _batch_rows(n, count), gen)
    fill()
    done = 0
    while done + len(walks) < count:
        b = len(walks)
        following, fill = _walk_job(n, _batch_rows(n, count - done - b), gen)
        join = _start_helper(fill)
        try:
            out[done : done + b] = _fp_from_walks(walks, n, tau)
        finally:
            join()
        walks, done = following, done + b
    out[done:] = _fp_from_walks(walks, n, tau)
    return out


# ---------------------------------------------------------------------------
# Exact discrete draws over big-integer weights
# ---------------------------------------------------------------------------


def _check_sizes(n: int, count: int):
    """Refuse a negative length or sample count before anything is drawn."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if count < 0:
        raise ValueError("count must be >= 0")


def _inverse_cdf(weights: list[int], count: int, rng: RandomSource) -> np.ndarray:
    """
    `count` exact draws of k with probability weights[k] / sum(weights):
    the number of cumulative weights at or below a uniform draw from
    [0, total). Past 2^63 the draws come from `randbelow_batch` as word
    rows, and each is placed among the cumulative weights by its top 64
    bits (the bits from b - 64 up, b those of total - 1): a draw whose top
    bits equal those of some cumulative weights is compared whole with
    them, in Python.
    """
    total = sum(weights)
    if total < 2**63:
        cum = np.cumsum(np.array(weights, dtype=np.uint64))
        draws = rng.generator.integers(0, total, size=count, dtype=np.uint64)
        return np.searchsorted(cum, draws, side="right").astype(np.int64)
    cum_list = list(accumulate(weights))
    draws = rng.randbelow_batch(total, count)
    shift = max((total - 1).bit_length() - 64, 0)
    # a cumulative weight equal to a total of 2^(shift + 64) has 65 top bits: clipped, it ties
    # with the largest draws, which are then compared whole
    tops = np.array([min(c >> shift, 2**64 - 1) for c in cum_list], dtype=np.uint64)
    low, r = draws.shape[1] - 1 - shift // 64, np.uint64(shift % 64)  # the word holding bit `shift`
    top = draws[:, low] >> r
    if r:
        top |= draws[:, low - 1] << (64 - r)
    k = np.searchsorted(tops, top, side="right")
    ties = np.searchsorted(tops, top, side="left")
    for i in np.flatnonzero(ties < k).tolist():
        x = int.from_bytes(draws[i].astype(">u8").tobytes(), "big")
        k[i] = bisect.bisect_right(cum_list, x, ties[i], k[i])
    return k.astype(np.int64)


# ---------------------------------------------------------------------------
# Exact sampler for the biased measure on all of S_n
# ---------------------------------------------------------------------------


def sample_biased_unrestricted_batch(n: int, q, rng: RandomSource, count: int) -> np.ndarray:
    """
    `count` permutations distributed exactly under the bias-q measure on
    S_n, as a (count, n) int32 array.

    Construction: draw the number of fixed points K by exact inverse cdf
    over the integer weights binom(n,k) D_{n-k} a^k b^{n-k}; take a uniform
    K-subset as the fixed-point set; place a uniform derangement on the
    complement by reshuffling the rows that still fix a point (expected ~e
    tries).

    Draws: K for every row; one shuffle of every row of 0..n-1, whose
    first K entries are the fixed points and the rest the positions to
    derange; then, for each k in ascending order, one shuffle of the n-k
    positions of each of its rows, in row order, and rounds that reshuffle,
    in row order, the rows that still fix a point. A shuffle's swaps do not
    depend on what it moves, so a group shuffles the column numbers k..n-1
    of its rows, in the narrowest unsigned type, in place of the positions
    they hold: the same draws as shuffling the positions themselves, with
    the same outcome. Once a group is deranged its rows turn into
    permutations in place, a block of rows at a time.

    Memory at the peak: the (count, n) int32 result, plus K and the largest
    group's column block in the narrow type (a byte a cell up to n = 255),
    that group's row numbers, the rows still being reshuffled, and one
    block's temporaries (within _BLOCK_BYTES). For 200 000 rows at n = 6
    that is 8.9 MB under tracemalloc, 4.8 MB of it the result.
    """
    _check_sizes(n, count)
    narrow = np.min_scalar_type(n)
    ks = _inverse_cdf(_measure_weights(MeasureSpec(n, q))[0], count, rng).astype(narrow)
    gen = rng.generator
    sigma = np.empty((count, n), dtype=np.int32)
    sigma[:] = np.arange(n, dtype=np.int32)
    gen.permuted(sigma, axis=1, out=sigma)
    block = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    cols = np.arange(n, dtype=narrow)
    for k in np.flatnonzero(np.bincount(ks)).tolist():
        grp = np.flatnonzero(ks == k)
        # entry (i, j): the column of row grp[i] whose position the one in column k + j maps to
        pi = np.empty((len(grp), n - k), dtype=narrow)
        pi[:] = cols[k:]
        gen.permuted(pi, axis=1, out=pi)  # no draws at k = n: an empty row has no swaps
        todo = np.flatnonzero((pi == cols[k:]).any(axis=1))
        redo = pi[todo]
        while todo.size:
            gen.permuted(redo, axis=1, out=redo)
            fixed = (redo == cols[k:]).any(axis=1)
            pi[todo[~fixed]] = redo[~fixed]
            todo, redo = todo[fixed], redo[fixed]
        for start in range(0, len(grp), block):
            rows = grp[start : start + block]
            pos = sigma[rows]
            at = np.arange(len(rows))[:, None]
            vals = pos.copy()
            vals[:, k:] = pos[at, pi[start : start + block]]
            vals += 1
            perm = np.empty_like(pos)
            perm[at, pos] = vals
            sigma[rows] = perm
    return sigma


# ---------------------------------------------------------------------------
# Fixed-point-count sampling and biased avoider permutations
# ---------------------------------------------------------------------------


def sample_fp_count_batch(n: int, q, tau: str | None, rng: RandomSource, count: int,
                          mode: str = "exact") -> np.ndarray:
    """
    `count` draws of the fixed-point count of a biased tau-avoider, or with
    tau=None of a biased permutation of S_n (the law itself, no permutation
    is constructed): exact inverse cdf over big-integer weights, or float
    inverse cdf in scaled-float mode. With tau=None in exact mode these are
    the fixed-point counts K that `sample_biased_unrestricted_batch` draws
    first, from the same stream.
    """
    _check_sizes(n, count)
    spec = MeasureSpec(n, q, tau)
    if mode == "exact":
        return _inverse_cdf(_measure_weights(spec)[0], count, rng)
    if mode == "scaled-float":
        pmf = fp_pmf(spec, mode="scaled-float")
        ks = np.array(pmf.support)
        cdf = np.cumsum([pmf.weights[k] for k in pmf.support])
        cdf[-1] = 1.0
        u = rng.generator.random(count)
        return ks[np.searchsorted(cdf, u, side="right")]
    raise ValueError(f"unknown mode {mode!r}")


def biased_avoider_permutation(n: int, q, tau: str, rng: RandomSource,
                               count: int) -> tuple[np.ndarray, int]:
    """
    `count` whole permutations under the biased avoiding measure, as a
    (count, n) int32 array, with the number of attempts used.

    For q <= 1 and the patterns 321/132/213/123 it draws uniform avoiders
    and accepts each with exact probability q^fp (at q = 1 every attempt),
    so a row takes Catalan(n) over the normalization constant attempts on
    average. The attempts are drawn in rounds, each sized from the
    acceptance seen so far and at most `_block_rows(16 n)` rows. A round's
    walks are rotated into packed paths once; their fixed points come from
    `_fp_from_paths`, and only the accepted paths are unpacked and mapped
    to avoiders. The largest temporaries take 16 bytes for each of the n
    cells of a row: the two int64 index arrays of `np.nonzero` in the
    profile bijection, the int64 `argsort` over 2n steps in the
    first-return decomposition. The count's are smaller: a round fits one
    block of `_fp_from_walks`, whose temporaries take about 2n bytes a row
    (`_packed_block_rows`, `_mirror_pairs`). So the memory of a call beyond
    its result does not grow with `count`. The attempts are counted up to the one that gave
    the last row kept.

    Otherwise, for n within the enumeration cap and any q and pattern,
    each row draws its fixed-point count k by exact inverse cdf, then a
    uniform member of the enumerated avoiders with k fixed points, one
    attempt a row. Past the cap the call is refused before anything is
    drawn: supercritical whole-permutation sampling at large n is refused
    by design.
    """
    _check_sizes(n, count)
    spec = MeasureSpec(n, q, tau)
    q, tau = spec.q, spec.tau
    out = np.empty((count, n), dtype=np.int32)
    if q <= 1 and tau in DYCK_PATTERNS:
        a, b = q.numerator, q.denominator
        gen = rng.generator
        most = _block_rows(16 * n)
        got = attempts = 0
        while got < count:
            # size each round from the acceptance seen so far (all rows at q = 1)
            need = count - got
            rows = min(most, ceil(need * attempts / max(got, 1)) if attempts else need)
            walks, fill = _walk_job(n, rows, gen)
            fill()
            path = _dyck_words(walks, n)
            attempts += rows
            accept = np.ones(rows, dtype=bool)
            if q != 1 and n:  # at n = 0 every row has no fixed point and is kept with no draw
                fps = _fp_from_paths(path, n, tau)
                # np.bincount, not np.unique, whose first call imports numpy.ma (about 15 ms)
                for f in np.flatnonzero(np.bincount(fps)).tolist():
                    if f == 0:
                        continue  # accepted with no draw
                    sel = fps == f
                    bound, top = b**f, a**f
                    if bound < 2**63:
                        accept[sel] = gen.integers(0, bound, size=int(sel.sum()), dtype=np.uint64) < top
                    else:
                        # the exact randbelow(b^f) < a^f of each row, in row order
                        accept[sel] = _words_below(rng.randbelow_batch(bound, int(sel.sum())), top)
            kept = np.flatnonzero(accept)[:need]
            if len(kept) == need:
                attempts -= rows - (int(kept[-1]) + 1)
            out[got : got + len(kept)] = _avoiders_from_dyck(_steps(_unpack_paths(path[kept], n)), tau)
            got += len(kept)
        return out, attempts
    caps = budgets()
    if n > caps["enum"]:
        if q <= 1:
            why = f"rejection needs a uniform sampler, which pattern {tau} lacks"
        elif tau == "123":
            # not slow: accepting a uniform 123-avoider with probability q^(fp - 2) keeps
            # at least P(fp = 2) of the draws, which tends to 1/16
            why = ("rejection at q > 1 is not implemented for pattern 123, whose avoiders have "
                   "at most 2 fixed points")
        else:
            why = "rejection is exponentially slow above the phase point"
        if tau in series.TAU_CLASS:
            alt = ("the fixed-point count alone is served by sample_fp_count_batch "
                   "(CLI: sample without --emit perm)")
        else:
            alt = f"the fixed-point count of pattern {tau} has no route past that cap either"
        raise UnsupportedMeasureError(
            f"whole-permutation sampling for q={q}, tau={tau} at n={n} is unsupported ({why}; "
            f"the enumeration route is capped at n={caps['enum']}); {alt}"
        )
    if count:
        groups = _enumeration_table(n, tau)
        weights = series.bias_weights([len(g) for g in groups], q)
        for row in out:
            group = groups[int(_inverse_cdf(weights, 1, rng)[0])]
            row[:] = group[rng.randbelow(len(group))]
    return out, count


@lru_cache(maxsize=1)
def _enumeration_table(n: int, tau: str) -> list[list[tuple[int, ...]]]:
    """
    All tau-avoiders of length n grouped by fixed-point count, for every q.
    Only the last (n, tau) is kept: at n = 12 one table holds about 31 MB.
    """
    groups: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for sigma in enumerate_avoiders(n, tau):
        groups[fixed_points(sigma)].append(sigma)
    return groups


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
