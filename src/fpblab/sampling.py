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
drawn by `_walk_job`, exact bit rejection with a complement branch.
321-avoiders come through the profile bijection and 123-avoiders are
their reverses; 132-avoiders come through the first-return decomposition
U A D B of the path (A is the head above the maximum, B the tail below
it), and 213-avoiders are reverse-complements of 132-avoiders.

A batch of walks is held bit-packed, one bit a step, and a walk becomes
its Dyck path, one count block at a time, by one gather from strided
windows of the doubled walk (the row twice over), with no index array.
The per-call sampler `uniform_avoider` draws one walk per call and runs
the same steps in plain Python ints (`_one_dyck_path`,
`_avoider_from_path`): the same `random_raw` calls, chunk for chunk, so
it draws what a one-row batch would draw and leaves the generator where
that would. The fixed-point batch sampler counts 321/123 fixed points
from the down-step and up-step indices of those paths, a block of rows
at a time, with no sort and without building the permutations. Two
threads share the count: while the calling thread counts the blocks of
batch i, one helper thread draws batch i+1 and then counts blocks of
batch i too. Only the helper draws, in batch order, so the random stream
is the one of drawing the batches one after another, and each block
writes its own slice of the result, so no count depends on which thread
made it. Every other sampler draws and maps on the calling thread.

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
values and the generator state afterwards are theirs.

Whole-permutation sampling of biased avoiders is rejection from the
uniform sampler (accept with probability q^fp, exact), which is only
offered for q <= 1: above the phase point the acceptance rate decays
exponentially, and fixed-point-count sampling covers every verification
need there.
"""
from __future__ import annotations

import bisect
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, exp, lgamma, log

import numpy as np

from . import series
from .config import budgets
from .dist import FixedPointPMF, MeasureSpec, Provenance, UnsupportedMeasureError, fixed_point_row, fp_pmf
from .perms import check_pattern, enumerate_avoiders, fixed_points, profile_to_perm
from .series import as_rational

_MAX_BATCH_CELLS = 8_000_000  # soft cap on rows*length per vectorized batch
# rows per block of a fixed-point count: at most _BLOCK, and few enough that the count's
# largest temporary stays within _BLOCK_BYTES, in cache and below the size above which
# malloc hands freed memory back to the system (every block would fault its pages anew)
_BLOCK = 128
_BLOCK_BYTES = 2**19


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

    def randbelow_batch(self, bound: int, count: int) -> list[int]:
        """
        `count` exact uniform integers in [0, bound): the values of `count`
        `randbelow` calls, leaving the generator in the same state.

        A candidate is the raw uint64 words (`bit_generator.random_raw`,
        the words `integers(0, 2**64, dtype=np.uint64)` returns) that hold
        the bits of bound - 1, read big-endian and masked to them; it is
        kept iff it is below bound. Each round draws one candidate per draw
        still owed, at most _MAX_BATCH_CELLS bits, in one call. Every owed draw takes at least
        one candidate, so a round never draws past the candidate where the
        sequential calls would stop.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if count < 0:
            raise ValueError("count must be >= 0")
        bits = max((bound - 1).bit_length(), 1)
        words = (bits + 63) // 64
        size = 8 * words  # bytes per candidate
        mask = (1 << bits) - 1
        cap = max(1, _MAX_BATCH_CELLS // (64 * words))
        out: list[int] = []
        while len(out) < count:
            need = min(count - len(out), cap)
            raw = self.generator.bit_generator.random_raw(need * words)
            buf = raw.astype(">u8").tobytes()
            for j in range(0, len(buf), size):
                x = int.from_bytes(buf[j : j + size], "big") & mask
                if x < bound:
                    out.append(x)
        return out

    def bernoulli_power(self, q: Fraction, exponent: int) -> bool:
        """Exact Bernoulli(q^exponent) event for rational q <= 1."""
        if exponent == 0:
            return True
        a, b = q.numerator, q.denominator
        return self.randbelow(b**exponent) < a**exponent

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"


# ---------------------------------------------------------------------------
# Dyck paths and their maps to avoiders (batch kernels)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _raw_layout(n: int):
    """
    How the walks of n+1 up-steps and n down-steps are drawn from raw words:
    the uint64 words per raw row (2n+1 bits, bit j giving column j), the
    mask of those bits as one read-only little-endian word per raw word,
    and the call that sizes a chunk of raw rows for `need` more walks.
    `_walk_job` and `_one_walk` both read it, so that they draw the same
    chunks and hence the same walks.

    About 2/sqrt(pi n) of the raw rows are kept, so a chunk is sized from
    that rate with three spare rows, which nearly always makes one chunk
    suffice, and capped at _MAX_BATCH_CELLS bits (read at each call, so the
    cached layout follows the cap).
    """
    m = 2 * n + 1
    words = (m + 63) // 64
    full = np.full(words, 2**64 - 1, dtype="<u8")
    full[-1] = (1 << (m - 64 * (words - 1))) - 1
    full.flags.writeable = False  # shared by every caller of the cached layout
    # 2 C(m, n) / 2^m sizes the chunks only and never decides a row
    rate = 2 * exp(lgamma(m + 1) - lgamma(n + 1) - lgamma(n + 2) - m * log(2))
    return words, full, lambda need: min(ceil((need + 3) / rate), max(1, _MAX_BATCH_CELLS // m))


def _walk_job(n: int, rows: int, gen: np.random.Generator):
    """
    A (rows, words) little-endian uint64 buffer and the call that fills it
    with independent uniform walks of n+1 up-steps and n down-steps, bit
    packed: bit j of a row (bit j % 64 of word j // 64) is set where column j
    is an up-step, and the bits above column 2n are clear. Every batch of
    uniform Dyck paths starts here, so the stream is the same whether the
    call runs at once or on a helper thread.

    Exact bit rejection (docs/dyck_321_bijection.md, "Drawing the walk"): a
    raw row is 2n+1 bits of raw Philox words, the last word masked, bit j
    giving column j. Rows with n+1 ones are kept as drawn and rows with n
    ones complemented (XOR with the mask of all 2n+1 bits); the complement
    maps the second set one-to-one onto the first, so every walk has exactly
    two preimages and is drawn uniformly. The test compares integer
    popcounts and never rounds. The cost per walk grows like n^1.5, against
    n for a per-row shuffle: the shuffle wins only from about n = 60 000,
    above every default and every test. Raw rows are drawn in the chunks
    that `_raw_layout` sizes.
    """
    words, full, chunk = _raw_layout(n)
    walks = np.empty((rows, words), dtype="<u8")

    def fill():
        got = 0
        while got < rows:
            size = chunk(rows - got)
            raw = gen.bit_generator.random_raw(size * words).reshape(size, words)
            raw[:, -1] &= full[-1]
            # ones - n is 1 for a row kept as drawn and 0 for one complemented
            up = np.bitwise_count(raw).sum(axis=1, dtype=np.int32)
            up -= n
            keep = np.flatnonzero(up.view(np.uint32) <= 1)[: rows - got]
            out = walks[got : got + len(keep)]
            out[:] = raw[keep]
            out[up[keep] == 0] ^= full
            got += len(keep)

    return walks, fill


def _one_walk(n: int, gen: np.random.Generator) -> int:
    """
    The walk `_walk_job(n, 1, gen)` draws, from the same words, as an int
    whose bit j is set where column j is an up-step. Each raw row is read as
    one int (little-endian words, so bit j is column j); the first row with
    n+1 ones is kept as drawn, or complemented if it has n.
    """
    words, full, chunk = _raw_layout(n)
    width = 8 * words
    full = int.from_bytes(full.tobytes(), "little")  # the last word masked, the others whole
    while True:
        buf = gen.bit_generator.random_raw(chunk(1) * words).astype("<u8", copy=False).tobytes()
        for i in range(0, len(buf), width):
            row = int.from_bytes(buf[i : i + width], "little") & full
            ones = row.bit_count()
            if ones == n + 1:
                return row
            if ones == n:
                return row ^ full


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


_BYTE_NET, _BYTE_LOW, _BYTE_LAST = _byte_tables()
# the same tables as lists, for the one-walk path in plain Python
_LSB_NET, _LSB_LOW, _LSB_LAST = (t.tolist() for t in (_BYTE_NET, _BYTE_LOW, _BYTE_LAST))


def _dyck_starts(walks: np.ndarray, n: int) -> np.ndarray:
    """
    Column of each packed walk of `_walk_job` where its Dyck path starts
    (cycle lemma), in [2, 2n+2]: a column of the doubled row (the row twice
    over), so the path is the 2n steps from there on.

    The walk sums to +1; read cyclically from just after the last minimum of
    its prefix sums every prefix is positive, and dropping that leading
    up-step leaves a uniform Dyck path, whose first step is therefore two
    columns after the last minimum.

    The prefix sums run over bytes, an eighth of the columns: the bytes of
    the down-steps (the walk XOR the mask of its 2n+1 columns) index the
    byte tables, which give each byte's net sum, lowest prefix sum and last
    position of it. Padding bits stay clear, so they read as up-steps and
    never reach a minimum. (One walk at a time goes through `_one_dyck_path`
    instead, in plain Python.)
    """
    down = (walks ^ _raw_layout(n)[1]).astype("<u8", copy=False).view(np.uint8)
    low = np.take(_BYTE_NET, down).cumsum(axis=1, dtype=_walk_dtype(n))
    low += np.take(_BYTE_LOW, down)  # the lowest prefix sum within each byte
    byte = down.shape[1] - 1 - low[:, ::-1].argmin(axis=1)  # the last byte reaching the minimum
    return 8 * byte + _BYTE_LAST[down[np.arange(len(walks)), byte]] + 2


def _one_dyck_path(n: int, gen: np.random.Generator) -> str:
    """
    The Dyck path `_batch_dyck_steps(n, 1, gen)` draws, from the same words,
    as a string of 2n steps, "1" up and "0" down, in plain Python.

    The path starts two columns after the last minimum of the walk's prefix
    sums, read cyclically. The sums run over the bytes of the down-steps
    with the byte tables of `_dyck_starts`, first step in the low bit;
    padding bits read as up-steps.
    """
    m = 2 * n + 1
    walk = _one_walk(n, gen)
    height, low, last_min = 0, m, 0
    for i, byte in enumerate((walk ^ (1 << m) - 1).to_bytes((m + 7) // 8, "little")):
        height += _LSB_NET[byte]
        if height + _LSB_LOW[byte] <= low:
            low = height + _LSB_LOW[byte]
            last_min = 8 * i + _LSB_LAST[byte]
    steps = format(walk, f"0{m}b")[::-1]  # column j at index j
    return (steps + steps)[last_min + 2 : last_min + 2 + 2 * n]


def _walk_dtype(n: int):
    """The narrowest dtype holding a walk's prefix sums (up to 2n+1 in size)."""
    return np.int16 if 2 * n + 2 < 2**15 else np.int32


def _dyck_from_walks(walks: np.ndarray, n: int) -> np.ndarray:
    """
    The Dyck paths of a batch of packed walks of `_walk_job`, as (rows, 2n)
    bool, True an up-step.

    The walks are unpacked to their bits, and each path is the window of 2n
    steps of its doubled row that begins at the Dyck start: one gather from
    a strided view holding every such window, with no index array and no
    modulo.
    """
    rows, m = len(walks), 2 * n + 1
    start = _dyck_starts(walks, n)
    up = np.unpackbits(walks.view(np.uint8), axis=1, count=m, bitorder="little").view(bool)
    doubled = np.concatenate((up, up), axis=1)
    row_stride, step = doubled.strides
    # windows[r, c] = doubled[r, c : c + m-1] for every start c in [0, m+1];
    # the ndarray constructor makes this view at a fraction of as_strided's cost
    windows = np.ndarray((rows, m + 2, m - 1), doubled.dtype, doubled, 0, (row_stride, step, step))
    return windows[np.arange(rows), start]


def _steps(up: np.ndarray) -> np.ndarray:
    """The +-1 int8 steps of paths given as up-step flags."""
    steps = up.view(np.int8) * np.int8(2)
    steps -= 1
    return steps


def _batch_dyck_steps(n: int, rows: int, gen: np.random.Generator) -> np.ndarray:
    """`rows` independent uniform Dyck paths of semilength n, as (rows, 2n) +-1."""
    walks, fill = _walk_job(n, rows, gen)
    fill()
    return _steps(_dyck_from_walks(walks, n))


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


def _after_up(down: np.ndarray) -> np.ndarray:
    """
    Whether the step before each down-step is an up-step, from the sorted
    flat indices of the down-steps of a block of Dyck paths (row r, step t
    at r*2n + t): the gap to the down-step before it exceeds 1. Across a
    row boundary the gap is t_0 + 1 > 1, right for the path's first
    down-step, since the path before it ends with a down-step at 2n-1.
    """
    flags = np.empty(len(down), dtype=bool)
    flags[:1] = True
    np.greater(down[1:] - down[:-1], 1, out=flags[1:])
    return flags


def _before_up(up: np.ndarray) -> np.ndarray:
    """
    Whether each up-step is followed by an up-step, from the sorted flat
    indices of the up-steps of a block of Dyck paths: the gap to the next
    up-step is 1. Across a row boundary the gap is 2n - t >= 2, right for
    the path's last up-step at t <= 2n-2, since the path ends with a
    down-step.
    """
    flags = np.empty(len(up), dtype=bool)
    flags[-1:] = False
    np.equal(up[1:] - up[:-1], 1, out=flags[:-1])
    return flags


def _block_rows(row_bytes: int) -> int:
    """Rows per block of a count whose largest temporary takes `row_bytes` bytes a row."""
    return max(1, min(_BLOCK, _BLOCK_BYTES // max(row_bytes, 1)))


def _fp_from_walks(walks: np.ndarray, n: int, reverse: bool = False) -> np.ndarray:
    """
    Fixed-point counts of the 321-avoiders that a batch of packed walks of
    `_walk_job` encode, or with reverse=True of their reverses (the
    123-avoiders), without materializing the permutations; see
    docs/dyck_321_bijection.md, "Counting from the down-step indices".

    The walks are counted a block at a time, few enough rows that an int64
    index per down-step stays within _BLOCK_BYTES. Each block is rotated to
    its Dyck paths, and one flat `nonzero` gives the down-step indices t in
    order. Position x+1 is a weak excedance when an up-step precedes its
    down-step, and a fixed point when also t = 2x+1. A fixed point of the
    reverse lies on the anti-diagonal: the excedance one is a peak at Dyck
    index n, and the fill one is a fill position y that receives the value
    n+1-y. Value v is unused when the v-th up-step is followed by an
    up-step, which a second flat `nonzero`, of the up-steps, reads off as a
    gap of 1. The i-th fill position of a row receives its i-th unused
    value, and a row has as many of each, so the two lists of flat indices
    pair them up entry by entry.
    """
    rows = len(walks)
    out = np.zeros(rows, dtype=np.int64)
    if n == 0:
        return out
    block = _block_rows(8 * n)
    for i in range(0, rows, block):
        path = _dyck_from_walks(walks[i : i + block], n)
        b = len(path)
        if not reverse:
            down = (~path).ravel().nonzero()[0]
            # at flat index k = r*n + x, t = 2x+1 reads down[k] = 2k+1
            fixed = _after_up(down) & (down == np.arange(1, 2 * b * n, 2))
            out[i : i + b] = fixed.reshape(b, n).sum(axis=1)
            continue
        # the int64 step indices are dropped once read, so that few are alive at once
        exc = _after_up((~path).ravel().nonzero()[0])
        unused = _before_up(path.ravel().nonzero()[0])  # unused[r*n + v-1]: value v is unused
        fill = ~exc
        # a fill position r*n + x and its value r*n + v-1 lie on the
        # anti-diagonal when x+1 + v = n+1, that is when they sum to 2rn + n-1
        fill_at = fill.nonzero()[0]
        per_row = n - exc.reshape(b, n).sum(axis=1)
        target = np.arange(n - 1, 2 * n * b, 2 * n).repeat(per_row)
        hit = fill_at[fill_at + unused.nonzero()[0] == target]
        out[i : i + b] = (path[:, n - 1] > path[:, n]) + np.bincount(hit // n, minlength=b)
    return out


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


def _avoider_from_path(path: str, tau: str) -> tuple[int, ...]:
    """
    The tau-avoider of one Dyck path given as a string of "1" (up) and "0"
    (down) steps: the map of `_avoiders_from_dyck`, in plain Python.

    321: the profile of the x-th down-step (x from 0, at index t_x) is t_x - x,
    the up-steps before it, a running sum of the runs of up-steps that
    `split` cuts out; 123 is the reverse. 132: read left to right, a stack
    matches each down-step, the d-th, with its up-step, the k-th, and puts
    n+1-k at position d; 213 is the reverse-complement.
    """
    n = len(path) // 2
    if tau in ("321", "123"):
        sigma = profile_to_perm(list(accumulate(map(len, path.split("0")[:n]))))
        return sigma[::-1] if tau == "123" else sigma
    sigma, open_ups, k = [], [], 0
    for step in path:
        if step == "1":
            k += 1
            open_ups.append(k)
        else:
            sigma.append(n + 1 - open_ups.pop())
    # reverse-complement: sigma'_x = n+1 - sigma_{n+1-x}
    return tuple(n + 1 - v for v in reversed(sigma)) if tau == "213" else tuple(sigma)


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
    return _avoider_from_path(_one_dyck_path(n, rng.generator), tau)


def _count_batch(walks: np.ndarray, out: np.ndarray, count_block, block: int, draw=None):
    """
    Fill `out` with `count_block` of `walks`, `block` rows at a time, on the
    calling thread and a helper thread together.

    The helper first runs `draw` (the fill of the next batch), then both
    threads take blocks from one iterator until none is left. Each block
    writes only its own slice of `out`, so the result does not depend on
    which thread counts which block. `draw` and `count_block` are mostly
    numpy calls that release the GIL, and must call only private kernels:
    a traced public function would open its span on the helper thread.
    The helper is joined before this returns or raises, and its error is
    re-raised here.
    """
    lock = threading.Lock()
    starts = iter(range(0, len(walks), block))

    def count_blocks():
        while True:
            with lock:
                i = next(starts, None)
            if i is None:
                return
            out[i : i + block] = count_block(walks[i : i + block])

    def helper():
        if draw is not None:
            draw()
        count_blocks()

    if draw is None and len(walks) <= block:
        count_blocks()  # one block and nothing to draw: no work for a helper
        return
    join = _start_helper(helper)
    try:
        count_blocks()
    finally:
        join()


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
    batches of `_batch_rows` walks.

    While batch i is counted, a helper thread draws batch i+1 and then
    counts blocks of batch i alongside the calling thread (`_count_batch`).
    Only the helper draws after the first batch, in batch order, so the
    stream is the one of drawing the batches one after another, and every
    count is a function of its walk alone.
    """
    tau = _dyck_pattern(tau)
    if tau in ("321", "123"):
        reverse = tau == "123"
        block = _block_rows(8 * n)  # as `_fp_from_walks` blocks its walks

        def count_block(walks):
            return _fp_from_walks(walks, n, reverse)
    else:
        ident = np.arange(1, n + 1)
        block = _block_rows(16 * n)  # the int64 argsort of 2n levels a row

        def count_block(walks):
            # reverse-complement preserves fixed points, so 213 counts those of 132
            return (_perms_132_from_dyck(_steps(_dyck_from_walks(walks, n))) == ident).sum(axis=1)

    out = np.empty(count, dtype=np.int64)
    if not count:
        return out
    gen = rng.generator
    walks, fill = _walk_job(n, _batch_rows(n, count), gen)
    fill()
    done = 0
    while walks is not None:
        b = len(walks)
        following, fill = (_walk_job(n, _batch_rows(n, count - done - b), gen)
                           if done + b < count else (None, None))
        _count_batch(walks, out[done : done + b], count_block, block, fill)
        walks = following
        done += b
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


def _bias(q) -> Fraction:
    """The exact bias q; refused unless positive, as in `MeasureSpec`."""
    q = as_rational(q)
    if q <= 0:
        raise ValueError("bias parameter q must be positive")
    return q


def _inverse_cdf(weights: list[int], count: int, rng: RandomSource) -> np.ndarray:
    """`count` exact draws of k with probability weights[k] / sum(weights)."""
    total = sum(weights)
    if total < 2**63:
        cum = np.cumsum(np.array(weights, dtype=np.uint64))
        draws = rng.generator.integers(0, total, size=count, dtype=np.uint64)
        return np.searchsorted(cum, draws, side="right").astype(np.int64)
    cum_list = list(accumulate(weights))
    return np.array([bisect.bisect_right(cum_list, x) for x in rng.randbelow_batch(total, count)],
                    dtype=np.int64)


# ---------------------------------------------------------------------------
# Exact sampler for the biased measure on all of S_n
# ---------------------------------------------------------------------------


def sample_biased_unrestricted(n: int, q, rng: RandomSource) -> tuple[int, ...]:
    """One permutation under the bias-q measure on S_n: row 0 of the batch sampler."""
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
    q = _bias(q)
    narrow = np.min_scalar_type(n)
    ks = _inverse_cdf(series.unrestricted_weights(q, n), count, rng).astype(narrow)
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


def sample_fp_count(n: int, q, tau: str | None, rng: RandomSource, mode: str = "exact") -> int:
    """
    Draw the fixed-point count of a biased tau-avoider, or with tau=None of
    a biased permutation of S_n (the law itself, no permutation is
    constructed). Exact inverse cdf over big-integer weights, or float
    inverse cdf in scaled-float mode.
    """
    return int(sample_fp_count_batch(n, q, tau, rng, 1, mode=mode)[0])


def sample_fp_count_batch(n: int, q, tau: str | None, rng: RandomSource, count: int,
                          mode: str = "exact") -> np.ndarray:
    """
    `count` draws of `sample_fp_count`. With tau=None in exact mode these
    are the fixed-point counts K that `sample_biased_unrestricted_batch`
    draws first, from the same stream.
    """
    _check_sizes(n, count)
    q = _bias(q)
    if tau is not None:
        tau = check_pattern(tau)
    if mode == "exact":
        if tau is None:
            weights = series.unrestricted_weights(q, n)
        else:
            weights = series.bias_weights(fixed_point_row(n, tau), q)
        return _inverse_cdf(weights, count, rng)
    if mode == "scaled-float":
        pmf = fp_pmf(MeasureSpec(n, q, tau), mode="scaled-float")
        ks = np.array(pmf.support)
        cdf = np.cumsum([pmf.weights[k] for k in pmf.support])
        cdf[-1] = 1.0
        u = rng.generator.random(count)
        return ks[np.searchsorted(cdf, u, side="right")]
    raise ValueError(f"unknown mode {mode!r}")


def biased_avoider_permutation(n: int, q, tau: str, rng: RandomSource) -> tuple[tuple[int, ...], int]:
    """
    One whole permutation under the biased avoiding measure, with the number
    of uniform-sampler attempts used (expected attempts = Catalan(n) over
    the normalization constant).

    For q <= 1 and the patterns 321/132/213/123 it draws uniform avoiders
    and accepts one with exact probability q^fp. Otherwise, for n within the
    enumeration cap and any q and pattern, it draws the fixed-point count k
    by exact inverse cdf, then a uniform avoider with k fixed points from
    the enumerated table. Supercritical whole-permutation sampling at large
    n is refused by design.
    """
    q = _bias(q)
    tau = check_pattern(tau)
    if q <= 1 and tau in DYCK_PATTERNS:
        attempts = 0
        while True:
            attempts += 1
            sigma = uniform_avoider(n, tau, rng)
            if rng.bernoulli_power(q, fixed_points(sigma)):
                return sigma, attempts
    caps = budgets()
    if n <= caps["enum"]:
        groups = _enumeration_table(n, tau)
        k = int(_inverse_cdf(series.bias_weights([len(g) for g in groups], q), 1, rng)[0])
        return groups[k][rng.randbelow(len(groups[k]))], 1
    why = ("rejection is exponentially slow above the phase point" if q > 1
           else f"rejection needs a uniform sampler, which pattern {tau} lacks")
    if tau in series.TAU_CLASS:
        alt = "the fixed-point count alone is served by sample_fp_count (CLI: sample without --emit perm)"
    else:
        alt = f"the fixed-point count of pattern {tau} has no route past that cap either"
    raise UnsupportedMeasureError(
        f"whole-permutation sampling for q={q}, tau={tau} at n={n} is unsupported ({why}; "
        f"the enumeration route is capped at n={caps['enum']}); {alt}"
    )


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
    _check_sizes(n, count)
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
                    # one stream with a bernoulli_power call per row, in row order
                    top = a ** int(f)
                    accept[sel] = [x < top for x in rng.randbelow_batch(bound, int(sel.sum()))]
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
