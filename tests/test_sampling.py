"""Samplers: determinism, exactness against enumeration, rate accounting."""
import bisect
import collections
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fpblab import dist, perms, sampling, series
from fpblab.dist import MeasureSpec, UnsupportedMeasureError, fp_pmf
from fpblab.sampling import RandomSource

F = Fraction


def test_random_source_determinism():
    a = RandomSource(99, 3).generator.integers(0, 2**32, size=8)
    b = RandomSource(99, 3).generator.integers(0, 2**32, size=8)
    c = RandomSource(99, 4).generator.integers(0, 2**32, size=8)
    assert (a == b).all()
    assert (a != c).any()
    assert RandomSource(99, 4).stream_id == 4


def test_random_source_key_words_are_uint64():
    top = 2**64 - 1
    assert RandomSource(top, top).generator.bit_generator.state["state"]["key"].tolist() == [top, top]
    for seed, stream in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(ValueError, match=r"must be in \[0, 2\^64\)"):
            RandomSource(seed, stream)
    with pytest.raises(ValueError, match="stream id"):
        RandomSource(1, -2)


def test_randbelow_exact_and_reproducible():
    rng = RandomSource(5)
    big = 10**40
    vals = [rng.randbelow(big) for _ in range(50)]
    assert all(0 <= v < big for v in vals)
    replay = RandomSource(5)
    assert vals == [replay.randbelow(big) for _ in range(50)]
    rng6 = RandomSource(6)
    counts = collections.Counter(rng6.randbelow(3) for _ in range(9000))
    assert all(abs(counts[i] / 9000 - 1 / 3) < 0.02 for i in range(3))


def _word_ints(rows):
    """The integers of uint64 word rows, the most significant word first."""
    return [sum(int(w) << 64 * (len(row) - 1 - j) for j, w in enumerate(row)) for row in rows]


@pytest.mark.parametrize("bound", [1, 2, 2**63, 2**64, 2**64 + 1, 2**128 - 1, 3**1000],
                         ids=["1", "2", "2^63", "2^64", "2^64+1", "2^128-1", "3^1000"])
def test_randbelow_batch_is_sequential_randbelow(bound):
    # same values, and the generator left where the sequential calls leave it
    words = (max((bound - 1).bit_length(), 1) + 63) // 64
    for count in (0, 1, 7, 3000):
        batch, seq = RandomSource(31, 2), RandomSource(31, 2)
        rows = batch.randbelow_batch(bound, count)
        assert rows.dtype == np.uint64 and rows.shape == (count, words)
        assert _word_ints(rows) == [seq.randbelow(bound) for _ in range(count)]
        np.testing.assert_equal(batch.generator.bit_generator.state,
                                seq.generator.bit_generator.state)


def test_words_below_compares_whole_numbers():
    # rows equal to the value, and rows that differ from it in one word only
    for value in (0, 1, 2**64 - 1, 2**64, 2**64 + 5, 3**100, 2**192 - 1):
        words = max((value.bit_length() + 63) // 64, 1)
        near = [value + d for d in (-2**64, -2, -1, 0, 1, 2**64, 2**128) if 0 <= value + d < 2**(64 * words)]
        rows = np.array([[(x >> 64 * j) & (2**64 - 1) for j in range(words - 1, -1, -1)] for x in near],
                        dtype=np.uint64)
        assert sampling._words_below(rows, value).tolist() == [x < value for x in near], value
    assert sampling._words_below(np.zeros((3, 1), dtype=np.uint64), 2**64).all()


def test_randbelow_reads_the_words_of_full_range_integers():
    # a candidate is whole raw words: those that `integers(0, 2**64, uint64)`
    # returns from an independent generator of the same key, read big-endian
    # and masked; the first candidate below the bound is the draw
    for bound in (2, 2**64, 3**100):
        bits = (bound - 1).bit_length()
        words = (bits + 63) // 64
        rng, ref = RandomSource(57), RandomSource(57).generator
        for _ in range(20):
            x = bound
            while x >= bound:
                raw = ref.integers(0, 2**64, size=words, dtype=np.uint64).tolist()
                x = sum(w << 64 * (words - 1 - i) for i, w in enumerate(raw)) & (1 << bits) - 1
            assert rng.randbelow(bound) == x, bound
        np.testing.assert_equal(rng.generator.bit_generator.state, ref.bit_generator.state)


def test_randbelow_batch_rounds_never_overdraw(monkeypatch):
    # a cap of 3 candidates per round forces many rounds; a bound just past a
    # power of two rejects about half the candidates, so rounds end short too
    monkeypatch.setattr(sampling, "_MAX_BATCH_CELLS", 3 * 64 * 2)
    for bound in (2**64 + 1, 2**127 + 1, 3 * 2**100):
        batch, seq = RandomSource(8), RandomSource(8)
        assert _word_ints(batch.randbelow_batch(bound, 500)) == [seq.randbelow(bound) for _ in range(500)]
        np.testing.assert_equal(batch.generator.bit_generator.state,
                                seq.generator.bit_generator.state)
    with pytest.raises(ValueError, match="bound must be positive"):
        RandomSource(8).randbelow_batch(0, 3)
    with pytest.raises(ValueError, match="count must be >= 0"):
        RandomSource(8).randbelow_batch(5, -1)


@pytest.mark.parametrize("weights", [
    [2**62, 2**62 - 1], [2**62, 2**62], [2**62, 0, 2**62 + 1], [2**63, 2**63 - 1], [2**63, 2**63],
    [2**64 - 3, 3, 0], [1, 2**64], [3**99, 5, 0, 2 * 3**99], series.unrestricted_weights(2, 200),
], ids=["2^63-1", "2^63", "2^63+1", "2^64-1", "2^64", "2^64-zero-last", "2^64+1", "3^100", "n200-q2"])
def test_inverse_cdf_is_sequential_randbelow_and_bisect(weights):
    # the reference draws and generator state: below 2^63 uint64 draws and
    # searchsorted, past it one `randbelow` and one bisect a draw
    cum = list(itertools.accumulate(weights))
    total = cum[-1]
    for count in (0, 1, 7, 3000):
        rng, ref = RandomSource(37, count), RandomSource(37, count)
        got = sampling._inverse_cdf(weights, count, rng)
        if total < 2**63:
            draws = ref.generator.integers(0, total, size=count, dtype=np.uint64)
            want = np.searchsorted(np.cumsum(np.array(weights, dtype=np.uint64)), draws, side="right").tolist()
        else:
            want = [bisect.bisect_right(cum, ref.randbelow(total)) for _ in range(count)]
        assert got.dtype == np.int64 and got.tolist() == want, count
        np.testing.assert_equal(rng.generator.bit_generator.state, ref.generator.bit_generator.state)


class _ScriptedWords:
    """Hands out scripted raw words in order, as `random_raw` hands out its stream."""

    def __init__(self, words):
        self.bit_generator, self.words = self, list(words)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def test_inverse_cdf_resolves_top_word_ties():
    # draws scripted at, just below and just above cumulative weights, so that
    # their top 64 bits equal those of one or more cumulative weights (several
    # share them: 2^140+3, +1, +1, +5); two candidates past the total are
    # rejected on the way, and a 142-bit total takes three words a draw
    weights = [2**140 + 3, 1, 1, 5, 2**139, 7, 2**140]
    cum = list(itertools.accumulate(weights))
    total = cum[-1]
    draws = [c + d for c in cum[:-1] for d in (-2, -1, 0, 1, 2)] + [0, total - 1]
    script = []
    for x in draws[:5] + [total, 2**142 - 1] + draws[5:]:
        script += [(x >> 64 * j) & (2**64 - 1) for j in (2, 1, 0)]
    shift = (total - 1).bit_length() - 64
    assert len({c >> shift for c in cum[:4]}) == 1
    rng, ref = RandomSource(0), RandomSource(0)
    rng.generator, ref.generator = _ScriptedWords(script), _ScriptedWords(script)
    got = sampling._inverse_cdf(weights, len(draws), rng).tolist()
    assert got == [bisect.bisect_right(cum, ref.randbelow(total)) for _ in draws]
    assert got == [bisect.bisect_right(cum, x) for x in draws]
    assert not rng.generator.words and not ref.generator.words


def all_dyck_paths(n):
    """Every Dyck path of semilength n, as tuples of +-1 steps."""
    def extend(ups, downs, h, pre):
        if ups == 0 and downs == 0:
            yield tuple(pre)
            return
        if ups:
            yield from extend(ups - 1, downs, h + 1, pre + [1])
        if downs and h > 0:
            yield from extend(ups, downs - 1, h - 1, pre + [-1])

    return list(extend(n, n, 0, []))


def _dyck_from_walks(walks, n):
    """The Dyck paths of packed walks, as (rows, 2n) bool, True an up-step."""
    return sampling._unpack_paths(sampling._dyck_words(walks, n), n)


def _batch_dyck_steps(n, rows, gen):
    """`rows` uniform Dyck paths of semilength n from one `_walk_job`, as (rows, 2n) +-1."""
    walks, fill = sampling._walk_job(n, rows, gen)
    fill()
    return sampling._steps(_dyck_from_walks(walks, n))


@pytest.fixture
def window(monkeypatch):
    """Sets the window w of the walk draw for the rest of a test; the cached layouts are dropped either side."""
    def set_window(w):
        monkeypatch.setattr(sampling, "_window", lambda n: w)
        sampling._raw_layout.cache_clear()

    yield set_window
    sampling._raw_layout.cache_clear()


def test_uniform_dyck_semilength_one():
    steps = _batch_dyck_steps(1, 10, RandomSource(1).generator)
    assert steps.tolist() == [[1, -1]] * 10


def test_uniform_dyck_frequencies():
    # the batch kernel every sampler runs: its rows are exactly the
    # Catalan(3) = 5 Dyck paths, each within 4 sigma of 1/5 at this fixed seed
    steps = _batch_dyck_steps(3, 30000, RandomSource(8).generator)
    counts = collections.Counter(map(tuple, steps.tolist()))
    assert set(counts) == set(all_dyck_paths(3))
    band = 4 * math.sqrt(0.2 * 0.8 / 30000)
    assert all(abs(c / 30000 - 0.2) < band for c in counts.values())


def test_walk_frequencies_small_n():
    # every one of the C(2n+1, n) walks within 4 sigma of 1/C(2n+1, n)
    gen = RandomSource(41).generator
    for n in range(5):
        cells = math.comb(2 * n + 1, n)
        draws = 400 * cells
        walks, fill = sampling._walk_job(n, draws, gen)
        fill()
        counts = collections.Counter(map(bytes, _unpack_walks(walks, n)))
        assert len(counts) == cells, n
        p = 1 / cells
        band = 4 * math.sqrt(p * (1 - p) / draws)
        assert all(abs(c / draws - p) <= band for c in counts.values()), n


def _unpack_walks(walks, n):
    """The +-1 steps (rows, 2n+1) int8 of packed walks, checking that the padding bits are clear."""
    m = 2 * n + 1
    bits = np.unpackbits(walks.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, m:].any()
    return 2 * bits[:, :m].astype(np.int8) - 1


def _pack_walks(steps):
    """Walks given as +-1 steps (rows, 2n+1), packed as `sampling._walk_job` packs them."""
    rows, m = steps.shape
    words = (m + 63) // 64
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    packed[:, : (m + 7) // 8] = np.packbits(steps > 0, axis=1, bitorder="little")
    return packed.view("<u8")


class _RecordingGenerator:
    """Hands out the raw words of a real generator and keeps a copy of each draw."""

    def __init__(self, gen):
        self.bit_generator, self._random_raw, self.draws = self, gen.bit_generator.random_raw, []

    def random_raw(self, size):
        words = self._random_raw(size)
        self.draws.append(words.copy())
        return words


def _walks_by_bit_rejection(draws, n, rows, w):
    """
    Big-integer oracle of the generator: the walks its raw words give under
    the window w, and the kept rows counted by branch (True: complemented).
    A chunk's kept rows are cleared in rounds; round r draws a rank for each
    row with more than r ones to clear, one candidate a row still owed per
    draw, and clears the set bit of that rank.
    """
    m = 2 * n + 1
    mask = (1 << m) - 1
    draws = iter(draws)
    walks, branches = [], collections.Counter()
    while len(walks) < rows:
        kept = []
        for raw in next(draws).reshape(-1, (m + 63) // 64):
            x = sum(int(word) << (64 * i) for i, word in enumerate(raw)) & mask
            ones = bin(x).count("1")
            low = ones <= n
            excess = (m - ones if low else ones) - (n + 1)
            if excess > w or len(walks) + len(kept) == rows:
                continue
            branches[low] += 1
            kept.append([~x & mask if low else x, excess])
        r = 0
        while owed := [k for k in kept if k[1] > r]:
            ranks, todo = {}, list(range(len(owed)))
            while todo:
                words = next(draws).tolist()
                assert len(words) == len(todo)
                for i, word in zip(todo, words):
                    bound = n + 1 + owed[i][1] - r
                    candidate = word & ((1 << (bound - 1).bit_length()) - 1)
                    if candidate < bound:
                        ranks[i] = candidate
                todo = [i for i in todo if i not in ranks]
            for i, k in enumerate(owed):
                k[0] &= ~(1 << [j for j in range(m) if k[0] >> j & 1][ranks[i]])
            r += 1
        walks += [[1 if x >> j & 1 else -1 for j in range(m)] for x, _ in kept]
    assert next(draws, None) is None  # every draw was read
    return np.array(walks, dtype=np.int8).reshape(len(walks), m), branches


def _check_walks_against_oracle(n, seed, w):
    gen = _RecordingGenerator(RandomSource(seed, n).generator)
    walks, fill = sampling._walk_job(n, 300, gen)
    fill()
    walks = _unpack_walks(walks, n)
    assert walks.shape == (300, 2 * n + 1)
    assert ((walks == 1) | (walks == -1)).all()
    assert ((walks == 1).sum(axis=1) == n + 1).all()
    want, branches = _walks_by_bit_rejection(gen.draws, n, 300, w)
    assert (walks == want).all(), (n, w)
    # both branches feed the kept rows: as drawn, and complemented
    assert branches[False] > 0 and branches[True] > 0, (n, w, branches)


def test_walks_match_big_integer_oracle_at_word_edges():
    # 2n+1 in {1, 63, 65, 127, 129}: one 1-bit word, and either side of the
    # first two word boundaries. Philox sets the bits above column 2n in the
    # last word as often as not, so any bit the mask lets through changes a
    # popcount and shows up against the oracle.
    for n in (0, 31, 32, 63, 64):
        _check_walks_against_oracle(n, 43, sampling._window(n))


def test_windowed_walks_match_big_integer_oracle(window):
    # the same word edges under windows that clear ones, and 2n+1 in {257, 259}
    # (just past the fourth word boundary) under the program's own window
    assert sampling._window(128) > 0
    for n in (128, 129):
        _check_walks_against_oracle(n, 43, sampling._window(n))
    for w in (1, 3):
        window(w)
        for n in (0, 31, 32, 63, 64):
            _check_walks_against_oracle(n, 43, w)


class _ScriptedGenerator:
    """
    Hands out scripted raw words: every chunk of raw rows is copies of one
    row, and each single word is the next removal rank, with a high bit set
    that the rank's mask must drop. A second chunk means the row was not kept.
    """

    class Rejected(Exception):
        pass

    def __init__(self, row, ranks):
        self.bit_generator, self.row, self.ranks, self.chunks = self, row, list(ranks), 0

    def random_raw(self, size):
        if size > 1:
            self.chunks += 1
            if self.chunks > 1:
                raise self.Rejected
            return np.full(size, self.row, dtype=np.uint64)
        return np.array([self.ranks.pop(0) | 1 << 63], dtype=np.uint64)


def _one_row_batch(n, gen):
    walks, fill = sampling._walk_job(n, 1, gen)
    fill()
    return int(walks[0, 0])


def test_walk_rule_is_exactly_uniform(window):
    # every raw row of 2n+1 bits and every sequence of removal ranks, pushed
    # through the one-row batch draw: each walk of n+1 ones gets the same
    # total weight, 2^-(2n+1) a raw row times 1/bound for each rank, exactly,
    # and a row is kept iff its excess is within the window
    for n in range(4):
        m = 2 * n + 1
        for w in sorted({0, 1, 2, sampling._window(n), n + 1}):
            window(w)
            weight = {x: Fraction(0) for x in range(2**m) if bin(x).count("1") == n + 1}
            kept_rows = 0
            for row in range(2**m):
                ones = bin(row).count("1")
                excess = max(ones, m - ones) - (n + 1)
                bounds = [n + 1 + excess - r for r in range(excess)]
                kept_rows += excess <= w
                for ranks in itertools.product(*map(range, bounds)):
                    gen = _ScriptedGenerator(row, ranks)
                    try:
                        walk = _one_row_batch(n, gen)
                    except _ScriptedGenerator.Rejected:
                        assert excess > w, (n, w, row)
                        continue
                    assert excess <= w and not gen.ranks, (n, w, row, ranks)
                    weight[walk] += Fraction(1, math.prod(bounds))
            assert set(weight.values()) == {Fraction(kept_rows, len(weight))}, (n, w)


def _avoider_from_path(path, tau):
    """
    The tau-avoider of one Dyck path given as +-1 steps, in plain Python:
    the oracle of the batch map `sampling._avoiders_from_dyck`.

    321: the profile of the x-th down-step (x from 0, at step t_x) is
    t_x - x, the up-steps before it; 123 is the reverse. 132: read left to
    right, a stack matches each down-step, the d-th, with its up-step, the
    k-th, and puts n+1-k at position d; 213 is the reverse-complement.
    """
    n = len(path) // 2
    if tau in ("321", "123"):
        downs = [t for t, step in enumerate(path) if step < 0]
        sigma = perms.profile_to_perm([t - x for x, t in enumerate(downs)])
        return sigma[::-1] if tau == "123" else sigma
    sigma, open_ups, k = [], [], 0
    for step in path:
        if step > 0:
            k += 1
            open_ups.append(k)
        else:
            sigma.append(n + 1 - open_ups.pop())
    # reverse-complement: sigma'_x = n+1 - sigma_{n+1-x}
    return tuple(n + 1 - v for v in reversed(sigma)) if tau == "213" else tuple(sigma)


def test_dyck_bijection_exhaustive():
    # the batch map of the samplers, on every path at once: injective, onto
    # S_n(tau), and the plain-Python map of every path
    for n in range(1, 8):
        paths = all_dyck_paths(n)
        for tau in sampling.DYCK_PATTERNS:
            batch = sampling._avoiders_from_dyck(np.array(paths, dtype=np.int8), tau)
            images = [tuple(row) for row in batch.tolist()]
            assert len(set(images)) == len(paths), (n, tau)
            assert set(images) == set(perms.enumerate_avoiders(n, tau)), (n, tau)
            assert [_avoider_from_path(p, tau) for p in paths] == images, (n, tau)


@pytest.mark.parametrize("tau", ["321", "123", "132", "213"])
def test_one_walk_path_is_the_batch_kernel_of_one_row(tau):
    # the same avoiders from the same words, and the generator left in the
    # same state; 2n+1 either side of the first three 64-bit word boundaries
    for n in (0, 1, 2, 4, 31, 32, 33, 63, 64, 65, 200):
        one, batch = RandomSource(47, n), RandomSource(47, n)
        for _ in range(40):
            steps = _batch_dyck_steps(n, 1, batch.generator)
            want = tuple(sampling._avoiders_from_dyck(steps, tau)[0].tolist())
            assert sampling.uniform_avoider(n, tau, one) == want, (n, tau)
        np.testing.assert_equal(one.generator.bit_generator.state,
                                batch.generator.bit_generator.state)


def _dyck_path_by_cycle_lemma(walk):
    """The Dyck path of a walk of n+1 up-steps and n down-steps, rotated step by step."""
    m = len(walk)
    for r in range(m):
        rot = walk[r:] + walk[:r]
        if all(sum(rot[: j + 1]) > 0 for j in range(m)):
            return rot[1:]  # drop the leading up-step
    raise AssertionError("no rotation with positive prefixes")


def test_walk_kernels_match_cycle_lemma_oracle(monkeypatch):
    # every walk for n <= 6, rotated and mapped in pure Python; three rows per
    # block, so that blocks split the batch
    monkeypatch.setattr(sampling, "_BLOCK", 3)
    for n in range(7):
        walks = [tuple(1 if j in ups else -1 for j in range(2 * n + 1))
                 for ups in itertools.combinations(range(2 * n + 1), n + 1)]
        paths = [_dyck_path_by_cycle_lemma(w) for w in walks]
        arr = _pack_walks(np.array(walks, dtype=np.int8).reshape(len(walks), 2 * n + 1))
        assert sampling._steps(_dyck_from_walks(arr, n)).tolist() == [list(p) for p in paths], n
        for tau in sampling.DYCK_PATTERNS:
            want = [perms.fixed_points(_avoider_from_path(p, tau)) for p in paths]
            assert sampling._fp_from_walks(arr, n, tau).tolist() == want, (n, tau)


def test_profile_fp_kernels_match_materialization():
    gen = RandomSource(17).generator
    # _walk_dtype widens where 2n+2 reaches 2^15: n = 16382 is the last int16 size, 16383 the first int32
    # 2n+1 either side of the first two halfword boundaries, 7, 8, 15, 16, and of the
    # first two 64-bit word boundaries, 31..33, 63..65
    for n, rows in ((3, 500), (9, 500), (33, 500), (16382, 3), (16383, 3), (7, 500), (8, 500),
                    (15, 500), (16, 500), (31, 500), (32, 500), (63, 500), (64, 500), (65, 500)):
        walks, fill = sampling._walk_job(n, rows, gen)
        fill()
        steps = sampling._steps(_dyck_from_walks(walks, n))
        for tau in sampling.DYCK_PATTERNS:
            sigma = sampling._avoiders_from_dyck(steps, tau)
            direct = np.array([perms.fixed_points(tuple(s)) for s in sigma])
            assert (sampling._fp_from_walks(walks, n, tau) == direct).all(), (n, tau)


def _halfword_bits():
    """
    The 16 bits of every halfword in step order, as the halfword tables
    index them: at 256 lo + hi, the bits of byte lo then of byte hi, each
    from its low bit, as int8 (65536, 16).
    """
    pairs = np.arange(65536, dtype=">u2").view(np.uint8).reshape(-1, 2)
    return np.unpackbits(pairs, axis=1, bitorder="little").view(np.int8)


def test_halfword_start_tables_match_bit_definition():
    prefix = np.cumsum(1 - 2 * _halfword_bits(), axis=1, dtype=np.int8)  # bit 1 a down-step
    net, low, last = sampling._start_tables()
    lowest = prefix.min(axis=1)
    assert (net == prefix[:, -1]).all()
    assert (low == lowest - prefix[:, -1]).all()
    assert (last == np.where(prefix == lowest[:, None], np.arange(16), -1).max(axis=1)).all()
    assert not any(t.flags.writeable for t in (net, low, last))


def test_halfword_hill_table_matches_bit_definition():
    # at every even starting height 0..16: up-steps from height 0 followed by a down-step
    bits = _halfword_bits()
    steps = 2 * bits - 1  # bit 1 an up-step
    before = np.cumsum(steps, axis=1, dtype=np.int8) - steps  # less the starting height
    peaks = (bits[:, :-1] == 1) & (bits[:, 1:] == 0)
    table = sampling._hill_table().reshape(9, 65536)
    for h in range(0, 17, 2):
        assert (table[h // 2] == (peaks & (before[:, :-1] == -h)).sum(axis=1)).all(), h
    assert not table[8].any() and not table.flags.writeable


def test_importing_the_cli_builds_no_halfword_table():
    # the tables are built on first use: importing the package and an exact
    # command build none of them
    src = os.path.dirname(os.path.dirname(sampling.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import fpblab.cli as cli, fpblab.sampling as s\n"
            "tables = lambda: [f.cache_info().currsize for f in (s._start_tables, s._hill_table)]\n"
            "before = tables()\n"
            "cli.main(['pmf', '--n', '30', '--q', '2', '--tau', '321'])\n"
            "print(before, tables())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0] [0, 0]"


def _after_up(down):
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


def _before_up(up):
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


def _fp_by_step_indices(walks, n, reverse=False):
    """
    The count of `sampling._fp_from_walks` from the flat indices of the
    down-steps and up-steps of the unpacked paths, 64 rows at a time.

    Position x+1 is a weak excedance when an up-step precedes its
    down-step, and a fixed point when also t_x = 2x+1. A fixed point of the
    reverse is a peak at Dyck index n, or a fill position y receiving the
    value n+1-y; value v is unused when the v-th up-step is followed by an
    up-step, and the i-th fill position of a row receives its i-th unused
    value, so the two lists of flat indices pair them up entry by entry.
    """
    rows = len(walks)
    out = np.zeros(rows, dtype=np.int64)
    if n == 0:
        return out
    for i in range(0, rows, 64):
        path = _dyck_from_walks(walks[i : i + 64], n)
        b = len(path)
        down = (~path).ravel().nonzero()[0]
        exc = _after_up(down)
        if not reverse:
            # at flat index k = r*n + x, t = 2x+1 reads down[k] = 2k+1
            fixed = exc & (down == np.arange(1, 2 * b * n, 2))
            out[i : i + b] = fixed.reshape(b, n).sum(axis=1)
            continue
        unused = _before_up(path.ravel().nonzero()[0])  # unused[r*n + v-1]: value v is unused
        # a fill position r*n + x and its value r*n + v-1 lie on the
        # anti-diagonal when x+1 + v = n+1, that is when they sum to 2rn + n-1
        fill_at = (~exc).nonzero()[0]
        per_row = n - exc.reshape(b, n).sum(axis=1)
        target = np.arange(n - 1, 2 * n * b, 2 * n).repeat(per_row)
        hit = fill_at[fill_at + unused.nonzero()[0] == target]
        out[i : i + b] = (path[:, n - 1] > path[:, n]) + np.bincount(hit // n, minlength=b)
    return out


@pytest.mark.parametrize("n", [*range(10), 15, 16, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 16382, 16383])
def test_packed_fp_counts_match_step_index_oracle(n):
    # 2n+1 either side of the first two halfword boundaries (7, 8, 15, 16) and
    # of the first three 64-bit word boundaries, and the int16/int32 edge of
    # _walk_dtype; several blocks at n = 1000
    rows = 3 if n > 10_000 else 2500 if n == 1000 else 600
    walks, fill = sampling._walk_job(n, rows, RandomSource(53, n).generator)
    fill()
    for tau in ("321", "123"):
        want = _fp_by_step_indices(walks, n, reverse=tau == "123")
        assert sampling._fp_from_walks(walks, n, tau).tolist() == want.tolist(), (n, tau)
    if n == 1000:
        assert sampling._packed_block_rows(n)[0] < rows  # blocks split the batch


def test_fp_batch_matches_stage_oracle_across_batches(monkeypatch):
    # 7 paths per batch, so 25 paths span three full batches and a remainder,
    # drawn ahead on the helper thread; the oracle draws the same batches
    # one after another and maps every path to its permutation. A short
    # switch interval interleaves the two threads as finely as it can.
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 2, 9, 33):
            monkeypatch.setattr(sampling, "_MAX_BATCH_CELLS", 7 * (2 * n + 1))
            ident = np.arange(1, n + 1)
            for tau in ("321", "123", "132", "213"):
                got = sampling.uniform_avoider_fp_batch(n, tau, 25, RandomSource(23, n))
                gen = RandomSource(23, n).generator
                want = [(sampling._avoiders_from_dyck(_batch_dyck_steps(n, b, gen), tau)
                         == ident).sum(axis=1) for b in (7, 7, 7, 4)]
                assert (got == np.concatenate(want)).all(), (n, tau)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_fp_batch_waits_for_a_slow_shuffle(monkeypatch):
    # each helper draw outlasts the count of the batch before it, so the
    # count of every later batch must wait for its walks to be drawn
    monkeypatch.setattr(sampling, "_MAX_BATCH_CELLS", 7 * 19)
    want = sampling.uniform_avoider_fp_batch(9, "123", 25, RandomSource(31))
    walk_job = sampling._walk_job

    def slow_job(n, rows, gen):
        walks, fill = walk_job(n, rows, gen)

        def slow_fill():
            time.sleep(0.05)
            fill()

        return walks, slow_fill

    monkeypatch.setattr(sampling, "_walk_job", slow_job)
    got = sampling.uniform_avoider_fp_batch(9, "123", 25, RandomSource(31))
    assert (got == want).all()


def _on_helper_fill(monkeypatch, hook):
    """
    Wrap the draws of `uniform_avoider_fp_batch` so that a fill run on any
    thread but this one (the helper's) runs `hook` first; returns a list
    that gets the row count of each fill the helper finishes.
    """
    caller, drawn, walk_job = threading.get_ident(), [], sampling._walk_job

    def job(n, rows, gen):
        walks, fill = walk_job(n, rows, gen)

        def hooked_fill():
            if threading.get_ident() == caller:
                return fill()
            hook()
            fill()
            drawn.append(rows)

        return walks, hooked_fill

    monkeypatch.setattr(sampling, "_walk_job", job)
    return drawn


def test_fp_batch_shared_count_matches_one_thread_oracle(monkeypatch):
    # 3 rows per count block and 7 walks per batch, so every full batch is
    # counted in three blocks on this thread while the helper draws the
    # next; the oracle draws the same batches one after another on this
    # thread and maps every path
    monkeypatch.setattr(sampling, "_BLOCK", 3)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (0, 1, 2, 9, 33):
            monkeypatch.setattr(sampling, "_MAX_BATCH_CELLS", 7 * (2 * n + 1))
            ident = np.arange(1, n + 1)
            for tau in ("321", "123", "132", "213"):
                for count in (0, 1, 25):
                    rng = RandomSource(29, n)
                    got = sampling.uniform_avoider_fp_batch(n, tau, count, rng)
                    gen = RandomSource(29, n).generator
                    sizes = [7] * (count // 7) + [count % 7] * (count % 7 > 0)
                    want = [(sampling._avoiders_from_dyck(_batch_dyck_steps(n, b, gen), tau)
                             == ident).sum(axis=1) for b in sizes]
                    assert got.tolist() == np.concatenate([np.zeros(0, np.int64), *want]).tolist(), (n, tau, count)
                    np.testing.assert_equal(rng.generator.bit_generator.state, gen.bit_generator.state)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_fp_batch_surfaces_a_helper_draw_error(monkeypatch):
    # the helper's draw of the second batch raises; the calling thread
    # re-raises it once it has counted the first batch, and leaves no thread
    monkeypatch.setattr(sampling, "_MAX_BATCH_CELLS", 7 * 19)
    threads = threading.active_count()

    def fail():
        raise RuntimeError("draw failed on the helper")

    _on_helper_fill(monkeypatch, fail)
    for tau in sampling.DYCK_PATTERNS:
        with pytest.raises(RuntimeError, match="draw failed on the helper"):
            sampling.uniform_avoider_fp_batch(9, tau, 25, RandomSource(37))
        assert threading.active_count() == threads


def test_fp_batch_joins_the_helper_when_the_caller_fails(monkeypatch):
    # the helper is still drawing the next batch, slowly, when the count of
    # the first one raises, so the error must wait for the join: the draw
    # has finished and no thread is left once it propagates
    monkeypatch.setattr(sampling, "_MAX_BATCH_CELLS", 7 * 19)
    threads = threading.active_count()

    def fail(*args):
        raise RuntimeError("count failed on the calling thread")

    drawn = _on_helper_fill(monkeypatch, lambda: time.sleep(0.05))
    monkeypatch.setattr(sampling, "_fp_from_walks", fail)
    with pytest.raises(RuntimeError, match="count failed on the calling thread"):
        sampling.uniform_avoider_fp_batch(9, "321", 25, RandomSource(37))
    assert drawn == [7]
    assert threading.active_count() == threads


def test_uniform_avoider_outputs_avoid():
    rng = RandomSource(2)
    for tau in ("321", "132", "213", "123"):
        for n in (0, 1, 2, 7, 40):
            assert perms.avoids(sampling.uniform_avoider(n, tau, rng), tau)
    with pytest.raises(UnsupportedMeasureError):
        sampling.uniform_avoider(9, "231", rng)


def test_uniform_avoider_distribution_small_n():
    n_samples = 25000
    for tau in ("321", "132", "213", "123"):
        rows = sampling.biased_avoider_permutation(4, 1, tau, RandomSource(12), n_samples)[0]
        counts = collections.Counter(map(tuple, rows.tolist()))
        assert len(counts) == 14
        band = 4 * math.sqrt((1 / 14) * (13 / 14) / n_samples)
        assert all(abs(c / n_samples - 1 / 14) < band for c in counts.values()), tau


def test_uniform_avoider_mean_tracks_exact_law():
    # sampled mean against the exact series mean at n = 500 (limit value 1)
    rng = RandomSource(3)
    fps = sampling.uniform_avoider_fp_batch(500, "321", 30000, rng)
    exact_mean = float(dist.pmf_moment(fp_pmf(MeasureSpec(500, 1, "321")), 1))
    assert abs(fps.mean() - exact_mean) < 0.05
    assert abs(exact_mean - 1.0) < 0.01


def test_sample_biased_unrestricted_singleton_and_extreme_bias():
    rng = RandomSource(4)
    assert sampling.sample_biased_unrestricted_batch(1, 5, rng, 1).tolist() == [[1]]
    arr = sampling.sample_biased_unrestricted_batch(4, 10**6, rng, 800)
    hits = (arr == np.arange(1, 5)).all(axis=1).sum()
    assert hits / 800 > 0.99


def test_sample_biased_unrestricted_distribution():
    rng = RandomSource(14)
    n, q, n_samples = 5, F(1, 2), 60000
    arr = sampling.sample_biased_unrestricted_batch(n, q, rng, n_samples)
    counts = collections.Counter(map(tuple, arr.tolist()))
    z = series.unrestricted_normalization(q, n)
    for sigma in perms.enumerate_permutations(n):
        p = float(q ** perms.fixed_points(sigma) / z)
        band = 4 * math.sqrt(p * (1 - p) / n_samples)
        assert abs(counts.get(sigma, 0) / n_samples - p) <= band, sigma


def test_batch_unrestricted_matches_scalar_law():
    arr = sampling.sample_biased_unrestricted_batch(6, 2, RandomSource(11), 60000)
    assert (np.sort(arr, axis=1) == np.arange(1, 7)).all()  # all rows are permutations
    fps = (arr == np.arange(1, 7)).sum(axis=1)
    emp = np.bincount(fps, minlength=7) / 60000
    exact = fp_pmf(MeasureSpec(6, 2))
    worst = max(abs(emp[k] - float(exact.pmf(k))) for k in range(7))
    assert worst < 0.008


def _unrestricted_batch_oracle(n, q, rng, count):
    # the batch sampler as it was before it held its groups as narrow index blocks,
    # verbatim: every draw of the sampler is pinned to this one
    sampling._check_sizes(n, count)
    q = MeasureSpec(n, q).q
    ks = sampling._inverse_cdf(series.unrestricted_weights(q, n), count, rng)
    gen = rng.generator
    perm_rows = np.tile(np.arange(n, dtype=np.int32), (count, 1))
    gen.permuted(perm_rows, axis=1, out=perm_rows)
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


def _assert_unrestricted_batch_is_oracle(n, q, count, seed=31):
    rng, ref = RandomSource(seed), RandomSource(seed)
    got = sampling.sample_biased_unrestricted_batch(n, q, rng, count)
    want = _unrestricted_batch_oracle(n, q, ref, count)
    assert got.dtype == np.int32 and got.shape == (count, n) and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(rng.generator.bit_generator.state, ref.generator.bit_generator.state)


# 10^30 takes K from randbelow_batch (total weight past 2^63)
@pytest.mark.parametrize("q", [F(1, 2), F(2), F(3, 2), F(1, 7), F(10**30), F(1, 10**25)],
                         ids=["1/2", "2", "3/2", "1/7", "1e30", "1e-25"])
@pytest.mark.parametrize("n", [0, 1, 2, 6, 9, 40])
def test_batch_unrestricted_draws_the_oracle_stream(n, q):
    for count in (0, 1, 4095, 4096, 4097, 20000):
        _assert_unrestricted_batch_is_oracle(n, q, count)


@pytest.mark.parametrize("block_bytes", [1, 8 * 6 * 5, 8 * 40 * 3])
def test_batch_unrestricted_blocks_do_not_change_the_draws(monkeypatch, block_bytes):
    # rows turn into permutations a block at a time: 1, 5 or 20 rows at n = 6, 1 or 3 at n = 40
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", block_bytes)
    for n, q in ((6, F(1, 2)), (40, F(3))):
        for count in (1, 2, 7, 300):
            _assert_unrestricted_batch_is_oracle(n, q, count)
    np.testing.assert_array_equal(sampling.sample_biased_unrestricted_batch(7, F(3, 2), RandomSource(8), 1),
                                  _unrestricted_batch_oracle(7, F(3, 2), RandomSource(8), 1))


def test_batch_unrestricted_memory_is_bounded():
    # the int32 result is 4.8 MB; the sampler holds it plus narrow index blocks
    tracemalloc.start()
    try:
        arr = sampling.sample_biased_unrestricted_batch(6, "1/2", RandomSource(4242), 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.shape == (200_000, 6)
    assert peak < 16 * 2**20, peak


def test_fp_batch_memory_is_bounded():
    # two packed walk batches (the one counted and the next, drawn by the
    # helper), the helper's raw chunk (at most _MAX_BATCH_CELLS bits, a
    # batch's size here), the result, and the temporaries of the one count
    # block on the calling thread: a 123 block peaks at about 2.7
    # _BLOCK_BYTES (1024 rows at n = 1000), and the bound keeps the 8 it
    # allowed when two threads counted; whole-batch blocks take about 9.4 MB
    n, count = 1000, 20_000
    batch = sampling._batch_rows(n, count) * 8 * sampling._raw_layout(n)[0]
    bound = 3 * batch + 8 * count + 2 * 4 * sampling._BLOCK_BYTES
    rng = RandomSource(59)  # numpy.random's lazy imports come before the trace
    tracemalloc.start()
    try:
        fps = sampling.uniform_avoider_fp_batch(n, "123", count, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fps) == count
    assert peak < bound, (peak, bound)


def test_whole_permutation_memory_does_not_grow_with_count():
    # the rejection route draws at most _block_rows(16 n) rows a round, so past the
    # int32 result a q = 1 call at n = 60 holds one round's temporaries at any count
    sampling.biased_avoider_permutation(60, 1, "321", RandomSource(1), 1)  # lazy imports before the trace
    excess = []
    for count in (2000, 20_000):
        rng = RandomSource(61)
        tracemalloc.start()
        try:
            arr, _ = sampling.biased_avoider_permutation(60, 1, "321", rng, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.shape == (count, 60)
        excess.append(peak - arr.nbytes)
    assert excess[1] <= excess[0] + 2**16, excess


def test_sample_fp_count_matches_exact_law():
    ks = sampling.sample_fp_count_batch(3, 2, "321", RandomSource(13), 40000)
    emp = np.bincount(ks, minlength=4) / 40000
    assert abs(emp[3] - 8 / 14) < 0.01
    assert abs(emp[0] - 1 / 7) < 0.01
    assert emp[2] == 0
    # scaled-float route, larger n
    ks = sampling.sample_fp_count_batch(300, 3, "321", RandomSource(15), 20000, mode="scaled-float")
    exact_mean = float(dist.pmf_moment(fp_pmf(MeasureSpec(300, 3, "321")), 1))
    assert abs(ks.mean() - exact_mean) / exact_mean < 0.02
    assert int(sampling.sample_fp_count_batch(3, 2, "321", RandomSource(1), 1)[0]) in (0, 1, 3)


def test_biased_avoider_rejection_distribution():
    n_samples = 50000
    arr, _ = sampling.biased_avoider_permutation(3, F(1, 2), "321", RandomSource(5), n_samples)
    counts = collections.Counter(map(tuple, arr.tolist()))
    weights = {s: F(1, 2) ** perms.fixed_points(s) for s in perms.enumerate_avoiders(3, "321")}
    z = sum(weights.values())
    for sigma, w in weights.items():
        p = float(w / z)
        assert abs(counts[sigma] / n_samples - p) < 4 * math.sqrt(p * (1 - p) / n_samples)


def test_biased_avoider_uniform_bias_accepts_first_try():
    arr, attempts = sampling.biased_avoider_permutation(7, 1, "321", RandomSource(6), 20)
    assert attempts == 20
    assert all(perms.avoids(tuple(r), "321") for r in arr.tolist())


def test_biased_avoider_enumeration_route():
    arr, attempts = sampling.biased_avoider_permutation(10, 2, "231", RandomSource(9), 30000)
    assert attempts == 30000
    counts = collections.Counter(map(tuple, arr.tolist()))
    exact = fp_pmf(MeasureSpec(10, 2, "231"))
    emp = collections.Counter()
    for sigma, c in counts.items():
        emp[perms.fixed_points(sigma)] += c
    tv = sum(abs(emp.get(k, 0) / 30000 - float(exact.pmf(k))) for k in range(11)) / 2
    assert tv < 0.01


def test_enumeration_table_is_shared_across_q():
    table = sampling._enumeration_table
    table.cache_clear()
    rng = RandomSource(10)
    for q in (F(1, 3), 2, F(7, 2)):
        arr, _ = sampling.biased_avoider_permutation(6, q, "231", rng, 1)
        assert perms.avoids(tuple(arr[0].tolist()), "231")
    assert table.cache_info().misses == 1
    # one table at a time: a second (n, tau) evicts the first
    sampling.biased_avoider_permutation(5, 2, "312", rng, 1)
    assert table.cache_info().currsize == 1
    sampling.biased_avoider_permutation(6, 2, "231", rng, 1)
    assert table.cache_info().misses == 3


def test_biased_avoider_refusals():
    rng = RandomSource(7)
    for count in (3, 0):
        with pytest.raises(UnsupportedMeasureError, match="sample_fp_count_batch"):
            sampling.biased_avoider_permutation(20, 4, "321", rng, count)


def test_batch_samplers_refuse_negative_sizes():
    calls = (
        lambda n, c: sampling.sample_biased_unrestricted_batch(n, 2, RandomSource(1), c),
        lambda n, c: sampling.sample_fp_count_batch(n, 2, "321", RandomSource(1), c),
        lambda n, c: sampling.sample_fp_count_batch(n, 2, "321", RandomSource(1), c,
                                                    mode="scaled-float"),
        lambda n, c: sampling.biased_avoider_permutation(n, F(1, 2), "321", RandomSource(1), c)[0],
        lambda n, c: sampling.biased_avoider_permutation(n, 2, "231", RandomSource(1), c)[0],
        lambda n, c: sampling.uniform_avoider_fp_batch(n, "321", c, RandomSource(1)),
        lambda n, c: sampling.uniform_avoider_fp_batch(n, "132", c, RandomSource(1)),
    )
    for call in calls:
        with pytest.raises(ValueError, match="n must be >= 0"):
            call(-1, 3)
        with pytest.raises(ValueError, match="count must be >= 0"):
            call(4, -1)
        assert len(call(4, 0)) == 0
    with pytest.raises(ValueError, match="n must be >= 0"):
        sampling.monte_carlo_fp_pmf(-1, "321", 5, RandomSource(1))


def test_batch_rejection_with_huge_denominators():
    # b^f >= 2^63 for every f >= 1: the exact big-integer accept branch
    arr, _ = sampling.biased_avoider_permutation(8, F(1, 10**30), "132", RandomSource(4), 300)
    assert ((arr == np.arange(1, 9)).sum(axis=1) == 0).all()
    near_one = F(2**64 - 1, 2**64)
    arr, attempts = sampling.biased_avoider_permutation(8, near_one, "321", RandomSource(4), 300)
    assert attempts == 300 and all(perms.avoids(tuple(r), "321") for r in arr)


def _rejection_mapping_every_row(n, q, tau, rng, count):
    """The q <= 1 rejection with every attempted path mapped to its avoider before the accept test."""
    a, b = q.numerator, q.denominator
    gen, got, attempts, out = rng.generator, 0, 0, []
    while got < count:
        need = count - got
        rows = min(sampling._block_rows(16 * n), math.ceil(need * attempts / max(got, 1)) if attempts else need)
        sigma = sampling._avoiders_from_dyck(_batch_dyck_steps(n, rows, gen), tau)
        attempts += rows
        fps = (sigma == np.arange(1, n + 1)).sum(axis=1)
        accept = np.ones(rows, dtype=bool)
        for f in np.flatnonzero(np.bincount(fps)).tolist() if q != 1 else []:
            sel = fps == f
            if f and b**f < 2**63:
                accept[sel] = gen.integers(0, b**f, size=int(sel.sum()), dtype=np.uint64) < a**f
            elif f:
                accept[sel] = [x < a**f for x in _word_ints(rng.randbelow_batch(b**f, int(sel.sum())))]
        kept = np.flatnonzero(accept)[:need]
        if len(kept) == need:
            attempts -= rows - (int(kept[-1]) + 1)
        out.append(sigma[kept])
        got += len(kept)
    return np.concatenate([np.zeros((0, n), np.int32), *out]), attempts


@pytest.mark.parametrize("tau", sampling.DYCK_PATTERNS)
def test_rejection_maps_only_the_kept_rows(monkeypatch, tau):
    # the same rows, attempts and generator state as mapping every attempt;
    # a small byte budget makes rounds of a few dozen rows, so that one call
    # spans many rounds; n = 130 draws with a window
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", 2**14)
    for n, q in ((9, F(1)), (9, F(1, 2)), (40, F(1, 2)), (130, F(1, 2)), (9, F(2**64 - 1, 2**64)),
                 (40, F(2**70 + 1, 2**71))):
        rng, ref = RandomSource(61, n), RandomSource(61, n)
        got, attempts = sampling.biased_avoider_permutation(n, q, tau, rng, 150)
        want, want_attempts = _rejection_mapping_every_row(n, q, tau, ref, 150)
        assert (got == want).all() and attempts == want_attempts, (n, q)
        np.testing.assert_equal(rng.generator.bit_generator.state, ref.generator.bit_generator.state)


def test_rejection_rate_accounting():
    # spec check: attempts per sample consistent with Catalan(n)/normalization
    # within 3 sigma at 10^4 draws, n = 8, q = 1/2
    n, q = 8, F(1, 2)
    n_samples = 10_000
    _, attempts = sampling.biased_avoider_permutation(n, q, "321", RandomSource(23), n_samples)
    p = float(series.avoider_normalization(q, n) / series.catalan_numbers(n)[n])
    expected = n_samples / p
    sigma_attempts = math.sqrt(n_samples * (1 - p)) / p
    assert abs(attempts - expected) <= 3 * sigma_attempts


def test_batch_rejection_matches_exact_law():
    # 132- and 213-avoiders share the 321 fixed-point law; q = 1 keeps every attempt
    exact = fp_pmf(MeasureSpec(6, F(1, 2), "321"))
    for tau in ("321", "132", "213"):
        arr, _ = sampling.biased_avoider_permutation(6, F(1, 2), tau, RandomSource(19), 40000)
        fps = (arr == np.arange(1, 7)).sum(axis=1)
        emp = np.bincount(fps, minlength=7) / 40000
        assert max(abs(emp[k] - float(exact.pmf(k))) for k in range(7)) < 0.01, tau
        assert all(perms.avoids(tuple(r), tau) for r in arr[:100])
    for tau in sampling.DYCK_PATTERNS:
        arr, attempts = sampling.biased_avoider_permutation(7, 1, tau, RandomSource(21), 50)
        assert attempts == 50 and all(perms.avoids(tuple(r), tau) for r in arr)


def test_monte_carlo_fp_pmf():
    est = sampling.monte_carlo_fp_pmf(3, "321", 50000, RandomSource(17))
    target = {0: 0.4, 1: 0.4, 3: 0.2}
    assert all(abs(float(est.pmf(k)) - p) < 0.01 for k, p in target.items())
    assert est.provenance.kind == "monte-carlo"
    assert est.provenance.seed == 17 and est.provenance.samples == 50000
    # support bound for 123-avoiders
    est = sampling.monte_carlo_fp_pmf(50, "123", 2000, RandomSource(18))
    assert set(est.support) <= {0, 1, 2}
    # 132 and 213 share the same fixed-point law
    est132 = sampling.monte_carlo_fp_pmf(15, "132", 3000, RandomSource(19))
    assert sum(est132.weights.values()) == 1


def test_documented_bijection_table_n4():
    # frozen copy of the worked table in docs/dyck_321_bijection.md
    table = {
        "UUUUDDDD": (4, 1, 2, 3), "UUUDUDDD": (3, 4, 1, 2), "UUUDDUDD": (3, 1, 4, 2),
        "UUUDDDUD": (3, 1, 2, 4), "UUDUUDDD": (2, 4, 1, 3), "UUDUDUDD": (2, 3, 4, 1),
        "UUDUDDUD": (2, 3, 1, 4), "UUDDUUDD": (2, 1, 4, 3), "UUDDUDUD": (2, 1, 3, 4),
        "UDUUUDDD": (1, 4, 2, 3), "UDUUDUDD": (1, 3, 4, 2), "UDUUDDUD": (1, 3, 2, 4),
        "UDUDUUDD": (1, 2, 4, 3), "UDUDUDUD": (1, 2, 3, 4),
    }
    assert len(set(table.values())) == 14
    assert set(table.values()) == set(perms.enumerate_avoiders(4, "321"))
    steps = np.array([[1 if c == "U" else -1 for c in word] for word in table], dtype=np.int8)
    got = sampling._avoiders_from_dyck(steps, "321").tolist()
    assert [tuple(row) for row in got] == list(table.values())


def test_batch_samplers_are_deterministic():
    a, att_a = sampling.biased_avoider_permutation(6, F(1, 2), "321", RandomSource(42), 5000)
    b, att_b = sampling.biased_avoider_permutation(6, F(1, 2), "321", RandomSource(42), 5000)
    assert (a == b).all() and att_a == att_b
    u = sampling.sample_biased_unrestricted_batch(7, F(3, 2), RandomSource(42), 5000)
    v = sampling.sample_biased_unrestricted_batch(7, F(3, 2), RandomSource(42), 5000)
    assert (u == v).all()
