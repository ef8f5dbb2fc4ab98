"""Samplers: determinism, exactness against enumeration, rate accounting."""
import collections
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from fpblab import dist, perms, sampling, series
from fpblab.dist import MeasureSpec, UnsupportedMeasureError, fp_pmf
from fpblab.sampling import DyckPath, RandomSource

F = Fraction


def test_random_source_determinism():
    a = RandomSource(99, 3).generator.integers(0, 2**32, size=8)
    b = RandomSource(99, 3).generator.integers(0, 2**32, size=8)
    c = RandomSource(99, 4).generator.integers(0, 2**32, size=8)
    assert (a == b).all()
    assert (a != c).any()
    assert RandomSource(99).spawn(4).stream_id == 4


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


def test_dyck_path_invariants():
    DyckPath((1, 1, -1, -1))
    with pytest.raises(ValueError):
        DyckPath((1, -1, -1, 1))  # dips below zero
    with pytest.raises(ValueError):
        DyckPath((1, 1, -1))  # odd length
    with pytest.raises(ValueError):
        DyckPath((1, 1, -1, 1))  # nonzero total


def test_uniform_dyck_semilength_one():
    rng = RandomSource(1)
    for _ in range(10):
        assert sampling.uniform_dyck(1, rng).steps == (1, -1)


def test_uniform_dyck_frequencies():
    # Catalan(3) = 5 paths, each within 4 sigma of 1/5 at this fixed seed
    rng = RandomSource(8)
    counts = collections.Counter(sampling.uniform_dyck(3, rng).steps for _ in range(30000))
    assert len(counts) == 5
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
        counts = collections.Counter(map(bytes, walks.view(np.uint8)))
        assert len(counts) == cells, n
        p = 1 / cells
        band = 4 * math.sqrt(p * (1 - p) / draws)
        assert all(abs(c / draws - p) <= band for c in counts.values()), n


class _RecordingGenerator:
    """Hands out the raw words of a real generator and keeps a copy of each draw."""

    def __init__(self, gen):
        self.bit_generator, self._random_raw, self.draws = self, gen.bit_generator.random_raw, []

    def random_raw(self, size):
        words = self._random_raw(size)
        self.draws.append(words.copy())
        return words


def _walks_by_bit_rejection(draws, n, rows):
    """Big-integer oracle of the generator: the walks its raw words give, by branch."""
    m = 2 * n + 1
    mask = (1 << m) - 1
    walks, branches = [], collections.Counter()
    for raw in np.concatenate(draws).reshape(-1, (m + 63) // 64):
        x = sum(int(w) << (64 * i) for i, w in enumerate(raw)) & mask
        ones = bin(x).count("1")
        if ones not in (n, n + 1) or len(walks) == rows:
            continue
        branches[ones] += 1
        x = x if ones == n + 1 else ~x & mask
        walks.append([1 if x >> j & 1 else -1 for j in range(m)])
    return np.array(walks, dtype=np.int8).reshape(len(walks), m), branches


def test_walks_match_big_integer_oracle_at_word_edges():
    # 2n+1 in {1, 63, 65, 127, 129}: one 1-bit word, and either side of the
    # first two word boundaries. Philox sets the bits above column 2n in the
    # last word as often as not, so any bit the mask lets through changes a
    # popcount and shows up against the oracle.
    for n in (0, 31, 32, 63, 64):
        gen = _RecordingGenerator(RandomSource(43, n).generator)
        walks, fill = sampling._walk_job(n, 300, gen)
        fill()
        assert walks.shape == (300, 2 * n + 1)
        assert ((walks == 1) | (walks == -1)).all()
        assert ((walks == 1).sum(axis=1) == n + 1).all()
        want, branches = _walks_by_bit_rejection(gen.draws, n, 300)
        assert (walks == want).all(), n
        # both branches feed the kept rows: n+1 ones as drawn, n ones complemented
        assert branches[n] > 0 and branches[n + 1] > 0, (n, branches)


def test_dyck_bijection_exhaustive():
    def all_dyck(n, ups, downs, h, pre):
        if ups == 0 and downs == 0:
            yield tuple(pre)
            return
        if ups:
            yield from all_dyck(n, ups - 1, downs, h + 1, pre + [1])
        if downs and h > 0:
            yield from all_dyck(n, ups, downs - 1, h - 1, pre + [-1])

    for n in range(1, 8):
        paths = list(all_dyck(n, n, n, 0, []))
        images = {sampling.dyck_to_321_avoider(DyckPath(s)) for s in paths}
        assert images == set(perms.enumerate_avoiders(n, "321"))
        # the first-return map to 132-avoiders: injective, onto S_n(132)
        images = [tuple(int(v) for v in row)
                  for row in sampling._perms_132_from_dyck(np.array(paths, dtype=np.int8))]
        assert len(set(images)) == len(paths)
        assert set(images) == set(perms.enumerate_avoiders(n, "132"))


def test_profile_fp_kernels_match_materialization():
    gen = RandomSource(17).generator
    # column offsets reach 2n+2: n = 16382 is the last int16 size, 16383 the first int32
    for n, rows in ((3, 500), (9, 500), (33, 500), (16382, 3), (16383, 3)):
        walks, fill = sampling._walk_job(n, rows, gen)
        fill()
        steps = sampling._dyck_from_walks(walks)
        sigma = sampling._perms_from_profiles(sampling._profiles_from_dyck(steps))
        direct = np.array([perms.fixed_points(tuple(s)) for s in sigma])
        assert (sampling._fp_from_walks(walks) == direct).all()
        rev = np.array([perms.fixed_points(tuple(s)[::-1]) for s in sigma])
        assert (sampling._fp_from_walks(walks, reverse=True) == rev).all()


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
                want = [(sampling._avoiders_from_dyck(sampling._batch_dyck_steps(n, b, gen), tau)
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


def test_uniform_avoider_outputs_avoid():
    rng = RandomSource(2)
    for tau in ("321", "132", "213", "123"):
        for n in (0, 1, 2, 7, 40):
            assert perms.avoids(sampling.uniform_avoider(n, tau, rng), tau)
    with pytest.raises(UnsupportedMeasureError):
        sampling.uniform_avoider(9, "231", rng)


def test_uniform_avoider_distribution_small_n():
    rng = RandomSource(12)
    n_samples = 25000
    for tau in ("321", "132", "213", "123"):
        counts = collections.Counter(sampling.uniform_avoider(4, tau, rng) for _ in range(n_samples))
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
    assert sampling.sample_biased_unrestricted(1, 5, rng) == (1,)
    hits = sum(
        sampling.sample_biased_unrestricted(4, 10**6, rng) == (1, 2, 3, 4) for _ in range(800)
    )
    assert hits / 800 > 0.99


def test_sample_biased_unrestricted_distribution():
    rng = RandomSource(14)
    n, q, n_samples = 5, F(1, 2), 60000
    counts = collections.Counter(
        sampling.sample_biased_unrestricted(n, q, rng) for _ in range(n_samples)
    )
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
    assert int(sampling.sample_fp_count(3, 2, "321", RandomSource(1))) in (0, 1, 3)


def test_biased_avoider_rejection_distribution():
    rng = RandomSource(5)
    n_samples = 50000
    counts = collections.Counter()
    for _ in range(n_samples):
        sigma, _ = sampling.biased_avoider_permutation(3, F(1, 2), "321", rng)
        counts[sigma] += 1
    weights = {s: F(1, 2) ** perms.fixed_points(s) for s in perms.enumerate_avoiders(3, "321")}
    z = sum(weights.values())
    for sigma, w in weights.items():
        p = float(w / z)
        assert abs(counts[sigma] / n_samples - p) < 4 * math.sqrt(p * (1 - p) / n_samples)


def test_biased_avoider_uniform_bias_accepts_first_try():
    rng = RandomSource(6)
    for _ in range(20):
        sigma, attempts = sampling.biased_avoider_permutation(7, 1, "321", rng)
        assert attempts == 1
        assert perms.avoids(sigma, "321")


def test_biased_avoider_enumeration_route():
    rng = RandomSource(9)
    counts = collections.Counter()
    for _ in range(30000):
        sigma, attempts = sampling.biased_avoider_permutation(10, 2, "231", rng)
        assert attempts == 1
        counts[sigma] += 1
    exact = fp_pmf(MeasureSpec(10, 2, "231"))
    emp = collections.Counter()
    for sigma, c in counts.items():
        emp[perms.fixed_points(sigma)] += c
    tv = sum(abs(emp.get(k, 0) / 30000 - float(exact.pmf(k))) for k in range(11)) / 2
    assert tv < 0.01


def test_enumeration_table_is_shared_across_q(monkeypatch):
    monkeypatch.setattr(sampling, "_enum_tables", {})
    rng = RandomSource(10)
    for q in (F(1, 3), 2, F(7, 2)):
        sigma, _ = sampling.biased_avoider_permutation(6, q, "231", rng, route="enumeration")
        assert perms.avoids(sigma, "231")
    assert list(sampling._enum_tables) == [(6, "231")]


def test_biased_avoider_refusals():
    rng = RandomSource(7)
    with pytest.raises(UnsupportedMeasureError, match="sample_fp_count"):
        sampling.biased_avoider_permutation(20, 4, "321", rng)
    with pytest.raises(UnsupportedMeasureError, match="q <= 1"):
        sampling.biased_avoider_permutation(5, 2, "321", rng, route="rejection")


def test_rejection_rate_accounting():
    # spec check: attempts per sample consistent with Catalan(n)/normalization
    # within 3 sigma at 10^4 draws, n = 8, q = 1/2
    n, q = 8, F(1, 2)
    n_samples = 10_000
    _, attempts = sampling.biased_avoider_batch(n, q, RandomSource(23), n_samples)
    p = float(series.avoider_normalization(q, n) / series.catalan_numbers(n)[n])
    expected = n_samples / p
    sigma_attempts = math.sqrt(n_samples * (1 - p)) / p
    assert abs(attempts - expected) <= 3 * sigma_attempts


def test_batch_rejection_matches_exact_law():
    # 132- and 213-avoiders share the 321 fixed-point law; q = 1 keeps every attempt
    exact = fp_pmf(MeasureSpec(6, F(1, 2), "321"))
    for tau in ("321", "132", "213"):
        arr, _ = sampling.biased_avoider_batch(6, F(1, 2), RandomSource(19), 40000, tau)
        fps = (arr == np.arange(1, 7)).sum(axis=1)
        emp = np.bincount(fps, minlength=7) / 40000
        assert max(abs(emp[k] - float(exact.pmf(k))) for k in range(7)) < 0.01, tau
        assert all(perms.avoids(tuple(r), tau) for r in arr[:100])
    for tau in sampling.DYCK_PATTERNS:
        arr, attempts = sampling.biased_avoider_batch(7, 1, RandomSource(21), 50, tau)
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
    for word, sigma in table.items():
        steps = tuple(1 if c == "U" else -1 for c in word)
        assert sampling.dyck_to_321_avoider(DyckPath(steps)) == sigma


def test_batch_samplers_are_deterministic():
    a, att_a = sampling.biased_avoider_batch(6, F(1, 2), RandomSource(42), 5000)
    b, att_b = sampling.biased_avoider_batch(6, F(1, 2), RandomSource(42), 5000)
    assert (a == b).all() and att_a == att_b
    u = sampling.sample_biased_unrestricted_batch(7, F(3, 2), RandomSource(42), 5000)
    v = sampling.sample_biased_unrestricted_batch(7, F(3, 2), RandomSource(42), 5000)
    assert (u == v).all()
