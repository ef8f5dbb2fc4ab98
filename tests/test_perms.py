"""Permutation core: containment oracle agreement, symmetries, enumeration."""
import gc
import itertools
import tracemalloc

import pytest

from fpblab import perms
from fpblab.series import catalan_numbers
from test_series import catalan_numbers_by_convolution


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def test_fixed_points_examples():
    assert perms.fixed_points((1, 2, 3)) == 3
    assert perms.fixed_points((2, 3, 1)) == 0
    assert perms.fixed_points((1, 3, 2)) == 1


def test_contains_pattern_examples():
    assert perms.contains_pattern((3, 1, 2, 4, 5), (2, 1, 3))
    assert not perms.contains_pattern((5, 3, 4, 2, 1), (2, 1, 3))
    assert not perms.contains_pattern((1, 2), (3, 2, 1))  # pattern longer than host


def test_avoids_examples():
    assert perms.avoids((1, 2, 3, 4), "321")
    assert perms.avoids((4, 3, 2, 1), "123")
    assert not perms.avoids((2, 4, 1, 3), "231")  # subsequence 2,4,1


def test_avoids_matches_naive_oracle_exhaustively():
    # spec invariant: agreement for every permutation of length <= 8, all six patterns
    pattern_tuples = {tau: tuple(int(c) for c in tau) for tau in perms.PATTERNS}
    for n in range(9):
        for sigma in all_perms(n):
            for tau, tup in pattern_tuples.items():
                assert perms.avoids(sigma, tau) == (not perms.contains_pattern(sigma, tup)), (
                    sigma,
                    tau,
                )


def test_avoider_counts_are_catalan():
    cat = catalan_numbers_by_convolution(10)
    for n in range(11):
        for tau in perms.PATTERNS:
            assert sum(1 for _ in perms.enumerate_avoiders(n, tau)) == cat[n], (n, tau)


def test_enumerated_avoiders_avoid_and_are_distinct():
    for tau in perms.PATTERNS:
        seen = set(perms.enumerate_avoiders(7, tau))
        assert len(seen) == catalan_numbers(7)[7]
        assert all(perms.avoids(s, tau) for s in seen)


def test_symmetry_examples():
    assert perms.symmetry((1, 3, 2), "reverse") == (2, 3, 1)
    assert perms.symmetry((2, 4, 1, 3), "inverse") == (3, 1, 4, 2)
    rc = perms.symmetry((1, 3, 2, 5, 4), "reverse_complement")
    assert perms.fixed_points(rc) == perms.fixed_points((1, 3, 2, 5, 4)) == 1


def test_inverse_composes_to_identity():
    for sigma in all_perms(6):
        inv = perms.symmetry(sigma, "inverse")
        assert tuple(sigma[v - 1] for v in inv) == tuple(range(1, 7))


def test_fixed_point_preserving_symmetries():
    for n in range(1, 9):
        for sigma in all_perms(n):
            f = perms.fixed_points(sigma)
            assert perms.fixed_points(perms.symmetry(sigma, "inverse")) == f
            assert perms.fixed_points(perms.symmetry(sigma, "reverse_complement")) == f


def test_symmetries_map_avoidance_classes():
    for n in range(1, 9):
        s132 = set(perms.enumerate_avoiders(n, "132"))
        s213 = set(perms.enumerate_avoiders(n, "213"))
        assert {perms.symmetry(s, "reverse_complement") for s in s132} == s213
        s321 = set(perms.enumerate_avoiders(n, "321"))
        assert {perms.symmetry(s, "inverse") for s in s321} == s321


def test_123_avoiders_have_at_most_two_fixed_points():
    for n in range(3, 11):
        assert all(perms.fixed_points(s) <= 2 for s in perms.enumerate_avoiders(n, "123"))


def test_enumeration_caps():
    with pytest.raises(perms.EnumerationCapError, match="capped"):
        list(perms.enumerate_avoiders(13, "321"))
    with pytest.raises(perms.EnumerationCapError, match="capped"):
        perms.enumerate_permutations(11)


def test_enumeration_caps_follow_budget(monkeypatch):
    # the enum budget is the avoiders' cap, lowered or raised
    monkeypatch.setenv("FPBL_BUDGET", "enum=5")
    assert sum(1 for _ in perms.enumerate_avoiders(5, "231")) == 42
    with pytest.raises(perms.EnumerationCapError, match="capped at n=5"):
        list(perms.enumerate_avoiders(6, "231"))
    # raised caps are honoured too; the enumerators are lazy, so one item is cheap
    monkeypatch.setenv("FPBL_BUDGET", "enum=13")
    assert perms.avoids(next(perms.enumerate_avoiders(13, "321")), "321")
    # all of S_n is capped by a constant, which no budget moves; patched, it is lowered or raised
    assert perms._PLAIN_ENUM_CAP == 10
    with pytest.raises(perms.EnumerationCapError, match="capped at n=10"):
        list(perms.enumerate_avoiders(11))
    monkeypatch.setattr(perms, "_PLAIN_ENUM_CAP", 4)
    assert sum(1 for _ in perms.enumerate_permutations(4)) == 24
    for enumerate_all in (perms.enumerate_permutations, perms.enumerate_avoiders):
        with pytest.raises(perms.EnumerationCapError, match="capped at n=4"):
            list(enumerate_all(5))
    monkeypatch.setattr(perms, "_PLAIN_ENUM_CAP", 11)
    for enumerate_all in (perms.enumerate_permutations, perms.enumerate_avoiders):
        assert len(next(enumerate_all(11))) == 11


def test_pattern_validation():
    with pytest.raises(ValueError, match="pattern"):
        perms.avoids((1, 2, 3), "322")
    assert perms.check_pattern((2, 1, 3)) == "213"


def perm_to_profile(sigma):
    """Inverse of `perms.profile_to_perm` on 321-avoiders: the running largest weak-excedance value."""
    prof = []
    h = 0
    for i, v in enumerate(sigma, start=1):
        if v >= i and v > h:
            h = v
        prof.append(h)
    return tuple(prof)


def test_profile_bijection_round_trip():
    for n in range(1, 9):
        for sigma in perms.enumerate_avoiders(n, "321"):
            prof = perm_to_profile(sigma)
            assert perms.profile_to_perm(prof) == sigma


@pytest.mark.parametrize("tau", ["132", "213", "231", "312"])
def test_enumeration_frees_its_memo(tau):
    # with the collector off, memory held by cyclic garbage is never freed:
    # once the result is dropped, memory returns near where it was (the
    # first call fills the interpreter's free lists of small tuples)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        list(perms.enumerate_avoiders(10, tau))
        base = tracemalloc.get_traced_memory()[0]
        avoiders = list(perms.enumerate_avoiders(10, tau))
        held = tracemalloc.get_traced_memory()[0] - base
        del avoiders
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert held > 1_500_000 and left < 300_000, (held, left)
