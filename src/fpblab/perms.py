"""
Permutations in one-line notation, fixed points, and length-3 pattern avoidance.

Conventions:
- A permutation of length n is a tuple of the integers 1..n in one-line
  notation (sigma[0] is the image of 1). All functions accept any sequence
  of ints and return tuples.
- Patterns are given as one of the six strings "123", "132", "213", "231",
  "312", "321".

Two containment implementations coexist on purpose: `contains_pattern` is
the naive subsequence search (the oracle), `avoids` dispatches to linear
single-pass scans. Their agreement is tested exhaustively for n <= 8.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .config import budgets

PATTERNS = ("123", "132", "213", "231", "312", "321")

_PLAIN_ENUM_CAP = 10  # 10! = 3 628 800 permutations


class EnumerationCapError(ValueError):
    """Raised when an enumeration request exceeds the configured cap."""


def fixed_points(sigma: Sequence[int]) -> int:
    """
    Number of indices i (1-based) with sigma_i = i.

    >>> fixed_points((1, 2, 3))
    3
    >>> fixed_points((2, 3, 1))
    0
    >>> fixed_points((1, 3, 2))
    1
    """
    return sum(1 for i, v in enumerate(sigma, start=1) if v == i)


def check_pattern(tau: str | Sequence[int]) -> str:
    """Normalize a length-3 pattern to its canonical string form."""
    if not isinstance(tau, str):
        tau = "".join(str(v) for v in tau)
    if tau not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}, got {tau!r}")
    return tau


def contains_pattern(sigma: Sequence[int], tau: Sequence[int]) -> bool:
    """
    Naive subsequence search: does sigma contain tau as a pattern?

    True iff some subsequence of sigma is in the same relative order as tau.
    A pattern longer than sigma is never contained. This is the O(n^m)
    oracle against which the fast scans are validated.

    >>> contains_pattern((3, 1, 2, 4, 5), (2, 1, 3))
    True
    >>> contains_pattern((5, 3, 4, 2, 1), (2, 1, 3))
    False
    >>> contains_pattern((1, 2), (3, 2, 1))
    False
    """
    m = len(tau)
    if m < 2:
        raise ValueError("pattern must have length >= 2")
    if m > len(sigma):
        return False
    rel = [tau.index(v) for v in sorted(tau)]  # positions of 1st, 2nd, ... smallest
    for subseq in itertools.combinations(sigma, m):
        order = sorted(range(m), key=lambda i: subseq[i])
        if order == rel:
            return True
    return False


def _contains_321(sigma: Sequence[int]) -> bool:
    # Single pass: best_mid is the largest value seen so far that has some
    # larger value before it; any later smaller value completes a 321.
    best_mid = 0
    prefix_max = 0
    for v in sigma:
        if v < best_mid:
            return True
        if v < prefix_max and v > best_mid:
            best_mid = v
        if v > prefix_max:
            prefix_max = v
    return False


def _contains_132(sigma: Sequence[int]) -> bool:
    # Right-to-left stack scan: the stack holds increasing-from-top values;
    # `mid` is the largest value popped, i.e. the best available "2" that
    # has a larger value ("3") after it. Any earlier smaller value is a "1".
    stack: list[int] = []
    mid = 0
    for v in reversed(sigma):
        if v < mid:
            return True
        while stack and stack[-1] < v:
            mid = stack.pop()
        stack.append(v)
    return False


def _complement(sigma: Sequence[int]) -> tuple[int, ...]:
    n = len(sigma)
    return tuple(n + 1 - v for v in sigma)


def avoids(sigma: Sequence[int], tau: str | Sequence[int]) -> bool:
    """
    Fast avoidance check for a length-3 pattern (linear scans).

    Dispatch uses the symmetry group of the square: 123 is the reverse of
    321, 231 the reverse of 132, 213 the reverse-complement of 132, and 312
    the complement of 132.

    >>> avoids((1, 2, 3, 4), "321")
    True
    >>> avoids((4, 3, 2, 1), "123")
    True
    >>> avoids((2, 4, 1, 3), "231")
    False
    """
    tau = check_pattern(tau)
    sigma = tuple(sigma)
    if tau == "321":
        return not _contains_321(sigma)
    if tau == "123":
        return not _contains_321(sigma[::-1])
    if tau == "132":
        return not _contains_132(sigma)
    if tau == "231":
        return not _contains_132(sigma[::-1])
    if tau == "312":
        return not _contains_132(_complement(sigma))
    # 213: reverse-complement
    return not _contains_132(_complement(sigma)[::-1])


def symmetry(sigma: Sequence[int], kind: str) -> tuple[int, ...]:
    """
    Apply one of the classical symmetry maps.

    kind: "reverse" | "complement" | "inverse" | "reverse_complement".
    `inverse` and `reverse_complement` preserve the fixed-point count;
    `reverse` and `complement` generally do not.

    >>> symmetry((1, 3, 2), "reverse")
    (2, 3, 1)
    >>> symmetry((2, 4, 1, 3), "inverse")
    (3, 1, 4, 2)
    """
    sigma = tuple(sigma)
    n = len(sigma)
    if kind == "reverse":
        return sigma[::-1]
    if kind == "complement":
        return _complement(sigma)
    if kind == "inverse":
        inv = [0] * n
        for i, v in enumerate(sigma, start=1):
            inv[v - 1] = i
        return tuple(inv)
    if kind == "reverse_complement":
        return _complement(sigma)[::-1]
    raise ValueError(f"unknown symmetry kind {kind!r}")


def enumerate_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """
    All of S_n in lexicographic order, the brute-force oracle of the
    unrestricted laws. Refuses n above _PLAIN_ENUM_CAP.
    """
    if n > _PLAIN_ENUM_CAP:
        raise EnumerationCapError(
            f"unrestricted enumeration capped at n={_PLAIN_ENUM_CAP} ({_PLAIN_ENUM_CAP}! permutations); "
            f"got n={n}. Use the series engine or samplers instead."
        )
    return iter(itertools.permutations(range(1, n + 1)))


def _gen_321_avoiders(n: int) -> Iterator[tuple[int, ...]]:
    # A 321-avoider is determined by its nondecreasing weak-excedance
    # profile H with x <= H[x] <= n and H[n] = n; see docs/dyck_321_bijection.md.
    def profiles(x: int, lo: int) -> Iterator[tuple[int, ...]]:
        if x == n + 1:
            yield ()
            return
        for h in range(max(x, lo), n + 1):
            for rest in profiles(x + 1, h):
                yield (h,) + rest

    for prof in profiles(1, 1):
        yield profile_to_perm(prof)


def profile_to_perm(profile: Sequence[int]) -> tuple[int, ...]:
    """
    Build the 321-avoider with the given weak-excedance profile.

    profile[x-1] is the largest value among sigma_1..sigma_x that sits at a
    weak excedance (sigma_i >= i). Positions where the profile strictly
    increases (and position 1) receive the profile value; the remaining
    positions are filled with the unused values in increasing order.
    """
    n = len(profile)
    sigma = [0] * n
    used = [False] * (n + 1)
    prev = 0
    for x in range(1, n + 1):
        h = profile[x - 1]
        if x == 1 or h > prev:
            sigma[x - 1] = h
            used[h] = True
        prev = h
    fill = (v for v in range(1, n + 1) if not used[v])
    for x in range(n):
        if sigma[x] == 0:
            sigma[x] = next(fill)
    return tuple(sigma)


def _gen_132_avoiders(n: int) -> list[tuple[int, ...]]:
    # First-return split at the position of n: everything before n uses the
    # largest remaining values (each 132-avoiding), everything after the
    # smallest. Built bottom-up, lengths 0..n, so the shorter lists are
    # freed on return; values are shifted as needed.
    memo: list[list[tuple[int, ...]]] = [[()]]
    for m in range(1, n + 1):
        out = []
        for j in range(m):  # j = number of entries before the maximum
            shift = m - 1 - j
            for a in memo[j]:
                head = tuple(v + shift for v in a)
                for b in memo[m - 1 - j]:
                    out.append(head + (m,) + b)
        memo.append(out)
    return memo[n]


def _gen_231_avoiders(n: int) -> list[tuple[int, ...]]:
    # Split at the position of n: values before n are all smaller than the
    # values after it. Built bottom-up, as `_gen_132_avoiders`.
    memo: list[list[tuple[int, ...]]] = [[()]]
    for m in range(1, n + 1):
        out = []
        for j in range(m):
            tails = [tuple(v + j for v in b) for b in memo[m - 1 - j]]
            for a in memo[j]:
                head = a + (m,)
                for b in tails:
                    out.append(head + b)
        memo.append(out)
    return memo[n]


def enumerate_avoiders(n: int, tau: str | None = None) -> Iterator[tuple[int, ...]]:
    """
    Yield each member of S_n(tau) exactly once (all of S_n when tau is None).

    Pattern classes are generated directly (Catalan-many objects), up to the
    `enum` budget (see config); unrestricted enumeration delegates to
    `enumerate_permutations`, with its own, lower cap.
    """
    if tau is None:
        yield from enumerate_permutations(n)
        return
    tau = check_pattern(tau)
    cap = budgets()["enum"]
    if n > cap:
        raise EnumerationCapError(
            f"{tau}-avoider enumeration is capped at n={cap} (the enum budget); got n={n}"
        )
    if n == 0:
        yield ()
        return
    if tau == "321":
        yield from _gen_321_avoiders(n)
    elif tau == "123":
        yield from (s[::-1] for s in _gen_321_avoiders(n))
    elif tau == "132":
        yield from _gen_132_avoiders(n)
    elif tau == "213":
        yield from (symmetry(s, "reverse_complement") for s in _gen_132_avoiders(n))
    elif tau == "231":
        yield from _gen_231_avoiders(n)
    else:  # 312
        yield from (symmetry(s, "reverse_complement") for s in _gen_231_avoiders(n))


def fixed_point_counts(perms: Iterable[Sequence[int]], n: int) -> list[int]:
    """Histogram of fixed-point counts: counts[k] = #{sigma : fp(sigma) = k}."""
    counts = [0] * (n + 1)
    for sigma in perms:
        counts[fixed_points(sigma)] += 1
    return counts
