"""Permutations of {1, ..., n} in one-line notation.

A permutation is represented as a plain tuple of ints: ``w[i]`` is the
image of ``i + 1``, so the tuple ``(4, 2, 3, 1)`` sends 1 to 4 and 4
to 1.  Working with bare tuples keeps permutations hashable and cheap
to use as dict keys, which the memoised polynomial recursion relies on
heavily.

Values are 1-based throughout, as is every position argument taken by
functions in this package.
"""

from __future__ import annotations

import itertools
from operator import index
from collections.abc import Iterable, Sequence

Perm = tuple[int, ...]


def from_oneline(values: Iterable[int]) -> Perm:
    """Validate a one-line sequence and return it as a Perm tuple.

    Entries go through ``operator.index``, so a bool becomes an int and
    a float or a string is not a permutation entry.

    >>> from_oneline([4, 2, 3, 1])
    (4, 2, 3, 1)
    >>> from_oneline([1, 1, 2])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..3: (1, 1, 2)
    >>> from_oneline([1.0, 2])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..2: (1.0, 2)
    """
    w = tuple(values)
    n = len(w)
    if n == 0:
        raise ValueError("a permutation needs at least one entry")
    try:
        entries = tuple(map(index, w))
    except TypeError:
        # Fails the check below, since n >= 1.
        entries = ()
    if sorted(entries) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w!r}")
    return entries


def _checked_pair(x: Iterable[int], w: Iterable[int]) -> tuple[Perm, Perm]:
    """x and w as Perm tuples; ValueError unless both are permutations
    of the same size."""
    x, w = from_oneline(x), from_oneline(w)
    if len(x) != len(w):
        raise ValueError(f"size mismatch: {len(x)} vs {len(w)}")
    return x, w


def identity(n: int) -> Perm:
    """The identity permutation of S_n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation [n, n-1, ..., 1].

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(range(n, 0, -1))


def compose(u: Perm, v: Perm) -> Perm:
    """The product u after v, i.e. (u * v)(i) = u(v(i)).

    >>> compose((4, 3, 2, 1), (4, 2, 3, 1))
    (1, 3, 2, 4)

    Raises ValueError unless u and v are permutations of the same size.
    """
    u, v = _checked_pair(u, v)
    return tuple(u[j - 1] for j in v)


def _w0_times(v: Perm) -> Perm:
    """w0 v, with w0 the longest element: it reverses values,
    (w0 v)(i) = n + 1 - v(i).  v is not checked.

    >>> _w0_times((4, 2, 3, 1))
    (1, 3, 2, 4)
    """
    top = len(v) + 1
    return tuple([top - a for a in v])


def _w0_conjugate(v: Perm) -> Perm:
    """w0 v w0, with w0 the longest element: it reverses positions and
    values, (w0 v w0)(i) = n + 1 - v(n + 1 - i), and sends s_i to
    s_(n-i).  v is not checked.

    >>> _w0_conjugate((2, 3, 1, 4))
    (1, 4, 2, 3)
    """
    top = len(v) + 1
    return tuple([top - a for a in v[::-1]])


def inverse(w: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def swap_positions(w: Perm, i: int, j: int) -> Perm:
    """Exchange the entries at positions i and j (right multiplication
    by the transposition of i and j).

    >>> swap_positions((2, 4, 3, 1), 1, 4)
    (1, 4, 3, 2)
    """
    n = len(w)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got i={i}, j={j}")
    out = list(w)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def length(w: Perm) -> int:
    """Number of inversions: pairs i < j with w(i) > w(j).

    This equals the minimal number of adjacent transpositions whose
    product is w.

    >>> length((4, 2, 3, 1))
    5
    >>> length((1, 2, 3))
    0
    """
    # Each value v counts the larger values to its left, read off the
    # bits above v of the set of values seen so far.
    seen = total = 0
    for v in w:
        total += (seen >> v).bit_count()
        seen |= 1 << v
    return total


def right_descents(w: Perm) -> tuple[int, ...]:
    """Positions i with w(i) > w(i+1), in increasing order.

    >>> right_descents((4, 2, 3, 1))
    (1, 3)
    """
    return tuple([i for i in range(1, len(w)) if w[i - 1] > w[i]])


def left_descents(w: Perm) -> tuple[int, ...]:
    """Values i such that i+1 appears before i in w, in increasing order.

    These are the right descents of the inverse permutation.

    >>> left_descents((3, 1, 4, 2))
    (2,)
    """
    # pos[v]: the position of the value v.
    pos = [0] * (len(w) + 1)
    for p, v in enumerate(w):
        pos[v] = p
    return tuple([i for i in range(1, len(w)) if pos[i] > pos[i + 1]])


def flatten(values: Sequence[int]) -> Perm:
    """The permutation with the same relative order as ``values``.

    The entries must be distinct but need not form a contiguous range.

    >>> flatten((6, 2, 5))
    (3, 1, 2)
    """
    if len(set(values)) != len(values):
        raise ValueError(f"entries must be distinct: {tuple(values)!r}")
    if not values:
        raise ValueError("cannot flatten an empty sequence")
    ranks = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(ranks[v] for v in values)


def find_pattern_instance(w: Perm, pattern: Perm) -> list[int] | None:
    """Positions in w carrying an occurrence of ``pattern``, or None.

    An occurrence is a set of positions whose values appear in the same
    relative order as the pattern.  Position lists are scanned in
    lexicographic order, so the returned witness is deterministic.

    >>> find_pattern_instance((5, 2, 4, 3, 1), (4, 2, 3, 1))
    [1, 2, 3, 5]
    >>> find_pattern_instance((1, 2, 3), (2, 1)) is None
    True
    """
    n, k = len(w), len(pattern)
    if k > n:
        return None
    # Order-isomorphism check: read the chosen values in the order that
    # sorts the pattern, and require them to be increasing.
    by_pattern_rank = sorted(range(k), key=lambda t: pattern[t])
    for combo in itertools.combinations(range(n), k):
        vals = [w[p] for p in combo]
        ordered = [vals[t] for t in by_pattern_rank]
        if all(ordered[a] < ordered[a + 1] for a in range(k - 1)):
            return [p + 1 for p in combo]
    return None


def avoids_pattern(w: Perm, pattern: Perm) -> bool:
    """True when no subsequence of w is order-isomorphic to ``pattern``."""
    return find_pattern_instance(w, pattern) is None


def parse_perm(text: str) -> Perm:
    """Parse one-line notation from a string.

    Accepts comma-separated values like ``"4,2,3,1"``, or a bare digit
    string like ``"4231"`` when every value is a single digit.

    >>> parse_perm("4,2,3,1")
    (4, 2, 3, 1)
    >>> parse_perm("4231")
    (4, 2, 3, 1)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation string")
    try:
        if "," in text:
            values = [int(part) for part in text.split(",")]
        else:
            values = [int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return from_oneline(values)


def format_perm(w: Perm) -> str:
    """One-line notation as comma-separated values.

    >>> format_perm((4, 2, 3, 1))
    '4,2,3,1'
    """
    return ",".join(str(v) for v in w)


def all_perms(n: int) -> Iterable[Perm]:
    """All elements of S_n in lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return itertools.permutations(range(1, n + 1))

