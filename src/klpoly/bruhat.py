"""Bruhat order on the symmetric group via rank matrices.

For a permutation w the rank count r_w(p, q) is the number of positions
i <= p with w(i) >= q.  Comparing the rank tables of two permutations
entrywise decides Bruhat order: x <= w exactly when
r_w(p, q) - r_x(p, q) >= 0 for every cell (p, q).  This is the
classical dominance criterion and needs no chain search, so a single
comparison costs O(n^2) after the tables are built.

Covers, intervals and down-sets are computed combinatorially from the
transposition description of the covering relation.  Intervals and
down-sets come from one walker, :func:`interval`, which carries the
rank difference down from the top one cover at a time, so no element
of the walk needs its own rank table or length.  Down-sets and
intervals are not memoised; rank tables are, at module level, and
:func:`clear_caches` drops them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .perm import Perm, format_perm, identity, length

_RANK_CACHE: dict[Perm, tuple[tuple[int, ...], ...]] = {}


def rank_table(w: Perm) -> tuple[tuple[int, ...], ...]:
    """The full table of rank counts, indexed as table[p-1][q-1]."""
    cached = _RANK_CACHE.get(w)
    if cached is not None:
        return cached
    n = len(w)
    rows: list[tuple[int, ...]] = []
    prev = [0] * n
    for p in range(n):
        row = list(prev)
        for q in range(w[p]):
            row[q] += 1
        rows.append(tuple(row))
        prev = row
    table = tuple(rows)
    _RANK_CACHE[w] = table
    return table


def rank_count(w: Perm, p: int, q: int) -> int:
    """Number of positions i <= p with w(i) >= q.

    >>> rank_count((6, 3, 4, 2, 5, 1), 3, 4)
    2
    """
    n = len(w)
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError(f"cell ({p}, {q}) outside 1..{n} square")
    return rank_table(w)[p - 1][q - 1]


@dataclass(frozen=True)
class RankDifferenceTable:
    """Cellwise difference r_w - r_x for a pair of permutations.

    The pair need not be comparable; the table is what decides that.
    """

    x: Perm
    w: Perm
    values: tuple[tuple[int, ...], ...]

    def entry(self, p: int, q: int) -> int:
        n = len(self.x)
        if not (1 <= p <= n and 1 <= q <= n):
            raise ValueError(f"cell ({p}, {q}) outside 1..{n} square")
        return self.values[p - 1][q - 1]

    def min_entry(self) -> int:
        return min(min(row) for row in self.values)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.values for v in row)


def rank_difference(x: Perm, w: Perm) -> RankDifferenceTable:
    """Build the difference table r_w - r_x."""
    if len(x) != len(w):
        raise ValueError(f"size mismatch: {len(x)} vs {len(w)}")
    rx = rank_table(x)
    rw = rank_table(w)
    values = tuple(
        tuple(b - a for a, b in zip(row_x, row_w))
        for row_x, row_w in zip(rx, rw)
    )
    return RankDifferenceTable(x=x, w=w, values=values)


def bruhat_leq(x: Perm, w: Perm) -> bool:
    """Decide x <= w in Bruhat order.

    >>> bruhat_leq((2, 1, 4, 3), (4, 2, 3, 1))
    True
    >>> bruhat_leq((3, 4, 1, 2), (4, 2, 3, 1))
    False
    """
    if len(x) != len(w):
        raise ValueError(f"size mismatch: {len(x)} vs {len(w)}")
    if x == w:
        return True
    if length(x) >= length(w):
        return False
    for row_x, row_w in zip(rank_table(x), rank_table(w)):
        for a, b in zip(row_x, row_w):
            if a > b:
                return False
    return True


def _cover_swaps(w: Perm) -> list[tuple[int, int]]:
    """0-based position pairs (i, j), i < j, whose exchange in w gives
    an element covered by w: w(i) > w(j), and no position between them
    holds a value between w(j) and w(i)."""
    n = len(w)
    out: list[tuple[int, int]] = []
    for i in range(n - 1):
        wi = w[i]
        # The largest value below wi seen so far between i and j.
        floor = 0
        for j in range(i + 1, n):
            wj = w[j]
            if floor < wj < wi:
                out.append((i, j))
                floor = wj
    return out


def _swap(w: Perm, i: int, j: int) -> Perm:
    return w[:i] + (w[j],) + w[i + 1:j] + (w[i],) + w[j + 1:]


def covers_down(w: Perm) -> list[Perm]:
    """All z covered by w, i.e. z < w with length(z) = length(w) - 1.

    Each cover comes from exchanging an inversion (i, j) of w such that
    no intermediate position holds a value between w(j) and w(i).

    >>> sorted(covers_down((3, 2, 1)))
    [(2, 3, 1), (3, 1, 2)]
    """
    return [_swap(w, i, j) for i, j in _cover_swaps(w)]


def covers_up(w: Perm) -> list[Perm]:
    """All z covering w, i.e. w < z with length(z) = length(w) + 1."""
    n = len(w)
    out: list[Perm] = []
    for i in range(n - 1):
        wi = w[i]
        for j in range(i + 1, n):
            wj = w[j]
            if wi < wj and not any(wi < w[k] < wj for k in range(i + 1, j)):
                z = list(w)
                z[i], z[j] = wj, wi
                out.append(tuple(z))
    return out


def down_set(w: Perm) -> tuple[Perm, ...]:
    """Every permutation <= w, ordered by (length, lexicographic).

    This is the walk of :func:`interval` from the identity, so it is
    recomputed on every call.

    >>> down_set((2, 3, 1))
    ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1))
    """
    return tuple(interval(identity(len(w)), w).sorted_elements())


@dataclass(frozen=True)
class BruhatInterval:
    """The set of z with bottom <= z <= top, by length.

    ``layers[k]`` holds the elements of length length(top) - k, so the
    first layer is (top,) and the last is (bottom,).
    """

    bottom: Perm
    top: Perm
    layers: tuple[tuple[Perm, ...], ...]

    @cached_property
    def elements(self) -> frozenset[Perm]:
        return frozenset(z for layer in self.layers for z in layer)

    def __len__(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def sorted_elements(self) -> list[Perm]:
        """Elements ordered by (length, lexicographic one-line form)."""
        return [z for layer in reversed(self.layers) for z in sorted(layer)]


def interval(x: Perm, w: Perm) -> BruhatInterval:
    """The Bruhat interval [x, w], walked down from w one length at a
    time.

    Raises ValueError unless x <= w.  Every element z of the walk
    carries its rank difference d_z = r_z - r_x, which is nonnegative
    exactly when x <= z.  An element y = z t(i, j) covered by z, with
    z(i) > z(j), has r_y = r_z - 1 on the rectangle of rows i..j-1 and
    columns (z(j), z(i)], and r_y = r_z elsewhere, so x <= y exactly
    when d_z is at least 1 on that rectangle.  No candidate needs a
    rank table, a length or a comparison of its own.  Nothing is lost
    by walking only covers that stay above x: a saturated chain from
    any member up to w stays inside the interval.

    >>> iv = interval((1, 2, 3), (3, 2, 1))
    >>> len(iv)
    6
    >>> iv.layers
    (((3, 2, 1),), ((2, 3, 1), (3, 1, 2)), ((1, 3, 2), (2, 1, 3)), ((1, 2, 3),))
    """
    top_diff = rank_difference(x, w)
    if not top_diff.is_nonnegative():
        raise ValueError(
            f"not a valid interval: {format_perm(x)} is not <= {format_perm(w)}"
        )
    layers = [(w,)]
    diffs = {w: top_diff.values}
    # The bottom is the only member of its length, so it ends the walk.
    while layers[-1][0] != x:
        below: dict[Perm, tuple[tuple[int, ...], ...]] = {}
        for z, d in diffs.items():
            for i, j in _cover_swaps(z):
                y = _swap(z, i, j)
                if y in below:
                    continue
                lo, hi = z[j], z[i]
                rows = d[i:j]
                for row in rows:
                    if min(row[lo:hi]) < 1:
                        break
                else:
                    below[y] = d[:i] + tuple(
                        row[:lo] + tuple([v - 1 for v in row[lo:hi]]) + row[hi:]
                        for row in rows
                    ) + d[j:]
        layers.append(tuple(below))
        diffs = below
    return BruhatInterval(bottom=x, top=w, layers=tuple(layers))


def format_interval(iv: BruhatInterval) -> str:
    """One permutation per line, sorted by (length, lexicographic)."""
    return "\n".join(format_perm(z) for z in iv.sorted_elements())


def coatom_count(u: Perm, v: Perm) -> int:
    """Number of elements covered by v inside the interval [u, v].

    >>> coatom_count((1, 2, 3), (3, 2, 1))
    2
    """
    if not bruhat_leq(u, v):
        raise ValueError(
            f"not a valid interval: {format_perm(u)} is not <= {format_perm(v)}"
        )
    if u == v:
        raise ValueError("coatoms are undefined for a one-point interval")
    return sum(1 for z in covers_down(v) if bruhat_leq(u, z))


def check_rank_monotonicity(x: Perm, y: Perm, w: Perm) -> bool:
    """Verify that rank differences shrink cellwise as the bottom of a
    pair climbs: for x <= y <= w, require d(x, w) >= d(y, w) on every
    cell.

    Raises ValueError when the chain condition x <= y <= w fails.
    """
    if not bruhat_leq(x, y):
        raise ValueError(
            f"chain condition violated: {format_perm(x)} is not <= {format_perm(y)}"
        )
    if not bruhat_leq(y, w):
        raise ValueError(
            f"chain condition violated: {format_perm(y)} is not <= {format_perm(w)}"
        )
    d_xw = rank_difference(x, w).values
    d_yw = rank_difference(y, w).values
    return all(
        a >= b
        for row_a, row_b in zip(d_xw, d_yw)
        for a, b in zip(row_a, row_b)
    )


# Glyphs for the text rendering of a pair of permutations on the n x n
# grid.  Shading marks cells where the rank difference is positive and
# wins over the dots when both apply.
_EMPTY = "·"      # ·
_BOTTOM_DOT = "●"  # ●
_TOP_DOT = "○"     # ○
_BOTH_DOT = "◉"    # ◉
_SHADED = "▒"      # ▒


def render_picture(x: Perm, w: Perm) -> str:
    """Draw the pair (x, w) on an n x n grid, one text row per position.

    Row p, column q holds a filled dot for x(p) = q, an open dot for
    w(p) = q, a double dot when both agree, and shading wherever the
    rank difference r_w - r_x is positive.  Shading covers dots.

    >>> print(render_picture((1, 2), (1, 2)))
    ◉·
    ·◉
    >>> print(render_picture((1, 2), (2, 1)))
    ●▒
    ○●
    """
    if len(x) != len(w):
        raise ValueError(f"size mismatch: {len(x)} vs {len(w)}")
    n = len(x)
    grid = [[_EMPTY] * n for _ in range(n)]
    for p in range(n):
        grid[p][x[p] - 1] = _BOTTOM_DOT
    for p in range(n):
        q = w[p] - 1
        grid[p][q] = _BOTH_DOT if grid[p][q] == _BOTTOM_DOT else _TOP_DOT
    diff = rank_difference(x, w).values
    for p in range(n):
        for q in range(n):
            if diff[p][q] >= 1:
                grid[p][q] = _SHADED
    return "\n".join("".join(row) for row in grid)


def clear_caches() -> None:
    """Drop memoised rank tables."""
    _RANK_CACHE.clear()
