"""Bruhat order on the symmetric group via rank matrices.

For a permutation w the rank count r_w(p, q) is the number of positions
i <= p with w(i) >= q.  Comparing the rank tables of two permutations
entrywise decides Bruhat order: x <= w exactly when
r_w(p, q) - r_x(p, q) >= 0 for every cell (p, q) (Björner-Brenti,
Combinatorics of Coxeter Groups, Thm 2.1.5).  This needs no chain
search.

The comparison and the interval walk keep a whole table in one Python
int.  Cell (p, q) of an n x n table is field (p - 1) * n + (q - 1), a
run of b = n.bit_length() + 1 bits, so 2^(b-1) > n and the high bit of
a field sits above every count.  Let H hold that high bit in every
field.  Then R_w + H - R_x has field H + r_w(p, q) - r_x(p, q), which
lies in [0, 2^b) whatever the pair, so no borrow crosses a field, and
x <= w exactly when the high bit of every field survives:
(R_w + H - R_x) & H == H.  A difference table with no negative cell is
itself a packed table, and the walk of :func:`_layers` tests and
updates it with a few whole-table operations per cover.  This module
alone knows that layout: :func:`_offset_difference` builds every packed
table.  The recursion of :mod:`klpoly.kl` reads one only through
:func:`_bruhat_leq`, the unchecked form of :func:`bruhat_leq`, and only
on a miss, for a pair that is about to be computed, and finds the inert
positions of a pair itself, without a table.

Covers and intervals are computed combinatorially from the
transposition description of the covering relation.  :func:`_layers`
walks one Bruhat interval a layer at a time, each only when it is
asked for, so a caller that stops pulling stops the walk;
:func:`interval` checks its pair and returns every layer.  A down-set
[e, w] is ``interval(identity(n), w)``, and the coatoms of [u, v] are
the second layer that :func:`_layers` yields, with nothing walked below
it.  The exhaustive inversion batch has a second enumerator,
:func:`klpoly.verify._down_sets`, which builds every ideal [e, w] of
S_n as a bitmask from :func:`_covers_down`, with no walk: one pass
serves the whole batch.
``tests/test_verify.py::test_down_set_ideals_match_the_interval_walks``
pins each ideal to the elements :func:`interval` walks.  That walk goes
down from the top a length at a time and carries each element's packed
difference.  Given a set of right descents, :func:`_layers` walks only
the z that have all of them, the maxima of the right cosets z W_J
inside the interval, which is all the Kazhdan-Lusztig recursion needs;
its correction sum takes the coatoms of a top with one given descent
from :func:`_coatoms_descending_at`, which builds no other cover.  The
maxima of the two-sided cosets W_I z W_J that meet an interval, which
the family and smoothness checks read, are not walked to:
:func:`_double_coset_maxima` builds each from its table of block corner
counts, when it is asked for.  Nothing here
is memoised: packed tables and intervals are rebuilt on every call, so
the module holds no state.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import gt

from .perm import Perm, _checked_pair, _w0_times, format_perm, from_oneline


def rank_count(w: Perm, p: int, q: int) -> int:
    """Number of positions i <= p with w(i) >= q.

    >>> rank_count((6, 3, 4, 2, 5, 1), 3, 4)
    2
    """
    return _rank_count(from_oneline(w), p, q)


def _rank_count(w: Perm, p: int, q: int) -> int:
    """:func:`rank_count` for a w already checked."""
    n = len(w)
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError(f"cell ({p}, {q}) outside 1..{n} square")
    return sum(1 for v in w[:p] if v >= q)


class _Record:
    """Base of the package's small records, which behave as frozen
    dataclasses do.

    A subclass names its fields, in order, in ``__match_args__``, holds
    each in a slot and nothing else, and sets them in its ``__init__``
    with ``object.__setattr__``, since assigning or deleting an
    attribute raises AttributeError; no field is computed later.
    Equality and hashing compare the fields, and
    only between records of one class; the repr is
    ``Name(field=value, ...)``; a copy or an unpickled record is built
    by calling the class with the fields.  A mutable record restores
    ``object.__setattr__`` and ``object.__delattr__`` and sets
    ``__hash__`` to None, as a dataclass that is not frozen has it.
    The records do not use ``dataclasses``: that module imports
    ``inspect``, ``ast`` and ``dis``, which took most of the time of
    ``import klpoly``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple[object, ...]:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, self._fields()


class RankDifferenceTable(_Record):
    """Cellwise difference r_w - r_x for a pair of permutations, each
    cell counted when it is read.

    The pair need not be comparable; the table is what decides that:
    x <= w exactly when ``min_entry()`` is not negative.  It is the
    cell-by-cell reference for :func:`bruhat_leq`.  Raises ValueError
    unless x and w are permutations of the same size.
    """

    __slots__ = __match_args__ = ("x", "w")
    x: Perm
    w: Perm

    def __init__(self, x: Perm, w: Perm) -> None:
        x, w = _checked_pair(x, w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    def entry(self, p: int, q: int) -> int:
        return _rank_count(self.w, p, q) - _rank_count(self.x, p, q)

    def min_entry(self) -> int:
        cells = range(1, len(self.x) + 1)
        return min(self.entry(p, q) for p in cells for q in cells)


def _ones(fields: int, width: int) -> int:
    """The low bit of each of ``fields`` consecutive ``width``-bit fields."""
    return ((1 << (fields * width)) - 1) // ((1 << width) - 1)


def _offset_difference(x: Perm, w: Perm) -> tuple[int, int, int]:
    """R_w - R_x + H of a pair of equal size as one int, with H and the
    field width b = n.bit_length() + 1: the sum over cells of
    (2^(b-1) + r_w(p, q) - r_x(p, q)) * 2^(b k), k = (p - 1) n + q - 1.

    Every field lies in [0, 2^b), so no borrow crosses a field, and
    where no cell is negative the table minus H is the packed
    difference table.
    """
    n = len(w)
    b = n.bit_length() + 1
    row_bits = n * b
    ones_row = _ones(n, b)
    high = _ones(n * n, b) << (b - 1)
    row = 0
    table = high
    shift = 0
    for u, v in zip(x, w):
        if u != v:
            # A value v at position p counts in columns 1..v of rows p..n.
            row += (ones_row >> ((n - v) * b)) - (ones_row >> ((n - u) * b))
        if row:
            table += row << shift
        shift += row_bits
    return table, high, b


def bruhat_leq(x: Perm, w: Perm) -> bool:
    """Decide x <= w in Bruhat order by one whole-table test,
    (R_w + H - R_x) & H == H (see the module docstring).

    Raises ValueError unless x and w are permutations of the same size.

    >>> bruhat_leq((2, 1, 4, 3), (4, 2, 3, 1))
    True
    >>> bruhat_leq((3, 4, 1, 2), (4, 2, 3, 1))
    False
    """
    return _bruhat_leq(*_checked_pair(x, w))


def _bruhat_leq(x: Perm, w: Perm) -> bool:
    """:func:`bruhat_leq` for permutations x and w of the same size,
    which is not checked: the recursion makes this test on each pair it
    is about to compute."""
    table, high, _ = _offset_difference(x, w)
    return table & high == high


def covers_down(w: Perm) -> list[Perm]:
    """All z covered by w, i.e. z < w with length(z) = length(w) - 1.

    Each cover comes from exchanging an inversion (i, j) of w such that
    no intermediate position holds a value between w(j) and w(i).
    Raises ValueError unless w is a permutation.

    >>> sorted(covers_down((3, 2, 1)))
    [(2, 3, 1), (3, 1, 2)]
    """
    return _covers_down(from_oneline(w))


def _covers_down(w: Perm) -> list[Perm]:
    """:func:`covers_down` for a permutation w, which is not checked:
    the exhaustive inversion batch (``verify._down_sets``) takes the
    covers of every permutation of S_n."""
    n = len(w)
    out: list[Perm] = []
    for i in range(n - 1):
        wi = w[i]
        # The largest value below wi seen so far between i and j.
        floor = 0
        for j in range(i + 1, n):
            wj = w[j]
            if floor < wj < wi:
                floor = wj
                out.append(w[:i] + (wj,) + w[i + 1:j] + (wi,) + w[j + 1:])
    return out


def _coatoms_descending_at(w: Perm, i: int) -> list[Perm]:
    """The z covered by w that have a right descent at i, for an ascent
    i of w, a = w(i) < b = w(i + 1): the ``covers_down(w)`` with
    z(i) > z(i + 1), in the same order, in O(n) steps.

    A cover z = w t(p, q) with neither p nor q in {i, i + 1} keeps
    z(i) = a < b = z(i + 1), and t(i, i + 1) lengthens w.  Moving a to
    some q > i + 1 puts a smaller value at i, and moving b to some p < i
    puts a larger one at i + 1.  So z swaps a with a larger w(p), p < i,
    and needs w(p) > b, or swaps b with a smaller w(q), q > i + 1, and
    needs w(q) < a.  Each side is scanned outward from the pair, keeping
    the cover rule's nearest value between, and stops once that value
    breaks the bound, since every later candidate must lie beyond it.
    w must be a permutation, and i an ascent of it.  That is not
    checked: the recursion's correction sum calls this on each miss.

    >>> _coatoms_descending_at((5, 2, 4, 1, 3), 2)
    [(2, 5, 4, 1, 3), (5, 2, 1, 4, 3)]
    """
    a, b = w[i - 1], w[i]
    out: list[Perm] = []
    # The smallest value above a seen so far between p and i.
    ceiling = len(w) + 1
    for p in range(i - 2, -1, -1):
        v = w[p]
        if a < v < ceiling:
            if v < b:
                break
            ceiling = v
            out.append(w[:p] + (a,) + w[p + 1:i - 1] + (v,) + w[i:])
    out.reverse()
    # The largest value below b seen so far between i + 1 and q.
    floor = 0
    for q in range(i + 1, len(w)):
        v = w[q]
        if floor < v < b:
            if v > a:
                break
            floor = v
            out.append(w[:i] + (v,) + w[i + 1:q] + (b,) + w[q + 1:])
    return out


def covers_up(w: Perm) -> list[Perm]:
    """All z covering w, i.e. w < z with length(z) = length(w) + 1.

    Left multiplication by w0 (v -> n + 1 - v on values) reverses Bruhat
    order, so these are the w0 z for z covered by w0 w.

    >>> covers_up((1, 3, 2))
    [(3, 1, 2), (2, 3, 1)]
    """
    return [_w0_times(z) for z in _covers_down(_w0_times(from_oneline(w)))]


def interval(x: Perm, w: Perm) -> tuple[tuple[Perm, ...], ...]:
    """The Bruhat interval [x, w] as its layers, top first, walked by
    :func:`_layers`: layer k holds the z with l(z) = l(w) - k, so the
    first layer is (w,) and the last is (x,).

    Raises ValueError unless x and w are permutations of the same size
    with x <= w.

    >>> interval((1, 2, 3), (3, 2, 1))
    (((3, 2, 1),), ((2, 3, 1), (3, 1, 2)), ((1, 3, 2), (2, 1, 3)), ((1, 2, 3),))
    """
    return tuple(_layers(*_checked_pair(x, w)))


def _layers(
    x: Perm, w: Perm, descents: Sequence[int] = ()
) -> Iterator[tuple[Perm, ...]]:
    """The layers of [x, w], top first: layer k holds the z of the
    interval with l(z) = l(w) - k, and with ``descents``, only those
    that have a right descent at every listed position.  Each layer is
    walked only when it is asked for, from the packed differences of
    the layer above, and only the current layer's are held; a caller
    that stops pulling stops the walk.

    x and w must be permutations of the same size.  That is not
    checked: the recursion walks an interval on every miss.  Raises
    ValueError, on the first ``next``, unless x <= w, every position
    lies in 1..n-1, and x and w both have every listed descent.
    Every element z of the walk carries its rank difference
    d_z = r_z - r_x as one packed int (see the module docstring); its
    cells are nonnegative exactly when x <= z.  An element
    y = z t(i, j) covered by z, with z(i) > z(j), has r_y = r_z - 1 on
    the rectangle of rows i..j-1 and columns (z(j), z(i)], and
    r_y = r_z elsewhere, so x <= y exactly when d_z is at least 1 on
    that rectangle.

    With rect holding a 1 in each field of the rectangle, the test is
    positive & rect == rect, and then d_y = d_z - rect.  positive is
    ((d_z + F) >> (b - 1)) & ones, where F holds 2^(b-1) - 1 and ones
    holds 1 in every field: a field of d_z lies in [0, n], so adding F
    sets the field's high bit exactly when the cell is at least 1, and
    never carries into the next field.  rect is a band of rows meeting
    a band of columns, each the difference of two prefix masks built
    once per call.  No candidate needs a rank table, a length or a
    comparison of its own.  Nothing is lost by walking only covers that
    stay above x: a saturated chain from any member up to w stays
    inside the interval.

    Nor is anything lost by walking only members with the listed
    descents, the maxima of the right cosets z W_J: any two comparable
    maxima are joined by a chain of covers that are all maxima (the
    quotient W^J is graded by length, Björner-Brenti, Thm 2.5.5, and
    z -> z w0(J) carries it onto the maxima).  A cover y = z t(i, j)
    of such a z lowers the value at i and raises the one at j, so a
    descent can break only at i or at j - 1.  Unless j = i + 1 neither
    breaks: no value between z(j) and z(i) sits between the positions,
    so a descent at i has z(i + 1) < z(j), and one at j - 1 has
    z(j - 1) > z(i).  So the walk drops just the adjacent swap at each
    listed position, and an empty list costs nothing.
    """
    n = len(x)
    for p in descents:
        if not 1 <= p < n:
            raise ValueError(f"descent position {p} outside 1..{n - 1}")
    table, high, b = _offset_difference(x, w)
    if table & high != high:
        raise ValueError(
            f"not a valid interval: {format_perm(x)} is not <= {format_perm(w)}"
        )
    for z in (x, w):
        for p in descents:
            if z[p - 1] < z[p]:
                raise ValueError(f"{format_perm(z)} has no right descent at {p}")
    row_bits = n * b
    ones = high >> (b - 1)
    # first[i]: the first j tried for a swap t(i, j); the adjacent swap
    # at a listed position would lose that descent.
    first = list(range(1, n))
    for p in descents:
        first[p - 1] = p + 1
    fill = high - ones
    shift = b - 1
    # rows[k]: every field of rows 1..k; cols[v]: every field of columns
    # 1..v.
    rows = [ones & ((1 << (k * row_bits)) - 1) for k in range(n + 1)]
    ones_row = rows[1]
    every_row = _ones(n, row_bits)
    cols = [(ones_row >> ((n - v) * b)) * every_row for v in range(n + 1)]
    diffs = {w: table - high}
    yield (w,)
    # The bottom is the only member of its length, so it ends the walk.
    while x not in diffs:
        below: dict[Perm, int] = {}
        for z, d in diffs.items():
            positive = ((d + fill) >> shift) & ones
            for i in range(n - 1):
                zi = z[i]
                # Every rectangle of a swap at position i + 1 holds the
                # cell (i + 1, z(i + 1)).
                if not (positive >> ((i * n + zi - 1) * b)) & 1:
                    continue
                # The largest value below zi seen so far between i and j;
                # a skipped adjacent swap leaves z(i + 1) < zi behind.
                start = first[i]
                floor = 0 if start == i + 1 else z[i + 1]
                row_i = rows[i]
                col_i = cols[zi]
                for j in range(start, n):
                    zj = z[j]
                    if floor < zj < zi:
                        floor = zj
                        rect = (rows[j] ^ row_i) & (col_i ^ cols[zj])
                        if positive & rect == rect:
                            # y = z t(i, j).  Reaching y again from a
                            # later z rewrites the same value and keeps
                            # y's first place in the layer.
                            y = list(z)
                            y[i] = zj
                            y[j] = zi
                            below[tuple(y)] = d - rect
        diffs = below
        yield tuple(below)


def _double_coset_maxima(
    x: Perm, w: Perm, right: tuple[int, ...], left: tuple[int, ...]
) -> Iterator[Perm]:
    """The maxima of the double cosets W_I z W_J that meet [x, w], with
    J the right descents ``right`` (positions) and I the left descents
    ``left`` (values) of w, each yielded as soon as its table of counts
    is complete.  None of them is walked to, and none is kept.

    x and w must be permutations of the same size, and ``right`` and
    ``left`` descents of w, in increasing order.  That is not checked:
    the callers pass a top's record.  Raises ValueError, on the first
    ``next``, unless x <= w.

    J cuts the positions into blocks of consecutive positions, joined
    across each p of J, and I cuts the values likewise.  The double
    coset of z is fixed by how many values of each value block a the
    position block j holds, M[j][a], or equally by the corner counts
    C[j][a] = r_z(last position of block j, first value of block a),
    partial sums of M.  Its maximum is the one element with every
    descent of J and of I: going left to right, each value block hands
    out its values largest first, and each position block lists its
    values in decreasing order.  So for that maximum z, with
    p = (last position of block j - 1) + t, 0 <= t <= the size of block
    j, q in value block a, and L = (last value of block a) - q + 1,

        r_z(p, q) = min(R(j - 1) + t, R(j)),
        R(j) = r_z(last position of block j, q)
             = min(C[j][a], C[j][a + 1] + L),

    with R = 0 before the first block and C[j][a + 1] = 0 past the last
    value block.  That is nondecreasing in C.  Since r_u <= r_z
    cellwise decides u <= z (Björner-Brenti, Thm 2.1.5) and the corners
    are cells, two maxima compare exactly when their corner tables do.
    The corners are a double-coset invariant, so x and its raised form,
    the maximum of its coset, share them, and by the lifting property a
    maximum z lies above x exactly when it lies above that raised form.
    So the maxima in [x, w], one for each double coset that meets it,
    are exactly those with C_x <= C <= C_w cellwise, and x <= w exactly
    when C_x <= C_w.

    The last position block and the first value block have corners
    fixed by the block sizes, so the enumeration chooses the other
    cells, row by row and, within a row, from the last value block
    down, keeping every M nonnegative and each row and column within
    its block's size.  Every free cell starts at its least value, which
    is C_x, since M_x >= 0 and x's rows and columns fit their blocks.
    So the first table listed is x's own corners, and the first maximum
    is x raised; the rest come in no order by length.

    >>> list(_double_coset_maxima((1, 2, 3, 4), (3, 4, 1, 2), (2,), (2,)))
    [(1, 3, 2, 4), (1, 4, 3, 2), (3, 2, 1, 4), (3, 4, 1, 2)]
    """
    n = len(w)
    # ends: the last position of each position block; first and lasts:
    # the first and the last value of each value block.
    ends = [p for p in range(1, n + 1) if p not in right]
    first = [v for v in range(1, n + 1) if v - 1 not in left]
    lasts = [v - 1 for v in first[1:]] + [n]
    # Row j of a table holds the corners of the first j position blocks,
    # C[j - 1][a] for each value block a, then a 0 for the empty block
    # past the last; row 0 is all zeros.
    zero = [0] * (len(first) + 1)
    low, high = [zero], [zero]
    seen_x = seen_w = 0
    start = 0
    for end in ends:
        for p in range(start, end):
            seen_x |= 1 << x[p]
            seen_w |= 1 << w[p]
        start = end
        low.append([(seen_x >> v).bit_count() for v in first] + [0])
        high.append([(seen_w >> v).bit_count() for v in first] + [0])
        if any(map(gt, low[-1], high[-1])):
            raise ValueError(
                f"not a valid interval: {format_perm(x)} is not <= {format_perm(w)}"
            )
    # The table being chosen.  Its first and last rows and its first and
    # last columns are fixed by the block sizes, so it starts as x's.
    table = [row[:] for row in low]
    order = range(len(first) - 1, -1, -1)

    def segment(above: list[int], row: list[int]) -> list[int]:
        # The values of the position block between the rows above and
        # row, in decreasing order: from each value block a, the largest
        # values left once the earlier blocks took above[a] - above[a + 1].
        out: list[int] = []
        for a in order:
            top = lasts[a] - above[a] + above[a + 1]
            bottom = lasts[a] - row[a] + row[a + 1]
            if top > bottom:
                out += range(top, bottom, -1)
        return out

    # heads[j]: the first j position blocks of the maximum being built,
    # set whenever row j is chosen in full.  With one value block no
    # cell is free, and every row is fixed from the start.
    heads: list[list[int]] = [[]] * len(ends)
    if len(first) == 1:
        for j in range(1, len(ends)):
            heads[j] = heads[j - 1] + segment(table[j - 1], table[j])
    # The free cells in the order chosen, each with its row, the row
    # above, its bounds from x and w, and the size of its value block.
    cells = [
        (j, table[j - 1], table[j], low[j][a], high[j][a], a,
         lasts[a] - first[a] + 1)
        for j in range(1, len(ends))
        for a in range(len(first) - 1, 0, -1)
    ]
    values = [0] * len(cells)
    caps = [0] * len(cells)
    k = 0
    while True:
        # Set every cell from k on to its least value, as long as each
        # has one.  Within C_x <= C <= C_w, M[j][a] >= 0 sets the floor;
        # column a holds at most its block's size, and the row at most
        # row[0] - above[0] positions.
        while k < len(cells):
            j, above, row, least, most, a, size = cells[k]
            # Plain comparisons, not max and min: with those calls,
            # listing the maxima of [e, w] for all of S_6 took about 15%
            # longer.
            c = row[a + 1] + above[a] - above[a + 1]
            if c < least:
                c = least
            cap = above[a] + row[0] - above[0]
            if cap > most:
                cap = most
            if cap > row[a + 1] + size:
                cap = row[a + 1] + size
            if c > cap:
                break
            row[a] = values[k] = c
            caps[k] = cap
            if a == 1:
                heads[j] = heads[j - 1] + segment(above, row)
            k += 1
        else:
            yield tuple(heads[-1] + segment(table[-2], table[-1]))
        # Back to the last cell that can still grow, and grow it.
        k -= 1
        while k >= 0 and values[k] == caps[k]:
            k -= 1
        if k < 0:
            break
        j, above, row, _, _, a, _ = cells[k]
        row[a] = values[k] = values[k] + 1
        if a == 1:
            heads[j] = heads[j - 1] + segment(above, row)
        k += 1


def format_interval(layers: Sequence[Sequence[Perm]]) -> str:
    """The layers of an interval, top first as :func:`interval` gives
    them, one permutation per line, sorted by (length, lexicographic)."""
    return "\n".join(
        format_perm(z) for layer in reversed(layers) for z in sorted(layer)
    )


def coatom_count(u: Perm, v: Perm) -> int:
    """Number of elements covered by v inside the interval [u, v]: the
    length of ``interval(u, v)[1]``, with nothing walked below that
    layer.

    Raises ValueError unless u and v are permutations of the same size
    with u < v.

    >>> coatom_count((1, 2, 3), (3, 2, 1))
    2
    """
    u, v = _checked_pair(u, v)
    if u == v:
        raise ValueError("coatoms are undefined for a one-point interval")
    layers = _layers(u, v)
    next(layers)
    return len(next(layers))


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
    table = RankDifferenceTable(x, w)
    x, w = table.x, table.w
    n = len(x)
    grid = [[_EMPTY] * n for _ in range(n)]
    for p in range(n):
        grid[p][x[p] - 1] = _BOTTOM_DOT
    for p in range(n):
        q = w[p] - 1
        grid[p][q] = _BOTH_DOT if grid[p][q] == _BOTTOM_DOT else _TOP_DOT
    for p in range(n):
        for q in range(n):
            if table.entry(p + 1, q + 1) >= 1:
                grid[p][q] = _SHADED
    return "\n".join("".join(row) for row in grid)
