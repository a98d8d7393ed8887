"""Kazhdan-Lusztig polynomials for the symmetric group.

The polynomial P(x, w) is computed straight from the defining
recursion.  Fix a position s where the top has a descent, so ws < w.
Then

    P(x, w) = q^c P(x, ws) + q^(1-c) P(xs, ws)
              - sum over z  mu(z, ws) q^((len(w) - len(z)) / 2) P(x, z)

where c is 1 if x has a descent at s and 0 otherwise, and the sum runs
over z in the Bruhat interval [x, ws] with zs < z whose mu-coefficient
is nonzero; terms with z outside [x, ws] vanish, since P(x, z) = 0
unless x <= z.  The mu-coefficient mu(z, y) is the coefficient of
q^((len(y)-len(z)-1)/2) in P(z, y), taken to be zero when that exponent
is not a nonnegative integer, so only z at an odd distance below ws
count.

Most of those z cannot count either (Kazhdan-Lusztig 1979): if t is a
left or right descent of ws that z lacks, mu(z, ws) is nonzero only
when z is ws t or t ws, a coatom of ws.  So the sum takes the coatoms
of ws, each with mu = 1, from the covers of ws, and past them visits
only z with every descent of ws.  By the lifting property each such z
lies above x raised through the descents of ws, so those z are found
in the odd layers of that shorter interval, walked one length at a
time from ws through the z with every right descent of ws only (the
maxima of their right cosets, see :func:`klpoly.bruhat.interval`).

Nor need that walk go deep.  KL polynomials are monotone in the
bottom: P(z, ws) <= P(x, ws) coefficientwise whenever x <= z <= ws
(Irving, "The socle filtration of a Verma module", 1988, for Weyl
groups; Braden-MacPherson, "From moment graphs to intersection
cohomology", Math. Ann. 2001).  A z at distance 2k + 1 below ws has
mu(z, ws) = [q^k] P(z, ws), so it vanishes for every k past
D = deg P(x, ws), one of the two terms the recursion has just looked
up.  The walk therefore stops at distance 2D + 1, and a pair with
P(x, ws) = 1 walks nothing past the coatoms.  Raising x through
descents of ws keeps P(x, ws), so the same D bounds the walk from the
raised x.

Base cases: P(w, w) = 1 and P(x, w) = 0 unless x <= w.  A
:class:`KLCache` shares results across calls.

Any right descent of the top gives the same polynomial, but not the
same work below it: the more descents ws keeps, the more bottoms
raising collapses, the fewer z the walk through the right-coset maxima
of ws visits, and the more of them the left-descent filter removes.  So
the recursion splits at the right descent i of w whose w s_i has the
most right and left descents, the first such i in increasing order.
With a = w(i) > b = w(i+1), that count is the count of w plus
gain(i) - 1, where

    gain(i) = [i >= 2 and b < w(i-1) < a] + [i <= n-2 and b < w(i+2) < a]
              - [a = b + 1],

so each descent is scored in O(1) (see :func:`_split_gain`).  The split
is chosen on a miss only; a top's record keeps just its descents.

Two well-known invariance properties keep the computation tractable.
First, P(x, w) only depends on x through the best representative of
its coset under the descents of w: whenever ws < w and xs > x we have
P(x, w) = P(xs, w), and likewise on the left.  Raising the bottom
through such ascents before memoisation collapses many queries onto
one cache entry and shortens the recursion, so every lookup raises its
bottom.  Second, a pair keeps its polynomial when the positions where
x and w agree with no rank difference are deleted and the rest
flattened (see :func:`flatten_pair`).  The recursion applies this to
every pair it computes, so a frontier sweep, whose pairs differ on a
few positions only, computes a few hundred small pairs instead of tens
of thousands of large ones.

A lookup therefore raises the bottom first, then answers 1 if the
raised bottom is w, then answers from the memo.  On a miss it finds the
inert positions with no rank table (see
:func:`klpoly.bruhat._inert_values`), and a pair that has one is
answered by the lookup of its flattening.  Only a pair with every
position active is compared with w in Bruhat order, and runs the
recursion when it lies below w.  The order is exact on both counts.
By the lifting property (Björner-Brenti, Combinatorics of Coxeter
Groups, Prop. 2.2.7), when s is a descent of w and an ascent of x,
x <= w holds exactly when xs <= w, on either side, so raising never
turns an incomparable pair into a comparable one.  Deleting any point
(p, a) shared by x and w keeps whether x <= w, inert or not: row p of
r_w - r_x equals row p - 1 (row 0 is zero), since x(p) = w(p), and
column a equals column a + 1 (column n + 1 is zero), since the value a
sits at p in both; the other cells keep their differences.  So
deleting the point deletes a row and a column that copy a row and a
column the table keeps, or copy zeros, which the table keeps too, in
its last row: the smallest cell keeps its sign.  Every memo key is
thus a raised, comparable pair with every position active, stored when
it is computed, and nothing else is stored.  Since a lookup of an
incomparable pair answers ZERO, the recursion looks each term up as
the formula writes it, with no comparison of its own.
"""

from __future__ import annotations

from itertools import repeat
from operator import lshift, mul
from collections.abc import Callable, Iterator, Mapping, Sequence

from .bruhat import _inert_values, bruhat_leq, covers_down, interval
from .perm import (
    Perm,
    _checked_pair,
    _w0_times,
    avoids_pattern,
    format_perm,
    from_oneline,
    identity,
    left_descents,
    length,
    right_descents,
)
from .polynomial import ONE, ZERO, IntPolynomial

# A top's record: its right descents and its left descents.  The split
# descent (the first right descent i whose w s_i keeps the most
# descents; any right descent gives the same P) is chosen on each miss
# by _split_descent and not kept.
_Top = tuple[tuple[int, ...], tuple[int, ...]]


class KLCache:
    """Shared state for the polynomial recursion.

    memo maps (bottom, top) pairs to finished polynomials: one entry per
    polynomial the recursion computed, keyed by a raised, comparable pair
    with every position active (see :func:`active_positions`).  A pair
    with an inert position is answered through its flattening and is
    not stored.  tops holds one record per top w, built the first time
    the cache sees w: its right and left descents.  The descent the
    recursion splits on, the first right descent i whose w s_i keeps the
    most descents (any right descent gives the same polynomial), is
    scored from w on each miss and is not kept.

    Every lookup raises the bottom first, answers 1 when the raised
    bottom is the top, then answers from the memo.  On a miss it
    flattens a pair with an inert position and looks the flattening up,
    and it compares the pair in Bruhat order only when every position
    is active, so only for a pair that is about to be computed.  Neither
    raising nor flattening changes whether x <= w (see the module
    docstring).  hits counts lookups answered from the memo and misses
    those that ran the recursion and stored a new entry.  A pair that
    turns out incomparable answers ZERO and counts as neither, a pair
    that flattens counts as the lookup of its flattening, and one whose
    raised bottom is the top answers 1 and counts as neither.  On an
    unbounded cache ``len(memo) == misses``.

    When ``max_entries`` is set it bounds the memo and the top records
    alike: each drops its oldest entry once it would grow past the
    bound, so in the memo it counts computed polynomials.  Correctness
    is unaffected since evicted values are simply recomputed.
    """

    __slots__ = ("memo", "tops", "hits", "misses", "max_entries")

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.memo: dict[tuple[Perm, Perm], IntPolynomial] = {}
        self.tops: dict[Perm, _Top] = {}
        self.hits = 0
        self.misses = 0
        self.max_entries = max_entries

    def store(self, key: tuple[Perm, Perm], value: IntPolynomial) -> None:
        _bounded_put(self.memo, key, value, self.max_entries)

    def _top(self, w: Perm) -> _Top:
        """The record of w, built and kept on first sight."""
        record = self.tops.get(w)
        if record is None:
            record = (right_descents(w), left_descents(w))
            _bounded_put(self.tops, w, record, self.max_entries)
        return record

    def __len__(self) -> int:
        return len(self.memo)


def _bounded_put(table: dict, key, value, bound: int | None) -> None:
    """table[key] = value, first evicting in insertion order (dicts keep
    it) when the table is full."""
    if bound is not None and len(table) >= bound:
        del table[next(iter(table))]
    table[key] = value


def _raise_bottom(x: Perm, right: tuple[int, ...], left: tuple[int, ...]) -> Perm:
    """Climb x through ascents sitting at the top's right descents
    (positions) and left descents (values).

    Each step replaces x by a longer permutation with the same
    polynomial against the top, and by the lifting property it lies
    below the top exactly when x does, so the fixpoint, the maximum of
    x's double coset, is a safe substitute key.
    """
    lst = list(x)
    while True:
        changed = False
        for i in right:
            a, b = lst[i - 1], lst[i]
            if a < b:
                lst[i - 1], lst[i] = b, a
                changed = True
        for i in left:
            p, p2 = lst.index(i), lst.index(i + 1)
            if p < p2:
                lst[p], lst[p2] = i + 1, i
                changed = True
        if not changed:
            return tuple(lst)


def _split_gain(w: Perm, i: int) -> int:
    """|R(w s_i)| + |L(w s_i)| - |R(w)| - |L(w)| + 1 for a right descent
    i of w, with R and L the right and left descents.

    With a = w(i) > b = w(i+1), swapping them loses the descent i and
    changes no other position but i - 1 and i + 1, which become descents
    when their outer neighbour lies between b and a; and the only left
    descent it can change is b, lost when a = b + 1.
    """
    a, b = w[i - 1], w[i]
    return (
        (i >= 2 and b < w[i - 2] < a)
        + (i <= len(w) - 2 and b < w[i + 1] < a)
        - (a == b + 1)
    )


def _split_descent(w: Perm, right: tuple[int, ...]) -> int:
    """The right descent i of w (``right``, in increasing order) that
    the recursion splits on: the first whose w s_i keeps the most
    descents, by :func:`_split_gain`.  max keeps the first of equal
    keys."""
    return max(right, key=lambda i: _split_gain(w, i))


def kl_polynomial(x: Perm, w: Perm, cache: KLCache | None = None) -> IntPolynomial:
    """The Kazhdan-Lusztig polynomial P(x, w).

    >>> str(kl_polynomial((1, 2, 3, 4), (4, 2, 3, 1)))
    '1 + q'
    >>> str(kl_polynomial((3, 4, 1, 2), (1, 2, 3, 4)))
    '0'

    Raises ValueError unless x and w are permutations of the same size.
    """
    x, w = _checked_pair(x, w)
    if cache is None:
        cache = KLCache()
    return _kl(x, w, cache)


def _kl(x: Perm, w: Perm, cache: KLCache) -> IntPolynomial:
    """P(x, w), zero unless x <= w."""
    if x == w:
        return ONE
    right, left = cache._top(w)
    x = _raise_bottom(x, right, left)
    if x == w:
        return ONE
    key = (x, w)
    found = cache.memo.get(key)
    if found is not None:
        cache.hits += 1
        return found
    # A pair with an inert position has the polynomial of its flattening
    # (see flatten_pair), and that lookup counts the hit or miss.
    # Flattening keeps whether x <= w, so only a pair with every position
    # active is compared, and only on its way to the recursion.
    inert = _inert_values(x, w)
    if inert:
        return _kl(_drop_values(x, inert), _drop_values(w, inert), cache)
    if not bruhat_leq(x, w):
        return ZERO
    cache.misses += 1

    i = _split_descent(w, cache._top(w)[0])
    ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]
    xs = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1:]
    # q^c P(x, ws) + q^(1-c) P(xs, ws), with c = 1 when x has the descent
    # i.  _kl answers ZERO for a bottom not below ws.
    c = int(x[i - 1] > x[i])
    p_x = _kl(x, ws, cache)
    acc = p_x.shift(c) + _kl(xs, ws, cache).shift(1 - c)

    if p_x:
        # x <= ws.  Only the coatoms of ws and the z with every descent of
        # ws can have mu(z, ws) != 0 (see the module docstring).  A coatom
        # has mu = 1 and exponent 1; P(x, z) is ZERO unless x <= z.
        for z in covers_down(ws):
            if z[i - 1] > z[i]:
                acc = acc - _kl(x, z, cache).shift(1)
        # Layer 2k + 1 of [x, ws] holds the z with len(w) - len(z) = 2k + 2:
        # the exponent is k + 1 and mu(z, ws) is the coefficient of q^k in
        # P(z, ws).  By monotonicity, P(z, ws) <= P(x, ws) coefficientwise
        # for x <= z <= ws (Irving 1988; Braden-MacPherson 2001), so that
        # coefficient vanishes for k > D = deg P(x, ws): only layers 3, 5,
        # ..., 2D + 1 can count, and none do when D = 0.  From layer 3 on
        # only z with every descent of ws count, and by the lifting
        # property each of them lies above x raised through those
        # descents, so the walk starts there and visits only z with the
        # right descents of ws; its layers keep their index, since both
        # walks start at ws and skip no length.  Raising keeps P(x, ws),
        # so D bounds the raised walk too, and D >= 1 means the raised
        # interval spans at least 2D + 1 >= 3 lengths.
        degree = p_x.degree
        if degree:
            right, left = cache._top(ws)
            bottom = _raise_bottom(x, right, left)
            odd = interval(bottom, ws, right, 2 * degree + 1).layers[3::2]
            for k, layer in enumerate(odd, 1):
                for z in layer:
                    # z must have the descent s and the left descents too.
                    if z[i - 1] > z[i] and all(
                        z.index(j + 1) < z.index(j) for j in left
                    ):
                        m = _kl(z, ws, cache).coefficient(k)
                        if m:
                            acc = acc - _kl(x, z, cache).shift(k + 1) * m

    cache.store(key, acc)
    return acc


def mu(x: Perm, w: Perm, cache: KLCache | None = None) -> int:
    """The mu-coefficient: the coefficient of q^((len(w)-len(x)-1)/2)
    in P(x, w), or zero when that exponent is not a nonnegative integer
    or x is not below w.

    >>> mu((1, 2, 3), (2, 1, 3))
    1

    Raises ValueError unless x and w are permutations of the same size.
    """
    x, w = _checked_pair(x, w)
    if cache is None:
        cache = KLCache()
    gap = length(w) - length(x) - 1
    if gap < 0 or gap % 2:
        return 0
    return _kl(x, w, cache).coefficient(gap // 2)


def inverse_kl(x: Perm, w: Perm, cache: KLCache | None = None) -> IntPolynomial:
    """The inverse Kazhdan-Lusztig polynomial of the pair (x, w).

    With w0 the longest element, this is P(w0 w, w0 x); left
    multiplication by w0 reverses Bruhat order, so the pair flips.

    >>> str(inverse_kl((2, 1, 4, 3), (4, 2, 3, 1)))
    '1 + q'

    Raises ValueError unless x and w are permutations of the same size.
    """
    x, w = _checked_pair(x, w)
    if cache is None:
        cache = KLCache()
    return _kl(_w0_times(w), _w0_times(x), cache)


def kl_column(
    w: Perm,
    cache: KLCache | None = None,
    layers: Sequence[Sequence[Perm]] | None = None,
) -> list[dict[Perm, IntPolynomial]]:
    """The column of w: layer k maps each z <= w of length len(w) - k
    to P(z, w).

    The layers are those of [e, w] unless the caller passes others of
    the same shape, such as ``interval(x, w).layers``.  Raises
    ValueError unless w is a permutation, the first layer is w alone
    and every entry lies below w.

    The layers are filled from the top through coset moves.  A z with
    an ascent at a right descent s of w (z s > z), or at a left descent
    (s z > z), takes the value of its neighbour z s or s z, found in
    the layer above.  The neighbour lies below w, so z < neighbour lies
    below w too.  By the lifting property the neighbour has the same
    polynomial against w, which is exactly what the cache answers for z
    after raising it.  Only the maxima of the double cosets of w's
    descents, and any z whose neighbour is not in the layer above, are
    read from the cache.

    It has three readers: the one-pair check
    :func:`check_inversion_identity`, the exhaustive batch of
    :func:`klpoly.verify.verify_inversion_identity_batch`, and
    :func:`klpoly.families.inverse_kl_from_interval_sum`.

    >>> [{format_perm(z): str(p) for z, p in layer.items()}
    ...  for layer in kl_column((2, 3, 1))]
    [{'2,3,1': '1'}, {'1,3,2': '1', '2,1,3': '1'}, {'1,2,3': '1'}]
    """
    w = from_oneline(w)
    if cache is None:
        cache = KLCache()
    if layers is None:
        layers = interval(identity(len(w)), w).layers
    elif not layers or tuple(layers[0]) != (w,):
        raise ValueError(
            f"the layers of a column of {format_perm(w)} must start at it"
        )
    right, left = cache._top(w)
    column: list[dict[Perm, IntPolynomial]] = []
    above: dict[Perm, IntPolynomial] = {}
    for layer in layers:
        here = {}
        for z in layer:
            p = above.get(_ascent_neighbour(z, right, left))
            if p is None:
                p = _kl(z, w, cache)
                if not p:
                    raise ValueError(
                        f"{format_perm(z)} is not below {format_perm(w)}"
                    )
            here[z] = p
        column.append(here)
        above = here
    return column


def _ascent_neighbour(
    z: Perm, right: tuple[int, ...], left: tuple[int, ...]
) -> Perm | None:
    """z s for the first s of ``right`` (positions) at which z ascends,
    else s z for the first s of ``left`` (values) at which it ascends,
    else None: z is then the maximum of its double coset."""
    for i in right:
        if z[i - 1] < z[i]:
            lst = list(z)
            lst[i - 1], lst[i] = z[i], z[i - 1]
            return tuple(lst)
    for i in left:
        p, p2 = z.index(i), z.index(i + 1)
        if p < p2:
            lst = list(z)
            lst[p], lst[p2] = i + 1, i
            return tuple(lst)
    return None


def _maxima_column(
    bottom: Perm, top: Perm, cache: KLCache
) -> Iterator[tuple[Perm, IntPolynomial]]:
    """(z, P(z, top)) at each z of [bottom, top] that is the maximum of
    its double coset W_I z W_J, with I and J the left and right descents
    of top, in (length, lexicographic) order; requires bottom <= top.

    Every z of [bottom, top] raises through those descents to one of
    these z, with the same P, so they carry the column of top on the
    interval.  The first is the raised bottom, which carries
    P(bottom, top), and the last is top.  Each P is read only when its
    pair is asked for.
    """
    right, left = cache._top(top)
    walk = interval(_raise_bottom(bottom, right, left), top, right)
    for z in walk.sorted_elements():
        if all(z.index(j + 1) < z.index(j) for j in left):
            yield z, _kl(z, top, cache)


class _InversionRows:
    """Rows of the inversion identity, each summed as one packed integer
    product over dual packs that the rows share.

    A row is a column P(., w) in layers from w, and its sum is

        T = sum over z in the column of (-1)^k P(z, w)(2^B) D(z),

    with k the layer of z.  The dual pack D(z) holds, in field f, the
    value P(w0 z, w0 x)(2^B) of the bottom x that f stands for:

        D(z) = sum over f of P(w0 z, w0 x)(2^B) 2^(W f),

    so field f of T is the integer sum of the case (x, w), restricted
    to the z of the column.

    The rows are built from one column and the duals of its z, which
    fix N (the column's terms), a and d (the largest norm and degree
    among the polynomials read), and so the least B and W that
    :func:`check_inversion_identity` proves exact; each D(z) is packed
    there, once.  A later row that is longer, or holds a z or a
    polynomial not read there, raises ValueError or KeyError instead of
    aliasing.  The exhaustive batch builds the rows from the column of
    w0: it has every z and the most terms, and its duals read every
    polynomial.

    The polynomials are read by object: a column read through coset
    moves shares a few objects among all its entries, so each object's
    norm, degree and value is taken once.
    """

    __slots__ = ("terms", "bits", "width", "polys", "values", "packs")

    def __init__(
        self,
        column: Sequence[Mapping[object, IntPolynomial]],
        dual: Callable[[object], Mapping[int, IntPolynomial]],
    ) -> None:
        """Read ``column`` and, for each of its z, ``dual(z)``: the
        polynomials of D(z) by field."""
        duals = {z: dual(z) for layer in column for z in layer}
        # Every polynomial read, by id.  Keeping the object keeps its id
        # from being reused.
        polys = {id(p): p for layer in column for p in layer.values()}
        for fields in duals.values():
            polys.update(zip(map(id, fields.values()), fields.values()))
        self.polys = polys
        self.terms = sum(map(len, column))
        norm = max(sum(map(abs, p.coeffs)) for p in polys.values())
        degree = max(p.degree for p in polys.values())
        bound = (self.terms * norm * norm).bit_length()
        self.bits = bits = bound + 1
        # A zero polynomial has degree -1, and is 0 at any q.
        self.width = width = bound + 2 * bits * max(degree, 0) + 1
        q = 1 << bits
        # id -> the value at 2^bits; z -> D(z).
        values = self.values = {i: p.evaluate(q) for i, p in polys.items()}
        self.packs = {
            z: sum(map(lshift, map(values.__getitem__, map(id, fields.values())),
                       map(mul, fields, repeat(width))))
            for z, fields in duals.items()
        }

    def row(self, column: Sequence[Mapping[object, IntPolynomial]]) -> int:
        """T for ``column``.  Raises ValueError when it has more terms
        than the column the rows were built from, and KeyError when it
        holds a z or a polynomial that was not read there."""
        terms = sum(map(len, column))
        if terms > self.terms:
            raise ValueError(f"a row of {terms} terms; the widths fit {self.terms}")
        values, packs = self.values, self.packs
        total = 0
        for k, layer in enumerate(column):
            part = sum(map(mul, map(values.__getitem__, map(id, layer.values())),
                           map(packs.__getitem__, layer)))
            total = total - part if k % 2 else total + part
        return total

    def failures(
        self,
        column: Sequence[Mapping[object, IntPolynomial]],
        diagonal: int | None,
    ) -> list[int]:
        """The fields of the row whose sum is not delta: 1 in the field
        ``diagonal`` (that of the bottom w, when it has one) and 0 in
        every other field.

        The row passes when T equals the target.  Otherwise the digits
        of T minus the target are the field sums minus delta: they lie
        in [-2^(W-1), 2^(W-1)), where balanced digits are unique.
        """
        total = self.row(column)
        if diagonal is not None:
            total -= 1 << (self.width * diagonal)
        return [f for f, d in enumerate(_balanced_digits(total, self.width)) if d]


def _balanced_digits(value: int, width: int) -> list[int]:
    """The digits of ``value`` in base 2^width, each in
    [-2^(width-1), 2^(width-1)), lowest first; none for 0.

    >>> _balanced_digits(-1 + (3 << 8) - (5 << 16), 8)
    [-1, 3, -5]
    >>> _balanced_digits(-(1 << 7) + (1 << 8), 8)
    [-128, 1]
    """
    digits = []
    half, mask = 1 << (width - 1), (1 << width) - 1
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << width
        digits.append(digit)
        value = (value - digit) >> width
    return digits


def check_inversion_identity(
    x: Perm, w: Perm, cache: KLCache | None = None
) -> bool:
    """Test the defining inversion relation on the interval [x, w]:

        F = sum over x <= z <= w of
                (-1)^(len(z) + len(w)) P(z, w) P(w0 z, w0 x)

    must be 1 when x = w and 0 otherwise.  Raises ValueError unless x
    and w are permutations of the same size with x <= w.

    The sum is taken in the integers, at q = 2^B (Kronecker
    substitution): each factor is evaluated once, and each term is one
    integer product.  This decides the polynomial identity exactly.
    Evaluation at 2^B is a ring homomorphism Z[q] -> Z, so the integer
    sum is F(2^B).  It is injective on polynomials whose coefficients
    all satisfy |c| < 2^(B-1): for two such polynomials F != D, the
    coefficients of F - D satisfy |c| < 2^B, and with g the lowest
    nonzero one, of degree j, (F - D)(2^B) = 2^(jB) (g + 2^B m) for an
    integer m, which is not 0 since 0 < |g| < 2^B.  (Equivalently, the
    coefficients are the digits of F(2^B) in balanced base 2^B.)  Every
    coefficient of F is at most M = sum over z of ||P(z, w)||_1
    ||P(w0 z, w0 x)||_1 in absolute value, since the l1 norm is
    subadditive and submultiplicative.  With N terms and each norm at
    most a in the first factor and b in the second, M <= N a b.  B is
    chosen with 2^(B-1) > N a b, where a and b are taken from the norms
    of the values actually read, so a wrong memo entry with large
    coefficients widens B rather than aliasing.  N a b >= 1, since
    P(w, w) = P(w0 x, w0 x) = 1 are read, so B >= 2 and the target
    delta, with coefficient at most 1, is in the injective range too.
    Hence F(2^B) = delta(2^B) exactly when F = delta.

    This pair is the one-field case of a packed row (see
    :class:`_InversionRows`), which the exhaustive batch uses to decide
    every bottom x under one top w at once.  The rows are built from
    one column and its duals: N is that column's number of terms, and a
    and b are both the largest norm among the polynomials of the column
    and its duals.  A later row has at most N terms and reads no other
    polynomial, or it raises.  That only enlarges N, a and b against
    any one bottom's, so the above holds for each bottom, and B is the
    least with 2^(B-1) > N a^2: B = bitlen(N a^2) + 1, where bitlen(m)
    is the least k with m < 2^k.  Field f of the row holds the
    integer sum f_x = F_x(2^B) of the bottom x that f stands for, and
    the row is T = sum over f of f_x 2^(W f).  Each f_x has at most N
    terms.  A value read satisfies |P(2^B)| <= ||P||_1 2^(B deg P), so
    each term is at most (a 2^(B d))^2 in absolute value, where d is the
    largest degree among the polynomials read.  W is the least with
    2^(W-1) > N a^2 2^(2 B d), W = bitlen(N a^2) + 2 B d + 1, so
    |f_x| < 2^(W-1); with N a^2 = 0 every f_x is 0.  So f_x - delta(x, w)
    lies in [-2^(W-1), 2^(W-1)).  Those differences are the digits of
    T - 2^(W f_w) in balanced base 2^W, and such digits are unique, so
    T = 2^(W f_w) exactly when every f_x is delta(x, w), that is, by
    the above, when the identity holds for every bottom at once.  Only
    a failing row is read field by field.
    """
    x, w = _checked_pair(x, w)
    if cache is None:
        cache = KLCache()
    column = kl_column(w, cache, interval(x, w).layers)
    w0x = _w0_times(x)
    rows = _InversionRows(column, lambda z: {0: _kl(_w0_times(z), w0x, cache)})
    failed = rows.failures(column, 0 if x == w else None)
    return not failed


def _drop_values(v: Perm, inert: int) -> Perm:
    """v without the values whose bits are set in ``inert``, each kept
    value lowered by the number of dropped values below it.

    >>> _drop_values((2, 1, 4, 3), 0b11000)
    (2, 1)
    """
    return tuple([a - (inert & ((1 << a) - 1)).bit_count()
                  for a in v if not inert >> a & 1])


def active_positions(x: Perm, w: Perm) -> tuple[int, ...]:
    """Positions where the pair genuinely differs: those p with
    x(p) != w(p), together with those where the rank difference at the
    cell (p, x(p)) is nonzero.

    The pair need not be comparable.

    >>> active_positions((1, 2, 3, 4), (1, 3, 2, 4))
    (2, 3)
    """
    inert = _inert_values(*_checked_pair(x, w))
    return tuple([p for p, a in enumerate(x, 1) if not inert >> a & 1])


def flatten_pair(x: Perm, w: Perm) -> tuple[Perm, Perm]:
    """Restrict both permutations to their active positions and flatten.

    An inert position p, where x(p) = w(p) = a and the rank difference
    at (p, a) is zero, can be deleted without changing the polynomial:
    for x <= w this is an interval pattern embedding, so the two
    intervals are isomorphic and P is equal (Woo-Yong, "Governing
    singularities of Schubert varieties", J. Algebra 2008).  It also
    keeps the length gap l(w) - l(x).  With r(p, q) = #{i <= p :
    v(i) >= q}, the position p of v with value a = v(p) has r(p, a) - 1
    larger values to its left, and so a - p + r(p, a) - 1 smaller
    values to its right: it carries 2 r(p, a) + a - p - 2 inversions.
    A shared point with zero rank difference thus carries as many
    inversions in x as in w, and deleting it takes that many from both
    lengths.  Deleting it also leaves every other cell's difference
    unchanged, since the point counts in the same cells of both rank
    tables; so x <= w is kept, and the other inert positions stay inert
    and can be deleted one at a time.

    When x = w there are no active positions and the pair collapses to
    two copies of the identity in S_1.

    >>> flatten_pair((1, 3, 2, 4), (3, 4, 1, 2))
    ((1, 3, 2, 4), (3, 4, 1, 2))
    >>> flatten_pair((2, 1, 3), (2, 1, 3))
    ((1,), (1,))
    """
    x, w = _checked_pair(x, w)
    if x == w:
        return identity(1), identity(1)
    inert = _inert_values(x, w)
    return _drop_values(x, inert), _drop_values(w, inert)


def is_smooth_top(w: Perm) -> bool:
    """True when every polynomial P(z, w) with z <= w is exactly 1.

    By the pattern criterion for smoothness of Schubert varieties this
    happens precisely when w avoids both 3412 and 4231.

    >>> is_smooth_top((3, 4, 1, 2))
    False
    >>> is_smooth_top((4, 3, 2, 1))
    True
    """
    w = from_oneline(w)
    return avoids_pattern(w, (3, 4, 1, 2)) and avoids_pattern(w, (4, 2, 3, 1))

