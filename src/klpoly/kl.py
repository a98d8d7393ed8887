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
of ws that have the descent s, each with mu = 1, in one scan
(:func:`klpoly.bruhat._coatoms_descending_at`), and past them visits
only z with every descent of ws and the descent s.

Those z lie above x raised through all of these descents, s included.
Such a z is the maximum of its double coset W_I z W_J, with I the left
descents of ws and J its right descents and s, and the maximum of a
parabolic double coset is monotone in Bruhat order: the maps to the
maximum of a left or of a right coset are (Björner-Brenti,
Combinatorics of Coxeter Groups, Prop. 2.5.1 and Section 2.5), and
alternating them reaches the double coset's maximum.  So x <= z gives
max(W_I x W_J) <= max(W_I z W_J) = z, and the z are found in the
odd layers of the interval above that raised x, walked one length at a
time from ws through the z with every right descent of ws only (the
maxima of their right cosets, see :func:`klpoly.bruhat._layers`), and
there are none when that raised x is not below ws.  The raised x only
starts the walk; it is never a memo key, since s is an ascent of ws, and
raising through it can change P(x, ws).

Nor need that walk go deep.  KL polynomials are monotone in the
bottom: P(z, ws) <= P(x, ws) coefficientwise whenever x <= z <= ws
(Irving, "The socle filtration of a Verma module", 1988, for Weyl
groups; Braden-MacPherson, "From moment graphs to intersection
cohomology", Math. Ann. 2001).  A z at distance 2k + 1 below ws has
mu(z, ws) = [q^k] P(z, ws), so it vanishes for every k past
D = deg P(x, ws), one of the two terms the recursion has just looked
up.  The sum therefore stops pulling the walk's layers at distance
2D + 1, counted from ws, so none deeper is walked, and a pair with
P(x, ws) = 1 walks nothing past the coatoms; nor does one whose raised
x lies less than 3 lengths below ws.

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

Three well-known invariance properties keep the computation tractable.
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
of thousands of large ones.  Third, conjugation by w0, v -> w0 v w0,
which reverses both positions and values, is an automorphism of the
Coxeter system, sending s_i to s_(n-i); so P(x, w) = P(w0 x w0,
w0 w w0) (Kazhdan-Lusztig 1979; Björner-Brenti, Combinatorics of
Coxeter Groups, ch. 5).  The family sweeps compute such mirror pairs,
at (k, m) and (m, k) and below them, so a pair about to be computed is
first answered from the memo entry of its image, when there is one.
That hit is exact: the image of a memo key (below) is a memo key.  The
right descent i of w becomes n - i of the image and the left descent a
becomes n - a, so a raised bottom stays raised.  Rotating both
permutation matrices by 180 degrees keeps the rank difference at a
shared point (p, a): in x and in w alike, the rank at its image point
is a - p plus the rank at (p, a), so an active position stays active.
And Bruhat order is kept.  The hit is not stored, so the memo keeps one
key per computed polynomial.  The image's entry is read whether or not
its top still has a record, so on a bounded cache an evicted record
hides no image hit.

A lookup therefore raises the bottom first, then answers 1 if the
raised bottom is w, then answers from the memo.  On a miss it finds the
inert positions with no rank table (see :func:`_inert_values`), and a
pair that has one is answered by the lookup of its flattening.  A pair
with every position active is answered from the memo entry of its
w0-image when there is one.  Only a pair with no inert position and no
image entry is compared with w in Bruhat order, and runs the recursion
when it lies below w.  The order is exact on every count.
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

The standard identity, the sum over x <= z <= w of
(-1)^(len(z) + len(w)) P(z, w) P(w0 z, w0 x), is summed in one place,
:func:`_identity_sum`, in Z[q] over one column.  The one-pair check
:func:`check_inversion_identity` compares it with 1 or 0, and
:func:`klpoly.families.inverse_kl_from_interval_sum` reads the inverse
polynomial off it.  The exhaustive batch over S_n packs the same sums
into integers; that packing lives in :mod:`klpoly.verify`, its only
reader.  One rule, :func:`_ascent_neighbour`, decides whether z ascends
at a descent of the top, for the column moves and for the maxima test
of the correction walk.  Two loops apply the same move rule by
themselves: :func:`_raise_bottom`, and the exhaustive batch's fill,
:func:`klpoly.verify._fill_columns`, which reads it off descent masks
by index.
The checks that read a top's polynomials on the double-coset maxima of
an interval, through :func:`_maxima_column`, walk nothing: the maxima
are listed lazily, raised bottom first, from their block corner counts
(:func:`klpoly.bruhat._double_coset_maxima`).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .bruhat import (
    _coatoms_descending_at,
    _double_coset_maxima,
    _bruhat_leq,
    _layers,
)
from .perm import (
    Perm,
    _checked_pair,
    _w0_conjugate,
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
    is active, so only for a pair that is about to be computed.  Just
    before that comparison it reads the memo entry of the pair's
    w0-image (w0 x w0, w0 w w0), which has the same polynomial, whether
    or not the image's top has a record in tops.  Neither raising nor
    flattening changes whether x <= w (see the module docstring).  hits
    counts lookups answered from the memo, at the pair's own key or at
    its image's, and misses those that ran the recursion and stored a
    new entry.  An image hit stores nothing.  A pair that
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

    The climb swaps in place in one list, and keeps its own loop rather
    than applying :func:`_ascent_neighbour` until that returns None,
    which builds a new tuple per step and restarts its search: replayed
    on the 13,395 raises of 36 rounds of the ``query-s7`` benchmark
    workload, that form took 1.16x as long (median of 41 replays, faster
    in 3; 2 vCPUs, Python 3.11.7).
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
    # The w0-conjugate pair has the same polynomial, and is a memo key
    # exactly when this pair is one (see the module docstring).
    found = cache.memo.get((_w0_conjugate(x), _w0_conjugate(w)))
    if found is not None:
        cache.hits += 1
        return found
    if not _bruhat_leq(x, w):
        return ZERO
    cache.misses += 1

    i = _split_descent(w, right)
    ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]
    xs = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1:]
    # q^c P(x, ws) + q^(1-c) P(xs, ws), with c = 1 when x has the descent
    # i.  _kl answers ZERO for a bottom not below ws.
    c = int(x[i - 1] > x[i])
    p_x = _kl(x, ws, cache)
    acc = p_x.shift(c) + _kl(xs, ws, cache).shift(1 - c)

    if p_x:
        # x <= ws.  Only the coatoms of ws and the z with every descent of
        # ws can have mu(z, ws) != 0 (see the module docstring), and the
        # sum reads only z with the descent i.  A coatom has mu = 1 and
        # exponent 1; P(x, z) is ZERO unless x <= z.
        for z in _coatoms_descending_at(ws, i):
            acc = acc - _kl(x, z, cache).shift(1)
        # Layer 2k + 1 of [x, ws] holds the z with len(w) - len(z) = 2k + 2:
        # the exponent is k + 1 and mu(z, ws) is the coefficient of q^k in
        # P(z, ws).  By monotonicity, P(z, ws) <= P(x, ws) coefficientwise
        # for x <= z <= ws (Irving 1988; Braden-MacPherson 2001), so that
        # coefficient vanishes for k > D = deg P(x, ws): only layers 3, 5,
        # ..., 2D + 1 can count, and none do when D = 0.  From layer 3 on
        # only z with every descent of ws and the descent i count.  Such a
        # z is the maximum of its double coset under those descents, and
        # double-coset maxima are monotone (Björner-Brenti, Prop. 2.5.1),
        # so x <= z puts z above x raised through them.  The walk starts
        # there, visits only z with the right descents of ws, and counts
        # its layers from ws, as [x, ws] does.  A bottom not below ws, or
        # less than 3 lengths below it, leaves no z to read.
        degree = p_x.degree
        if degree:
            right, left = cache._top(ws)
            bottom = _raise_bottom(x, right + (i,), left)
            if length(ws) - length(bottom) >= 3 and _bruhat_leq(bottom, ws):
                # islice pulls no layer past 2D + 1, so none is walked.
                odd = islice(_layers(bottom, ws, right), 3, 2 * degree + 2, 2)
                for k, layer in enumerate(odd, 1):
                    for z in layer:
                        # z must have the descent i and be the maximum of its
                        # double coset under the descents of ws; the walk
                        # keeps the right ones, so only the left ones are
                        # tested.
                        if z[i - 1] > z[i] and _ascent_neighbour(z, (), left) is None:
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
    x: Perm, w: Perm, cache: KLCache | None = None
) -> list[dict[Perm, IntPolynomial]]:
    """The column of w on [x, w]: layer k maps each z of the interval
    with len(z) = len(w) - k to P(z, w).

    Raises ValueError unless x and w are permutations of the same size
    with x <= w.

    The layers are filled from the top through coset moves, each as
    :func:`klpoly.bruhat._layers` walks it; no interval is kept.  A z
    with an ascent at a right descent s of w (z s > z), or at a left
    descent (s z > z), takes the value of its neighbour z s or s z.  By
    the lifting property the neighbour lies below w, and so
    x <= z < neighbour <= w: it is in the layer above.  It also has the
    same polynomial against w, which is exactly what the cache answers
    for z after raising it.  Only the maxima of the double cosets of
    w's descents are read from the cache.

    Its two readers sum it with :func:`_identity_sum`, the one signed
    sum of the standard identity in Z[q]: the one-pair check
    :func:`check_inversion_identity`, which the sampled inversion batch
    runs, over the whole column, and
    :func:`klpoly.families.inverse_kl_from_interval_sum` over the layers
    below the top.  The exhaustive batch applies the same moves by
    index, in :func:`klpoly.verify._fill_columns`.

    >>> [{format_perm(z): str(p) for z, p in layer.items()}
    ...  for layer in kl_column((1, 2, 3), (2, 3, 1))]
    [{'2,3,1': '1'}, {'1,3,2': '1', '2,1,3': '1'}, {'1,2,3': '1'}]
    """
    x, w = _checked_pair(x, w)
    if cache is None:
        cache = KLCache()
    right, left = cache._top(w)
    column: list[dict[Perm, IntPolynomial]] = []
    above: dict[Perm, IntPolynomial] = {}
    for layer in _layers(x, w):
        here = {}
        for z in layer:
            neighbour = _ascent_neighbour(z, right, left)
            here[z] = _kl(z, w, cache) if neighbour is None else above[neighbour]
        column.append(here)
        above = here
    return column


def _ascent_neighbour(
    z: Perm, right: tuple[int, ...], left: tuple[int, ...]
) -> Perm | None:
    """z s for the first s of ``right`` (positions) at which z ascends,
    else s z for the first s of ``left`` (values) at which it ascends,
    else None: z is then the maximum of its double coset.

    This is the one statement of the rule for the column moves of
    :func:`kl_column` and for the maxima test of the correction walk in
    the recursion.  :func:`_maxima_column` needs no test: it lists only
    maxima."""
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
    of top.  Raises ValueError, when the first pair is asked for, unless
    bottom <= top.

    Every z of [bottom, top] raises through those descents to one of
    these z, with the same P, so they carry the column of top on the
    interval.  The first is the raised bottom, which carries
    P(bottom, top); the rest come in no particular order.  Each maximum
    is listed, from its block corner counts by
    :func:`klpoly.bruhat._double_coset_maxima`, and its P read, only
    when its pair is asked for, with no walk and no raise.
    """
    right, left = cache._top(top)
    for z in _double_coset_maxima(bottom, top, right, left):
        yield z, _kl(z, top, cache)


def check_inversion_identity(
    x: Perm, w: Perm, cache: KLCache | None = None
) -> bool:
    """Test the defining inversion relation on the interval [x, w]:

        F = sum over x <= z <= w of
                (-1)^(len(z) + len(w)) P(z, w) P(w0 z, w0 x)

    must be 1 when x = w and 0 otherwise.  Raises ValueError unless x
    and w are permutations of the same size with x <= w.

    F is :func:`_identity_sum` of ``kl_column(x, w, cache)``, a plain sum
    in Z[q].  It is the reference for the packed integer products of
    :func:`klpoly.verify.verify_inversion_identity_batch`.
    """
    if cache is None:
        cache = KLCache()
    column = kl_column(x, w, cache)
    return _identity_sum(column, cache) == (ONE if len(column) == 1 else ZERO)


def _identity_sum(
    column: list[dict[Perm, IntPolynomial]], cache: KLCache
) -> IntPolynomial:
    """The signed sum of the standard identity over the layers of a
    column of w, as :func:`kl_column` gives them:

        sum over layers k, and z in layer k, of
            (-1)^k P(z, w) P(w0 z, w0 x)

    where x is the one element of the last layer, P(z, w) is read from
    the layer and each second factor is looked up in ``cache``.  On the
    whole column of [x, w] this is the left side of the identity, 1 when
    x = w and 0 otherwise.  For x < w, the column without its top layer
    has every layer's sign flipped, so its sum is minus the terms below
    the top: the top's term, the inverse polynomial P(w0 w, w0 x).
    """
    (x,) = column[-1]
    w0x = _w0_times(x)
    # The terms of even and of odd layers, summed apart.
    sums = [ZERO, ZERO]
    for k, layer in enumerate(column):
        for z, p in layer.items():
            sums[k % 2] += p * _kl(_w0_times(z), w0x, cache)
    return sums[0] - sums[1]


def _inert_values(x: Perm, w: Perm) -> int:
    """The inert values of a pair of equal size, as a bitmask: bit a is
    set when some position p has x(p) = w(p) = a and r_w(p, a) =
    r_x(p, a) (see :func:`flatten_pair`); 0 when every position is
    active.  The pair need not be comparable.

    One pass keeps the sets of values seen so far in x and in w as
    bitmasks, bit v for the value v.  The rank difference at (p, a) is
    then the number of values >= a seen in w less the number seen in x.
    No packed table is built.

    >>> bin(_inert_values((1, 2, 4, 3), (2, 1, 4, 3)))
    '0b11000'
    """
    inert = seen_x = seen_w = 0
    for a, b in zip(x, w):
        seen_x |= 1 << a
        seen_w |= 1 << b
        if a == b and (seen_w >> a).bit_count() == (seen_x >> a).bit_count():
            inert |= 1 << a
    return inert


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

