"""An independent second algorithm for P(x, w), via R-polynomials.

Everything here is written from the definitions (Björner–Brenti,
*Combinatorics of Coxeter Groups*, ch. 5) and shares no code with the
package apart from the function under test: its own permutations,
lengths, Bruhat order (by rank tables), polynomial arithmetic and
R-polynomials.

R(x, w) is 0 unless x <= w and 1 when x = w.  Otherwise, for a position
s with ws < w,

    R(x, w) = R(xs, ws)                          if xs < x,
    R(x, w) = (q - 1) R(x, ws) + q R(xs, ws)     otherwise.

P(x, w) is then the unique solution with P(w, w) = 1 and
deg P(x, w) <= (l(w) - l(x) - 1) / 2 of

    q^(l(w) - l(x)) P(x, w)(1/q) - P(x, w) = sum over x < y <= w of R(x, y) P(y, w).

The two terms on the left occupy disjoint degrees, so the part of the
right-hand side of degree at most (l(w) - l(x) - 1) / 2 is -P(x, w) and
the rest must be its mirror image; the oracle checks the mirror too.

The oracle's polynomials and Bruhat order also check the three facts
that let the recursion's correction sum skip most of [x, ws]: mu(y, w)
vanishes off the coatoms of w unless y has every descent of w
(Kazhdan-Lusztig 1979); every such y above x lies above x raised
through the descents of w (the lifting property); and P(x, w) >= P(y, w)
coefficientwise for x <= y <= w (monotonicity), which bounds how deep
the sum walks.  And they check the fact that lets the recursion work on
small pairs: flattening a pair to its active positions keeps its
polynomial and its length gap.
"""

import itertools
import operator
import random
from functools import lru_cache

import pytest

from klpoly.kl import KLCache, _raise_bottom, flatten_pair, kl_column, kl_polynomial

# Polynomials are tuples of int coefficients from degree 0 upward with
# trailing zeros trimmed, so equal polynomials compare equal.


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _add(a, b):
    size = max(len(a), len(b))
    return _trim(
        (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
        for k in range(size)
    )


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


_ONE = (1,)
_Q = (0, 1)
_Q_MINUS_ONE = (-1, 1)


def _perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


@lru_cache(maxsize=None)
def _length(w):
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


@lru_cache(maxsize=None)
def _ranks(w):
    """Flat table of #{i <= p : w(i) >= q} over all cells (p, q)."""
    n = len(w)
    return tuple(
        sum(1 for i in range(p) if w[i] >= q)
        for p in range(1, n + 1)
        for q in range(1, n + 1)
    )


@lru_cache(maxsize=None)
def _leq(x, w):
    return all(map(operator.le, _ranks(x), _ranks(w)))


def _swap(w, i):
    """w times the adjacent transposition of positions i and i + 1."""
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def _swap_values(w, i):
    """The adjacent transposition of the values i and i + 1 times w."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)


def _descents(w):
    """(right, left): the i with w(i) > w(i + 1), and the i with i + 1
    standing left of i."""
    right = tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])
    left = tuple(i for i in range(1, len(w)) if w.index(i + 1) < w.index(i))
    return right, left


@lru_cache(maxsize=None)
def r_poly(x, w):
    if x == w:
        return _ONE
    if not _leq(x, w):
        return ()
    i = next(i for i in range(1, len(w)) if w[i - 1] > w[i])
    ws, xs = _swap(w, i), _swap(x, i)
    if x[i - 1] > x[i]:
        return r_poly(xs, ws)
    return _add(_mul(_Q_MINUS_ONE, r_poly(x, ws)), _mul(_Q, r_poly(xs, ws)))


def oracle_column(w, members):
    """P(u, w) for every u in ``members``, which must be a set of
    permutations below w that contains, with each u, all of [u, w]."""
    lengths = {u: _length(u) for u in members}
    len_w = lengths[w]
    column = {}
    for u in sorted(members, key=lambda z: -lengths[z]):
        if u == w:
            column[u] = _ONE
            continue
        gap = len_w - lengths[u]
        # deg R(u, y) = l(y) - l(u), so no term reaches past q^gap.
        rhs = [0] * (gap + 1)
        for y, p_y in column.items():
            if lengths[y] > lengths[u]:
                for i, a in enumerate(r_poly(u, y)):
                    for j, b in enumerate(p_y):
                        rhs[i + j] += a * b
        rhs = _trim(rhs)
        top = (gap - 1) // 2
        p_u = _trim(-c for c in rhs[: top + 1])
        mirror = [0] * (gap + 1)
        for k, c in enumerate(p_u):
            mirror[gap - k] = c
        assert _add(_trim(mirror), tuple(-c for c in p_u)) == rhs, (
            f"the R-polynomial identity has no solution at {u} below {w}"
        )
        column[u] = p_u
    return column


@pytest.fixture(autouse=True)
def drop_memos():
    """The S_6 sweep memoises a few hundred thousand pairs; free them."""
    yield
    for memoised in (_length, _ranks, _leq, r_poly):
        memoised.cache_clear()


def test_oracle_small_values():
    assert r_poly((1, 2), (2, 1)) == (-1, 1)
    assert r_poly((1, 2, 3), (3, 2, 1)) == (-1, 2, -2, 1)
    assert r_poly((2, 1), (1, 2)) == ()
    for w in ((3, 4, 1, 2), (4, 2, 3, 1)):
        column = oracle_column(w, {z for z in _perms(4) if _leq(z, w)})
        assert column[(1, 2, 3, 4)] == (1, 1)
    # Moving the bottom through the descent at position 2 of the top.
    top = (3, 4, 1, 2)
    column = oracle_column(top, {z for z in _perms(4) if _leq(z, top)})
    assert column[(1, 2, 3, 4)] == column[(1, 3, 2, 4)] == (1, 1)
    assert set(oracle_column((4, 3, 2, 1), set(_perms(4))).values()) == {_ONE}


def test_oracle_agrees_on_all_of_s5():
    # Every ordered pair, incomparable ones included.  The oracle's column
    # is also constant on each x's moves x s_i and s_i x through the
    # top's right and left descents (Kazhdan-Lusztig 1979), which is the
    # invariance the recursion's lookups raise their bottoms by.
    perms = _perms(5)
    moves = 0
    for w in perms:
        below = {z for z in perms if _leq(z, w)}
        column = oracle_column(w, below)
        for x in perms:
            assert kl_polynomial(x, w).coeffs == column.get(x, ()), (x, w)
        right, left = _descents(w)
        for x, p in column.items():
            moved = [_swap(x, i) for i in right]
            moved += [_swap_values(x, i) for i in left]
            for y in moved:
                assert column[y] == p, (x, y, w)
            moves += len(moved)
    assert moves == 17840


def _record_correction_sums(monkeypatch):
    """Hook the recursion's correction sum.  Returns ``sums``, whose one
    entry counts the sums made, and ``walks``, which gets one
    (x, bottom, ws, depth) per walk of a sum."""
    import klpoly.kl

    sums, last_x, walks = [0], [None], []
    coatoms = klpoly.kl._coatoms_descending_at
    lift, walk = klpoly.kl._raise_bottom, klpoly.kl.interval

    def counted_coatoms(ws, i):
        sums[0] += 1
        return coatoms(ws, i)

    def recorded_lift(x, right, left):
        last_x[0] = x
        return lift(x, right, left)

    def recorded_walk(bottom, ws, descents=(), depth=None):
        # The sum raises its x just before it walks, so the last x raised
        # is the x of the sum.
        walks.append((last_x[0], bottom, ws, depth))
        return walk(bottom, ws, descents, depth)

    monkeypatch.setattr(klpoly.kl, "_coatoms_descending_at", counted_coatoms)
    monkeypatch.setattr(klpoly.kl, "_raise_bottom", recorded_lift)
    monkeypatch.setattr(klpoly.kl, "interval", recorded_walk)
    return sums, walks


def test_correction_sum_walks_only_intervals_with_a_layer_3(monkeypatch):
    # The sum reads layers 3, 5, ..., 2 deg P(x, ws) + 1 of [x, ws]
    # (monotonicity), walked from x raised through the descents of ws and
    # the split descent.  A pair with P(x, ws) = 1 walks nothing, nor one
    # whose raised bottom is not below ws or lies less than 3 lengths
    # below it, and skipping those walks changes no value.
    sums, walks = _record_correction_sums(monkeypatch)
    for x, w, members in _sampled_s6_pairs():
        column = oracle_column(w, members)
        assert kl_polynomial(x, w, KLCache()).coeffs == column[x], (x, w)
    # Most sums skip their walk: 3 of the 64 walk.
    assert (sums[0], len(walks)) == (64, 3)
    for x, bottom, ws, depth in walks:
        assert _length(ws) - _length(bottom) >= 3, (x, bottom, ws)
        members = {z for z in _perms(len(ws)) if _leq(x, z) and _leq(z, ws)}
        p = oracle_column(ws, members)[x]
        assert depth == 2 * (len(p) - 1) + 1 >= 3, (x, ws, depth)


def test_correction_walks_of_the_s6_inversion_batch_match_the_oracle(monkeypatch):
    # The exhaustive S_6 batch on a fresh cache walks 9 intervals.  They
    # are all the distinct (bottom, ws) walks that the 98,407 comparable
    # pairs of S_6 make, each on a fresh cache (670 walks in all).  Each
    # walk's depth is 2 deg P(x, ws) + 1, with P(x, ws) read off one
    # oracle column of [e, ws] per ws.
    from klpoly.verify import verify_inversion_identity_batch

    sums, walks = _record_correction_sums(monkeypatch)
    assert verify_inversion_identity_batch(6, KLCache()).passed
    assert (sums[0], len(walks)) == (161, 9)
    assert len({(bottom, ws) for _, bottom, ws, _ in walks}) == 9
    perms = _perms(6)
    columns = {}
    for x, bottom, ws, depth in walks:
        assert _length(ws) - _length(bottom) >= 3, (x, bottom, ws)
        if ws not in columns:
            columns[ws] = oracle_column(ws, {z for z in perms if _leq(z, ws)})
        p = columns[ws][x]
        assert depth == 2 * (len(p) - 1) + 1 >= 3, (x, ws, depth)


def test_kl_column_matches_the_oracle_in_s5():
    # The exhaustive inversion batch reads every polynomial it sums from
    # the columns on [e, w]; one cache per configuration is shared by all
    # tops.  The one-pair checks read columns on [x, w], so every
    # comparable pair of S_4 checks too that each coset move finds its
    # neighbour in the layer above when the bottom is not e.
    pairs = [(tuple(range(1, 6)), w) for w in _perms(5)]
    pairs += [(x, w) for w in _perms(4) for x in _perms(4) if _leq(x, w)]
    for cache in (None, KLCache(max_entries=1)):
        for x, w in pairs:
            members = {z for z in _perms(len(w)) if _leq(x, z) and _leq(z, w)}
            expected = oracle_column(w, members)
            column = kl_column(x, w, cache)
            assert len(column) == _length(w) - _length(x) + 1, (x, w)
            for k, layer in enumerate(column):
                assert set(layer) == {
                    z for z in members if _length(z) == _length(w) - k
                }, (x, w, k)
                for z, p in layer.items():
                    assert p.coeffs == expected[z], (z, x, w)


def _sampled_s6_pairs():
    """200 seeded comparable pairs (x, w) of S_6, each with [x, w]."""
    perms = _perms(6)
    rng = random.Random(6)
    checked = 0
    while checked < 200:
        x, w = rng.choice(perms), rng.choice(perms)
        if not _leq(x, w):
            continue
        span = range(_length(x), _length(w) + 1)
        members = {z for z in perms if _length(z) in span and _leq(x, z) and _leq(z, w)}
        yield x, w, members
        checked += 1


def test_oracle_agrees_on_sampled_pairs_in_s6():
    # Each pair with a fresh cache, and again with one cache shared by all
    # the pairs, so that later lookups read what earlier ones stored.
    shared = KLCache()
    for x, w, members in _sampled_s6_pairs():
        column = oracle_column(w, members)
        assert kl_polynomial(x, w).coeffs == column[x], (x, w)
        assert kl_polynomial(x, w, shared).coeffs == column[x], (x, w)


def _dominates(a, b):
    """a >= b coefficientwise."""
    difference = _add(a, tuple(-c for c in b))
    return all(c >= 0 for c in difference)


def test_monotonicity_holds_in_the_oracle_on_all_of_s5():
    # P(x, w) >= P(y, w) coefficientwise for x <= y <= w (Irving 1988;
    # Braden-MacPherson 2001): the bound the correction sum's walk
    # depth rests on.
    perms = _perms(5)
    triples = strict = 0
    for w in perms:
        column = oracle_column(w, {z for z in perms if _leq(z, w)})
        for x, p_x in column.items():
            for y, p_y in column.items():
                if _leq(x, y):
                    assert _dominates(p_x, p_y), (x, y, w)
                    triples += 1
                    strict += p_x != p_y
    assert strict > 0
    assert triples > 3781


def test_monotonicity_holds_in_the_recursion_on_sampled_pairs_in_s6():
    cache = KLCache()
    strict = 0
    for x, w, members in _sampled_s6_pairs():
        p_x = kl_polynomial(x, w, cache).coeffs
        for y in members:
            p_y = kl_polynomial(y, w, cache).coeffs
            assert _dominates(p_x, p_y), (x, y, w)
            strict += p_x != p_y
    assert strict > 0


def test_mu_vanishes_off_the_descents_in_s5():
    # If s is a descent of w that y lacks, mu(y, w) != 0 only for y = ws
    # (s on the right) or y = sw (s on the left).
    perms = _perms(5)
    past_coatoms = 0
    for w in perms:
        column = oracle_column(w, {z for z in perms if _leq(z, w)})
        right, left = _descents(w)
        for y, p in column.items():
            gap = _length(w) - _length(y) - 1
            if gap < 0 or gap % 2 or len(p) <= gap // 2 or not p[gap // 2]:
                continue
            past_coatoms += gap > 0
            y_right, y_left = _descents(y)
            for i in set(right) - set(y_right):
                assert y == _swap(w, i), (y, w, i)
            for i in set(left) - set(y_left):
                assert y == _swap_values(w, i), (y, w, i)
    assert past_coatoms > 0


def test_raised_bottom_lies_below_every_z_with_the_top_descents_in_s5():
    perms = _perms(5)
    checked = 0
    for y in perms:
        below = [z for z in perms if _leq(z, y)]
        right, left = _descents(y)
        full = []
        for z in below:
            z_right, z_left = _descents(z)
            if set(right) <= set(z_right) and set(left) <= set(z_left):
                full.append(z)
        for x in below:
            raised = _raise_bottom(x, right, left)
            assert _leq(x, raised) and _leq(raised, y), (x, y)
            for z in full:
                if _leq(x, z):
                    assert _leq(raised, z), (x, y, z)
                    checked += 1
    assert checked > 3781


def test_flattening_keeps_the_polynomial_and_length_gap_in_s5():
    columns = {}

    def oracle(x, w):
        if w not in columns:
            below = {z for z in _perms(len(w)) if _leq(z, w)}
            columns[w] = oracle_column(w, below)
        return columns[w][x]

    perms = _perms(5)
    pairs = smaller = 0
    for w in perms:
        for x in perms:
            if not _leq(x, w):
                continue
            fx, fw = flatten_pair(x, w)
            assert _length(fw) - _length(fx) == _length(w) - _length(x), (x, w)
            assert oracle(fx, fw) == oracle(x, w), (x, w)
            pairs += 1
            smaller += len(fw) < 5
    assert (pairs, smaller) == (3781, 2485)


def test_flattening_keeps_the_length_gap_in_s6():
    # Compared without _leq's memo, which would keep all 518,400 pairs.
    perms = _perms(6)
    pairs = smaller = 0
    for w in perms:
        rw = _ranks(w)
        for x in perms:
            if x == w or not all(map(operator.le, _ranks(x), rw)):
                continue
            fx, fw = flatten_pair(x, w)
            assert _length(fw) - _length(fx) == _length(w) - _length(x), (x, w)
            pairs += 1
            smaller += len(fw) < 6
    assert (pairs, smaller) == (97687, 60804)
