import random

import pytest

from klpoly.bruhat import RankDifferenceTable, _layers, bruhat_leq, interval
from klpoly.kl import (
    KLCache,
    _ascent_neighbour,
    _maxima_column,
    _raise_bottom,
    _split_descent,
    _split_gain,
    active_positions,
    check_inversion_identity,
    flatten_pair,
    inverse_kl,
    is_smooth_top,
    kl_column,
    kl_polynomial,
    mu,
)
from klpoly.perm import (
    _w0_conjugate,
    all_perms,
    compose,
    from_oneline,
    identity,
    inverse,
    left_descents,
    length,
    longest_element,
    right_descents,
    swap_positions,
)
from klpoly.polynomial import ONE, ZERO, IntPolynomial
from klpoly.verify import random_comparable_pair
from conftest import members, sorted_members
from test_oracle import _leq, _perms, oracle_column

ONE_PLUS_Q = IntPolynomial([1, 1])


def comparable_pairs(n):
    for w in all_perms(n):
        for x in all_perms(n):
            if bruhat_leq(x, w):
                yield x, w


def probed_pairs(n):
    """The pairs (z, w) of S_n with z < w at which a lookup reads the
    memo: z is the maximum of its double coset under the descents of w.

    A lookup raises its bottom through the top's descents before it
    reads the memo, and answers 1 without reading when the raised bottom
    is the top.  The w0-image of such a pair, whose entry a miss reads
    too, is again such a pair.  So a wrong entry at any other key is
    never read.
    """
    return [
        (z, w) for z, w in comparable_pairs(n)
        if z != w and _raise_bottom(z, right_descents(w), left_descents(w)) == z
    ]


def test_base_cases():
    assert kl_polynomial((2, 4, 1, 3), (2, 4, 1, 3)) == ONE
    assert kl_polynomial((3, 4, 1, 2), identity(4)) == ZERO
    with pytest.raises(ValueError):
        kl_polynomial((1, 2), (1, 2, 3))


def test_known_small_values(shared_cache):
    assert kl_polynomial(identity(4), (3, 4, 1, 2), shared_cache) == ONE_PLUS_Q
    assert kl_polynomial((2, 1, 4, 3), (4, 2, 3, 1), shared_cache) == ONE_PLUS_Q
    assert kl_polynomial(identity(4), (4, 2, 3, 1), shared_cache) == ONE_PLUS_Q
    assert kl_polynomial(identity(4), longest_element(4), shared_cache) == ONE


def test_axioms_exhaustively_in_s4(shared_cache):
    for x, w in comparable_pairs(4):
        p = kl_polynomial(x, w, shared_cache)
        assert p.coefficient(0) == 1
        assert 2 * p.degree <= max(length(w) - length(x) - 1, 0)
        assert all(c >= 0 for c in p.coeffs)


def _swap_values(x, i):
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in x)


@pytest.mark.parametrize("n", [4, 5])
def test_raise_bottom_reaches_double_coset_maximum(n):
    # Each double coset is found by brute force, closing {x} under the
    # moves at the top's descents.  Its top is where _raise_bottom lands,
    # and the one element at which _ascent_neighbour, the maximum test
    # of the correction walk, finds no move.
    for x, w in comparable_pairs(n):
        right, left = right_descents(w), left_descents(w)
        coset, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            moves = [swap_positions(y, i, i + 1) for i in right]
            moves += [_swap_values(y, i) for i in left]
            for z in moves:
                if z not in coset:
                    coset.add(z)
                    frontier.append(z)
        top = max(coset, key=length)
        assert all(bruhat_leq(y, top) for y in coset)
        assert _raise_bottom(x, right, left) == top
        for y in coset:
            assert (_ascent_neighbour(y, right, left) is None) == (y == top), (y, w)


def _walk_cut_pairs():
    """(x, w) for every top w of S_5 and for 120 seeded tops of S_6 and
    40 of S_7, with every x of the same size; the identity has no
    descent to split at."""
    rng = random.Random(36)
    for n, tops in ((5, None), (6, 120), (7, 40)):
        perms = list(all_perms(n))
        assert perms[0] == identity(n)
        chosen = perms[1:] if tops is None else rng.sample(perms[1:], tops)
        for w in chosen:
            for x in perms:
                yield x, w


def _read_by_the_sum(start, ws, i):
    """The z of _layers(start, ws, right) that the correction sum reads
    past the coatoms: those with the descent i and no ascent at a left
    descent of ws (the walk keeps only z with its right descents)."""
    right, left = right_descents(ws), left_descents(ws)
    return {z for z in members(_layers(start, ws, right))
            if z[i - 1] > z[i] and _ascent_neighbour(z, (), left) is None}


def test_correction_walk_cut_keeps_every_z_the_sum_reads():
    # The z of the sum past the coatoms have every descent of ws and the
    # split descent i, so each is the maximum of its double coset under
    # them, and lies above x raised through them (the double-coset
    # maximum is monotone).  Checked with no mu: the walk from x raised
    # through the descents of ws alone reads exactly the z of the walk
    # from the new bottom, each above that bottom, and none at all when
    # that bottom is not below ws.
    pairs = cut = kept = 0
    bottoms = set()
    for x, w in _walk_cut_pairs():
        i = _split_descent(w, right_descents(w))
        ws = swap_positions(w, i, i + 1)
        if not bruhat_leq(x, ws):
            continue
        pairs += 1
        right, left = right_descents(ws), left_descents(ws)
        raised = _raise_bottom(x, right, left)
        bottom = _raise_bottom(x, right + (i,), left)
        if (raised, bottom, ws, i) in bottoms:
            continue
        bottoms.add((raised, bottom, ws, i))
        read = _read_by_the_sum(raised, ws, i)
        kept += len(read)
        if _leq(bottom, ws):
            assert read == _read_by_the_sum(bottom, ws, i), (x, w)
            assert all(_leq(bottom, z) for z in read), (x, w)
        else:
            assert not read, (x, w)
            cut += 1
    # 658 distinct bottoms; 585 of them are not below ws, and the other
    # 73 read 111 z.
    assert (pairs, len(bottoms), cut, kept) == (31075, 658, 585, 111)


def test_symmetries_in_s5(shared_cache):
    # The inverse and the w0-flipped pair each run on a fresh cache: the
    # recursion answers a pair from the memo entry of its w0-flip when it
    # has one, so a shared cache would read the flip's P from the pair's.
    w0 = longest_element(5)
    for x, w in comparable_pairs(5):
        p = kl_polynomial(x, w, shared_cache)
        assert kl_polynomial(inverse(x), inverse(w), KLCache()) == p
        flip_x = compose(compose(w0, x), w0)
        flip_w = compose(compose(w0, w), w0)
        assert kl_polynomial(flip_x, flip_w, KLCache()) == p


def test_w0_image_of_every_memo_key_is_one_in_s6():
    # The keys the recursion stores are the raised, comparable pairs
    # x < w with every position active.  A miss is answered from the
    # entry of its w0-image (w0 x w0, w0 w w0), so that image must be
    # such a key too, with the same P (each on a fresh cache).
    keys = [(x, w) for x, w in probed_pairs(6) if len(active_positions(x, w)) == 6]
    assert len(keys) == 152
    key_set = set(keys)
    w0 = longest_element(6)
    for x, w in keys:
        image = compose(compose(w0, x), w0), compose(compose(w0, w), w0)
        assert image == (_w0_conjugate(x), _w0_conjugate(w))
        assert image in key_set, (x, w)
        assert kl_polynomial(*image, KLCache()) == kl_polynomial(x, w, KLCache())


def test_a_miss_is_answered_from_the_entry_of_its_w0_image():
    # (1, 4, 2, 3, 5), (4, 5, 1, 2, 3) is the w0-image of the pair, and
    # both are memo keys of the form the recursion stores.
    x, w = (1, 3, 4, 2, 5), (3, 4, 5, 1, 2)
    image = (1, 4, 2, 3, 5), (4, 5, 1, 2, 3)
    sentinel = IntPolynomial([7, 7, 7])
    cache = KLCache()
    cache.memo[image] = sentinel
    cache._top(image[1])
    assert kl_polynomial(x, w, cache) is sentinel
    # An image hit counts as a hit and stores nothing.
    assert (cache.hits, cache.misses) == (1, 0)
    assert list(cache.memo) == [image]
    # With no record of the image's top, as after a bound evicts it, the
    # image's entry is still read.
    cache = KLCache()
    cache.memo[image] = sentinel
    assert kl_polynomial(x, w, cache) is sentinel
    assert (cache.hits, cache.misses) == (1, 0)
    assert image[1] not in cache.tops


def test_recursion_holds_at_every_right_descent_in_s5(split_at_descent):
    cache = KLCache()
    checked = 0
    for x, w in comparable_pairs(5):
        if x == w:
            continue
        p = kl_polynomial(x, w, cache)
        for i in right_descents(w):
            assert split_at_descent(x, w, i, cache) == p, (x, w, i)
            checked += 1
    assert checked == 8680


def _descent_count(v):
    return len(right_descents(v)) + len(left_descents(v))


def test_split_gain_counts_the_descents_ws_keeps_in_s6():
    checked = 0
    for w in all_perms(6):
        for i in right_descents(w):
            ws = swap_positions(w, i, i + 1)
            assert _split_gain(w, i) == _descent_count(ws) - _descent_count(w) + 1
            checked += 1
    # Every w has as many right descents as it has right ascents in w0 w.
    assert checked == 720 * 5 // 2


def test_recursion_splits_at_the_first_descent_keeping_most_descents(monkeypatch):
    # Record the top of the first nested call of every _kl frame.  On a
    # miss that is P(lo, ws), the first term of the split; a flattening
    # recurses on a smaller size, and a hit makes no nested call.
    import klpoly.kl as kl_module

    inner = kl_module._kl
    stack, frames = [], []

    def spy(x, w, cache):
        if stack and stack[-1][1] is None:
            stack[-1][1] = w
        frame = [w, None]
        stack.append(frame)
        try:
            return inner(x, w, cache)
        finally:
            stack.pop()
            frames.append(frame)

    monkeypatch.setattr(kl_module, "_kl", spy)
    cache = KLCache()
    for x, w in comparable_pairs(5):
        kl_polynomial(x, w, cache)
    splits = [
        (w, ws) for w, ws in frames if ws is not None and len(ws) == len(w)
    ]
    assert len(splits) == cache.misses > 0
    for w, ws in splits:
        # max keeps the first of equal keys, in increasing i.
        first_best = max(
            (swap_positions(w, i, i + 1) for i in right_descents(w)),
            key=_descent_count,
        )
        assert ws == first_best, w


def test_recursion_holds_at_every_right_descent_sampled_s7(split_at_descent):
    # The fixture sums over all of [x, ws], so it checks from outside the
    # recursion's restricted correction sum.
    rng = random.Random(7)
    cache = KLCache()
    checked = 0
    for _ in range(60):
        x, w = random_comparable_pair(7, rng)
        if x == w:
            continue
        p = kl_polynomial(x, w, cache)
        for i in right_descents(w):
            assert split_at_descent(x, w, i, cache) == p, (x, w, i)
            checked += 1
    assert checked == 208


def test_mu_values(shared_cache):
    assert mu((1, 2), (2, 1), shared_cache) == 1
    assert mu((2, 4, 1, 3), (2, 4, 1, 3), shared_cache) == 0
    assert mu(identity(4), (3, 4, 1, 2), shared_cache) == 0
    assert mu((3, 4, 1, 2), identity(4), shared_cache) == 0
    with pytest.raises(ValueError):
        mu((1, 2), (1, 2, 3))


def test_mu_on_covering_pairs(shared_cache):
    # A covering pair always has P = 1, so mu must be 1.
    for w in all_perms(4):
        for z in sorted_members(interval(identity(4), w)):
            if length(z) == length(w) - 1:
                assert mu(z, w, shared_cache) == 1


def test_inverse_kl_values(shared_cache):
    assert inverse_kl((2, 1, 4, 3), (4, 2, 3, 1), shared_cache) == ONE_PLUS_Q
    expected = IntPolynomial([1, 2])
    assert inverse_kl((2, 1, 5, 4, 3), (5, 2, 4, 3, 1), shared_cache) == expected
    w = (2, 4, 1, 3)
    assert inverse_kl(w, w, shared_cache) == ONE


@pytest.mark.parametrize("x, w", [((1, 2.0), (2, 1)), ((1.0, 2), (2.0, 1.0))])
def test_non_integer_entries_are_not_permutations(x, w):
    for polynomial in (inverse_kl, kl_polynomial):
        with pytest.raises(ValueError, match="not a permutation of 1..2"):
            polynomial(x, w)


def test_inverse_kl_constant_term(shared_cache):
    for x, w in comparable_pairs(4):
        assert inverse_kl(x, w, shared_cache).coefficient(0) == 1


def test_inversion_identity_examples(shared_cache):
    w = (4, 1, 3, 2)
    assert check_inversion_identity(w, w, shared_cache)
    assert check_inversion_identity(identity(4), (3, 4, 1, 2), shared_cache)
    with pytest.raises(ValueError):
        check_inversion_identity((2, 1, 3), identity(3))


def test_inversion_identity_exhaustive_s3(shared_cache):
    pairs = list(comparable_pairs(3))
    assert len(pairs) == 19
    for x, w in pairs:
        assert check_inversion_identity(x, w, shared_cache)


# 2^b - q is zero at q = 2^b, so a sum evaluated at a width b fixed in
# advance, rather than bounded from the values it reads, would not see it
# added to a polynomial.  b = 2 is the least width at which evaluation is
# injective on each correct polynomial of S_4 (all coefficients 0 or 1),
# 16 the width the exhaustive batch packs correct S_4 values at, and 64 a
# machine word.
ALIAS_ERRORS = [IntPolynomial([1 << b, -1]) for b in (2, 16, 64)]


def test_inversion_identity_fails_on_a_wrong_memo_entry():
    # One wrong P(z, w) at any key a lookup reads must break the sum of
    # (z, w), so the check cannot pass by default: z is the maximum of its
    # coset, so it is the only z of [z, w] whose value comes from that
    # entry.  The second error has a degree past any correct product; the
    # others alias at a fixed width.
    pairs = probed_pairs(4)
    assert len(pairs) == 6
    for z, w in pairs:
        assert check_inversion_identity(z, w, KLCache())
        for error in (ONE, ONE.shift(8), *ALIAS_ERRORS):
            cache = KLCache()
            cache.memo[(z, w)] = kl_polynomial(z, w) + error
            assert not check_inversion_identity(z, w, cache), (z, w, error)


def _is_delta(p, x, w):
    return p == (ONE if x == w else ZERO)


def test_inversion_identity_matches_the_polynomial_sum(inversion_sum):
    # The check's sum in Z[q], read from one column through coset moves,
    # against the signed sum of a lookup per term over the interval's
    # elements: on every comparable pair of S_4, with correct polynomials
    # and with one wrong memo entry at a key that lookups read, and on
    # seeded comparable pairs of S_6.
    w = (4, 2, 3, 1)
    caches = [KLCache()]
    for error in (ONE, *ALIAS_ERRORS):
        cache = KLCache()
        cache.memo[((2, 1, 4, 3), w)] = kl_polynomial((2, 1, 4, 3), w) + error
        caches.append(cache)
    for i, cache in enumerate(caches):
        verdicts = [
            (check_inversion_identity(x, top, cache),
             _is_delta(inversion_sum(x, top, cache), x, top))
            for x, top in comparable_pairs(4)
        ]
        assert len(verdicts) == 213
        assert all(checked == summed for checked, summed in verdicts)
        # Only the correct cache passes everywhere.
        assert all(checked for checked, _ in verdicts) == (i == 0)
    rng = random.Random(6)
    cache = KLCache()
    for _ in range(200):
        x, top = random_comparable_pair(6, rng)
        assert _is_delta(inversion_sum(x, top, cache), x, top)
        assert check_inversion_identity(x, top, cache)


def test_kl_column_reads_only_double_coset_maxima(monkeypatch):
    # Every z that is not a double-coset maximum takes its value from a
    # coset move.
    import klpoly.kl

    reads, depth = [], [0]
    real = klpoly.kl._kl

    def recording(x, w, cache):
        if not depth[0]:
            reads.append(x)
        depth[0] += 1
        try:
            return real(x, w, cache)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(klpoly.kl, "_kl", recording)
    cache = KLCache()
    for w in all_perms(5):
        right, left = right_descents(w), left_descents(w)
        maxima = [
            z for z in sorted_members(interval(identity(5), w))
            if all(z[i - 1] > z[i] for i in right)
            and all(z.index(j + 1) < z.index(j) for j in left)
        ]
        reads.clear()
        kl_column(identity(5), w, cache)
        assert sorted(reads) == sorted(maxima)


def test_maxima_column_is_the_raised_down_set_in_s5():
    # The pass over [e, w] yields every double-coset maximum of the down
    # set once, the raised bottom first, each with the polynomial of the
    # R-polynomial oracle.
    e, cache = identity(5), KLCache()
    for w in all_perms(5):
        right, left = right_descents(w), left_descents(w)
        expected = oracle_column(w, {z for z in _perms(5) if _leq(z, w)})
        maxima = sorted(
            (z for z in sorted_members(interval(e, w))
             if _raise_bottom(z, right, left) == z),
            key=lambda z: (length(z), z),
        )
        column = list(_maxima_column(e, w, cache))
        assert column[0][0] == _raise_bottom(e, right, left)
        column.sort(key=lambda pair: (length(pair[0]), pair[0]))
        assert [z for z, _ in column] == maxima
        assert column[-1] == (w, ONE)
        for z, p in column:
            assert p.coeffs == expected[z], (z, w)


def test_maxima_column_reads_each_polynomial_when_asked(monkeypatch):
    # Nothing is read before the first pair is asked for, and each pair
    # reads its own polynomial only, so a caller that stops early reads
    # no more of the column.
    import klpoly.kl

    reads, depth = [], [0]
    real = klpoly.kl._kl

    def recording(x, w, cache):
        if not depth[0]:
            reads.append(x)
        depth[0] += 1
        try:
            return real(x, w, cache)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(klpoly.kl, "_kl", recording)
    w = (4, 5, 3, 1, 2)
    column = _maxima_column(identity(5), w, KLCache())
    assert reads == []
    first = next(column)
    assert reads == [first[0]]
    second = next(column)
    assert reads == [first[0], second[0]]
    rest = list(column)
    assert reads == [z for z, _ in [first, second, *rest]]


def test_kl_column_rejects_a_bottom_not_below_the_top():
    assert kl_column((1, 2, 3), (3, 2, 1))[-1] == {(1, 2, 3): ONE}
    with pytest.raises(ValueError, match="1,3,2 is not <= 2,1,3"):
        kl_column((1, 3, 2), (2, 1, 3))
    with pytest.raises(ValueError, match="3,2,1 is not <= 1,2,3"):
        kl_column((3, 2, 1), (1, 2, 3))


PAIR_ENTRY_POINTS = [
    kl_polynomial, inverse_kl, mu, check_inversion_identity, kl_column
]


@pytest.mark.parametrize("call", PAIR_ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "x, w",
    [((1, 2, 3), (1, 2, 4)), ((1, 2, 2), (2, 1, 2)), ((0, 1, 2), (1, 2, 3))],
    ids=["value-out-of-range", "repeated-value", "zero-based"],
)
def test_public_entry_points_reject_non_permutations(call, x, w):
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        call(x, w)


@pytest.mark.parametrize("call", PAIR_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_public_entry_points_check_each_argument_once(call, monkeypatch):
    import klpoly.perm

    checked = []

    def counting(values):
        checked.append(tuple(values))
        return from_oneline(values)

    monkeypatch.setattr(klpoly.perm, "from_oneline", counting)
    x, w = identity(5), (4, 5, 2, 3, 1)
    call(x, w, KLCache())
    assert sorted(checked) == sorted([x, w])


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda bad: active_positions(bad, (3, 2, 1)), (1, 1, 3)),
        (lambda bad: flatten_pair((3, 2, 1), bad), (1, 1, 3)),
        (is_smooth_top, (5, 5, 5, 5)),
        (lambda bad: kl_column((1, 2, 3), bad), (3, 3, 1)),
    ],
    ids=[
        "active_positions",
        "flatten_pair",
        "is_smooth_top",
        "kl_column",
    ],
)
def test_other_public_functions_reject_non_permutations(call, bad):
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\."):
        call(bad)


def test_active_positions():
    assert active_positions(identity(4), identity(4)) == ()
    assert active_positions((1, 2), (2, 1)) == (1, 2)
    assert active_positions((1, 3, 2, 4, 5), (3, 4, 1, 2, 5)) == (1, 2, 3, 4)
    assert active_positions(identity(4), (1, 3, 2, 4)) == (2, 3)
    with pytest.raises(ValueError):
        active_positions((1, 2), (1, 2, 3))


def test_active_positions_match_rank_difference_on_s5():
    # Every pair, comparable or not: a cell's difference may be negative.
    elements = list(all_perms(5))
    for x in elements:
        for w in elements:
            diff = RankDifferenceTable(x, w)
            want = tuple(
                p for p in range(1, 6)
                if x[p - 1] != w[p - 1] or diff.entry(p, x[p - 1])
            )
            assert active_positions(x, w) == want


def test_flattening_keeps_comparability_on_s5():
    # Deleting a point shared by x and w deletes a row of r_w - r_x equal
    # to the row above it and a column equal to the one to its right, so
    # the sign of the smallest cell is kept, comparable or not.  The
    # recursion relies on this: it flattens before it compares.
    elements = list(all_perms(5))
    for x in elements:
        for w in elements:
            if x != w:
                assert bruhat_leq(*flatten_pair(x, w)) == bruhat_leq(x, w)


def test_flatten_pair():
    assert flatten_pair((1, 3, 2, 4, 5), (3, 4, 1, 2, 5)) == (
        (1, 3, 2, 4),
        (3, 4, 1, 2),
    )
    w = (2, 1, 3)
    assert flatten_pair(w, w) == ((1,), (1,))


def test_flatten_pair_preserves_polynomial(shared_cache):
    # The recursion itself flattens, so the reference is the R-polynomial
    # oracle on the pair as given.
    rng = random.Random(99)
    perms = _perms(5)
    for _ in range(60):
        x, w = random_comparable_pair(5, rng)
        fx, fw = flatten_pair(x, w)
        members = {z for z in perms if _leq(x, z) and _leq(z, w)}
        assert kl_polynomial(fx, fw, shared_cache).coeffs == (
            oracle_column(w, members)[x]
        )


def test_is_smooth_top():
    assert is_smooth_top(identity(5))
    assert not is_smooth_top((3, 4, 1, 2))
    assert not is_smooth_top((4, 2, 3, 1))
    assert is_smooth_top(longest_element(5))


# OEIS A032351: permutations of length n avoiding 3412 and 4231.
SMOOTH_COUNTS = [1, 2, 6, 22, 88, 366, 1552]


def test_smooth_counts_match_oeis_a032351():
    assert [
        sum(map(is_smooth_top, all_perms(n))) for n in range(1, 8)
    ] == SMOOTH_COUNTS
    # All-ones columns, read at the double-coset maxima (which carry
    # every value of the column), with a cold cache per top.
    def all_ones(w):
        column = _maxima_column(identity(len(w)), w, KLCache())
        return all(p == ONE for _, p in column)

    by_column = [sum(map(all_ones, all_perms(n))) for n in range(1, 7)]
    assert by_column == SMOOTH_COUNTS[:6]


def test_cold_s10_pair_and_its_symmetric_images():
    x = (1, 6, 5, 3, 4, 7, 8, 2, 9, 10)
    w = (9, 10, 8, 5, 6, 7, 1, 2, 4, 3)
    w0 = longest_element(10)
    pairs = [
        (x, w),
        (inverse(x), inverse(w)),
        (compose(compose(w0, x), w0), compose(compose(w0, w), w0)),
    ]
    # Each top splits at its own descent: 6 for w, 4 for w^-1, and 4,
    # the mirror image of 6, for w0 w w0.
    assert [_split_descent(top, right_descents(top)) for _, top in pairs] == [6, 4, 4]
    caches = [KLCache() for _ in pairs]
    for (bottom, top), cache in zip(pairs, caches):
        p = kl_polynomial(bottom, top, cache)
        assert p.coeffs == (1, 4, 10, 17, 22, 19, 10, 3), (bottom, top)
    # The recursion's work on the pair itself: its misses, one memo key
    # each.
    assert len(caches[0].memo) == caches[0].misses == 84


def test_s4_has_exactly_two_singular_tops():
    bad = [w for w in all_perms(4) if not is_smooth_top(w)]
    assert bad == [(3, 4, 1, 2), (4, 2, 3, 1)]


def test_cache_counters_and_reuse():
    cache = KLCache()
    kl_polynomial(identity(4), (4, 2, 3, 1), cache)
    misses_after_first = cache.misses
    assert misses_after_first > 0
    kl_polynomial(identity(4), (4, 2, 3, 1), cache)
    assert cache.misses == misses_after_first
    assert cache.hits > 0


def test_each_lookup_counts_once():
    rng = random.Random(6)
    pairs = [random_comparable_pair(6, rng) for _ in range(100)]
    base = list(range(1, 7))
    for _ in range(100):
        x, w = base[:], base[:]
        rng.shuffle(x)
        rng.shuffle(w)
        pairs.append((tuple(x), tuple(w)))
    for x, w in pairs:
        cache = KLCache()
        first = kl_polynomial(x, w, cache)
        # Every miss stores one entry, a pair with every position active,
        # and nothing is evicted or stored beside it.
        flat = [key for key in cache.memo
                if len(active_positions(*key)) == len(key[0])]
        assert cache.misses == len(flat) == len(cache.memo)
        size = len(cache.memo)
        hits, misses = cache.hits, cache.misses
        assert kl_polynomial(x, w, cache) == first
        assert cache.misses == misses and len(cache.memo) == size
        assert hits <= cache.hits <= hits + 1


def test_cold_cache_equals_warm_cache():
    warm = KLCache()
    first = kl_polynomial((2, 1, 4, 3), (4, 2, 3, 1), warm)
    again = kl_polynomial((2, 1, 4, 3), (4, 2, 3, 1), warm)
    cold = kl_polynomial((2, 1, 4, 3), (4, 2, 3, 1), KLCache())
    assert first == again == cold


def test_stored_values_survive_rederivation():
    # Spot-check stored entries against a fresh computation.
    cache = KLCache()
    kl_polynomial(identity(5), (4, 5, 3, 1, 2), cache)
    sample = list(cache.memo.items())[::7]
    for (x, w), value in sample:
        assert kl_polynomial(x, w, KLCache()) == value


def test_bounded_cache_still_correct():
    unbounded = KLCache()
    tiny = KLCache(max_entries=4)
    for x, w in [
        (identity(4), (4, 2, 3, 1)),
        ((2, 1, 3, 4), (4, 2, 3, 1)),
        (identity(4), (3, 4, 1, 2)),
        ((1, 3, 2, 4), (3, 4, 1, 2)),
    ]:
        assert kl_polynomial(x, w, tiny) == kl_polynomial(x, w, unbounded)
        assert len(tiny.memo) <= 4


def test_cache_rejects_bad_options():
    with pytest.raises(ValueError):
        KLCache(max_entries=0)
