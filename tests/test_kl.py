import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klpoly.bruhat import bruhat_leq, down_set, interval, rank_difference
from klpoly.kl import (
    KLCache,
    _balanced_digits,
    _InversionRows,
    _raise_bottom,
    _split_descent,
    _split_gain,
    active_positions,
    check_descent_invariance,
    check_inversion_identity,
    flatten_pair,
    inverse_kl,
    is_smooth_top,
    kl_column,
    kl_polynomial,
    mu,
)
from klpoly.perm import (
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
from klpoly.verify import _double_coset_maxima, random_comparable_pair
from test_oracle import _leq, _perms, oracle_column

ONE_PLUS_Q = IntPolynomial([1, 1])


def comparable_pairs(n):
    for w in all_perms(n):
        for x in all_perms(n):
            if bruhat_leq(x, w):
                yield x, w


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
        assert p.constant_term == 1
        assert 2 * p.degree <= max(length(w) - length(x) - 1, 0)
        assert all(c >= 0 for c in p.coeffs)


def test_raising_matches_raw_recursion_in_s4():
    raw = KLCache(raise_bottoms=False)
    fast = KLCache(raise_bottoms=True)
    for x, w in comparable_pairs(4):
        assert kl_polynomial(x, w, raw) == kl_polynomial(x, w, fast)


def test_raising_matches_raw_recursion_sampled():
    rng = random.Random(2024)
    raw = KLCache(raise_bottoms=False)
    fast = KLCache(raise_bottoms=True)
    for n, reps in ((5, 60), (6, 25)):
        for _ in range(reps):
            x, w = random_comparable_pair(n, rng)
            assert kl_polynomial(x, w, raw) == kl_polynomial(x, w, fast)


def test_zero_exactly_off_the_order_in_s5():
    # The bottom is raised before any comparison, so incomparable pairs
    # must still come out zero, and comparable ones never do.
    raw = KLCache(raise_bottoms=False)
    fast = KLCache()
    for w in all_perms(5):
        for x in all_perms(5):
            incomparable = not bruhat_leq(x, w)
            assert (kl_polynomial(x, w, fast) == ZERO) == incomparable
            assert (kl_polynomial(x, w, raw) == ZERO) == incomparable


def _swap_values(x, i):
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in x)


def test_raise_bottom_reaches_double_coset_maximum_in_s4():
    for x, w in comparable_pairs(4):
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


def test_symmetries_in_s5(shared_cache):
    w0 = longest_element(5)
    for x, w in comparable_pairs(5):
        p = kl_polynomial(x, w, shared_cache)
        assert kl_polynomial(inverse(x), inverse(w), shared_cache) == p
        flip_x = compose(compose(w0, x), w0)
        flip_w = compose(compose(w0, w), w0)
        assert kl_polynomial(flip_x, flip_w, shared_cache) == p


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
        for z in down_set(w):
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
        assert inverse_kl(x, w, shared_cache).constant_term == 1


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


# 2^b - q is zero at q = 2^b, so a sum packed at a width b fixed in
# advance, rather than bounded from the values it reads, would not see it
# added to a polynomial.  b = 2 is the least width at which evaluation is
# injective on each correct polynomial of S_4 (all coefficients 0 or 1),
# 16 the width the sum packs correct S_4 values at, and 64 a machine word.
ALIAS_ERRORS = [IntPolynomial([1 << b, -1]) for b in (2, 16, 64)]


def test_inversion_identity_fails_on_a_wrong_memo_entry():
    # One wrong P(z, w) anywhere in [x, w] must break the sum, so the
    # check cannot pass by default.  The second error has a degree past
    # any correct product; the others alias at a fixed width.
    x, w = identity(4), (4, 2, 3, 1)
    assert check_inversion_identity(x, w, KLCache(raise_bottoms=False))
    for z in interval(x, w).elements - {w}:
        for error in (ONE, IntPolynomial.q_power(8), *ALIAS_ERRORS):
            cache = KLCache(raise_bottoms=False)
            cache.memo[(z, w)] = kl_polynomial(z, w) + error
            assert not check_inversion_identity(x, w, cache), (z, error)


def _is_delta(p, x, w):
    return p == (ONE if x == w else ZERO)


def test_inversion_identity_matches_the_polynomial_sum(inversion_sum):
    # The packed integer sum against the signed sum taken in Z[q]: on
    # every comparable pair of S_4, with correct polynomials and with one
    # wrong memo entry, and on seeded comparable pairs of S_6.
    w = (4, 2, 3, 1)
    caches = [KLCache(raise_bottoms=False)]
    for error in (ONE, *ALIAS_ERRORS):
        cache = KLCache(raise_bottoms=False)
        cache.memo[((2, 1, 4, 3), w)] = kl_polynomial((2, 1, 4, 3), w) + error
        caches.append(cache)
    for i, cache in enumerate(caches):
        verdicts = [
            (check_inversion_identity(x, top, cache),
             _is_delta(inversion_sum(x, top, cache), x, top))
            for x, top in comparable_pairs(4)
        ]
        assert len(verdicts) == 213
        assert all(packed == polynomial for packed, polynomial in verdicts)
        # Only the correct cache passes everywhere.
        assert all(packed for packed, _ in verdicts) == (i == 0)
    rng = random.Random(6)
    cache = KLCache()
    for _ in range(200):
        x, top = random_comparable_pair(6, rng)
        assert _is_delta(inversion_sum(x, top, cache), x, top)
        assert check_inversion_identity(x, top, cache)


# A term of a packed row: the layer of z, P(z, w), and D(z) by field.
ROW_TERMS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.lists(st.integers(-(1 << 40), 1 << 40), max_size=3).map(IntPolynomial),
        st.dictionaries(
            st.integers(0, 5),
            st.lists(st.integers(0, 1 << 40), max_size=3).map(IntPolynomial),
            min_size=1,
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=8,
)
# One term at the largest norm a with a^2 < 2^15: 181^2 = 32761, so
# B = W = 16 and both fields sum to -32761, next to the edge -(2^15 - 1)
# of the W bound.  In the second example each value meets
# |P(2^B)| <= ||P||_1 2^(B deg P) with equality, and the field sum
# -32761 * 2^32 is next to the edge of W = 48.
ROW_EDGES = [
    [(0, IntPolynomial([-181]), {0: IntPolynomial([181]), 1: IntPolynomial([181])})],
    [(1, IntPolynomial([0, 181]), {0: IntPolynomial([0, 181])})],
]


@given(ROW_TERMS, st.integers(0, 6))
@example(ROW_EDGES[0], 0)
@example(ROW_EDGES[0], 1)
@example(ROW_EDGES[1], 0)
@settings(deadline=None)
def test_packed_row_decodes_every_field_to_its_integer_sum(terms, diagonal):
    column = [{} for _ in range(max(k for k, _, _ in terms) + 1)]
    for z, (k, p, _) in enumerate(terms):
        column[k][z] = p
    rows = _InversionRows(column, lambda z: terms[z][2])
    total = rows.row(column)
    q = 1 << rows.bits
    # Fields run to 6, past every dual field, so the diagonal may be empty.
    sums = [0] * 7
    for k, p, dual in terms:
        for f, d in dual.items():
            sums[f] += (-1) ** k * p.evaluate(q) * d.evaluate(q)
    # B and W meet the bounds that make the comparison exact.
    norms = [sum(map(abs, p.coeffs)) for _, p, _ in terms]
    dual_norms = [
        sum(map(abs, d.coeffs)) for _, _, dual in terms for d in dual.values()
    ]
    assert 1 << (rows.bits - 1) > len(terms) * max(norms) * max(dual_norms)
    assert all(abs(f) < 1 << (rows.width - 1) for f in sums)
    digits = _balanced_digits(total, rows.width)
    assert digits + [0] * (7 - len(digits)) == sums
    failed = rows.failures(column, diagonal)
    assert failed == [f for f in range(7) if sums[f] != (f == diagonal)]


def test_packed_rows_sum_only_rows_they_were_built_for():
    # The widths are fixed for the column the rows are built from.  A row
    # with more terms, or a z or polynomial not read there, raises rather
    # than aliasing.
    p, d = IntPolynomial([1, 1]), IntPolynomial([0, 2])
    column = [{0: ONE}, {1: p}]
    rows = _InversionRows(column, lambda z: {z: d})
    q = 1 << rows.bits
    assert rows.row(column) == d.evaluate(q) - (
        p.evaluate(q) * d.evaluate(q) << rows.width
    )
    assert rows.row([{1: p}]) == p.evaluate(q) * d.evaluate(q) << rows.width
    with pytest.raises(ValueError):
        rows.row(column + [{0: ONE}])
    with pytest.raises(KeyError):
        rows.row([{2: ONE}])
    with pytest.raises(KeyError):
        rows.row([{1: IntPolynomial([1, 1])}])


def test_kl_column_reads_only_double_coset_maxima(monkeypatch):
    # With raising on, every other z takes its value from a coset move.
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
    raising, reading = KLCache(), KLCache(raise_bottoms=False)
    for w in all_perms(5):
        right, left = right_descents(w), left_descents(w)
        maxima = [
            z for z in down_set(w)
            if all(z[i - 1] > z[i] for i in right)
            and all(z.index(j + 1) < z.index(j) for j in left)
        ]
        reads.clear()
        column = kl_column(w, raising)
        assert sorted(reads) == sorted(maxima)
        reads.clear()
        assert kl_column(w, reading) == column
        assert len(reads) == len(down_set(w))


def test_kl_column_rejects_layers_of_another_top():
    layers = interval((1, 2, 3), (3, 2, 1)).layers
    with pytest.raises(ValueError, match="must start at it"):
        kl_column((2, 1, 3), layers=layers)
    with pytest.raises(ValueError):
        kl_column((2, 1, 3), layers=[])
    assert kl_column((3, 2, 1), layers=layers)[-1] == {(1, 2, 3): ONE}
    # Entries past the first layer that do not lie below the top.
    with pytest.raises(ValueError, match="1,3,2 is not below 2,1,3"):
        kl_column((2, 1, 3), layers=[((2, 1, 3),), ((1, 3, 2),)])
    with pytest.raises(ValueError, match="1,4,2,3 is not below 2,3,1,4"):
        kl_column((2, 3, 1, 4), layers=[((2, 3, 1, 4),), ((1, 4, 2, 3),)])


PAIR_ENTRY_POINTS = [kl_polynomial, inverse_kl, mu, check_inversion_identity]


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
        (lambda bad: check_descent_invariance(bad, (3, 2, 1)), (1, 1, 3)),
        (is_smooth_top, (5, 5, 5, 5)),
        (kl_column, (3, 3, 1)),
    ],
    ids=[
        "active_positions",
        "flatten_pair",
        "check_descent_invariance",
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
            diff = rank_difference(x, w)
            want = tuple(
                p for p in range(1, 6)
                if x[p - 1] != w[p - 1] or diff.entry(p, x[p - 1])
            )
            assert active_positions(x, w) == want


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
        cache = KLCache()
        return all(
            kl_polynomial(z, w, cache) == ONE
            for z in _double_coset_maxima(identity(len(w)), w)
        )

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
    for bottom, top in pairs:
        p = kl_polynomial(bottom, top, KLCache())
        assert p.coeffs == (1, 4, 10, 17, 22, 19, 10, 3), (bottom, top)


def test_s4_has_exactly_two_singular_tops():
    bad = [w for w in all_perms(4) if not is_smooth_top(w)]
    assert bad == [(3, 4, 1, 2), (4, 2, 3, 1)]


def test_descent_invariance():
    assert check_descent_invariance((1, 2), (2, 1))
    # Moving the bottom through the descent at position 2 of the top.
    raw = KLCache(raise_bottoms=False)
    base = kl_polynomial(identity(4), (3, 4, 1, 2), raw)
    moved = kl_polynomial(swap_positions(identity(4), 2, 3), (3, 4, 1, 2), raw)
    assert base == moved == ONE_PLUS_Q
    assert check_descent_invariance(identity(4), (3, 4, 1, 2))
    with pytest.raises(ValueError):
        check_descent_invariance((2, 1, 3), identity(3))


def test_descent_invariance_sampled():
    rng = random.Random(31)
    cache = KLCache(raise_bottoms=False)
    for _ in range(25):
        x, w = random_comparable_pair(5, rng)
        assert check_descent_invariance(x, w, cache)


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
        # and nothing is evicted; every other entry is a pair stored with
        # the polynomial of its flattening.
        flat = [key for key in cache.memo
                if len(active_positions(*key)) == len(key[0])]
        assert cache.misses == len(flat)
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
