import json
from functools import lru_cache
from operator import length_hint

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klpoly.bruhat import bruhat_leq, covers_down, covers_up, interval
from klpoly.families import (
    _family_cases,
    closed_form_inverse,
    closed_form_regular,
    family_pair,
)
from klpoly.kl import (
    KLCache,
    _ascent_neighbour,
    _kl,
    _maxima_column,
    _raise_bottom,
    active_positions,
    check_inversion_identity,
    flatten_pair,
    inverse_kl,
    kl_column,
    kl_polynomial,
)
from klpoly.perm import (
    _w0_conjugate,
    _w0_times,
    all_perms,
    format_perm,
    identity,
    left_descents,
    length,
    right_descents,
)
from klpoly.polynomial import ONE, ZERO, IntPolynomial
from klpoly.verify import (
    Failure,
    VerificationReport,
    _down_sets,
    _fill_columns,
    _InversionRows,
    random_comparable_pair,
    verify_inverse_closed_forms,
    verify_inversion_identity_batch,
    verify_regular_closed_forms,
    verify_smoothness_equivalence,
)

import random

from test_kl import probed_pairs

# The bottoms z of S_4 at which some top's lookups read the memo (see
# probed_pairs): a wrong entry at any other key is never read.
PROBED_BOTTOMS_S4 = sorted({z for z, _ in probed_pairs(4)})


def _probed_tops_s4(z):
    """The tops w of S_4 whose lookups read the memo at (z, w)."""
    return [w for bottom, w in probed_pairs(4) if bottom == z]


def _cases(n):
    """The cases (x, w) of the exhaustive inversion run over S_n, in
    order: every comparable pair, by the all-pairs filter."""
    return [(x, w) for w in all_perms(n) for x in all_perms(n) if bruhat_leq(x, w)]


def test_regular_closed_forms_small():
    report = verify_regular_closed_forms(4)
    assert report.passed
    assert report.cases == 7  # six x-type pairs plus the single y-type pair (1,1)
    report = verify_regular_closed_forms(2)
    assert report.passed
    assert report.cases == 1


def test_closed_forms_hold_up_to_nine():
    # The paper's families, checked one size past n = 8.
    regular = verify_regular_closed_forms(9)
    inverse = verify_inverse_closed_forms(9)
    assert regular.passed and inverse.passed
    assert regular.cases == inverse.cases == 57


def test_regular_closed_forms_full_range():
    report = verify_regular_closed_forms(7)
    assert report.passed
    assert report.cases == 31
    assert report.check == "regular-closed-forms"


def test_regular_closed_forms_at_twelve():
    report = verify_regular_closed_forms(12)
    assert report.passed
    assert report.cases == 111


def test_inverse_closed_forms_at_twelve():
    cache = KLCache()
    report = verify_inverse_closed_forms(12, cache)
    assert report.passed
    assert report.cases == 111
    # One memo key per computed polynomial: a pair answered from the
    # entry of its w0-image stores nothing.
    assert len(cache.memo) == cache.misses == 89


def by_length(maxima):
    return sorted(maxima, key=lambda z: (length(z), z))


def reference_regular_failures(max_n, cache):
    """The regular check with its interior loop over all of
    ``interval(bottom, top)``.  Of the interior z with P(z, top) != 1
    (in (length, lexicographic) order) a failure names the first that
    is the maximum of its double coset under the descents of top."""
    out = []
    for pair, k, m in _family_cases(max_n):
        bottom, top = family_pair(pair, k, m)
        name = f"{pair}-pair k={k} m={m}"
        expected = closed_form_regular(pair, k, m)
        actual = kl_polynomial(bottom, top, cache)
        if actual != expected:
            out.append(Failure(name, str(expected), str(actual)))
            continue
        right, left = right_descents(top), left_descents(top)
        bad = [
            z
            for z in interval(bottom, top).sorted_elements()
            if z not in (bottom, top) and kl_polynomial(z, top, cache) != ONE
        ]
        if bad:
            z = next(z for z in bad if _raise_bottom(z, right, left) == z)
            p = kl_polynomial(z, top, cache)
            out.append(Failure(f"{name} interior z={format_perm(z)}", "1", str(p)))
    return sorted(out, key=lambda f: f.case)


@pytest.mark.parametrize(
    "family, which",
    [
        (("x", 2, 2), "bottom"),
        (("x", 3, 2), "bottom"),
        (("y", 1, 2), "bottom"),
        (("y", 1, 2), "first"),
        (("y", 1, 2), "last"),
        (("y", 2, 2), "first"),
        (("y", 2, 2), "last"),
        (("y", 2, 2), "both"),
        (("y", 2, 1), "both"),
    ],
)
def test_interior_check_fails_exactly_where_the_full_loop_does(family, which):
    # A wrong memo entry under a family top must fail the same cases as
    # the loop over the whole interval.  An interior failure names the
    # shortest, then lexicographically first, interior double-coset
    # maximum whose polynomial is not 1.  (The x-pairs have no interior
    # maxima: every interior z raises to the top.)
    bottom, top = family_pair(*family)
    maxima = by_length(z for z, _ in _maxima_column(bottom, top, KLCache()))
    assert maxima[0] == bottom
    seeds = {
        "bottom": [bottom],
        "first": [maxima[1]],
        "last": [maxima[-2]],
        "both": [maxima[1], maxima[-2]],
    }[which]
    assert top not in seeds

    def seeded():
        cache = KLCache()
        for z in seeds:
            cache.memo[(z, top)] = kl_polynomial(z, top) + ONE
        return cache

    expected = reference_regular_failures(7, seeded())
    assert expected
    assert verify_regular_closed_forms(7, seeded()).failures == expected


def test_inverse_closed_forms_full_range():
    report = verify_inverse_closed_forms(7)
    assert report.passed
    assert report.cases == 31


def test_max_entries_bounds_every_table():
    # Unbounded, the sweep keeps the 18 polynomials it computes and 59
    # top records.
    full = KLCache()
    assert verify_regular_closed_forms(8, full).passed
    assert len(full.memo) == full.misses == 18
    assert len(full.tops) == 59
    cache = KLCache(max_entries=24)
    assert verify_regular_closed_forms(8, cache).passed
    # The top records evict, but no pair is computed twice.
    assert cache.misses == 18
    assert len(cache.memo) == 18
    assert len(cache.tops) == 24
    cache = KLCache(max_entries=12)
    assert verify_regular_closed_forms(8, cache).passed
    # Both tables evict, yet no pair is computed twice: an evicted top
    # record does not hide the memo entry of a pair's w0-image.
    assert cache.misses == 18
    assert len(cache.memo) == 12
    assert len(cache.tops) == 12


def test_every_batch_passes_with_one_entry():
    batches = [
        lambda c: verify_regular_closed_forms(6, c),
        lambda c: verify_inverse_closed_forms(6, c),
        lambda c: verify_inversion_identity_batch(4, c),
        lambda c: verify_smoothness_equivalence(4, c),
    ]
    for run in batches:
        assert run(KLCache(max_entries=1)).passed


def test_family_checks_reject_tiny_bounds():
    with pytest.raises(ValueError):
        verify_regular_closed_forms(1)
    with pytest.raises(ValueError):
        verify_inverse_closed_forms(0)


def test_inversion_exhaustive_counts():
    report = verify_inversion_identity_batch(2)
    assert report.passed
    assert report.cases == 3
    report = verify_inversion_identity_batch(3)
    assert report.passed
    assert report.cases == 19
    assert report.seed is None


def _bits(mask):
    """The set bits of ``mask``, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_down_layers_match_the_interval_walks(n):
    # The one-pass closure over the covers builds every [e, w] at once
    # as a bitmask; the walker of a single interval is its independent
    # check.  Each mask decodes to exactly the walked elements, and the
    # parity bits are the length parities.
    e = identity(n)
    perms, parity, ideals = _down_sets(n)[:3]
    assert perms == list(all_perms(n))
    assert parity == [length(v) % 2 for v in perms]
    for t, w in enumerate(perms):
        walked = interval(e, w)
        assert {perms[x] for x in _bits(ideals[t])} == walked.elements, w


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lexicographic_index_extends_bruhat_order(n):
    # The tables build each ideal from those of its coatoms, and the fill
    # copies each z from a neighbour above it, both in index order.  So
    # every coatom of w has a smaller index than w, and every move at an
    # ascent, z s_i or s_i z, a larger index than z.
    perms, _, _, rdes, ldes, rmul, lmul = _down_sets(n)
    index = {v: i for i, v in enumerate(perms)}
    for t, w in enumerate(perms):
        assert all(index[z] < t for z in covers_down(w)), w
    for z in range(len(perms)):
        for i in range(n - 1):
            for des, mul in ((rdes, rmul), (ldes, lmul)):
                ascent = not des[z] >> i & 1
                assert (mul[z][i] > z) == ascent, (perms[z], i + 1)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_comparable_pairs_are_ordered_as_tuples(n):
    # Past the exhaustive sizes, seeded comparable pairs: x <= w in Bruhat
    # order gives x <= w lexicographically.
    rng = random.Random(n)
    for _ in range(200):
        x, w = random_comparable_pair(n, rng)
        assert bruhat_leq(x, w) and x <= w, (x, w)


def test_s7_ideals_hold_every_comparable_pair():
    # The tables of S_7 hold its 3,550,919 comparable pairs as 5,040
    # masks, with nothing decoded.
    perms, parity, ideals = _down_sets(7)[:3]
    assert len(perms) == len(ideals) == 5040
    assert sum(ideal.bit_count() for ideal in ideals) == 3550919
    assert sum(parity) == 2520
    assert ideals[0] == 1 and ideals[-1] == (1 << 5040) - 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_move_tables_pick_the_ascent_neighbour(n):
    # The batch fills a column through the tables: z s_i for the lowest
    # right descent i of w at which z ascends, else s_i z for the lowest
    # such left descent, else z is read.  That is kl._ascent_neighbour,
    # and z is read exactly at the double-coset maxima of w.
    perms, parity, ideals, rdes, ldes, rmul, lmul = _down_sets(n)

    def positions(mask):
        return tuple(i + 1 for i in range(n - 1) if mask >> i & 1)

    for z, v in enumerate(perms):
        assert positions(rdes[z]) == right_descents(v)
        assert positions(ldes[z]) == left_descents(v)
    for t, w in enumerate(perms):
        right, left = right_descents(w), left_descents(w)
        read = []
        for z in _bits(ideals[t]):
            if m := rdes[t] & ~rdes[z]:
                moved = rmul[z][(m & -m).bit_length() - 1]
            elif m := ldes[t] & ~ldes[z]:
                moved = lmul[z][(m & -m).bit_length() - 1]
            else:
                moved = None
                read.append(perms[z])
            if moved is not None:
                # The neighbour is in the ideal, one length up.
                assert ideals[t] >> moved & 1
                assert length(perms[moved]) == length(perms[z]) + 1
                moved = perms[moved]
            assert moved == _ascent_neighbour(perms[z], right, left), (w, z)
        maxima = [z for z, _ in _maxima_column(identity(n), w, KLCache())]
        assert sorted(read) == sorted(maxima), w


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_w0_reverses_the_lexicographic_index(n):
    # The batch reads each dual at the reversed index.
    perms = _down_sets(n)[0]
    last = len(perms) - 1
    assert all(perms[last - i] == _w0_times(v) for i, v in enumerate(perms))


def test_parity_columns_are_the_signed_interval_columns(monkeypatch):
    # The batch's column of w is kl_column(e, w) with its layers merged
    # by sign and grouped by the read each entry copies: layer k goes
    # into the even lists when (-1)^k = 1, and into the odd ones
    # otherwise, each list highest index first, and every z carries
    # P(z, w).
    import klpoly.verify

    built, read = [], []

    def recorded_kl(z, w, cache):
        read.append(_kl(z, w, cache))
        return read[-1]

    class Kept(klpoly.verify._InversionRows):
        def __init__(self, columns):
            super().__init__(columns)
            built.append(columns)

    monkeypatch.setattr(klpoly.verify, "_kl", recorded_kl)
    monkeypatch.setattr(klpoly.verify, "_InversionRows", Kept)
    assert verify_inversion_identity_batch(4).passed
    (columns,) = built
    perms = list(all_perms(4))
    index = {v: i for i, v in enumerate(perms)}
    assert len(columns) == 24
    groups = [group for column in columns for group in column]
    assert sum(len(even) + len(odd) for _, even, odd in groups) == 213
    # The groups are the reads, in order, each object as it was read.
    assert [p for p, _, _ in groups] == read
    assert all(p is q for (p, _, _), q in zip(groups, read))
    cache = KLCache()
    for t, w in enumerate(perms):
        signed = ({}, {})
        for k, layer in enumerate(kl_column(identity(4), w, cache)):
            signed[k % 2].update({index[z]: p for z, p in layer.items()})
        for sign in (0, 1):
            parts = [(group[0], group[1 + sign]) for group in columns[t]]
            listed = [z for _, part in parts for z in part]
            assert sorted(listed) == sorted(signed[sign]), w
            for p, part in parts:
                assert part == sorted(part, reverse=True), w
                assert all(signed[sign][z] == p for z in part), w


@lru_cache(maxsize=None)
def _true_columns(n):
    """The ideals of S_n by index, and every column of S_n by index as
    its parity dicts ``(even, odd)``, with its true polynomials."""
    perms, parity, ideals = _down_sets(n)[:3]
    cache = KLCache()
    columns = []
    for t, w in enumerate(perms):
        parts = ({}, {})
        for z in _bits(ideals[t]):
            parts[parity[t] ^ parity[z]][z] = kl_polynomial(perms[z], w, cache)
        columns.append(parts)
    return ideals, columns


def _entries(n):
    """The number of entries of the columns of S_n: 3, 19 and 213 for
    n = 2, 3, 4."""
    return sum(ideal.bit_count() for ideal in _true_columns(n)[0])


# Polynomials to put on entries of the columns of S_2, S_3 or S_4, each
# entry named by its place in the order (top, parity, z).
OVERRIDES = st.sampled_from([2, 3, 4]).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            st.integers(0, _entries(n) - 1),
            st.lists(st.integers(-(1 << 40), 1 << 40), max_size=3).map(IntPolynomial),
            max_size=4,
        ),
    )
)


@given(OVERRIDES)
@example((2, {}))
@example((4, {}))
# 2^8 - q vanishes at q = 2^8, the B of the true S_4 values, so a B
# that ignored the values read would miss it.
@example((4, {100: IntPolynomial([1 << 8, -1])}))
@example((4, {0: IntPolynomial([-(1 << 40)] * 3), 212: IntPolynomial([1 << 40] * 3)}))
@settings(deadline=None)
def test_packed_row_decodes_every_field_to_its_integer_sum(case):
    # Random polynomials on the entries of the real parity columns of a
    # small S_n: every row must fail exactly at the fields whose sum,
    # taken in Z[q], is not delta, with B and W within the bounds of the
    # proof.  The rows take each column as groups: the true entries share
    # one group per polynomial, as the batch's copies of a read do, and
    # each overridden entry is a group of its own.
    n, overrides = case
    ideals, true = _true_columns(n)
    columns, grouped, entry = [], [], 0
    for column in true:
        parts, shared, own = ({}, {}), {}, []
        for sign, part in enumerate(column):
            for z, p in part.items():
                if entry in overrides:
                    p = overrides[entry]
                    group = (p, [], [])
                    own.append(group)
                else:
                    group = shared.setdefault(p, (p, [], []))
                group[1 + sign].append(z)
                parts[sign][z] = p
                entry += 1
        columns.append(parts)
        grouped.append(list(shared.values()) + own)
    polys = [p for column in grouped for p, _, _ in column]
    rows = _InversionRows(grouped)
    last = len(columns) - 1

    def dual(z, x):
        # P(w0 z, w0 x): entry N - 1 - z of the column of N - 1 - x.
        even, odd = columns[last - x]
        return even[last - z] if last - z in even else odd[last - z]

    norm = max(sum(map(abs, p.coeffs)) for p in polys)
    # B and W meet the bounds that make the comparison exact.
    assert 1 << (rows.bits - 1) > len(columns) * norm * norm
    q = 1 << rows.bits
    for t, column in enumerate(columns):
        sums = [ZERO] * len(columns)
        fields = [0] * len(columns)
        for sign, part in zip((1, -1), column):
            for z, p in part.items():
                for x in _bits(ideals[z]):
                    d = dual(z, x)
                    sums[x] += p * d * sign
                    fields[x] += sign * p.evaluate(q) * d.evaluate(q)
        assert all(abs(f) < 1 << (rows.width - 1) for f in fields)
        expected = [x for x, f in enumerate(sums) if f != (ONE if x == t else ZERO)]
        # Each field's integer decides its case as the sum in Z[q] does.
        assert [x for x, f in enumerate(fields) if f != (x == t)] == expected
        assert rows.failures(t) == expected, (t, overrides)


def test_exhaustive_inversion_packs_each_z_once(monkeypatch):
    # The rows are built once, from every column of S_5: each z is packed
    # once and every row is summed over those packs.  B and W are the
    # least the proof allows, with N = 120, the terms of the column of
    # w0, and a and d the largest norm and degree among all polynomials
    # of S_5: B = bitlen(N a^2) + 1 and W = bitlen(N a^2) + 2 B d + 1.
    import klpoly.verify

    built, summed = [], []

    class Counted(klpoly.verify._InversionRows):
        def __init__(self, columns):
            super().__init__(columns)
            built.append(self)

        def failures(self, t):
            summed.append(t)
            return super().failures(t)

    monkeypatch.setattr(klpoly.verify, "_InversionRows", Counted)
    assert verify_inversion_identity_batch(5).passed
    assert sorted(summed) == list(range(120))
    (rows,) = built
    assert len(rows.packs) == 120
    cache = KLCache()
    polys = [kl_polynomial(x, w, cache) for x, w in _cases(5)]
    norm = max(sum(map(abs, p.coeffs)) for p in polys)
    degree = max(p.degree for p in polys)
    bound = (120 * norm * norm).bit_length()
    assert rows.bits == bound + 1
    assert rows.width == bound + 2 * rows.bits * degree + 1
    assert (rows.bits, rows.width) == (12, 60)


@pytest.mark.parametrize("cap, rows", [(None, 120), (1, 1)])
def test_exhaustive_inversion_reads_every_column_once(monkeypatch, cap, rows):
    # Uncapped, the batch fills each of the 120 columns of S_5 once,
    # reading the cache exactly once at each double-coset maximum of
    # each top and nowhere else, and sums the row of each top.  A cap
    # that keeps only the case (e, e) fills only what that row reads:
    # its own column, which reads (e, e), and the column of w0, whose
    # only maximum is w0, for the pack of e.
    import klpoly.verify

    read, summed = [], []

    def counted_kl(z, w, cache):
        read.append((z, w))
        return _kl(z, w, cache)

    class Counted(klpoly.verify._InversionRows):
        def failures(self, t):
            summed.append(t)
            return super().failures(t)

    monkeypatch.setattr(klpoly.verify, "_kl", counted_kl)
    monkeypatch.setattr(klpoly.verify, "_InversionRows", Counted)
    report = verify_inversion_identity_batch(5, case_cap=cap)
    assert report.passed
    e, cache = identity(5), KLCache()
    if cap is None:
        maxima = [
            (z, w) for w in all_perms(5) for z, _ in _maxima_column(e, w, cache)
        ]
        assert sorted(read) == sorted(maxima)
    else:
        w0 = (5, 4, 3, 2, 1)
        assert read == [(e, e), (w0, w0)]
    assert len(summed) == rows


@pytest.mark.parametrize("n", [4, 5])
def test_fill_columns_groups_every_ideal_by_its_reads(n):
    # Every top's groups split its ideal [e, w]: no z sits in two groups,
    # every z carries its group's P(z, w), and the even lists hold the z
    # with l(w) - l(z) even.  Each group is one read, at a double-coset
    # maximum of w's descents.
    tables = _down_sets(n)
    perms, parity, ideals = tables[:3]
    cache, reference = KLCache(), KLCache()
    yielded = []
    for t, column in _fill_columns(tables, cache):
        yielded.append(t)
        w = perms[t]
        listed = [z for _, even, odd in column for z in even + odd]
        assert len(listed) == len(set(listed)) == ideals[t].bit_count(), w
        assert sum(1 << z for z in listed) == ideals[t], w
        for p, even, odd in column:
            for sign, part in enumerate((even, odd)):
                for z in part:
                    assert parity[t] ^ parity[z] == sign, (w, z)
                    assert kl_polynomial(perms[z], w, reference) == p, (w, z)
        maxima = [z for z, _ in _maxima_column(identity(n), w, reference)]
        assert len(column) == len(maxima), w
    assert yielded == list(range(len(perms)))


@pytest.mark.parametrize("cap, filled", [(1, 2), (7, 8), (100, 34), (3000, 120)])
def test_capped_fill_yields_only_the_columns_its_rows_read(
    monkeypatch, cap, filled
):
    # A capped S_5 run fills the columns of its kept tops and of w0 x for
    # every x below one of them, each once, in increasing index order.
    # Its first 3,000 cases end inside the 112th top, and need every
    # column.
    import klpoly.verify

    yielded = []

    def recorded(tables, cache, tops=None):
        for t, column in _fill_columns(tables, cache, tops):
            yielded.append(t)
            yield t, column

    monkeypatch.setattr(klpoly.verify, "_fill_columns", recorded)
    assert verify_inversion_identity_batch(5, case_cap=cap).passed
    perms = list(all_perms(5))
    index = {v: i for i, v in enumerate(perms)}
    e, kept = identity(5), {w for _, w in _cases(5)[:cap]}
    below = set().union(*(interval(e, w).elements for w in kept))
    needed = {index[w] for w in kept} | {index[_w0_times(x)] for x in below}
    assert yielded == sorted(needed)
    assert len(yielded) == filled


def test_fill_columns_shares_one_int_per_index():
    # The groups of every column list an index as one int object, also
    # past CPython's small ints.
    tables = _down_sets(6)
    seen = {}
    for _, column in _fill_columns(tables, KLCache(), range(600, 720)):
        for _, even, odd in column:
            for z in even + odd:
                assert seen.setdefault(z, z) is z
    assert len(seen) == 720


@pytest.mark.parametrize(
    "wrong",
    [
        lambda p: p + ONE,
        lambda p: p + ONE.shift(8),
        lambda p: p + IntPolynomial([1 << 16, -1]),
        lambda p: ZERO,
    ],
    ids=["plus-1", "plus-q8", "plus-2^16-q", "zero"],
)
@pytest.mark.parametrize("z", PROBED_BOTTOMS_S4)
def test_inversion_batch_fails_exactly_where_the_check_does(
    z, wrong, inversion_sum
):
    # A wrong P(z, w) must fail the same cases in the batch as in the
    # one-pair check, whatever way the batch gets its intervals, and
    # those are the cases whose sum, taken in Z[q], is not delta(x, w).
    # The entry is seeded at every top w whose lookups read it.  2^16 - q
    # vanishes at q = 2^16, the width the batch packs correct S_4 values
    # at, so a width that ignored the values read would miss it.  A zero
    # entry is wrong like any other: z lies below w, so neither check
    # may take it for an incomparable pair.  The batch reads a column
    # only at its double-coset maxima and fills the rest through coset
    # moves, so the seed, a maximum, must reach its whole coset.
    for w in _probed_tops_s4(z):
        assert z in [m for m, _ in _maxima_column(identity(4), w, KLCache())]

        def seeded():
            cache = KLCache()
            cache.memo[(z, w)] = wrong(kl_polynomial(z, w))
            return cache

        report = verify_inversion_identity_batch(4, seeded())
        expected = {
            f"x={format_perm(x)} w={format_perm(top)}"
            for x, top in _cases(4)
            if not check_inversion_identity(x, top, seeded())
        }
        assert expected, w
        assert sorted(f.case for f in report.failures) == sorted(expected), w
        cache = seeded()
        assert expected == {
            f"x={format_perm(x)} w={format_perm(top)}"
            for x, top in _cases(4)
            if inversion_sum(x, top, cache) != (ONE if x == top else 0)
        }, w


@pytest.mark.parametrize(
    "error", [ONE, ONE.shift(8)], ids=["plus-1", "plus-q8"]
)
@pytest.mark.parametrize("z", PROBED_BOTTOMS_S4)
def test_capped_inversion_batch_fails_exactly_where_the_check_does(z, error):
    # A cap that stops partway through the cases of a top fills only
    # the columns that its kept rows read, and decides only the tops it
    # keeps; the cases it keeps must still fail as they do alone.  The cap stops just after
    # the first failing case.
    cases = _cases(4)
    for w in _probed_tops_s4(z):

        def seeded():
            cache = KLCache()
            cache.memo[(z, w)] = kl_polynomial(z, w) + error
            return cache

        failing = [
            i for i, (x, top) in enumerate(cases)
            if not check_inversion_identity(x, top, seeded())
        ]
        cap = failing[0] + 1
        assert cases[cap][1] == cases[cap - 1][1], w
        expected = [
            f"x={format_perm(x)} w={format_perm(top)}"
            for x, top in cases[:cap]
            if not check_inversion_identity(x, top, seeded())
        ]
        # The cap keeps some failing cases and drops others.
        assert expected and len(expected) < len(failing), w
        report = verify_inversion_identity_batch(4, seeded(), case_cap=cap)
        assert report.cases == cap
        assert sorted(f.case for f in report.failures) == sorted(expected), w


def test_every_cap_keeps_the_failures_of_its_first_cases():
    # The batch reports from its failing fields, with no case list, so a
    # cap must keep the first cap pairs of the all-pairs filter, also
    # when it ends inside a top.  This wrong entry fails four cases under
    # three tops.
    z, w = (3, 2, 1, 4), (3, 4, 1, 2)

    def seeded():
        cache = KLCache()
        cache.memo[(z, w)] = kl_polynomial(z, w) + ONE
        return cache

    cache = seeded()
    failing = [
        f"x={format_perm(x)} w={format_perm(top)}"
        if not check_inversion_identity(x, top, cache) else None
        for x, top in _cases(4)
    ]
    assert len(failing) == 213
    assert sum(f is not None for f in failing) == 4
    for cap in range(1, 215):
        report = verify_inversion_identity_batch(4, seeded(), case_cap=cap)
        assert report.cases == min(cap, 213)
        expected = [f for f in failing[:cap] if f is not None]
        assert [f.case for f in report.failures] == expected, cap


def test_exhaustive_inversion_reads_each_polynomial_once():
    # Per-term lookups made 20,459 memo hits per S_5 sweep; reading each
    # column once makes fewer lookups than there are cases.
    reads = set()

    class RecordedReads(dict):
        def get(self, key, default=None):
            reads.add(key)
            return super().get(key, default)

    cache = KLCache()
    cache.memo = RecordedReads()
    assert verify_inversion_identity_batch(5, cache).passed
    # The flattened reads are the keys looked up that are comparable with
    # every position active.  A pair and its w0-image (w0 x w0, w0 w w0)
    # share P, and the lookup of either reads the other's entry, so each
    # of the 8 misses computes one w0-class of those reads, stores it
    # under the one key it computed, and nothing else is stored.
    def w0_class(key):
        return min(key, (_w0_conjugate(key[0]), _w0_conjugate(key[1])))

    flat = {key for key in reads
            if bruhat_leq(*key) and len(active_positions(*key)) == len(key[0])}
    assert cache.misses == len({w0_class(key) for key in flat}) == 8
    assert len({w0_class(key) for key in cache.memo}) == len(cache.memo) == 8
    assert cache.hits == 44
    assert cache.hits + cache.misses < 3781


def test_every_memo_key_is_a_raised_pair_with_every_position_active():
    # The lookup raises, then flattens, and only then computes and
    # stores, so the memo holds exactly the computed pairs.
    for run in [
        lambda c: verify_inversion_identity_batch(5, c),
        lambda c: verify_regular_closed_forms(8, c),
        lambda c: verify_inverse_closed_forms(12, c),
    ]:
        cache = KLCache()
        assert run(cache).passed
        assert len(cache.memo) == cache.misses > 0
        for x, w in cache.memo:
            right, left = cache._top(w)
            assert _raise_bottom(x, right, left) == x
            assert len(active_positions(x, w)) == len(x)


def test_exhaustive_inversion_on_s6():
    cache = KLCache()
    report = verify_inversion_identity_batch(6, cache)
    assert report.passed
    assert report.cases == 98407
    assert report.parameter_range == "S_6 exhaustive"
    assert report.seed is None
    assert (cache.hits, cache.misses) == (1095, 96)
    assert len(cache.memo) == cache.misses


def test_inversion_batch_fails_where_the_check_does_on_s6():
    # A wrong P(z, w) is read only by the cases whose top is w and those
    # whose bottom is w0 w: z is the maximum of its double coset under the
    # descents of w, so lookups read the entry, and w is a coatom of w0,
    # the only top above it, which raises every bottom to itself, so no
    # other polynomial is computed from it.  2^18 - q vanishes at
    # q = 2^18, the B the batch packs correct S_6 values at.
    w, z = (6, 4, 5, 3, 2, 1), (4, 3, 6, 5, 2, 1)
    assert _raise_bottom(z, right_descents(w), left_descents(w)) == z
    w0w = (1, 3, 2, 4, 5, 6)

    def seeded():
        cache = KLCache()
        cache.memo[(z, w)] = kl_polynomial(z, w) + IntPolynomial([1 << 18, -1])
        return cache

    report = verify_inversion_identity_batch(6, seeded())
    cache = seeded()
    # The cases with top w, and those with bottom w0 w: 1,343 of the
    # 98,407, walked directly rather than filtered from all pairs.
    pairs = {(x, w) for x in interval(identity(6), w).elements}
    pairs |= {(w0w, top) for top in interval(w0w, (6, 5, 4, 3, 2, 1)).elements}
    assert len(pairs) == 1343
    expected = {
        f"x={format_perm(x)} w={format_perm(top)}"
        for x, top in pairs
        if not check_inversion_identity(x, top, cache)
    }
    assert expected
    assert sorted(f.case for f in report.failures) == sorted(expected)


def test_the_one_pair_check_does_not_use_the_packed_rows(monkeypatch):
    # The one-pair check is the batch's independent reference, so it
    # must not run through the batch's packing: the rows have one owner,
    # and with them broken the check and the sampled batch still pass,
    # and only the exhaustive batch fails.
    import klpoly.kl
    import klpoly.verify

    assert not hasattr(klpoly.kl, "_InversionRows")

    class Broken:
        def __init__(self, *args):
            raise AssertionError("the packed rows were used")

    monkeypatch.setattr(klpoly.verify, "_InversionRows", Broken)
    cache = KLCache()
    pairs = _cases(4)
    assert len(pairs) == 213
    assert all(check_inversion_identity(x, w, cache) for x, w in pairs)
    assert verify_inversion_identity_batch(7, samples=20, seed=1).passed
    with pytest.raises(AssertionError, match="packed rows"):
        verify_inversion_identity_batch(4)


def test_inversion_sampled_is_seeded():
    a = verify_inversion_identity_batch(5, samples=30, seed=11)
    b = verify_inversion_identity_batch(5, samples=30, seed=11)
    assert a.passed and b.passed
    assert a.cases == b.cases == 30
    assert a.seed == 11
    assert a.parameter_range == b.parameter_range


def test_capped_sampled_inversion_draws_only_the_pairs_it_runs(monkeypatch):
    # A capped sampled run draws the pairs it keeps and no more, and
    # reports as if all of them had been drawn.
    import klpoly.verify

    drawn = []
    real = klpoly.verify.random_comparable_pair

    def counting(n, rng):
        drawn.append(real(n, rng))
        return drawn[-1]

    monkeypatch.setattr(klpoly.verify, "random_comparable_pair", counting)
    full = verify_inversion_identity_batch(5, samples=30, seed=11)
    assert len(drawn) == 30
    drawn.clear()
    capped = verify_inversion_identity_batch(5, samples=30, seed=11, case_cap=4)
    assert len(drawn) == 4
    assert capped.passed and capped.cases == 4 and capped.seed == 11
    assert capped.parameter_range == full.parameter_range == "S_5, 30 sampled pairs"
    drawn.clear()
    above = verify_inversion_identity_batch(5, samples=30, seed=11, case_cap=40)
    assert len(drawn) == 30
    assert above.cases == 30


def test_inversion_rejects_unbounded_exhaustive_run():
    with pytest.raises(ValueError):
        verify_inversion_identity_batch(7)
    with pytest.raises(ValueError):
        verify_inversion_identity_batch(5, samples=0)
    with pytest.raises(ValueError):
        verify_inversion_identity_batch(1)


def test_one_pass_reads_the_same_polynomials():
    # The checks stop reading a top's pass at the first polynomial that
    # fails them, so the pass must read lazily.  Reading every maximum of
    # every top instead takes smoothness at S_6 to 96 misses and 1,096
    # hits.
    cache = KLCache()
    assert verify_smoothness_equivalence(6, cache).passed
    assert (cache.misses, cache.hits) == (63, 393)
    cache = KLCache()
    assert verify_regular_closed_forms(14, cache).passed
    assert (cache.hits, cache.misses) == (126, 72)
    assert len(cache.memo) == cache.misses


def test_smoothness_lists_only_the_maxima_it_reads(monkeypatch):
    # Each top's pass lists a maximum only when the check asks for its
    # pair, so no maximum is listed past a top's first P != 1.  Listing
    # every maximum of every top would take 2,940.
    import klpoly.kl
    import klpoly.verify

    listed, read = [0], [0]
    real_maxima = klpoly.kl._double_coset_maxima
    real_column = klpoly.verify._maxima_column

    def counting_maxima(*args):
        maxima = iter(real_maxima(*args))
        try:
            for z in maxima:
                listed[0] += 1
                yield z
        finally:
            # Maxima already built but never asked for, as a list would
            # hold them; a lazy listing holds none.
            listed[0] += length_hint(maxima)

    def counting_column(*args):
        for pair in real_column(*args):
            read[0] += 1
            yield pair

    monkeypatch.setattr(klpoly.kl, "_double_coset_maxima", counting_maxima)
    monkeypatch.setattr(klpoly.verify, "_maxima_column", counting_column)
    assert verify_smoothness_equivalence(6).passed
    assert listed[0] == read[0] == 954


def test_maximal_singular_points_of_s5_are_family_pairs():
    # The paper's hypothesis: x is maximal in the singular locus of X_w.
    # A singular z (P(z, w) != 1) is maximal when every u covering z with
    # u <= w has P(u, w) = 1.  The singular locus is closed downward and
    # stable under the parabolic actions of w's descents, so its maximal
    # points are double-coset maxima, which the pass over [e, w] yields.
    cache = KLCache()
    e = identity(5)
    maximal = [
        (z, w)
        for w in all_perms(5)
        for z, p in _maxima_column(e, w, cache)
        if p != ONE
        and all(
            kl_polynomial(u, w, cache) == ONE
            for u in covers_up(z)
            if bruhat_leq(u, w)
        )
    ]
    assert len({w for _, w in maximal}) == 32
    assert len(maximal) == 41
    rows = {family_pair(*case): case for case in _family_cases(5)}
    kinds = []
    outside = []
    for z, w in maximal:
        case = rows.get(flatten_pair(z, w))
        if case is None:
            outside.append((z, w))
            continue
        kinds.append(case[0])
        assert kl_polynomial(z, w, cache) == closed_form_regular(*case)
        assert inverse_kl(z, w, cache) == closed_form_inverse(*case)
    assert (kinds.count("x"), kinds.count("y")) == (20, 20)
    # The one pair outside both families: (y_2, v_2), P = 1 + q^2.
    y2, v2 = (1, 4, 3, 2, 5), (4, 5, 3, 1, 2)
    assert outside == [(y2, v2)]
    assert flatten_pair(y2, v2) == (y2, v2)
    assert kl_polynomial(y2, v2, cache) == IntPolynomial([1, 0, 1])
    assert inverse_kl(y2, v2, cache) == IntPolynomial([1, 2, 1])


def test_smoothness_small():
    report = verify_smoothness_equivalence(3)
    assert report.passed
    assert report.cases == 6
    report = verify_smoothness_equivalence(4)
    assert report.passed
    assert report.cases == 24
    with pytest.raises(ValueError):
        verify_smoothness_equivalence(7)


_CAPPED_RUNS = pytest.mark.parametrize(
    "run",
    [
        lambda cap: verify_regular_closed_forms(6, case_cap=cap),
        lambda cap: verify_inverse_closed_forms(6, case_cap=cap),
        lambda cap: verify_inversion_identity_batch(4, case_cap=cap),
        lambda cap: verify_smoothness_equivalence(4, case_cap=cap),
    ],
    ids=["regular", "inverse", "inversion", "smoothness"],
)


@_CAPPED_RUNS
def test_case_cap_truncates(run):
    capped = run(1)
    assert capped.cases == 1
    assert capped.passed
    full = run(None)
    above = run(full.cases + 1)
    for report in (full, above):
        report.millis = 0
    assert above == full


@_CAPPED_RUNS
@pytest.mark.parametrize("cap", [0, -1])
def test_case_cap_below_one_is_rejected(run, cap):
    # A negative cap would otherwise slice from the end of the case list.
    with pytest.raises(ValueError, match="case_cap"):
        run(cap)


def test_report_json_schema():
    report = verify_smoothness_equivalence(2)
    data = report.to_json_dict()
    assert list(data.keys()) == ["check", "range", "cases", "failures", "seed", "millis"]
    parsed = json.loads(report.to_json())
    assert parsed["check"] == "smoothness-equivalence"
    assert parsed["failures"] == []
    assert isinstance(parsed["millis"], int)


def test_report_text_rendering():
    passing = VerificationReport(
        check="demo", parameter_range="none", cases=2, failures=[], millis=5
    )
    assert "result: PASS" in passing.text()
    failing = VerificationReport(
        check="demo",
        parameter_range="none",
        cases=2,
        failures=[Failure(case="k=1", expected="1", actual="1 + q")],
        seed=4,
        millis=5,
    )
    text = failing.text()
    assert "result: FAIL (1 failures)" in text
    assert "k=1: expected 1, got 1 + q" in text
    assert "seed: 4" in text
    assert not failing.passed


def test_random_comparable_pair_is_comparable_and_seeded():
    rng = random.Random(8)
    for _ in range(30):
        x, w = random_comparable_pair(5, rng)
        assert bruhat_leq(x, w)
    again = random.Random(8)
    first = [random_comparable_pair(5, again) for _ in range(5)]
    repeat = [random_comparable_pair(5, random.Random(8)) for _ in range(1)]
    assert first[0] == repeat[0]
