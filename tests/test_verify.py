import json

import pytest

from klpoly.bruhat import bruhat_leq, interval
from klpoly.families import _family_cases, closed_form_regular, family_pair
from klpoly.kl import (
    KLCache,
    _raise_bottom,
    active_positions,
    check_inversion_identity,
    kl_polynomial,
)
from klpoly.perm import (
    all_perms,
    format_perm,
    identity,
    left_descents,
    length,
    right_descents,
)
from klpoly.polynomial import ONE, IntPolynomial
from klpoly.verify import (
    Failure,
    VerificationReport,
    _comparable_pairs,
    _double_coset_maxima,
    _down_layers,
    random_comparable_pair,
    verify_coatom_bound,
    verify_inverse_closed_forms,
    verify_inversion_identity_batch,
    verify_regular_closed_forms,
    verify_smoothness_equivalence,
)

import random


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
    report = verify_inverse_closed_forms(12)
    assert report.passed
    assert report.cases == 111


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
    maxima = _double_coset_maxima(bottom, top)
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


@pytest.mark.parametrize("n", [4, 5])
def test_double_coset_maxima_are_the_raised_interval(n):
    # Raising every z of [x, w] through the descents of w lands exactly
    # on the listed maxima, so they carry every value of the column.
    for w in all_perms(n):
        right, left = right_descents(w), left_descents(w)
        bottoms = all_perms(n) if n == 4 else [identity(n)]
        for x in bottoms:
            if not bruhat_leq(x, w):
                continue
            maxima = _double_coset_maxima(x, w)
            assert maxima == sorted(maxima, key=lambda z: (length(z), z))
            raised = {_raise_bottom(z, right, left) for z in interval(x, w).elements}
            assert set(maxima) == raised


def test_inverse_closed_forms_full_range():
    report = verify_inverse_closed_forms(7)
    assert report.passed
    assert report.cases == 31


def test_max_entries_bounds_every_table():
    # Unbounded, the sweep keeps 69 polynomials (30 computed, the rest
    # stored beside their flattening) and 73 top records.
    full = KLCache()
    assert verify_regular_closed_forms(8, full).passed
    assert (full.misses, len(full.memo), len(full.tops)) == (30, 69, 73)
    cache = KLCache(max_entries=64)
    assert verify_regular_closed_forms(8, cache).passed
    # Both tables evict, but no evicted entry is asked for again.
    assert cache.misses == 30
    assert len(cache.memo) <= 64
    assert len(cache.tops) <= 64


def test_every_batch_passes_with_one_entry():
    batches = [
        lambda c: verify_regular_closed_forms(6, c),
        lambda c: verify_inverse_closed_forms(6, c),
        lambda c: verify_inversion_identity_batch(4, c),
        lambda c: verify_smoothness_equivalence(4, c),
        lambda c: verify_coatom_bound(3, c),
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


@pytest.mark.parametrize("n", [4, 5])
def test_exhaustive_inversion_cases_match_all_pairs_filter(n):
    # The case list, and so what case_cap keeps, is the all-pairs filter.
    old = [(x, w) for w in all_perms(n) for x in all_perms(n) if bruhat_leq(x, w)]
    assert _comparable_pairs(n) == old


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_down_layers_match_the_interval_walks(n):
    # The one-pass closure over the covers builds every [e, w] at once;
    # the walker of a single interval is its independent check, down to
    # the order of the tops and of each layer.
    e = identity(n)
    walked = {w: interval(e, w).layers for w in all_perms(n)}
    downs = _down_layers(n)
    assert list(downs) == list(walked)
    assert downs == walked


def test_exhaustive_inversion_packs_each_z_once(monkeypatch):
    # The rows are built once, from the column of w0: it has every z and
    # the N = 120 terms of the longest row, and its duals read every
    # polynomial, so each z is packed once and every row is summed over
    # those packs.  B and W are the least the proof allows, with a and d
    # the largest norm and degree among all polynomials of S_5:
    # B = bitlen(N a^2) + 1 and W = bitlen(N a^2) + 2 B d + 1.
    import klpoly.verify

    built, summed = [], []

    class Counted(klpoly.verify._InversionRows):
        def __init__(self, column, dual):
            super().__init__(column, dual)
            built.append(self)

        def row(self, column):
            summed.append(column)
            return super().row(column)

    monkeypatch.setattr(klpoly.verify, "_InversionRows", Counted)
    assert verify_inversion_identity_batch(5).passed
    assert len(summed) == 120
    (rows,) = built
    assert len(rows.packs) == 120
    cache = KLCache()
    polys = [kl_polynomial(x, w, cache) for x, w in _comparable_pairs(5)]
    norm = max(sum(map(abs, p.coeffs)) for p in polys)
    degree = max(p.degree for p in polys)
    bound = (120 * norm * norm).bit_length()
    assert rows.terms == 120
    assert rows.bits == bound + 1
    assert rows.width == bound + 2 * rows.bits * degree + 1
    assert (rows.bits, rows.width) == (12, 60)


@pytest.mark.parametrize(
    "error",
    [ONE, IntPolynomial.q_power(8), IntPolynomial([1 << 16, -1])],
    ids=["plus-1", "plus-q8", "plus-2^16-q"],
)
@pytest.mark.parametrize("z", [(1, 2, 3, 4), (2, 1, 4, 3), (3, 2, 1, 4)])
def test_inversion_batch_fails_exactly_where_the_check_does(
    z, error, inversion_sum
):
    # A wrong P(z, w) must fail the same cases in the batch as in the
    # one-pair check, whatever way the batch gets its intervals, and
    # those are the cases whose sum, taken in Z[q], is not delta(x, w).
    # 2^16 - q vanishes at q = 2^16, the width the batch packs correct
    # S_4 values at, so a width that ignored the values read would miss it.
    w = (4, 2, 3, 1)

    def seeded():
        cache = KLCache(raise_bottoms=False)
        cache.memo[(z, w)] = kl_polynomial(z, w) + error
        return cache

    report = verify_inversion_identity_batch(4, seeded())
    expected = {
        f"x={format_perm(x)} w={format_perm(top)}"
        for x, top in _comparable_pairs(4)
        if not check_inversion_identity(x, top, seeded())
    }
    assert expected
    assert sorted(f.case for f in report.failures) == sorted(expected)
    cache = seeded()
    assert expected == {
        f"x={format_perm(x)} w={format_perm(top)}"
        for x, top in _comparable_pairs(4)
        if inversion_sum(x, top, cache) != (ONE if x == top else 0)
    }


@pytest.mark.parametrize(
    "error",
    [ONE, IntPolynomial.q_power(8), IntPolynomial([1 << 16, -1])],
    ids=["plus-1", "plus-q8", "plus-2^16-q"],
)
@pytest.mark.parametrize(
    "m, w",
    [((2, 1, 4, 3), (4, 2, 3, 1)), ((1, 3, 2, 4), (3, 4, 1, 2)),
     ((1, 4, 3, 2), (3, 4, 1, 2)), ((3, 2, 1, 4), (3, 4, 1, 2))],
)
def test_inversion_batch_fails_where_the_check_does_with_raising_on(m, w, error):
    # With the default cache the batch reads a column only at its
    # double-coset maxima and fills the rest through coset moves.  A wrong
    # entry at a maximum must reach its whole coset, in the batch as in
    # the one-pair check, which reads every z of [x, w] from the cache.
    assert m in _double_coset_maxima(identity(4), w)

    def seeded():
        cache = KLCache()
        cache.memo[(m, w)] = kl_polynomial(m, w) + error
        return cache

    report = verify_inversion_identity_batch(4, seeded())
    expected = {
        f"x={format_perm(x)} w={format_perm(top)}"
        for x, top in _comparable_pairs(4)
        if not check_inversion_identity(x, top, seeded())
    }
    assert expected
    assert sorted(f.case for f in report.failures) == sorted(expected)


@pytest.mark.parametrize(
    "error", [ONE, IntPolynomial.q_power(8)], ids=["plus-1", "plus-q8"]
)
@pytest.mark.parametrize("z", [(1, 2, 3, 4), (2, 1, 4, 3), (3, 2, 1, 4)])
def test_capped_inversion_batch_fails_exactly_where_the_check_does(z, error):
    # A cap that stops partway through the cases of w leaves some of its
    # columns unread; the cases it keeps must still fail as they do alone.
    w = (4, 2, 3, 1)

    def seeded():
        cache = KLCache(raise_bottoms=False)
        cache.memo[(z, w)] = kl_polynomial(z, w) + error
        return cache

    cases = _comparable_pairs(4)
    cap = cases.index(((1, 2, 3, 4), w)) + 7
    assert cases[cap][1] == w
    failing = [
        f"x={format_perm(x)} w={format_perm(top)}"
        for x, top in cases
        if not check_inversion_identity(x, top, seeded())
    ]
    expected = [
        f"x={format_perm(x)} w={format_perm(top)}"
        for x, top in cases[:cap]
        if not check_inversion_identity(x, top, seeded())
    ]
    # The cap keeps some failing cases and drops others.
    assert expected and len(expected) < len(failing)
    report = verify_inversion_identity_batch(4, seeded(), case_cap=cap)
    assert report.cases == cap
    assert sorted(f.case for f in report.failures) == sorted(expected)


def test_exhaustive_inversion_reads_each_polynomial_once():
    # Per-term lookups made 20,459 memo hits per S_5 sweep; reading each
    # column once makes fewer lookups than there are cases.
    cache = KLCache()
    assert verify_inversion_identity_batch(5, cache).passed
    # Each of the 12 misses stores one pair with every position active,
    # computed once; the other 112 entries are pairs stored beside their
    # flattening.
    flat = [key for key in cache.memo
            if len(active_positions(*key)) == len(key[0])]
    assert cache.misses == len(flat) == 12
    assert len(cache.memo) == 124
    assert cache.hits + cache.misses < 3781


def test_exhaustive_inversion_on_s6():
    report = verify_inversion_identity_batch(6)
    assert report.passed
    assert report.cases == 98407
    assert report.parameter_range == "S_6 exhaustive"
    assert report.seed is None


def test_inversion_batch_fails_where_the_check_does_on_s6():
    # A wrong P(z, w0) is read only by the cases whose top is w0 and those
    # whose bottom is w0 w0 = e: nothing lies above w0, so no other
    # polynomial is computed from it.  2^18 - q vanishes at q = 2^18, the
    # B the batch packs correct S_6 values at.
    w, z = (6, 5, 4, 3, 2, 1), (2, 1, 4, 3, 6, 5)
    e = identity(6)

    def seeded():
        cache = KLCache(raise_bottoms=False)
        cache.memo[(z, w)] = kl_polynomial(z, w) + IntPolynomial([1 << 18, -1])
        return cache

    report = verify_inversion_identity_batch(6, seeded())
    cache = seeded()
    expected = {
        f"x={format_perm(x)} w={format_perm(top)}"
        for x, top in _comparable_pairs(6)
        if (top == w or x == e) and not check_inversion_identity(x, top, cache)
    }
    assert expected
    assert sorted(f.case for f in report.failures) == sorted(expected)


def test_inversion_sampled_is_seeded():
    a = verify_inversion_identity_batch(5, samples=30, seed=11)
    b = verify_inversion_identity_batch(5, samples=30, seed=11)
    assert a.passed and b.passed
    assert a.cases == b.cases == 30
    assert a.seed == 11
    assert a.parameter_range == b.parameter_range


def test_inversion_rejects_unbounded_exhaustive_run():
    with pytest.raises(ValueError):
        verify_inversion_identity_batch(7)
    with pytest.raises(ValueError):
        verify_inversion_identity_batch(5, samples=0)
    with pytest.raises(ValueError):
        verify_inversion_identity_batch(1)


def test_smoothness_small():
    report = verify_smoothness_equivalence(3)
    assert report.passed
    assert report.cases == 6
    report = verify_smoothness_equivalence(4)
    assert report.passed
    assert report.cases == 24
    with pytest.raises(ValueError):
        verify_smoothness_equivalence(7)


def test_coatom_bound():
    report = verify_coatom_bound(3)
    assert report.passed
    assert report.cases == 2
    assert any("k=2: coefficient 1, coatoms 4" in note for note in report.notes)
    assert any("k=3: coefficient 4, coatoms 9" in note for note in report.notes)
    with pytest.raises(ValueError):
        verify_coatom_bound(1)


_CAPPED_RUNS = pytest.mark.parametrize(
    "run",
    [
        lambda cap: verify_regular_closed_forms(6, case_cap=cap),
        lambda cap: verify_inverse_closed_forms(6, case_cap=cap),
        lambda cap: verify_inversion_identity_batch(4, case_cap=cap),
        lambda cap: verify_smoothness_equivalence(4, case_cap=cap),
        lambda cap: verify_coatom_bound(3, case_cap=cap),
    ],
    ids=["regular", "inverse", "inversion", "smoothness", "coatom-bound"],
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
    report = verify_coatom_bound(2)
    data = report.to_json_dict()
    assert list(data.keys()) == ["check", "range", "cases", "failures", "seed", "millis"]
    parsed = json.loads(report.to_json())
    assert parsed["check"] == "coatom-bound"
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
