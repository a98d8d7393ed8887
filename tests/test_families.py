import pytest

from klpoly.bruhat import bruhat_leq, interval
from klpoly.families import (
    _FAMILIES,
    FamilySpec,
    NontrivialIntervalError,
    _family_cases,
    closed_form_inverse,
    closed_form_regular,
    family_pair,
    inverse_kl_from_interval_sum,
    lemma_one_sides,
    lemma_two_sides,
    make_family,
    parse_family_spec,
    signed_weight,
)
from klpoly.kl import KLCache, inverse_kl, kl_polynomial
from klpoly.perm import (
    all_perms,
    avoids_pattern,
    format_perm,
    identity,
    length,
    longest_element,
)
from klpoly.polynomial import ONE, IntPolynomial
from conftest import members


def test_family_spec_validation():
    spec = FamilySpec("y", 2, 3)
    assert spec.size == 7
    assert FamilySpec("x", 2, 3).size == 5
    with pytest.raises(ValueError):
        FamilySpec("z", 1, 1)
    with pytest.raises(ValueError):
        FamilySpec("x", 0, 1)
    with pytest.raises(ValueError):
        FamilySpec("v", 2, -1)


@pytest.mark.parametrize(
    "k, m", [(2.0, 1), (2, 3.0), (2.5, 2), ("2", 1), (None, 1)]
)
def test_family_parameters_must_be_integers(k, m):
    with pytest.raises(ValueError, match="parameters must be integers"):
        FamilySpec("x", k, m)
    for closed_form in (closed_form_regular, closed_form_inverse):
        for pair in ("x", "y"):
            with pytest.raises(ValueError, match="parameters must be integers"):
                closed_form(pair, k, m)
    with pytest.raises(ValueError, match="parameters must be integers"):
        family_pair("x", k, m)
    for lemma in (lemma_one_sides, lemma_two_sides):
        with pytest.raises(ValueError, match="parameters must be integers"):
            lemma(k, m)


def test_family_parameters_accept_bools_as_ints():
    assert FamilySpec("x", True, 2) == FamilySpec("x", 1, 2)
    assert closed_form_regular("x", True, 2) == ONE


def test_parse_family_spec():
    assert parse_family_spec("x:2,3") == FamilySpec("x", 2, 3)
    assert parse_family_spec("V:1,4") == FamilySpec("v", 1, 4)
    for bad in ("x", "x:2", "x:2,3,4", "x:a,b", "q:1,1"):
        with pytest.raises(ValueError):
            parse_family_spec(bad)


def test_make_family_fixed_points():
    assert make_family(FamilySpec("x", 2, 2)) == (2, 1, 4, 3)
    assert make_family(FamilySpec("w", 2, 2)) == (4, 2, 3, 1)
    assert make_family(FamilySpec("y", 1, 1)) == (1, 3, 2, 4)
    assert make_family(FamilySpec("v", 1, 1)) == (3, 4, 1, 2)
    assert make_family(FamilySpec("x", 1, 1)) == (1, 2)
    assert make_family(FamilySpec("w", 1, 1)) == (2, 1)
    assert make_family(FamilySpec("v", 2, 1)) == (4, 2, 5, 1, 3)


def test_reversal_degenerations():
    # With k = 1 or m = 1 the "w" member collapses to the order
    # reversal, which avoids both singular patterns.
    for k, m in [(1, 1), (1, 4), (5, 1)]:
        w = make_family(FamilySpec("w", k, m))
        assert w == longest_element(k + m)
    for total in range(2, 10):
        for k, m in ((1, total - 1), (total - 1, 1)):
            w = make_family(FamilySpec("w", k, m))
            assert avoids_pattern(w, (3, 4, 1, 2))
            assert avoids_pattern(w, (4, 2, 3, 1))


def _y_display(k, m):
    """The 'y' construction evaluated literally, allowing k=0 or m=0."""
    return tuple(
        list(range(k, 0, -1))
        + [k + 2, k + 1]
        + list(range(k + m + 2, k + 2, -1))
    )


def test_y_display_extends_to_degenerate_parameters():
    for m in range(1, 6):
        assert _y_display(0, m) == make_family(FamilySpec("x", 2, m))
    for k in range(1, 6):
        assert _y_display(k, 0) == make_family(FamilySpec("x", k, 2))


def test_length_bookkeeping():
    for k in range(1, 9):
        for m in range(1, 9):
            x, w = family_pair("x", k, m)
            assert length(w) - length(x) == k + m - 1
            y, v = family_pair("y", k, m)
            assert length(v) - length(y) == k + m + 1


def test_pairs_are_comparable():
    for k in range(1, 7):
        for m in range(1, 7):
            x, w = family_pair("x", k, m)
            assert bruhat_leq(x, w)
            y, v = family_pair("y", k, m)
            assert bruhat_leq(y, v)


def test_family_pair_rejects_unknown_kind():
    with pytest.raises(ValueError):
        family_pair("w", 2, 2)


def test_closed_form_regular():
    assert closed_form_regular("x", 3, 2) == IntPolynomial([1, 1])
    assert closed_form_regular("x", 1, 5) == ONE
    assert closed_form_regular("x", 4, 4) == IntPolynomial([1, 1, 1, 1])
    for k, m in [(1, 1), (2, 5), (4, 2)]:
        assert closed_form_regular("y", k, m) == IntPolynomial([1, 1])
    with pytest.raises(ValueError):
        closed_form_regular("w", 2, 2)
    with pytest.raises(ValueError):
        closed_form_regular("x", 0, 2)


def test_closed_form_inverse():
    assert closed_form_inverse("x", 2, 3) == IntPolynomial([1, 2])
    assert closed_form_inverse("x", 3, 3) == IntPolynomial([1, 4, 1])
    assert closed_form_inverse("x", 1, 1) == ONE
    assert closed_form_inverse("y", 2, 1) == IntPolynomial([1, 2])
    assert closed_form_inverse("y", 1, 1) == IntPolynomial([1, 1])
    assert closed_form_inverse("y", 2, 3) == IntPolynomial([1, 4])


def test_closed_forms_have_constant_term_one():
    for pair in _FAMILIES:
        for k in range(1, 9):
            for m in range(1, 9):
                assert closed_form_regular(pair, k, m).coefficient(0) == 1
                assert closed_form_inverse(pair, k, m).coefficient(0) == 1


# Every (pair kind, member kind) of the family table, bottom member first.
_MEMBERS = [
    (pair, kind) for pair, row in _FAMILIES.items() for kind in row["members"]
]


@pytest.mark.parametrize("pair, kind", _MEMBERS, ids=[k for _, k in _MEMBERS])
def test_every_member_is_a_permutation_of_its_size(pair, kind):
    # family_pair builds the same members straight from the table row.
    place = list(_FAMILIES[pair]["members"]).index(kind)
    for k in range(1, 7):
        for m in range(1, 7):
            spec = FamilySpec(kind, k, m)
            member = make_family(spec)
            assert spec.pair == pair
            assert spec.size == len(member)
            assert sorted(member) == list(range(1, spec.size + 1)), spec
            assert family_pair(pair, k, m)[place] == member, spec


@pytest.mark.parametrize("pair", list(_FAMILIES))
def test_closed_forms_obey_the_degree_bound(pair):
    # deg <= (l(top) - l(bottom) - 1) / 2 for P and for the inverse
    # polynomial, whose pair (w0 top, w0 bottom) has the same length gap.
    for k in range(1, 7):
        for m in range(1, 7):
            bottom, top = family_pair(pair, k, m)
            bound = (length(top) - length(bottom) - 1) // 2
            for closed_form in (closed_form_regular, closed_form_inverse):
                assert 0 <= closed_form(pair, k, m).degree <= bound, (pair, k, m)


def _reference_family_cases(max_n):
    """The case order the family sweeps are pinned to: pair x, of size
    k + m, then pair y, of size k + m + 2, each by k and then m."""
    cases = []
    for pair, extra in (("x", 0), ("y", 2)):
        for k in range(1, max_n):
            for m in range(1, max_n):
                if k + m + extra <= max_n:
                    cases.append((pair, k, m))
    return cases


def test_family_case_order_is_pinned():
    # The bounded-memo family benchmark evicts in the order the cases run.
    for max_n in range(2, 17):
        assert _family_cases(max_n) == _reference_family_cases(max_n), max_n
    assert len(_family_cases(8)) == 43


def test_signed_weight_values():
    assert signed_weight(1, 1, 1, 1) == IntPolynomial([1, 1])
    assert signed_weight(1, 1, 0, 0) == IntPolynomial([1, -1])
    assert signed_weight(2, 2, 1, 1) == IntPolynomial([4, -4])
    with pytest.raises(ValueError):
        signed_weight(2, 2, 3, 0)
    with pytest.raises(ValueError):
        signed_weight(2, 2, 0, -1)


def test_signed_weight_diagonal_corner():
    # At (a, b) = (k, m) the weight collapses to (-1)^(k+m) (1 + q).
    for k in range(1, 6):
        for m in range(1, 6):
            sign = -1 if (k + m) % 2 else 1
            assert signed_weight(k, m, k, m) == IntPolynomial([1, 1]) * sign


def test_lemma_one_small_cases():
    sides = lemma_one_sides(1, 1)
    assert sides.lhs == sides.rhs == IntPolynomial([-1])
    sides = lemma_one_sides(2, 1)
    assert sides.lhs == sides.rhs == ONE
    assert lemma_one_sides(4, 4).equal


def test_lemma_one_holds_up_to_eight():
    for k in range(1, 9):
        for m in range(1, 9):
            assert lemma_one_sides(k, m).equal, (k, m)


def test_lemma_two_interior_cases():
    sides = lemma_two_sides(2, 2)
    assert sides.lhs == sides.rhs == IntPolynomial([1, 1])
    assert lemma_two_sides(3, 2).equal
    for k in range(2, 9):
        for m in range(2, 9):
            assert lemma_two_sides(k, m).equal, (k, m)


def test_lemma_two_breaks_on_the_boundary():
    sides = lemma_two_sides(1, 1)
    assert sides.lhs == IntPolynomial([1, -1])
    assert sides.rhs == IntPolynomial([1, 1])
    assert not sides.equal
    # The defect is not specific to (1, 1): any k = 1 or m = 1 breaks.
    for other in range(1, 9):
        assert not lemma_two_sides(1, other).equal
        assert not lemma_two_sides(other, 1).equal


def test_lemma_parameter_validation():
    with pytest.raises(ValueError):
        lemma_one_sides(0, 1)
    with pytest.raises(ValueError):
        lemma_two_sides(1, 0)


def test_interval_sum_reconstruction(shared_cache):
    x, w = family_pair("x", 2, 2)
    assert inverse_kl_from_interval_sum(x, w, shared_cache) == IntPolynomial([1, 1])
    y, v = family_pair("y", 1, 1)
    assert inverse_kl_from_interval_sum(y, v, shared_cache) == IntPolynomial([1, 1])
    assert inverse_kl_from_interval_sum(y, y, shared_cache) == ONE


def test_interval_sum_matches_inverse_kl_on_families(shared_cache):
    # Every family pair of the benchmark's sizes, against the recursion
    # and the paper's closed form.
    for pair, k, m in _family_cases(8):
        bottom, top = family_pair(pair, k, m)
        total = inverse_kl_from_interval_sum(bottom, top, shared_cache)
        assert total == inverse_kl(bottom, top, shared_cache), (pair, k, m)
        assert total == closed_form_inverse(pair, k, m), (pair, k, m)


def test_interval_sum_rejects_nontrivial_interiors(shared_cache):
    # P((2,1,4,3), (4,2,3,1)) = 1 + q, so the identity's hypothesis
    # fails for the pair (identity, (4,2,3,1)).  The error names the first
    # failing z by length, then lexicographically: 1,2,4,3.
    with pytest.raises(
        NontrivialIntervalError, match=r"P\(1,2,4,3, 4,2,3,1\) = 1 \+ q != 1"
    ):
        inverse_kl_from_interval_sum(identity(4), (4, 2, 3, 1), shared_cache)
    with pytest.raises(ValueError):
        inverse_kl_from_interval_sum((2, 1, 3), identity(3), shared_cache)
    with pytest.raises(ValueError):
        inverse_kl_from_interval_sum((1, 2), (1, 2, 3), shared_cache)
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        inverse_kl_from_interval_sum((1, 1, 3), (3, 2, 1), shared_cache)


@pytest.mark.parametrize(
    "n, trivial, nontrivial", [(4, 209, 4), (5, 3428, 353)], ids=["s4", "s5"]
)
def test_interval_sum_on_every_comparable_pair(n, trivial, nontrivial):
    # Where P(z, w) = 1 on (x, w] the sum is the inverse polynomial.
    # Elsewhere the error names the first z of (x, w] with P(z, w) != 1
    # by length, then lexicographically, found here from kl_polynomial
    # over the walked interval.
    cache = KLCache()
    counts = [0, 0]
    for w in all_perms(n):
        for x in members(interval(identity(n), w)):
            bad = sorted(
                (length(z), z, p)
                for z in members(interval(x, w))
                if z != x and (p := kl_polynomial(z, w, cache)) != ONE
            )
            counts[bool(bad)] += 1
            if not bad:
                total = inverse_kl_from_interval_sum(x, w, cache)
                assert total == inverse_kl(x, w, cache), (x, w)
                continue
            _, z, p = bad[0]
            with pytest.raises(NontrivialIntervalError) as error:
                inverse_kl_from_interval_sum(x, w, cache)
            assert str(error.value) == (
                f"P({format_perm(z)}, {format_perm(w)}) = {p} != 1"
            ), (x, w)
    assert counts == [trivial, nontrivial]


def test_nontrivial_interval_error_is_a_value_error():
    assert issubclass(NontrivialIntervalError, ValueError)
