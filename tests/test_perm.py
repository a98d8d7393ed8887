import random

import pytest

from klpoly.perm import (
    all_perms,
    avoids_pattern,
    compose,
    descent_indicator,
    find_pattern_instance,
    flatten,
    format_perm,
    from_oneline,
    identity,
    inverse,
    left_descents,
    length,
    longest_element,
    parse_perm,
    right_descents,
    swap_positions,
)


def test_from_oneline_accepts_permutations():
    assert from_oneline([4, 2, 3, 1]) == (4, 2, 3, 1)
    assert from_oneline((1,)) == (1,)
    # Entries pass through operator.index, which turns a bool into an int.
    assert from_oneline([True, 2]) == (1, 2)
    assert type(from_oneline([True, 2])[0]) is int


@pytest.mark.parametrize(
    "bad",
    [
        [1, 1, 2],
        [2, 3],
        [0, 1],
        [],
        [1, 2, 4],
        [1.0, 2],
        (1, 2.0),
        [2.5, 1],
        ["1", "2"],
        "12",
    ],
)
def test_from_oneline_rejects_non_permutations(bad):
    with pytest.raises(ValueError):
        from_oneline(bad)


def test_identity_and_longest_element():
    assert identity(4) == (1, 2, 3, 4)
    assert longest_element(4) == (4, 3, 2, 1)
    assert longest_element(1) == (1,)
    assert longest_element(2) == (2, 1)
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError):
        longest_element(-1)


def test_compose():
    assert compose(longest_element(4), (4, 2, 3, 1)) == (1, 3, 2, 4)
    v = (3, 1, 4, 2)
    assert compose(identity(4), v) == v
    assert compose(longest_element(5), longest_element(5)) == identity(5)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


@pytest.mark.parametrize(
    "u, v", [((1, 1, 3), (1, 2, 3)), ((1, 2, 3), (3, 3, 1)), ((0, 1, 2), (1, 2, 3))]
)
def test_compose_rejects_non_permutations(u, v):
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        compose(u, v)


def test_longest_element_complements_values():
    # w0 * w should be the entrywise complement n+1 - w(i).
    w = (2, 5, 1, 4, 3)
    assert compose(longest_element(5), w) == tuple(6 - a for a in w)


def test_inverse():
    assert inverse((2, 3, 1)) == (3, 1, 2)
    assert inverse((2, 1)) == (2, 1)
    rng = random.Random(42)
    for _ in range(20):
        w = list(range(1, 7))
        rng.shuffle(w)
        w = tuple(w)
        assert inverse(inverse(w)) == w
        assert compose(w, inverse(w)) == identity(6)
        assert compose(inverse(w), w) == identity(6)


def test_compose_associative_on_random_triples():
    rng = random.Random(7)
    for _ in range(25):
        perms = []
        for _ in range(3):
            p = list(range(1, 7))
            rng.shuffle(p)
            perms.append(tuple(p))
        u, v, w = perms
        assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_swap_positions():
    assert swap_positions((3, 1, 2), 1, 2) == (1, 3, 2)
    assert swap_positions((1, 2, 3, 4), 1, 4) == (4, 2, 3, 1)
    w = (2, 4, 1, 3)
    assert swap_positions(swap_positions(w, 2, 3), 2, 3) == w
    with pytest.raises(ValueError):
        swap_positions(w, 0, 2)
    with pytest.raises(ValueError):
        swap_positions(w, 3, 3)
    with pytest.raises(ValueError):
        swap_positions(w, 2, 5)


def test_length():
    assert length(identity(6)) == 0
    assert length(longest_element(4)) == 6
    assert length((4, 2, 3, 1)) == 5


def test_length_complement_identity():
    # length(w) + length(w0 w) = n(n-1)/2, and the same on the right.
    rng = random.Random(3)
    w0 = longest_element(6)
    for _ in range(20):
        w = list(range(1, 7))
        rng.shuffle(w)
        w = tuple(w)
        assert length(w) + length(compose(w0, w)) == 15
        assert length(w) + length(compose(w, w0)) == 15


def test_adjacent_swap_changes_length_by_one():
    rng = random.Random(11)
    for _ in range(30):
        w = list(range(1, 7))
        rng.shuffle(w)
        w = tuple(w)
        i = rng.randint(1, 5)
        moved = swap_positions(w, i, i + 1)
        diff = length(moved) - length(w)
        assert abs(diff) == 1
        assert (diff == -1) == (descent_indicator(w, i) == 1)


def test_descent_indicator():
    assert descent_indicator((2, 1), 1) == 1
    assert descent_indicator(identity(5), 3) == 0
    assert descent_indicator((3, 1, 2), 1) == 1
    assert descent_indicator((3, 1, 2), 2) == 0
    with pytest.raises(ValueError):
        descent_indicator((2, 1), 2)


def test_descent_sets():
    assert right_descents((4, 2, 3, 1)) == (1, 3)
    assert right_descents(identity(4)) == ()
    assert left_descents((3, 1, 4, 2)) == (2,)
    w = (5, 2, 4, 1, 3)
    assert left_descents(w) == right_descents(inverse(w))


def test_flatten():
    assert flatten((5, 2, 8)) == (2, 1, 3)
    assert flatten((9, 7)) == (2, 1)
    assert flatten((3, 1, 2)) == (3, 1, 2)
    with pytest.raises(ValueError):
        flatten((2, 2))
    with pytest.raises(ValueError):
        flatten(())


def test_avoids_pattern():
    assert not avoids_pattern((3, 4, 1, 2), (3, 4, 1, 2))
    assert avoids_pattern((3, 4, 1, 2), (4, 2, 3, 1))
    assert avoids_pattern(identity(5), (2, 1))


def test_find_pattern_instance():
    assert find_pattern_instance((4, 2, 3, 1), (4, 2, 3, 1)) == [1, 2, 3, 4]
    assert find_pattern_instance(identity(4), (2, 1)) is None
    assert find_pattern_instance((5, 2, 4, 3, 1), (4, 2, 3, 1)) == [1, 2, 3, 5]


def test_pattern_witness_flattens_to_pattern():
    rng = random.Random(5)
    patterns = [(3, 4, 1, 2), (4, 2, 3, 1), (2, 1, 3), (1, 2)]
    for _ in range(40):
        w = list(range(1, 8))
        rng.shuffle(w)
        w = tuple(w)
        for pat in patterns:
            witness = find_pattern_instance(w, pat)
            assert (witness is None) == avoids_pattern(w, pat)
            if witness is not None:
                assert witness == sorted(witness)
                assert flatten([w[i - 1] for i in witness]) == pat


def test_parse_perm():
    assert parse_perm("4,2,3,1") == (4, 2, 3, 1)
    assert parse_perm("4231") == (4, 2, 3, 1)
    assert parse_perm(" 2,1 ") == (2, 1)
    assert parse_perm("1") == (1,)
    with pytest.raises(ValueError):
        parse_perm("")
    with pytest.raises(ValueError):
        parse_perm("4,2,x")
    with pytest.raises(ValueError):
        parse_perm("4221")


def test_format_perm_round_trip():
    w = (10, 2, 3, 1, 4, 5, 6, 7, 8, 9)
    assert format_perm(w) == "10,2,3,1,4,5,6,7,8,9"
    assert parse_perm(format_perm(w)) == w


def test_all_perms():
    elements = list(all_perms(4))
    assert len(elements) == 24
    assert len(set(elements)) == 24
    assert elements[0] == (1, 2, 3, 4)
