import random
import signal
from contextlib import contextmanager
from itertools import islice

import pytest

from klpoly.bruhat import (
    _coatoms_descending_at,
    _double_coset_maxima,
    _layers,
    bruhat_leq,
    coatom_count,
    covers_down,
    covers_up,
    format_interval,
    interval,
    RankDifferenceTable,
    rank_count,
    render_picture,
)
from klpoly.families import _family_cases, family_pair
from klpoly.perm import (
    _w0_times,
    all_perms,
    compose,
    from_oneline,
    identity,
    left_descents,
    length,
    longest_element,
    right_descents,
)
from klpoly.kl import KLCache, _ascent_neighbour, _maxima_column, _raise_bottom
from klpoly.verify import random_comparable_pair
from conftest import members, sorted_members

# Reference implementations, written as directly from the definitions
# as possible so they share no code with the module under test.


def naive_rank(w, p, q):
    return sum(1 for i in range(p) if w[i] >= q)


def naive_leq(x, w):
    n = len(x)
    return all(
        naive_rank(x, p, q) <= naive_rank(w, p, q)
        for p in range(1, n + 1)
        for q in range(1, n + 1)
    )


def tableau_leq(x, w):
    """The tableau criterion (Björner-Brenti, Thm 2.6.3): x <= w when,
    for every k, the sorted first k values of x lie entrywise below the
    sorted first k values of w."""
    return all(
        a <= b
        for k in range(1, len(x))
        for a, b in zip(sorted(x[:k]), sorted(w[:k]))
    )


def tableau_length(w):
    return sum(1 for i in range(len(w)) for j in range(i) if w[j] > w[i])


def random_pairs(n, count, seed):
    """Seeded pairs in S_n, about half of them comparable: w is random,
    x is w pushed down by a few inversion swaps, and every other x then
    has one adjacent pair exchanged, which may leave the order."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        w = list(range(1, n + 1))
        rng.shuffle(w)
        x = list(w)
        for _ in range(rng.randint(0, 3)):
            i, j = sorted(rng.sample(range(n), 2))
            if x[i] > x[j]:
                x[i], x[j] = x[j], x[i]
        if t % 2:
            i = rng.randrange(n - 1)
            x[i], x[i + 1] = x[i + 1], x[i]
        out.append((tuple(x), tuple(w)))
    return out


def test_rank_count_examples():
    assert rank_count((6, 3, 4, 2, 5, 1), 3, 4) == 2
    w = (3, 1, 4, 2)
    for p in range(1, 5):
        assert rank_count(w, p, 1) == p
    for p in range(1, 5):
        for q in range(1, 5):
            assert rank_count(identity(4), p, q) == max(0, p - q + 1)


def test_rank_count_range_errors():
    with pytest.raises(ValueError):
        rank_count((2, 1), 0, 1)
    with pytest.raises(ValueError):
        rank_count((2, 1), 1, 3)


def test_rank_count_matches_naive_exhaustively():
    for w in all_perms(4):
        for p in range(1, 5):
            for q in range(1, 5):
                assert rank_count(w, p, q) == naive_rank(w, p, q)


def test_rank_difference_examples():
    w = (3, 1, 4, 2)
    same = RankDifferenceTable(w, w)
    assert all(same.entry(p, q) == 0 for p in range(1, 5) for q in range(1, 5))

    table = RankDifferenceTable(identity(2), (2, 1))
    assert table.entry(1, 2) == 1
    assert sum(table.entry(p, q) for p in (1, 2) for q in (1, 2)) == 1

    fig = RankDifferenceTable((3, 1, 5, 2, 4, 6), (6, 3, 4, 2, 5, 1))
    assert fig.min_entry() >= 0
    assert fig.min_entry() == 0


def test_rank_difference_size_mismatch():
    with pytest.raises(ValueError):
        RankDifferenceTable((1, 2), (1, 2, 3))


def test_rank_difference_matches_naive_on_s4():
    cells = range(1, 5)
    for x in all_perms(4):
        for w in all_perms(4):
            table = RankDifferenceTable(x, w)
            naive = {
                (p, q): naive_rank(w, p, q) - naive_rank(x, p, q)
                for p in cells
                for q in cells
            }
            for (p, q), d in naive.items():
                assert table.entry(p, q) == d
            assert table.min_entry() == min(naive.values())
            assert (table.min_entry() >= 0) == naive_leq(x, w)
            shaded = {
                (p, q)
                for p, row in enumerate(render_picture(x, w).split("\n"), 1)
                for q, glyph in enumerate(row, 1)
                if glyph == "▒"
            }
            assert shaded == {cell for cell, d in naive.items() if d >= 1}


NON_PERMUTATION = (1, 1, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: rank_count(bad, 1, 1),
        lambda bad: RankDifferenceTable(bad, (3, 2, 1)),
        lambda bad: render_picture((1, 2, 3), bad),
        lambda bad: coatom_count(bad, (3, 2, 1)),
        covers_up,
    ],
    ids=[
        "rank_count",
        "rank_difference",
        "render_picture",
        "coatom_count",
        "covers_up",
    ],
)
def test_public_functions_reject_non_permutations(call):
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        call(NON_PERMUTATION)


def test_rank_difference_table_checks_its_pair_on_construction():
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
        RankDifferenceTable(NON_PERMUTATION, (3, 2, 1))
    with pytest.raises(ValueError, match="size mismatch: 2 vs 3"):
        RankDifferenceTable((1, 2), (2, 1, 3))
    table = RankDifferenceTable([2, 1, 3], [3, 2, 1])
    assert (table.x, table.w) == ((2, 1, 3), (3, 2, 1))
    assert table.min_entry() >= 0


@pytest.mark.parametrize(
    "call",
    [lambda x, w: RankDifferenceTable(x, w).min_entry(), render_picture],
    ids=["rank_difference", "render_picture"],
)
def test_rank_tables_check_each_argument_once(call, monkeypatch):
    # Reading a cell must not check the pair again.
    import klpoly.bruhat
    import klpoly.perm

    checked = []

    def counting(values):
        checked.append(tuple(values))
        return from_oneline(values)

    monkeypatch.setattr(klpoly.perm, "from_oneline", counting)
    monkeypatch.setattr(klpoly.bruhat, "from_oneline", counting)
    x, w = (1, 3, 2, 4), (3, 4, 1, 2)
    call(x, w)
    assert sorted(checked) == sorted([x, w])


def test_bruhat_leq_examples():
    for w in all_perms(4):
        assert bruhat_leq(identity(4), w)
    assert bruhat_leq((2, 1, 4, 3), (4, 2, 3, 1))
    assert not bruhat_leq((3, 4, 1, 2), (4, 2, 3, 1))


def test_bruhat_leq_matches_naive_exhaustively():
    for x in all_perms(4):
        for w in all_perms(4):
            assert bruhat_leq(x, w) == naive_leq(x, w)


def test_bruhat_leq_matches_tableau_criterion_in_s5():
    elements = list(all_perms(5))
    for x in elements:
        for w in elements:
            assert bruhat_leq(x, w) == tableau_leq(x, w), (x, w)


@pytest.mark.parametrize("n", [9, 16])
def test_bruhat_leq_matches_tableau_criterion_on_random_pairs(n):
    pairs = random_pairs(n, 400, seed=n)
    answers = [tableau_leq(x, w) for x, w in pairs]
    # Both outcomes occur, so neither answer can pass by default.
    assert 50 < sum(answers) < 350
    for (x, w), want in zip(pairs, answers):
        assert bruhat_leq(x, w) == want, (x, w)
        assert bruhat_leq(w, x) == tableau_leq(w, x), (w, x)


@pytest.mark.parametrize("n", [130, 260])
def test_bruhat_leq_field_width_follows_n(n):
    # Past n = 127 a packed field needs more than 8 bits.  At n = 260 the
    # rank difference of (e, w0) reaches 130 in the middle cells, which
    # an 8-bit field with its high bit as the sign cannot hold.
    e, w0 = identity(n), longest_element(n)
    assert bruhat_leq(e, w0) and not bruhat_leq(w0, e)
    assert len(interval(e, (2, 1) + e[2:])) == 2
    pairs = random_pairs(n, 8, seed=3)
    answers = [tableau_leq(x, w) for x, w in pairs]
    assert True in answers and False in answers
    for (x, w), want in zip(pairs, answers):
        assert bruhat_leq(x, w) == want
        assert bruhat_leq(w, x) == tableau_leq(w, x)


def test_bruhat_leq_edges():
    assert bruhat_leq((1,), (1,))
    for n in (2, 4):
        for w in all_perms(n):
            assert bruhat_leq(w, w)


def test_bruhat_leq_rejects_a_size_mismatch():
    # Unchecked, a shorter bottom would read as below, and a shorter top
    # would fail inside the packing.
    with pytest.raises(ValueError, match="size mismatch: 2 vs 3"):
        bruhat_leq((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="size mismatch: 3 vs 2"):
        bruhat_leq((3, 1, 2), (1, 2))


@pytest.mark.parametrize(
    "x, w", [((1, 1), (2, 1)), ((0, 5), (1, 2))], ids=["repeat", "out-of-range"]
)
def test_bruhat_leq_rejects_a_non_permutation(x, w):
    # Unchecked, a repeated value read as below, and a value past n
    # made a negative shift inside the packing.
    with pytest.raises(ValueError, match="not a permutation"):
        bruhat_leq(x, w)


def test_covers_down_rejects_a_non_permutation():
    # Unchecked, a repeated value gave covers of a non-permutation.
    with pytest.raises(ValueError, match="not a permutation"):
        covers_down((2, 2, 1))


def test_bruhat_is_partial_order_on_s3():
    elements = list(all_perms(3))
    for x in elements:
        assert bruhat_leq(x, x)
    for x in elements:
        for y in elements:
            if bruhat_leq(x, y) and bruhat_leq(y, x):
                assert x == y
    for x in elements:
        for y in elements:
            for z in elements:
                if bruhat_leq(x, y) and bruhat_leq(y, z):
                    assert bruhat_leq(x, z)


def test_length_monotone_under_order():
    for x in all_perms(4):
        for w in all_perms(4):
            if bruhat_leq(x, w):
                assert length(x) <= length(w)
                assert (length(x) == length(w)) == (x == w)


def test_order_reversal_under_longest_element():
    w0 = longest_element(4)
    for x in all_perms(4):
        for w in all_perms(4):
            assert bruhat_leq(x, w) == bruhat_leq(compose(w0, w), compose(w0, x))


def test_covers_down_matches_order_theoretic_covers():
    # z is covered by w exactly when z < w with nothing strictly between.
    elements = list(all_perms(4))
    for w in elements:
        expected = set()
        below = [z for z in elements if z != w and naive_leq(z, w)]
        for z in below:
            if not any(
                y != z and y != w and naive_leq(z, y) and naive_leq(y, w)
                for y in below
            ):
                expected.add(z)
        assert set(covers_down(w)) == expected


def test_covers_up_is_dual_to_covers_down():
    for w in all_perms(4):
        for z in covers_down(w):
            assert w in covers_up(z)
        for z in covers_up(w):
            assert w in covers_down(z)


@pytest.mark.parametrize("n", range(2, 7))
def test_coatoms_descending_at_an_ascent_are_the_filtered_covers(n):
    # The correction sum's coatoms: for every ascent i of every w, the
    # covers of w with a descent at i, in covers_down's order.
    checked = 0
    for w in all_perms(n):
        covers = covers_down(w)
        for i in range(1, n):
            if w[i - 1] < w[i]:
                expected = [z for z in covers if z[i - 1] > z[i]]
                assert _coatoms_descending_at(w, i) == expected, (w, i)
                checked += 1
    # Every w has n - 1 adjacent pairs, half of them ascents on average.
    assert checked == len(list(all_perms(n))) * (n - 1) // 2


def test_covers_change_length_by_one():
    for w in all_perms(4):
        for z in covers_down(w):
            assert length(z) == length(w) - 1


def test_down_set_counts():
    assert len(members(interval(identity(4), longest_element(4)))) == 24
    assert sorted_members(interval(identity(5), identity(5))) == [identity(5)]
    for w in all_perms(4):
        assert set(sorted_members(interval(identity(4), w))) == {
            z for z in all_perms(4) if naive_leq(z, w)
        }


def test_interval_trivial_cases():
    w = (2, 4, 1, 3)
    assert members(interval(w, w)) == frozenset({w})
    assert members(interval((1, 2), (2, 1))) == frozenset({(1, 2), (2, 1)})
    assert len(members(interval(identity(3), (3, 2, 1)))) == 6


def test_interval_is_full_group_between_extremes():
    for n in (2, 3, 4):
        layers = interval(identity(n), longest_element(n))
        assert len(members(layers)) == len(list(all_perms(n)))


def check_layers(x, w, layers):
    """Layer k holds exactly the members of length l(w) - k, each once."""
    assert layers[0] == (w,)
    assert layers[-1] == (x,)
    assert sum(map(len, layers)) == len(members(layers))
    for k, layer in enumerate(layers):
        assert layer
        for z in layer:
            assert length(z) == length(w) - k


def test_interval_walk_matches_brute_force_in_s4():
    elements = list(all_perms(4))
    for w in elements:
        for x in elements:
            if not naive_leq(x, w):
                with pytest.raises(ValueError):
                    interval(x, w)
                continue
            layers = interval(x, w)
            want = {z for z in elements if naive_leq(x, z) and naive_leq(z, w)}
            assert members(layers) == want
            check_layers(x, w, layers)


def test_interval_matches_naive_filter():
    rng = random.Random(9)
    elements = list(all_perms(5))
    for _ in range(40):
        w = rng.choice(elements)
        x = rng.choice([z for z in elements if naive_leq(z, w)])
        layers = interval(x, w)
        want = {z for z in elements if naive_leq(x, z) and naive_leq(z, w)}
        assert members(layers) == want
        check_layers(x, w, layers)


def test_interval_matches_brute_force_on_s6_pairs():
    rng = random.Random(6)
    elements = list(all_perms(6))
    for _ in range(12):
        w = rng.choice(elements)
        x = rng.choice([z for z in elements if tableau_leq(z, w)])
        want = [z for z in elements if tableau_leq(x, z) and tableau_leq(z, w)]
        layers = interval(x, w)
        assert members(layers) == set(want)
        top = tableau_length(w)
        sizes = [0] * (top - tableau_length(x) + 1)
        for z in want:
            sizes[top - tableau_length(z)] += 1
        assert [len(layer) for layer in layers] == sizes
        for k, layer in enumerate(layers):
            assert all(tableau_length(z) == top - k for z in layer)


def test_interval_edges():
    assert interval((1,), (1,)) == (((1,),),)
    for w in all_perms(4):
        assert interval(w, w) == ((w,),)


def test_interval_rejects_incomparable_pairs():
    with pytest.raises(ValueError):
        interval((2, 1, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        interval((3, 4, 1, 2), (4, 2, 3, 1))


@contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    before = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, before)


def test_interval_checks_its_pair_before_the_walk():
    # A pair of two sizes, or a bottom that is not a permutation, fails
    # at once: the walk would lose the bottom and yield empty layers for
    # ever.
    with deadline(2):
        with pytest.raises(ValueError, match="size mismatch: 2 vs 3"):
            interval((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="not a permutation of 1..2"):
            interval((1, 1), (2, 1))
    with pytest.raises(ValueError, match="not a valid interval: 2,1 is not <= 1,2"):
        interval((2, 1), (1, 2))


def has_descents(z, descents):
    return all(z[p - 1] > z[p] for p in descents)


def check_pruned_walk(x, w, descents):
    """The walk through ``descents`` is the full walk filtered to the z
    with those right descents, layer by layer, and skips no length."""
    full = interval(x, w)
    pruned = tuple(_layers(x, w, descents))
    assert len(pruned) == len(full)
    for whole, kept in zip(full, pruned):
        assert kept
        assert len(set(kept)) == len(kept)
        assert set(kept) == {z for z in whole if has_descents(z, descents)}


@pytest.mark.parametrize("n", [4, 5])
def test_pruned_walk_matches_filtered_walk(n):
    # Every pair x <= w where x has all of w's (nonempty) right descents.
    checked = 0
    elements = list(all_perms(n))
    for w in elements:
        descents = right_descents(w)
        if not descents:
            continue
        for x in elements:
            if has_descents(x, descents) and bruhat_leq(x, w):
                check_pruned_walk(x, w, descents)
                checked += 1
    assert checked == {4: 57, 5: 681}[n]


def test_pruned_walk_matches_filtered_walk_on_descent_subsets_in_s4():
    elements = list(all_perms(4))
    for w in elements:
        descents = right_descents(w)
        for mask in range(1, 1 << len(descents)):
            chosen = [p for k, p in enumerate(descents) if mask >> k & 1]
            for x in elements:
                if has_descents(x, chosen) and bruhat_leq(x, w):
                    check_pruned_walk(x, w, chosen)


def test_pruned_walk_matches_filtered_walk_on_s6_tops():
    rng = random.Random(66)
    elements = list(all_perms(6))
    tops = [w for w in elements if right_descents(w)]
    for w in rng.sample(tops, 8):
        descents = right_descents(w)
        below = [x for x in elements if has_descents(x, descents) and bruhat_leq(x, w)]
        for x in rng.sample(below, min(4, len(below))):
            check_pruned_walk(x, w, descents)


def test_interval_rejects_bad_descents():
    x, w = (2, 1, 3, 4), (4, 3, 1, 2)
    assert tuple(_layers(x, w, [1]))[-1] == (x,)
    # A position outside 1..n-1.
    for p in (0, 4, -1):
        with pytest.raises(ValueError, match="outside"):
            next(_layers(x, w, [p]))
    # The bottom, or the top, lacks a listed descent.
    with pytest.raises(ValueError, match="2,1,3,4 has no right descent at 2"):
        next(_layers(x, w, [1, 2]))
    with pytest.raises(ValueError, match="2,3,1 has no right descent at 1"):
        next(_layers((2, 1, 3), (2, 3, 1), [1]))


@pytest.mark.parametrize("n", [4, 5])
def test_pulling_d_layers_stops_the_walk_after_them(n):
    # With descents or without, the first d + 1 layers that the walker
    # yields are the first d + 1 of the full walk, each in the same
    # order: the top alone at d = 0, and the whole interval once d
    # reaches l(w) - l(x), where the walker ends.
    checked = 0
    elements = list(all_perms(n))
    for w in elements:
        descents = right_descents(w)
        for x in elements:
            if not bruhat_leq(x, w):
                continue
            choices = [()]
            if descents and has_descents(x, descents):
                choices.append(descents)
            for chosen in choices:
                full = tuple(_layers(x, w, chosen))
                gap = length(w) - length(x)
                assert next(_layers(x, w, chosen)) == (w,)
                for d in range(gap):
                    pulled = list(islice(_layers(x, w, chosen), d + 1))
                    assert pulled == list(full[: d + 1])
                    checked += 1
                for d in (gap, gap + 1, gap + 5):
                    pulled = list(islice(_layers(x, w, chosen), d + 1))
                    assert tuple(pulled) == full
    assert checked == {4: 470, 5: 13486}[n]


def test_interval_sorted_elements_ordering():
    # The text lists the members bottom layer first, each layer sorted.
    layers = interval(identity(3), (3, 2, 1))
    ordered = sorted(members(layers), key=lambda z: (length(z), z))
    lines = format_interval(layers).splitlines()
    assert lines == [",".join(map(str, z)) for z in ordered]
    assert lines[0] == "1,2,3"
    assert lines[-1] == "3,2,1"


# The double-coset maxima of an interval, listed from block corner
# counts, against a walk-and-filter reference kept only here.


def walked_maxima(x, w):
    """The maxima of the double cosets of w's descents that meet [x, w],
    in (length, lexicographic) order: walk [x', w] over the z with every
    right descent of w, x' being x raised through w's descents, and keep
    the z with no ascent at a left descent of w."""
    right, left = right_descents(w), left_descents(w)
    walk = tuple(_layers(_raise_bottom(x, right, left), w, right))
    return [z for z in sorted_members(walk)
            if _ascent_neighbour(z, (), left) is None]


def listed_maxima(x, w):
    return list(_double_coset_maxima(x, w, right_descents(w), left_descents(w)))


def by_length(maxima):
    return sorted(maxima, key=lambda z: (length(z), z))


@pytest.mark.parametrize("n", range(1, 7))
def test_double_coset_maxima_match_the_walk(n):
    # Every w of S_n with every distinct raised bottom below it, which
    # are the maxima of [e, w]: the same maxima, the bottom first.
    pairs = 0
    for w in all_perms(n):
        for b in walked_maxima(identity(n), w):
            listed = listed_maxima(b, w)
            assert listed[0] == b, (b, w)
            assert by_length(listed) == walked_maxima(b, w), (b, w)
            pairs += 1
    assert pairs == {1: 1, 2: 2, 3: 6, 4: 30, 5: 242, 6: 2940}[n]


def test_double_coset_maxima_match_the_walk_on_s7_pairs():
    # Seeded comparable pairs, with bottoms that are not raised first.
    rng = random.Random(7)
    for _ in range(300):
        x, w = random_comparable_pair(7, rng)
        listed = listed_maxima(x, w)
        right, left = right_descents(w), left_descents(w)
        assert listed[0] == _raise_bottom(x, right, left), (x, w)
        assert by_length(listed) == walked_maxima(x, w), (x, w)


def test_double_coset_maxima_yield_the_raised_bottom_first():
    # The regular check reads the first maximum yielded as the bottom's:
    # over every comparable pair of S_5 it is the bottom raised through
    # w's descents, whatever order the rest come in.  The seeded S_7
    # pairs above check the same rule.  The maxima are the walk-and-filter
    # reference's, and also every z of [x, w] raised through w's
    # descents, so they carry every value of the column.
    elements = list(all_perms(5))
    pairs = [(x, w) for w in elements for x in elements if bruhat_leq(x, w)]
    assert len(pairs) == 3781
    for x, w in pairs:
        right, left = right_descents(w), left_descents(w)
        maxima = _double_coset_maxima(x, w, right, left)
        first = next(maxima)
        assert first == _raise_bottom(x, right, left), (x, w)
        listed = by_length([first, *maxima])
        assert listed == walked_maxima(x, w), (x, w)
        raised = {_raise_bottom(z, right, left) for z in members(interval(x, w))}
        assert listed == by_length(raised), (x, w)


def test_double_coset_maxima_reject_a_bottom_not_below_the_top():
    # A corner of the bottom above the top's is exactly x not <= w.
    elements = list(all_perms(4))
    for w in elements:
        for x in elements:
            if not bruhat_leq(x, w):
                with pytest.raises(ValueError, match="is not <="):
                    listed_maxima(x, w)
    with pytest.raises(ValueError, match="3,4,1,2 is not <= 4,2,3,1"):
        next(_maxima_column((3, 4, 1, 2), (4, 2, 3, 1), KLCache()))


def blocks(w):
    """The last position of each block of positions joined across w's
    right descents, and the first value of each block of values joined
    across its left descents."""
    n = len(w)
    right, left = right_descents(w), left_descents(w)
    ends = [p for p in range(1, n + 1) if p not in right]
    firsts = [v for v in range(1, n + 1) if v - 1 not in left]
    return ends, firsts


def corner_table(u, ends, firsts):
    return [[naive_rank(u, p, q) for q in firsts] for p in ends]


def test_maxima_compare_exactly_when_their_corners_do():
    # The lemma behind the enumeration, over every top of S_5.  Corners
    # are a double-coset invariant.  The rank table of a maximum z is
    # r_z(p, q) = min(R(j - 1) + t, R(j)) at p = (end of block j - 1) + t,
    # with R(j) = min(C[j][a], C[j][a + 1] + L), q in value block a and
    # L = (last value of block a) - q + 1; it is nondecreasing in the
    # corners, so two maxima compare exactly when their corners do.
    n = 5
    elements = list(all_perms(n))
    for w in elements:
        right, left = right_descents(w), left_descents(w)
        ends, firsts = blocks(w)
        for x in elements:
            raised = _raise_bottom(x, right, left)
            assert corner_table(x, ends, firsts) == corner_table(raised, ends, firsts)
        maxima = walked_maxima(identity(n), w)
        corners = {z: corner_table(z, ends, firsts) for z in maxima}
        starts = [0] + ends
        lasts = [v - 1 for v in firsts[1:]] + [n]
        for z, table in corners.items():
            # C[j][a], with a zero row before the first position block
            # and a zero column past the last value block.
            c = [[0] * (len(firsts) + 1)] + [row + [0] for row in table]
            for j in range(1, len(starts)):
                for p in range(starts[j - 1] + 1, starts[j] + 1):
                    t = p - starts[j - 1]
                    for a, (first, last) in enumerate(zip(firsts, lasts)):
                        for q in range(first, last + 1):
                            before, after = (
                                min(c[i][a], c[i][a + 1] + last - q + 1)
                                for i in (j - 1, j)
                            )
                            expected = min(before + t, after)
                            assert naive_rank(z, p, q) == expected, (z, w, p, q)
        for u in maxima:
            for z in maxima:
                below = all(
                    c <= d
                    for row_u, row_z in zip(corners[u], corners[z])
                    for c, d in zip(row_u, row_z)
                )
                assert bruhat_leq(u, z) == below, (u, z, w)


def test_coatom_count_small_cases():
    assert coatom_count(identity(3), (3, 2, 1)) == 2
    assert set(covers_down((3, 2, 1))) == {(2, 3, 1), (3, 1, 2)}
    assert coatom_count((1, 2), (2, 1)) == 1


def test_coatom_count_complemented_pair():
    # Computed by brute force below; the enumeration is the ground truth.
    u, v = (1, 3, 2, 4), (3, 4, 1, 2)
    expected = {
        z
        for z in all_perms(4)
        if length(z) == length(v) - 1 and naive_leq(z, v) and naive_leq(u, z)
    }
    assert expected == {(1, 4, 3, 2), (2, 4, 1, 3), (3, 1, 4, 2), (3, 2, 1, 4)}
    assert coatom_count(u, v) == 4


def test_coatom_count_positive_for_proper_intervals():
    for w in all_perms(4):
        for x in all_perms(4):
            if x != w and bruhat_leq(x, w):
                assert coatom_count(x, w) >= 1


def test_coatom_count_matches_naive_covers_on_s5():
    # Every comparable pair u < v of S_5 against the z one length below v
    # with u <= z <= v, all by naive ranks; 3,661 pairs.
    perms = list(all_perms(5))
    lengths = {z: tableau_length(z) for z in perms}
    below = {v: {z for z in perms if naive_leq(z, v)} for v in perms}
    pairs = 0
    for v in perms:
        coatoms = [z for z in below[v] if lengths[z] == lengths[v] - 1]
        for u in below[v] - {v}:
            expected = sum(1 for z in coatoms if u in below[z])
            assert coatom_count(u, v) == expected, (u, v)
            pairs += 1
    assert pairs == 3661


def test_coatom_count_pulls_exactly_two_layers(monkeypatch):
    # The coatoms are the second layer of the walk; the walker is asked
    # for nothing below it, so no deeper layer is walked.
    import klpoly.bruhat

    pulled = []

    def counted(x, w, descents=()):
        pulled.append(0)
        for layer in _layers(x, w, descents):
            pulled[-1] += 1
            yield layer

    monkeypatch.setattr(klpoly.bruhat, "_layers", counted)
    assert coatom_count(identity(5), longest_element(5)) == 4
    assert coatom_count((1, 3, 2, 4), (3, 4, 1, 2)) == 4
    assert pulled == [2, 2]


def test_coatom_count_rejects_bad_input():
    with pytest.raises(ValueError):
        coatom_count((2, 1, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        coatom_count((2, 1, 3), (2, 1, 3))


def test_family_coatom_counts():
    # coatom_count(w0 w, w0 x) counts the atoms of [x, w], since v -> w0 v
    # reverses Bruhat order.  On the family pairs it is k m on x/w and
    # 2(k + m) on y/v: observed here, not proved.  Both fit [x, w] being
    # (B_k minus the empty set) x (B_m minus the empty set) under a new
    # bottom, with y/v of the x/w shape at (2, k + m).
    cases = _family_cases(14)
    assert len(cases) == 91 + 66
    for pair, k, m in cases:
        bottom, top = family_pair(pair, k, m)
        atoms = coatom_count(_w0_times(top), _w0_times(bottom))
        assert atoms == (k * m if pair == "x" else 2 * (k + m)), (pair, k, m)
    # The x/w diagonal up to size 24.
    for k in range(1, 13):
        bottom, top = family_pair("x", k, k)
        assert coatom_count(_w0_times(top), _w0_times(bottom)) == k * k, k


def test_render_picture_identity_pair():
    assert render_picture(identity(2), identity(2)) == "◉·\n·◉"


def test_render_picture_single_shaded_cell():
    grid = render_picture(identity(2), (2, 1))
    assert grid == "●▒\n○●"
    rows = grid.split("\n")
    assert rows[0][1] == "▒"
    assert sum(row.count("▒") for row in rows) == 1


def test_render_picture_larger_pair_has_shading():
    grid = render_picture((3, 1, 5, 2, 4, 6), (6, 3, 4, 2, 5, 1))
    rows = grid.split("\n")
    assert len(rows) == 6 and all(len(r) == 6 for r in rows)
    assert sum(row.count("▒") for row in rows) > 0


def test_render_picture_is_stable():
    a = render_picture((1, 3, 2), (3, 2, 1))
    b = render_picture((1, 3, 2), (3, 2, 1))
    assert a == b


def test_render_picture_size_mismatch():
    with pytest.raises(ValueError):
        render_picture((1, 2), (1, 2, 3))
