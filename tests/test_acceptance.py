"""Acceptance checks.

Each test covers one numbered criterion and prints a single PASS or
FAIL line for it, so a verbose run reads as a checklist.  Everything
here is exact integer arithmetic; there are no tolerances anywhere.
"""

import math
import random
import time

from klpoly.bruhat import coatom_count
from klpoly.families import (
    closed_form_inverse,
    family_pair,
    lemma_one_sides,
    lemma_two_sides,
)
from klpoly.kl import KLCache, flatten_pair, inverse_kl, is_smooth_top, kl_polynomial
from klpoly.perm import all_perms, compose, longest_element, right_descents
from klpoly.polynomial import IntPolynomial
from klpoly.verify import (
    random_comparable_pair,
    verify_inversion_identity_batch,
    verify_regular_closed_forms,
    verify_smoothness_equivalence,
)

_CACHE = KLCache()


def _report(num: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def _binomial_sum(k: int, m: int) -> IntPolynomial:
    top = min(k - 1, m - 1)
    return IntPolynomial(
        tuple(math.comb(k - 1, r) * math.comb(m - 1, r) for r in range(top + 1))
    )


def test_criterion_01_inverse_x_family_closed_form():
    start = time.perf_counter()
    checked = 0
    ok = True
    for k in range(1, 7):
        for m in range(1, 7):
            if k + m > 7:
                continue
            bottom, top = family_pair("x", k, m)
            if inverse_kl(bottom, top, _CACHE) != _binomial_sum(k, m):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 21 and elapsed < 300
    _report(
        1,
        "inverse polynomial of every x-family pair with k+m <= 7 equals "
        "its binomial-product closed form (21 pairs, under 5 minutes)",
        ok,
    )


def test_criterion_02_inverse_y_family_closed_form():
    checked = 0
    ok = True
    for k in range(1, 5):
        for m in range(1, 5):
            if k + m + 2 > 7:
                continue
            bottom, top = family_pair("y", k, m)
            expected = IntPolynomial((1, k + m - 1))
            if inverse_kl(bottom, top, _CACHE) != expected:
                ok = False
            checked += 1
    y23 = family_pair("y", 2, 3)
    anchor_a = inverse_kl(y23[0], y23[1], _CACHE) == IntPolynomial((1, 4))
    y11 = family_pair("y", 1, 1)
    anchor_b = inverse_kl(y11[0], y11[1], _CACHE) == IntPolynomial((1, 1))
    ok = ok and checked == 10 and anchor_a and anchor_b
    _report(
        2,
        "inverse polynomial of every y-family pair with k+m+2 <= 7 equals "
        "1 + (k+m-1)q, including anchors (2,3) -> 1+4q and (1,1) -> 1+q",
        ok,
    )


def test_criterion_03_regular_closed_forms_with_interior():
    report = verify_regular_closed_forms(7, cache=_CACHE)
    ok = report.passed and report.cases == 31
    _report(
        3,
        "ordinary polynomial of both family pairs matches the geometric "
        "closed forms, and every strict-interior element gives 1",
        ok,
    )


def test_criterion_04_inversion_identity():
    start = time.perf_counter()
    exhaustive = verify_inversion_identity_batch(4, cache=_CACHE)
    elapsed = time.perf_counter() - start
    sampled = verify_inversion_identity_batch(5, samples=500, seed=2026, cache=_CACHE)
    ok = (
        exhaustive.passed
        and exhaustive.cases == 213
        and elapsed < 10
        and sampled.passed
        and sampled.cases == 500
    )
    _report(
        4,
        "alternating inversion identity holds on all 213 comparable pairs "
        "of S_4 (under 10 seconds) and 500 seeded pairs of S_5",
        ok,
    )


def test_criterion_05_smoothness_equivalence():
    report = verify_smoothness_equivalence(5, cache=_CACHE)
    rough = [w for w in all_perms(4) if not is_smooth_top(w)]
    ok = report.passed and rough == [(3, 4, 1, 2), (4, 2, 3, 1)]
    _report(
        5,
        "pattern test for an all-ones column agrees with direct "
        "computation on all of S_5, and S_4 has exactly two rough tops",
        ok,
    )


def test_criterion_06_flattening_invariance():
    rng = random.Random(2026)
    ok = True
    for _ in range(200):
        x, w = random_comparable_pair(7, rng)
        xf, wf = flatten_pair(x, w)
        if kl_polynomial(xf, wf, _CACHE) != kl_polynomial(x, w, _CACHE):
            ok = False
            break
    _report(
        6,
        "flattening a pair to its active positions preserves the "
        "polynomial on 200 seeded comparable pairs in S_7",
        ok,
    )


def test_criterion_07_first_binomial_identity():
    start = time.perf_counter()
    ok = all(
        lemma_one_sides(k, m).equal for k in range(1, 9) for m in range(1, 9)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1
    _report(
        7,
        "first binomial identity holds exactly for all 1 <= k,m <= 8 "
        "in under one second",
        ok,
    )


def test_criterion_08_second_binomial_identity_and_its_edge():
    interior = all(
        lemma_two_sides(k, m).equal for k in range(2, 9) for m in range(2, 9)
    )
    edge = lemma_two_sides(1, 1)
    edge_breaks = (
        not edge.equal
        and edge.lhs == IntPolynomial((1, -1))
        and edge.rhs == IntPolynomial((1, 1))
    )
    y11 = family_pair("y", 1, 1)
    value_still_holds = inverse_kl(y11[0], y11[1], _CACHE) == IntPolynomial((1, 1))
    ok = interior and edge_breaks and value_still_holds
    _report(
        8,
        "second binomial identity holds for all 2 <= k,m <= 8, its sides "
        "differ at k=m=1 (lhs 1-q), yet the (1,1) inverse value is still 1+q",
        ok,
    )


def test_criterion_09_coatom_bound_on_the_diagonal():
    ok = True
    for k in (2, 3):
        coefficient = closed_form_inverse("x", k, k).coefficient(1)
        if coefficient != (k - 1) ** 2:
            ok = False
        bottom, top = family_pair("x", k, k)
        w0 = longest_element(2 * k)
        coatoms = coatom_count(compose(w0, top), compose(w0, bottom))
        if coefficient > coatoms - 1:
            ok = False
    _report(
        9,
        "linear coefficient of the diagonal inverse closed form is "
        "(k-1)^2 for k in {2,3} and stays below the coatom count",
        ok,
    )


def test_criterion_10_descent_choice_does_not_matter(split_at_descent):
    rng = random.Random(77)
    cache = KLCache()
    ok = True
    checked = 0
    for _ in range(100):
        x, w = random_comparable_pair(6, rng)
        if x == w:
            continue
        p = kl_polynomial(x, w, cache)
        for i in right_descents(w):
            ok = ok and split_at_descent(x, w, i, cache) == p
            checked += 1
    _report(
        10,
        "the recursion holds at every right descent of the top, "
        f"{checked} (pair, descent) cases from 100 seeded comparable "
        "pairs in S_6",
        ok,
    )
