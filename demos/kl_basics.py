"""
Computing the polynomials
=========================

The central recursion, its cache, and the small invariants that make
it trustworthy: base cases, degree bounds, and the defining relation
at every descent of the top.
"""

import random
from itertools import chain

from klpoly import (
    KLCache,
    all_perms,
    bruhat_leq,
    identity,
    interval,
    kl_polynomial,
    length,
    longest_element,
    mu,
    random_comparable_pair,
    right_descents,
)

cache = KLCache()

# Base cases first.  Equal arguments give 1, incomparable arguments
# give 0 and never recurse.
e = identity(4)
print("P(w, w) =", kl_polynomial((2, 4, 1, 3), (2, 4, 1, 3), cache))
print("P(3412, 4231) =", kl_polynomial((3, 4, 1, 2), (4, 2, 3, 1), cache))

# The first interesting values in S_4.  Both singular tops give 1 + q
# at the identity, and the longest element still gives 1.
print("P(e, 3412) =", kl_polynomial(e, (3, 4, 1, 2), cache))
print("P(e, 4231) =", kl_polynomial(e, (4, 2, 3, 1), cache))
print("P(e, 4321) =", kl_polynomial(e, longest_element(4), cache))

# Degrees stay strictly below (l(w) - l(x)) / 2.  Checking that across
# all of S_4 touches every branch of the recursion.
violations = 0
for w in all_perms(4):
    for x in all_perms(4):
        p = kl_polynomial(x, w, cache)
        if x != w and p and 2 * p.degree >= length(w) - length(x):
            violations += 1
print("degree-bound violations over S_4:", violations)

# The mu-coefficient reads off the top admissible power.  On covering
# pairs it is always 1; elsewhere it is often 0.
print("mu(2143, 4231) =", mu((2, 1, 4, 3), (4, 2, 3, 1), cache))
print("mu(e, 3412) =", mu(e, (3, 4, 1, 2), cache))

# The recursion splits at the first right descent i of the top whose
# w s_i keeps the most right and left descents (so raising collapses
# the most bottoms below it), but any right descent gives the same
# polynomial: the defining relation holds at every right descent s of w:
#   P(x, w) = q^c P(x, ws) + q^(1-c) P(xs, ws)
#             - sum of mu(z, ws) q^((l(w) - l(z)) / 2) P(x, z)
# over z in [x, ws] with zs < z, where c is 1 when xs < x.  Evaluate the
# right side at every descent of 40 seeded comparable pairs in S_5 and
# count disagreements with the computed polynomial.
def swap(v, i):
    return v[: i - 1] + (v[i], v[i - 1]) + v[i + 1:]


rng = random.Random(5)
sample_cache = KLCache()
checked = disagreements = 0
for _ in range(40):
    x, w = random_comparable_pair(5, rng)
    p = kl_polynomial(x, w, sample_cache)
    for i in right_descents(w):
        ws, xs = swap(w, i), swap(x, i)
        c = 1 if x[i - 1] > x[i] else 0
        rhs = kl_polynomial(x, ws, sample_cache).shift(c)
        rhs = rhs + kl_polynomial(xs, ws, sample_cache).shift(1 - c)
        if bruhat_leq(x, ws):
            for z in chain.from_iterable(interval(x, ws)):
                m = mu(z, ws, sample_cache) if z[i - 1] > z[i] else 0
                if m:
                    gap = (length(w) - length(z)) // 2
                    rhs = rhs - kl_polynomial(x, z, sample_cache).shift(gap) * m
        checked += 1
        disagreements += rhs != p
print(f"recursion disagreements over {checked} (pair, descent) cases:", disagreements)

# The cache is plain and inspectable: entries, hits, misses.  It stays
# tiny here because the default bottom-raising normalization collapses
# most S_4 pairs onto base cases before anything needs storing.
print("cache entries:", len(cache), "hits:", cache.hits, "misses:", cache.misses)
