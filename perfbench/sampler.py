"""The benchmark's own input generation for the query workload.

Nothing here calls klpoly: sampling through the program's
``bruhat_leq`` would fill its rank and length caches before timing
starts, so the comparisons below are independent stdlib code.

Pairs are uniform comparable pairs (x, w) in S_7 with x != w, drawn by
rejection, but stratified: each round of queries takes a fixed number
of pairs from every stratum, where a stratum is the length of w
together with whether x lies in w's parabolic double coset.  The cost
of a cold query spans four orders of magnitude and is governed mostly
by those two properties (a pair inside the double coset has P = 1 with
no recursion at all), so fixing the mix per round keeps percentiles
comparable between seeds while the pairs themselves change.
"""

from __future__ import annotations

import random

N = 7

# Pairs per stratum in one round of 100 queries, keyed by
# (length of w, x in the double coset of w).  Shares were estimated from
# the 98,000 comparable pairs among estimate_shares(700000, 0)'s draws
# and rounded to whole pairs by largest remainder; strata under half a
# pair per round are left out.
ROUND_QUOTAS: dict[tuple[int, bool], int] = {
    (7, False): 1,
    (8, False): 1, (8, True): 1,
    (9, False): 2, (9, True): 1,
    (10, False): 4, (10, True): 2,
    (11, False): 6, (11, True): 2,
    (12, False): 8, (12, True): 3,
    (13, False): 10, (13, True): 3,
    (14, False): 11, (14, True): 3,
    (15, False): 11, (15, True): 3,
    (16, False): 9, (16, True): 3,
    (17, False): 6, (17, True): 2,
    (18, False): 3, (18, True): 2,
    (19, False): 1, (19, True): 1,
    (20, True): 1,
}

ROUND_SIZE = 100


def length(p: tuple[int, ...]) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def below(x: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """x <= w in Bruhat order, by the tableau criterion: for every
    prefix, the sorted values of x are entrywise at most those of w."""
    for p in range(1, len(x)):
        for a, b in zip(sorted(x[:p]), sorted(w[:p])):
            if a > b:
                return False
    return True


def coset_top(x: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    """The longest element of W_I x W_J, where I and J are the left and
    right descent sets of w: climb x through every ascent that sits at a
    descent of w until none is left."""
    n = len(w)
    pos_w = {v: i for i, v in enumerate(w)}
    right = [i for i in range(n - 1) if w[i] > w[i + 1]]
    left = [v for v in range(1, n) if pos_w[v] > pos_w[v + 1]]
    cur = list(x)
    changed = True
    while changed:
        changed = False
        for i in right:
            if cur[i] < cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                changed = True
        for v in left:
            p, p2 = cur.index(v), cur.index(v + 1)
            if p < p2:
                cur[p], cur[p2] = v + 1, v
                changed = True
    return tuple(cur)


def stratum(x: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, bool]:
    return length(w), coset_top(x, w) == w


def _uniform_pair(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    base = list(range(1, N + 1))
    while True:
        x, w = base[:], base[:]
        rng.shuffle(x)
        rng.shuffle(w)
        if x != w and below(tuple(x), tuple(w)):
            return tuple(x), tuple(w)


def query_round(seed: int, index: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Round ``index`` of the query stream for ``seed``: ROUND_SIZE
    pairs meeting ROUND_QUOTAS, in a seeded order."""
    rng = random.Random(f"query-s7/{seed}/{index}")
    want = dict(ROUND_QUOTAS)
    pairs = []
    while len(pairs) < ROUND_SIZE:
        x, w = _uniform_pair(rng)
        key = stratum(x, w)
        if want.get(key, 0) > 0:
            want[key] -= 1
            pairs.append((x, w))
    rng.shuffle(pairs)
    return pairs


def estimate_shares(tries: int, seed: int) -> dict[tuple[int, bool], float]:
    """Stratum shares among uniform comparable pairs; used to derive
    ROUND_QUOTAS."""
    rng = random.Random(seed)
    counts: dict[tuple[int, bool], int] = {}
    base = list(range(1, N + 1))
    total = 0
    for _ in range(tries):
        x, w = base[:], base[:]
        rng.shuffle(x)
        rng.shuffle(w)
        x, w = tuple(x), tuple(w)
        if x != w and below(x, w):
            key = stratum(x, w)
            counts[key] = counts.get(key, 0) + 1
            total += 1
    return {k: v / total for k, v in sorted(counts.items())}
