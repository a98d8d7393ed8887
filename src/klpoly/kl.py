"""Kazhdan-Lusztig polynomials for the symmetric group.

The polynomial P(x, w) is computed straight from the defining
recursion.  Fix a position s where the top has a descent, so ws < w.
Then

    P(x, w) = q^c P(x, ws) + q^(1-c) P(xs, ws)
              - sum over z  mu(z, ws) q^((len(w) - len(z)) / 2) P(x, z)

where c is 1 if x has a descent at s and 0 otherwise, and the sum runs
over z in the Bruhat interval [x, ws] with zs < z whose mu-coefficient
is nonzero; terms with z outside [x, ws] vanish, since P(x, z) = 0
unless x <= z.  The interval is walked one length at a time, so the
parity of len(w) - len(z) is read off the layer and only every other
layer is visited.  The mu-coefficient mu(z, y) is the coefficient of
q^((len(y)-len(z)-1)/2) in P(z, y), taken to be zero when that exponent
is not a nonnegative integer.

Base cases: P(w, w) = 1 and P(x, w) = 0 unless x <= w.  Any descent of
the top gives the same polynomial; a :class:`KLCache` fixes the choice
so that runs are reproducible and results are shared across calls.

Two well-known invariance properties keep the computation tractable.
First, P(x, w) only depends on x through the best representative of
its coset under the descents of w: whenever ws < w and xs > x we have
P(x, w) = P(xs, w), and likewise on the left.  Raising the bottom
through such ascents before memoisation collapses many queries onto
one cache entry and shortens the recursion; the ``raise_bottoms`` flag
of the cache controls it and is on by default.  Second, intervals that
flatten to a common pattern share their polynomial, which
:func:`flatten_pair` exposes (that reduction is available to callers
but is not applied inside the recursion).
"""

from __future__ import annotations

from typing import Optional

from .bruhat import bruhat_leq, interval, rank_table
from .perm import (
    Perm,
    avoids_pattern,
    compose,
    flatten,
    format_perm,
    identity,
    inverse,
    length,
    longest_element,
)
from .polynomial import ONE, ZERO, IntPolynomial

_STRATEGIES = ("largest", "smallest")


class KLCache:
    """Shared state for the polynomial recursion.

    memo maps (bottom, top) pairs to finished polynomials.  hits and
    misses count memo lookups, which makes cache behaviour observable
    in tests and benchmarks.  When ``max_entries`` is set, the oldest
    entries are evicted once the memo grows past the bound; correctness
    is unaffected since evicted values are simply recomputed.

    descent_strategy picks which descent of the top drives the
    recursion ("largest" or "smallest" position).  raise_bottoms turns
    the bottom-raising normalisation on or off.
    """

    __slots__ = ("memo", "hits", "misses", "descent_strategy", "raise_bottoms",
                 "max_entries")

    def __init__(
        self,
        descent_strategy: str = "largest",
        raise_bottoms: bool = True,
        max_entries: Optional[int] = None,
    ) -> None:
        if descent_strategy not in _STRATEGIES:
            raise ValueError(
                f"descent_strategy must be one of {_STRATEGIES}, got {descent_strategy!r}"
            )
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.memo: dict[tuple[Perm, Perm], IntPolynomial] = {}
        self.hits = 0
        self.misses = 0
        self.descent_strategy = descent_strategy
        self.raise_bottoms = raise_bottoms
        self.max_entries = max_entries

    def lookup(self, key: tuple[Perm, Perm]) -> Optional[IntPolynomial]:
        value = self.memo.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, key: tuple[Perm, Perm], value: IntPolynomial) -> None:
        if self.max_entries is not None and len(self.memo) >= self.max_entries:
            # Evict in insertion order; dicts preserve it.
            oldest = next(iter(self.memo))
            del self.memo[oldest]
        self.memo[key] = value

    def __len__(self) -> int:
        return len(self.memo)


def _pick_descent(w: Perm, strategy: str) -> int:
    """A position i with w(i) > w(i+1), by the cache's strategy."""
    if strategy == "largest":
        indices = range(len(w) - 1, 0, -1)
    else:
        indices = range(1, len(w))
    for i in indices:
        if w[i - 1] > w[i]:
            return i
    raise ValueError(f"no descent: {format_perm(w)} is the identity")


def _raise_bottom(x: Perm, w: Perm) -> Perm:
    """Climb x through ascents sitting at descents of w, on both sides.

    Each step replaces x by a longer permutation with the same
    polynomial against w, and the lifting property keeps x <= w, so the
    fixpoint is a safe substitute key.
    """
    w_inv = inverse(w)
    right = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    left = [i for i in range(1, len(w)) if w_inv[i - 1] > w_inv[i]]
    changed = True
    while changed:
        changed = False
        for i in right:
            if x[i - 1] < x[i]:
                x = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1:]
                changed = True
        for i in left:
            p = x.index(i)
            p2 = x.index(i + 1)
            if p < p2:
                lst = list(x)
                lst[p], lst[p2] = i + 1, i
                x = tuple(lst)
                changed = True
    return x


def kl_polynomial(x: Perm, w: Perm, cache: Optional[KLCache] = None) -> IntPolynomial:
    """The Kazhdan-Lusztig polynomial P(x, w).

    >>> str(kl_polynomial((1, 2, 3, 4), (4, 2, 3, 1)))
    '1 + q'
    >>> str(kl_polynomial((3, 4, 1, 2), (1, 2, 3, 4)))
    '0'
    """
    if len(x) != len(w):
        raise ValueError(f"size mismatch: {len(x)} vs {len(w)}")
    if cache is None:
        cache = KLCache()
    return _kl(x, w, cache)


def _kl(x: Perm, w: Perm, cache: KLCache) -> IntPolynomial:
    if x == w:
        return ONE
    if not bruhat_leq(x, w):
        return ZERO
    return _kl_below(x, w, cache)


def _kl_below(x: Perm, w: Perm, cache: KLCache) -> IntPolynomial:
    """P(x, w) for a pair already known to satisfy x <= w."""
    if cache.raise_bottoms:
        x = _raise_bottom(x, w)
    if x == w:
        return ONE
    key = (x, w)
    found = cache.lookup(key)
    if found is not None:
        return found

    i = _pick_descent(w, cache.descent_strategy)
    ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]
    xs = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1:]
    c = 1 if x[i - 1] > x[i] else 0
    # ws < w and x <= w, so by the lifting property the shorter of x and
    # xs lies below ws; only the longer one needs a comparison.
    if c:
        x_below, xs_below = bruhat_leq(x, ws), True
    else:
        x_below, xs_below = True, bruhat_leq(xs, ws)
    acc = _kl_below(x, ws, cache).shift(c) if x_below else ZERO
    if xs_below:
        acc = acc + _kl_below(xs, ws, cache).shift(1 - c)

    if x_below:
        # Layer 2k + 1 of [x, ws] holds the z with len(w) - len(z) =
        # 2k + 2: the correction exponent is k + 1 and mu(z, ws) is the
        # coefficient of q^k in P(z, ws).  Even layers have no term.
        for k, layer in enumerate(interval(x, ws).layers[1::2]):
            for z in layer:
                if z[i - 1] < z[i]:
                    continue
                m = _kl_below(z, ws, cache).coefficient(k)
                if m:
                    acc = acc - _kl_below(x, z, cache).shift(k + 1) * m

    cache.store(key, acc)
    return acc


def _mu(x: Perm, w: Perm, cache: KLCache) -> int:
    gap = length(w) - length(x) - 1
    if gap < 0 or gap % 2:
        return 0
    return _kl(x, w, cache).coefficient(gap // 2)


def mu(x: Perm, w: Perm, cache: Optional[KLCache] = None) -> int:
    """The mu-coefficient: the coefficient of q^((len(w)-len(x)-1)/2)
    in P(x, w), or zero when that exponent is not a nonnegative integer
    or x is not below w.

    >>> mu((1, 2, 3), (2, 1, 3))
    1
    """
    if len(x) != len(w):
        raise ValueError(f"size mismatch: {len(x)} vs {len(w)}")
    if cache is None:
        cache = KLCache()
    if not bruhat_leq(x, w):
        return 0
    return _mu(x, w, cache)


def inverse_kl(x: Perm, w: Perm, cache: Optional[KLCache] = None) -> IntPolynomial:
    """The inverse Kazhdan-Lusztig polynomial of the pair (x, w).

    With w0 the longest element, this is P(w0 w, w0 x); left
    multiplication by w0 reverses Bruhat order, so the pair flips.

    >>> str(inverse_kl((2, 1, 4, 3), (4, 2, 3, 1)))
    '1 + q'
    """
    if len(x) != len(w):
        raise ValueError(f"size mismatch: {len(x)} vs {len(w)}")
    w0 = longest_element(len(x))
    return kl_polynomial(compose(w0, w), compose(w0, x), cache)


def check_inversion_identity(
    x: Perm, w: Perm, cache: Optional[KLCache] = None
) -> bool:
    """Test the defining inversion relation on the interval [x, w]:

        sum over x <= z <= w of
            (-1)^(len(z) + len(w)) P(z, w) P(w0 z, w0 x)

    must be 1 when x = w and 0 otherwise.  Raises ValueError when
    x is not <= w.
    """
    layers = interval(x, w).layers
    if cache is None:
        cache = KLCache()
    w0 = longest_element(len(x))
    w0x = compose(w0, x)
    total = ZERO
    # Layer k holds the z with len(w) - len(z) = k.
    for k, layer in enumerate(layers):
        sign = -1 if k % 2 else 1
        for z in layer:
            term = _kl_below(z, w, cache) * _kl_below(compose(w0, z), w0x, cache)
            total = total + term * sign
    expected = ONE if x == w else ZERO
    return total == expected


def active_positions(x: Perm, w: Perm) -> tuple[int, ...]:
    """Positions where the pair genuinely differs: those p with
    x(p) != w(p), together with those where the rank difference at the
    cell (p, x(p)) is nonzero.

    >>> active_positions((1, 2, 3, 4), (1, 3, 2, 4))
    (2, 3)
    """
    if len(x) != len(w):
        raise ValueError(f"size mismatch: {len(x)} vs {len(w)}")
    rx = rank_table(x)
    rw = rank_table(w)
    out = []
    for p in range(1, len(x) + 1):
        if x[p - 1] != w[p - 1]:
            out.append(p)
        elif rw[p - 1][x[p - 1] - 1] != rx[p - 1][x[p - 1] - 1]:
            out.append(p)
    return tuple(out)


def flatten_pair(x: Perm, w: Perm) -> tuple[Perm, Perm]:
    """Restrict both permutations to their active positions and flatten.

    The flattened pair has the same polynomial as (x, w); positions
    where the permutations agree and contribute no rank difference
    are inert.  When x = w there are no active positions and the pair
    collapses to two copies of the identity in S_1.

    >>> flatten_pair((1, 3, 2, 4), (3, 4, 1, 2))
    ((1, 3, 2, 4), (3, 4, 1, 2))
    >>> flatten_pair((2, 1, 3), (2, 1, 3))
    ((1,), (1,))
    """
    active = active_positions(x, w)
    if not active:
        return identity(1), identity(1)
    xa = flatten([x[p - 1] for p in active])
    wa = flatten([w[p - 1] for p in active])
    return xa, wa


def is_smooth_top(w: Perm) -> bool:
    """True when every polynomial P(z, w) with z <= w is exactly 1.

    By the pattern criterion for smoothness of Schubert varieties this
    happens precisely when w avoids both 3412 and 4231.

    >>> is_smooth_top((3, 4, 1, 2))
    False
    >>> is_smooth_top((4, 3, 2, 1))
    True
    """
    return avoids_pattern(w, (3, 4, 1, 2)) and avoids_pattern(w, (4, 2, 3, 1))


def check_descent_invariance(
    x: Perm, w: Perm, cache: Optional[KLCache] = None
) -> bool:
    """Confirm that pushing the bottom through any single descent of
    the top leaves the polynomial unchanged, on both sides.

    For each position descent i of w the comparison is P(x, w) against
    P(x si, w); for each value descent i the bottom is modified by
    exchanging the values i and i+1.  Requires x <= w.  To make this an
    honest check rather than a restatement of the normalisation
    performed by default, pass a cache with raise_bottoms=False.
    """
    if not bruhat_leq(x, w):
        raise ValueError(
            f"not a valid interval: {format_perm(x)} is not <= {format_perm(w)}"
        )
    if cache is None:
        cache = KLCache(raise_bottoms=False)
    base = _kl(x, w, cache)
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            moved = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1:]
            if _kl(moved, w, cache) != base:
                return False
    w_inv = inverse(w)
    for i in range(1, len(w)):
        if w_inv[i - 1] > w_inv[i]:
            p, p2 = x.index(i), x.index(i + 1)
            lst = list(x)
            lst[p], lst[p2] = i + 1, i
            if _kl(tuple(lst), w, cache) != base:
                return False
    return True
