"""Parametric permutation families with known polynomials.

Four two-parameter families are provided, in pairs that form Bruhat
intervals with singular tops.  For k, m >= 1:

    kind "x": [k, ..., 1, k+m, ..., k+1]                     size k+m
    kind "w": [k+m, k, ..., 2, k+m-1, ..., k+1, 1]           size k+m
    kind "y": [k, ..., 1, k+2, k+1, k+m+2, ..., k+3]         size k+m+2
    kind "v": [k+2, k, ..., 2, k+m+2, 1, k+m+1, ..., k+3, k+1]  size k+m+2

The pair (x, w) and the pair (y, v) each admit closed forms for both
the ordinary polynomial of the pair and the inverse polynomial, which
this module evaluates exactly.  The table ``_FAMILIES`` is the one
place a family is defined and everything else reads it, so a new pair
kind is one new row.  The binomial identities used to prove the inverse
closed forms are also evaluated here term by term, so the algebra can
be checked independently of any recursion.  The standard identity
relating P(x, w) and P(w0 w, w0 x) on an interval with a trivial
interior (:func:`inverse_kl_from_interval_sum`) reads one column,
P(., w) on [x, w], once, and sums it with the one signed sum of
:mod:`klpoly.kl`.
"""

from __future__ import annotations

from math import comb

from .bruhat import _Record
from .kl import KLCache, _identity_sum, kl_column
from .perm import Perm, format_perm
from .polynomial import ONE, ZERO, IntPolynomial, geometric_sum

# The one table of the families, one row per pair kind, in the order the
# family sweeps run them.  A row holds the builders of the bottom and then
# the top member, by kind, each giving the one-line form from (k, m); the
# size of the members beyond k + m; and the two closed forms, from (k, m).
_FAMILIES = {
    "x": {
        "members": {
            "x": lambda k, m: [*range(k, 0, -1), *range(k + m, k, -1)],
            "w": lambda k, m: [k + m, *range(k, 1, -1), *range(k + m - 1, k, -1), 1],
        },
        "extra": 0,
        "regular": lambda k, m: geometric_sum(min(k - 1, m - 1)),
        "inverse": lambda k, m: IntPolynomial(
            [comb(k - 1, r) * comb(m - 1, r) for r in range(min(k, m))]
        ),
    },
    "y": {
        "members": {
            "y": lambda k, m: [
                *range(k, 0, -1), k + 2, k + 1, *range(k + m + 2, k + 2, -1)
            ],
            "v": lambda k, m: [
                k + 2, *range(k, 1, -1), k + m + 2, 1,
                *range(k + m + 1, k + 2, -1), k + 1,
            ],
        },
        "extra": 2,
        "regular": lambda k, m: IntPolynomial((1, 1)),
        "inverse": lambda k, m: IntPolynomial((1, k + m - 1)),
    },
}

_PAIR_OF = {
    member: pair for pair, row in _FAMILIES.items() for member in row["members"]
}


class FamilySpec(_Record):
    """One member of a family: a kind letter and the two parameters.

    Raises ValueError unless the kind is a member kind of the family
    table and k and m are ints >= 1.
    """

    __slots__ = __match_args__ = ("kind", "k", "m")
    kind: str
    k: int
    m: int

    def __init__(self, kind: str, k: int, m: int) -> None:
        if kind not in _PAIR_OF:
            raise ValueError(f"kind must be one of {tuple(_PAIR_OF)}, got {kind!r}")
        _check_params(k, m)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    @property
    def pair(self) -> str:
        """The pair kind the member belongs to."""
        return _PAIR_OF[self.kind]

    @property
    def size(self) -> int:
        """Size of the symmetric group the member lives in."""
        return self.k + self.m + _FAMILIES[self.pair]["extra"]


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the textual form "kind:k,m", e.g. "x:2,3".

    >>> parse_family_spec("w:2,3")
    FamilySpec(kind='w', k=2, m=3)
    """
    text = text.strip()
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"expected 'kind:k,m', got {text!r}")
    parts = tail.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two parameters after ':', got {text!r}")
    try:
        k, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"parameters must be integers, got {text!r}") from None
    return FamilySpec(kind=head.strip().lower(), k=k, m=m)


def make_family(spec: FamilySpec) -> Perm:
    """Construct the family member for a spec.

    >>> make_family(FamilySpec("x", 2, 2))
    (2, 1, 4, 3)
    >>> make_family(FamilySpec("w", 2, 2))
    (4, 2, 3, 1)
    >>> make_family(FamilySpec("v", 1, 1))
    (3, 4, 1, 2)
    """
    values = _FAMILIES[spec.pair]["members"][spec.kind](spec.k, spec.m)
    assert sorted(values) == list(range(1, spec.size + 1)), spec
    return tuple(values)


def family_pair(pair: str, k: int, m: int) -> tuple[Perm, Perm]:
    """The (bottom, top) interval pair for a pair kind: the members of
    its row in the family table, built at (k, m)."""
    members = _row(pair, k, m)["members"].values()
    bottom, top = [tuple(build(k, m)) for build in members]
    return bottom, top


def closed_form_regular(pair: str, k: int, m: int) -> IntPolynomial:
    """The known polynomial of a family pair, from its table row.

    >>> str(closed_form_regular("x", 3, 2))
    '1 + q'
    >>> str(closed_form_regular("x", 1, 5))
    '1'
    """
    return _row(pair, k, m)["regular"](k, m)


def closed_form_inverse(pair: str, k: int, m: int) -> IntPolynomial:
    """The known inverse polynomial of a family pair, from its table row.

    >>> str(closed_form_inverse("x", 3, 3))
    '1 + 4q + q^2'
    >>> str(closed_form_inverse("y", 2, 1))
    '1 + 2q'
    """
    return _row(pair, k, m)["inverse"](k, m)


def _family_cases(max_n: int) -> list[tuple[str, int, int]]:
    """Every (pair kind, k, m) of member size <= max_n, in table order."""
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    return [
        (pair, k, m)
        for pair, row in _FAMILIES.items()
        for k in range(1, max_n)
        for m in range(1, max_n)
        if k + m + row["extra"] <= max_n
    ]


def _row(pair: str, k: int, m: int) -> dict:
    """The row of a pair kind; ValueError for an unknown kind or bad k, m."""
    if pair not in _FAMILIES:
        raise ValueError(f"pair must be one of {tuple(_FAMILIES)}, got {pair!r}")
    _check_params(k, m)
    return _FAMILIES[pair]


def _check_params(k: int, m: int) -> None:
    """ValueError unless k and m are ints >= 1; a bool counts as an
    int, as everywhere else in Python."""
    if not (isinstance(k, int) and isinstance(m, int)):
        raise ValueError(f"parameters must be integers, got k={k!r}, m={m!r}")
    if k < 1 or m < 1:
        raise ValueError(f"parameters must be >= 1, got k={k}, m={m}")


def signed_weight(k: int, m: int, a: int, b: int) -> IntPolynomial:
    """The weight attached to an index pair (a, b) in the second
    binomial identity:

        binom(k,a) binom(m,b) [(-1)^(a+b+1) (1 + (k+m-a-b-1) q)
                               + 2 (-1)^(a+b)]

    >>> str(signed_weight(1, 1, 1, 1))
    '1 + q'
    >>> str(signed_weight(1, 1, 0, 0))
    '1 - q'
    """
    if not (0 <= a <= k and 0 <= b <= m):
        raise ValueError(
            f"need 0 <= a <= k and 0 <= b <= m, got k={k}, m={m}, a={a}, b={b}"
        )
    sign = -1 if (a + b) % 2 else 1
    bracket = IntPolynomial((1, k + m - a - b - 1)) * (-sign) + 2 * sign
    return comb(k, a) * comb(m, b) * bracket


class LemmaSides(_Record):
    """Both sides of a binomial identity, evaluated exactly."""

    __slots__ = __match_args__ = ("lhs", "rhs")
    lhs: IntPolynomial
    rhs: IntPolynomial

    def __init__(self, lhs: IntPolynomial, rhs: IntPolynomial) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def lemma_one_sides(k: int, m: int) -> LemmaSides:
    """First binomial identity, both sides evaluated exactly.

    lhs = sum over 0 <= a <= k-1, 0 <= b <= m-1 of
          (-1)^(a+b+1) binom(k,a) binom(m,b)
          * sum over r of binom(k-a-1, r) binom(m-b-1, r) q^r
    rhs = (-1)^(k+m+1) (1 + q + ... + q^(min(k-1, m-1)))

    >>> lemma_one_sides(1, 1).lhs.to_list()
    [-1]
    >>> lemma_one_sides(2, 1).equal
    True
    """
    _check_params(k, m)
    lhs = ZERO
    for a in range(k):
        for b in range(m):
            sign = -1 if (a + b + 1) % 2 else 1
            weight = sign * comb(k, a) * comb(m, b)
            inner = IntPolynomial(
                [
                    comb(k - a - 1, r) * comb(m - b - 1, r)
                    for r in range(min(k - a, m - b))
                ]
            )
            lhs = lhs + inner * weight
    rhs_sign = -1 if (k + m + 1) % 2 else 1
    rhs = geometric_sum(min(k - 1, m - 1)) * rhs_sign
    return LemmaSides(lhs=lhs, rhs=rhs)


def lemma_two_sides(k: int, m: int) -> LemmaSides:
    """Second binomial identity, both sides evaluated exactly.

    lhs = sum over 0 <= a <= k-1, 0 <= b <= m-1 of signed_weight
    rhs = (-1)^(k+m) (1 + q)

    Equality is deliberately not asserted: direct evaluation breaks it
    whenever k = 1 or m = 1 (already at k = m = 1 the left side is
    1 - q against a right side of 1 + q), because the summation
    identity used in its proof needs n >= 2.  Callers get both sides
    and decide.  The closed forms the identity feeds into hold at those
    parameters regardless, which the verification harness confirms
    through the recursion.

    >>> s = lemma_two_sides(2, 2)
    >>> str(s.lhs), str(s.rhs), s.equal
    ('1 + q', '1 + q', True)
    >>> s = lemma_two_sides(1, 1)
    >>> str(s.lhs), str(s.rhs), s.equal
    ('1 - q', '1 + q', False)
    """
    _check_params(k, m)
    lhs = ZERO
    for a in range(k):
        for b in range(m):
            lhs = lhs + signed_weight(k, m, a, b)
    rhs_sign = -1 if (k + m) % 2 else 1
    rhs = IntPolynomial((1, 1)) * rhs_sign
    return LemmaSides(lhs=lhs, rhs=rhs)


class NontrivialIntervalError(ValueError):
    """Raised when an identity that needs a trivial interior meets an
    interval that has not got one."""


def inverse_kl_from_interval_sum(
    x: Perm, w: Perm, cache: KLCache | None = None
) -> IntPolynomial:
    """Reconstruct the inverse polynomial of (x, w) from the interval:

        (-1)^(len(x)+len(w)+1) P(x, w)
        + sum over x < z < w of (-1)^(len(z)+len(w)+1) inverse_kl(x, z)

    Valid only when P(z, w) = 1 for every z with x < z <= w; the
    precondition is checked and a :class:`NontrivialIntervalError`
    names the first witness that breaks it, in order of length and then
    lexicographically.  The result must agree with inverse_kl(x, w),
    which makes this a useful cross-check.

    P(., w) is read once, as ``kl_column(x, w, cache)`` (see
    :func:`klpoly.kl.kl_column`); its layer k holds the z with
    len(w) - len(z) = k.  The result is the standard identity's signed
    sum, :func:`klpoly.kl._identity_sum`, over the layers below the top:
    dropping the top layer flips every layer's sign, so that sum is
    minus the identity's terms below the top, which is the top's term,
    the inverse polynomial.  Under the precondition it is the formula
    above.  Raises ValueError unless x and w are permutations of the
    same size with x <= w.
    """
    if cache is None:
        cache = KLCache()
    column = kl_column(x, w, cache)
    if len(column) == 1:
        return ONE
    # kl_column checks both arguments; w is read back as a Perm from the
    # first layer, which holds it alone.
    (w,), *interior, _ = column
    for layer in reversed(interior):
        for z in sorted(layer):
            if layer[z] != ONE:
                raise NontrivialIntervalError(
                    f"P({format_perm(z)}, {format_perm(w)}) = {layer[z]} != 1"
                )
    return _identity_sum(column[1:], cache)
