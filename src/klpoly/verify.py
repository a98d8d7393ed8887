"""Batch verification of closed forms and identities against the
polynomial recursion.

Each verification op walks a parameter range, compares an exact closed
form or identity against values computed independently by the
recursion, and returns a :class:`VerificationReport`.  Failures are
collected rather than raised, with both polynomials recorded verbatim,
so a report is always produced and discrepancies stay auditable.

Cases run one after another, sharing the caller's cache when one is
given; the exhaustive inversion batch instead decides all of its cases
at once, by packed integer products (see :class:`_InversionRows`), over
columns that one private generator fills over the tables of S_n
(:func:`_fill_columns`), one group of z per polynomial read.
Reports are deterministic for a fixed seed and range, since cases run
in a fixed order and failures are reported in that order.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

from .bruhat import _Record, bruhat_leq, covers_down
from .families import (
    _family_cases,
    closed_form_inverse,
    closed_form_regular,
    family_pair,
)
from .kl import (
    KLCache,
    _kl,
    _maxima_column,
    check_inversion_identity,
    inverse_kl,
    is_smooth_top,
)
from .perm import (
    Perm,
    all_perms,
    format_perm,
    identity,
    inverse,
    length,
)
from .polynomial import ONE, IntPolynomial

# The largest n of S_n that an exhaustive inversion run and the
# smoothness check take.
_EXHAUSTIVE_MAX_N = 6


class Failure(_Record):
    """One failed comparison: which case, and both polynomials."""

    __slots__ = __match_args__ = ("case", "expected", "actual")
    case: str
    expected: str
    actual: str

    def __init__(self, case: str, expected: str, actual: str) -> None:
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)


class VerificationReport(_Record):
    """The outcome of one verification batch.  Unlike the other records
    it is mutable, and so unhashable."""

    __slots__ = __match_args__ = (
        "check",
        "parameter_range",
        "cases",
        "failures",
        "seed",
        "millis",
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]
    check: str
    parameter_range: str
    cases: int
    failures: list[Failure]
    seed: int | None
    millis: int

    def __init__(
        self,
        check: str,
        parameter_range: str,
        cases: int,
        failures: list[Failure],
        seed: int | None = None,
        millis: int = 0,
    ) -> None:
        self.check = check
        self.parameter_range = parameter_range
        self.cases = cases
        self.failures = failures
        self.seed = seed
        self.millis = millis

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "range": self.parameter_range,
            "cases": self.cases,
            "failures": [
                {"case": f.case, "expected": f.expected, "actual": f.actual}
                for f in self.failures
            ],
            "seed": self.seed,
            "millis": self.millis,
        }

    def to_json(self) -> str:
        # Imported here: only JSON output needs the module.
        import json

        return json.dumps(self.to_json_dict(), indent=2)

    def text(self) -> str:
        """Human-readable block, one field per line."""
        lines = [
            f"check: {self.check}",
            f"range: {self.parameter_range}",
            f"cases: {self.cases}",
        ]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.append(f"millis: {self.millis}")
        if self.failures:
            lines.append(f"result: FAIL ({len(self.failures)} failures)")
            for f in self.failures:
                lines.append(f"  {f.case}: expected {f.expected}, got {f.actual}")
        else:
            lines.append("result: PASS")
        return "\n".join(lines)


def _run_cases(
    check: str,
    parameter_range: str,
    cases: Sequence[object] | int,
    evaluate: Callable[..., Failure | None | list[Failure]],
    cache: KLCache | None,
    case_cap: int | None,
    seed: int | None = None,
) -> VerificationReport:
    """Evaluate the first ``case_cap`` cases (all of them when it is
    None) with one shared cache and report on them.

    ``cases`` is either the case list, and ``evaluate(case, cache)``
    returns the Failure of one case or None; or the number of cases,
    and ``evaluate(count, cache)`` is called once with the number kept
    and returns the failures among the first ``count`` cases.

    Only the evaluation is timed.  Failures are reported in the order
    of the cases.
    Raises ValueError when ``case_cap`` is below 1.
    """
    if case_cap is not None and case_cap < 1:
        raise ValueError(f"case_cap must be >= 1, got {case_cap}")
    shared = cache if cache is not None else KLCache()
    start = time.perf_counter()
    if isinstance(cases, int):
        count = cases if case_cap is None else min(cases, case_cap)
        results = evaluate(count, shared)
    else:
        kept = cases[:case_cap]
        count = len(kept)
        results = [evaluate(case, shared) for case in kept]
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        check=check,
        parameter_range=parameter_range,
        cases=count,
        failures=[f for f in results if f is not None],
        seed=seed,
        millis=millis,
    )


def verify_regular_closed_forms(
    max_n: int = 7,
    cache: KLCache | None = None,
    case_cap: int | None = None,
) -> VerificationReport:
    """Check the closed forms of kl on both family pairs, including the
    requirement that every strict-interior element of each interval has
    polynomial 1 against the top.

    Both read one pass over the double-coset maxima of the interval (see
    :func:`klpoly.kl._maxima_column`), listed from their block corner
    counts with no walk: the first, the raised bottom, is held to the
    closed form and every later one to 1.  A failure reads them all and
    names the shortest interior maximum whose polynomial is not 1, the
    lexicographically first among those of its length.
    """

    def evaluate(case: tuple[str, int, int], c: KLCache) -> Failure | None:
        pair, k, m = case
        bottom, top = family_pair(pair, k, m)
        column = _maxima_column(bottom, top, c)
        expected = closed_form_regular(pair, k, m)
        _, actual = next(column)
        if actual != expected:
            return Failure(f"{pair}-pair k={k} m={m}", str(expected), str(actual))
        bad = [(length(z), z, p) for z, p in column if p != ONE]
        if not bad:
            return None
        _, z, p = min(bad)
        return Failure(
            f"{pair}-pair k={k} m={m} interior z={format_perm(z)}", "1", str(p)
        )

    return _run_cases(
        "regular-closed-forms",
        f"family size <= {max_n}",
        _family_cases(max_n),
        evaluate,
        cache,
        case_cap,
    )


def verify_inverse_closed_forms(
    max_n: int = 7,
    cache: KLCache | None = None,
    case_cap: int | None = None,
) -> VerificationReport:
    """Check the closed forms of inverse_kl on both family pairs."""

    def evaluate(case: tuple[str, int, int], c: KLCache) -> Failure | None:
        pair, k, m = case
        bottom, top = family_pair(pair, k, m)
        expected = closed_form_inverse(pair, k, m)
        actual = inverse_kl(bottom, top, c)
        if actual != expected:
            return Failure(f"{pair}-pair k={k} m={m}", str(expected), str(actual))
        return None

    return _run_cases(
        "inverse-closed-forms",
        f"family size <= {max_n}",
        _family_cases(max_n),
        evaluate,
        cache,
        case_cap,
    )


def random_comparable_pair(n: int, rng: random.Random) -> tuple[Perm, Perm]:
    """A uniformly chosen pair (x, w) in S_n with x <= w, by rejection."""
    base = list(range(1, n + 1))
    while True:
        w = base[:]
        rng.shuffle(w)
        x = base[:]
        rng.shuffle(x)
        if bruhat_leq(tuple(x), tuple(w)):
            return tuple(x), tuple(w)


def _down_sets(
    n: int,
) -> tuple[
    list[Perm],
    list[int],
    list[int],
    list[int],
    list[int],
    list[list[int]],
    list[list[int]],
]:
    """S_n by lexicographic index: the principal ideal [e, w] of every
    w as a bitmask, and the length parities, descents and coset moves of
    every element.

    It returns ``(perms, parity, ideals, rdes, ldes, rmul, lmul)``:

    - ``perms``: S_n in lexicographic order.  An element is named by
      its index there.
    - ``parity[z]``: the length of z mod 2.
    - ``ideals[w]``: the ideal [e, w] as a bitmask over the indices, bit
      i standing for the element of index i.
    - ``rdes[z]``, ``ldes[z]``: the right and left descents of z as
      bitmasks, bit i - 1 standing for s_i.
    - ``rmul[z][i - 1]``, ``lmul[z][i - 1]``: the indices of z s_i and
      s_i z.

    No table is needed for w0 v, which reverses values: that reverses
    lexicographic order, so w0 v has index N - 1 - i(v), with N = n!.

    Lexicographic order is a linear extension of Bruhat order: x <= w
    gives x <= w as tuples, since going up a cover swaps the values at
    positions i < j with x(i) < x(j), which raises the first position
    that changes.  So every coatom of w has a smaller index than w, and
    one pass over the covers in index order builds every ideal: the
    ideal of w is w together with the ideals of its coatoms, since
    Bruhat order is graded and so every x < w lies below some coatom of
    w.  Nothing is decoded: a reader walks the set bits it needs.  The
    left moves and descents are the right ones of the inverse,
    s_i z = (z^-1 s_i)^-1, so the tables build N (n - 1) right
    neighbours and N inverses.
    """
    perms = list(all_perms(n))
    index = {v: i for i, v in enumerate(perms)}
    ideals = []
    for i, v in enumerate(perms):
        mask = 1 << i
        for z in covers_down(v):
            mask |= ideals[index[z]]
        ideals.append(mask)
    parity = [length(v) & 1 for v in perms]
    steps = range(n - 1)
    rdes = [sum(1 << i for i in steps if v[i] > v[i + 1]) for v in perms]
    rmul = [[index[v[:i] + (v[i + 1], v[i]) + v[i + 2:]] for i in steps]
            for v in perms]
    inv = [index[inverse(v)] for v in perms]
    ldes = [rdes[j] for j in inv]
    lmul = [[inv[k] for k in rmul[j]] for j in inv]
    return perms, parity, ideals, rdes, ldes, rmul, lmul


# A group of a column of w: the polynomial p read from the cache at one
# double-coset maximum of [e, w], and the indices z <= w that copy that
# read, split by the parity of l(w) - l(z): ``(p, even, odd)``.
_Group = tuple[IntPolynomial, list[int], list[int]]


def _fill_columns(
    tables: tuple, cache: KLCache, tops: Iterable[int] | None = None
) -> Iterator[tuple[int, list[_Group]]]:
    """Fill the column P(., w) over the ideal [e, w] of every top w of
    S_n, or of the tops whose indices are in ``tops``, and yield
    ``(t, column)`` for each, t the index of w, in increasing order.

    ``tables`` is what :func:`_down_sets` returns.  The column is a list
    of groups ``(p, even, odd)``, one per polynomial read from
    ``cache``, in the order of the reads: every z in ``even`` and in
    ``odd`` has P(z, w) = p, ``even`` holds those with l(w) - l(z) even
    and ``odd`` the others, and every z <= w is in exactly one group.
    The z are listed highest index first, w first, as shared int
    objects, one per index.

    A column is filled from the top down by the move rule of
    :func:`klpoly.kl.kl_column`, over the set bits of ideals[w], highest
    first.  With R and L the descent masks of w, a z with R & ~rdes[z]
    nonzero copies the read of z s_i, s_i the lowest set bit; else a z
    with L & ~ldes[z] nonzero copies that of s_i z; else z is the
    maximum of its double coset under the descents of w, and only then
    is P(z, w) read from the cache, as a new group.  A maximum read lies
    below w by construction, so a zero read there is a wrong entry like
    any other.  By the lifting property a neighbour lies below w, and it
    lies above z, so it has a larger index and was filled before z.  One
    list ``src`` of length N, shared by all columns, holds the group of
    each z filled so far, so a move is ``src[z] = src[rmul[z][j]]``: a
    neighbour is always in the column being filled, so what earlier
    columns left there is never read.
    """
    perms, parity, ideals, rdes, ldes, rmul, lmul = tables
    # One int object per index, shared by every group that lists it:
    # CPython shares only the ints up to 256, and S_6 has 720 indices.
    names = list(range(len(perms)))
    src: list[_Group] = [None] * len(perms)  # type: ignore[list-item]
    for t in range(len(perms)) if tops is None else sorted(tops):
        w, right, left, top = perms[t], rdes[t], ldes[t], parity[t]
        column: list[_Group] = []
        rest = ideals[t]
        while rest:
            z = names[rest.bit_length() - 1]
            rest ^= 1 << z
            if m := right & ~rdes[z]:
                group = src[rmul[z][(m & -m).bit_length() - 1]]
            elif m := left & ~ldes[z]:
                group = src[lmul[z][(m & -m).bit_length() - 1]]
            else:
                group = (_kl(perms[z], w, cache), [], [])
                column.append(group)
            src[z] = group
            group[1 + (top ^ parity[z])].append(z)
        yield t, column


class _InversionRows:
    """Rows of the inversion identity over S_n, each summed as one
    packed integer product over dual packs that the rows share.

    Every element of S_n is named by its lexicographic index.
    ``columns[t]`` is the column P(., w) of the w of index t over the
    ideal [e, w], as :func:`_fill_columns` yields it: a list of groups
    ``(p, even, odd)``, where every z in ``even`` or ``odd`` has
    P(z, w) = p, ``even`` holds the z with l(w) - l(z) even and ``odd``
    the others, and every z <= w is in exactly one group.  A column that
    no row or pack needs may be None.  The polynomials read are the p of
    the groups, and every entry P(z, w) is one of them.  The row of t is

        T = sum over z <= w of (-1)^(l(w) - l(z)) P(z, w)(2^B) D(z),

    summed per group as p(2^B) times the packs of ``even`` minus those
    of ``odd``: the same integer, since every z of the group has the
    same P and the sign of its parity.  The dual pack D(z) holds, in
    field x, the value P(w0 z, w0 x)(2^B) of each bottom x <= z:

        D(z) = sum over x <= z of P(w0 z, w0 x)(2^B) 2^(W x),

    so field x of T is the integer sum of the case (x, w).  Since w0
    reverses lexicographic order (N - 1 - i is the index of w0 v when i
    is that of v, with N = n!), and w0 z <= w0 x exactly when x <= z,
    P(w0 z, w0 x) is entry N - 1 - z of the column of N - 1 - x.  So
    the packs are scattered from the columns: each group (p, ...) of
    the column of t' adds p(2^B), shifted to field N - 1 - t', into
    pack N - 1 - u for each of its u.  The columns are walked from
    t' = N - 1 down, so each pack grows from its low fields.  A pack
    D(z) is complete when the columns of w0 x are filled for every
    x <= z; a row reads only packs of z below its top, and its caller
    fills the columns that those packs read.  Each polynomial object's
    norm, degree and value is taken once.

    Exactness.  The case (x, w) holds when

        F_x = sum over x <= z <= w of
                  (-1)^(len(z) + len(w)) P(z, w) P(w0 z, w0 x)

    is delta(x, w): 1 when x = w and 0 otherwise.  Field x of the row
    of w holds f_x = F_x(2^B), the Kronecker substitution of F_x.
    Evaluation at 2^B is a ring homomorphism Z[q] -> Z, and it is
    injective on polynomials whose coefficients all satisfy
    |c| < 2^(B-1): for two such polynomials F != D, the coefficients of
    F - D satisfy |c| < 2^B, and with g the lowest nonzero one, of
    degree j, (F - D)(2^B) = 2^(jB) (g + 2^B m) for an integer m, which
    is not 0 since 0 < |g| < 2^B.  (Equivalently, the coefficients are
    the digits of F(2^B) in balanced base 2^B.)  Every coefficient of
    F_x is at most M = sum over z of ||P(z, w)||_1 ||P(w0 z, w0 x)||_1
    in absolute value, since the l1 norm is subadditive and
    submultiplicative.  Every factor of every row and pack is an entry
    of the columns, and so one of the polynomials read, so with a and d
    the largest norm and degree among those, each norm is at most a;
    and a row has at most N terms, the N of the column of w0, which
    holds every z.  So M <= N a^2.  B is the least with
    2^(B-1) > N a^2: B = bitlen(N a^2) + 1, where bitlen(m) is the
    least k with m < 2^k.  Since a is taken from the values actually
    read, a wrong memo entry with large coefficients widens B rather
    than aliasing.  N a^2 >= 1, since P(w, w) = 1 is read, so B >= 2
    and the target delta, with coefficient at most 1, is in the
    injective range too.  Hence f_x = delta(2^B) exactly when
    F_x = delta.

    A value read satisfies |P(2^B)| <= ||P||_1 2^(B deg P), so each term
    of f_x is at most (a 2^(B d))^2 in absolute value.  W is the least
    with 2^(W-1) > N a^2 2^(2 B d), W = bitlen(N a^2) + 2 B d + 1, so
    |f_x| < 2^(W-1); with N a^2 = 0 every f_x is 0.  So f_x - delta(x, w)
    lies in [-2^(W-1), 2^(W-1)).  Those differences are the digits of
    T - 2^(W t) in balanced base 2^W, t the index of w, and such digits
    are unique, so T = 2^(W t) exactly when every f_x is delta(x, w),
    that is, by the above, when the identity holds for every bottom at
    once.  Only a failing row is read field by field.
    """

    __slots__ = ("columns", "bits", "width", "values", "packs")

    def __init__(self, columns: Sequence[list[_Group] | None]) -> None:
        # By id; the columns keep the objects, so no id is reused while
        # the rows are in use.
        polys = {id(p): p for column in columns if column for p, _, _ in column}
        self.columns = columns
        last = len(columns) - 1
        norm = max(sum(map(abs, p.coeffs)) for p in polys.values())
        degree = max(p.degree for p in polys.values())
        bound = (len(columns) * norm * norm).bit_length()
        self.bits = bits = bound + 1
        # A zero polynomial has degree -1, and is 0 at any q.
        self.width = width = bound + 2 * bits * max(degree, 0) + 1
        q = 1 << bits
        values = self.values = {i: p.evaluate(q) for i, p in polys.items()}
        packs = self.packs = [0] * len(columns)
        for t in range(last, -1, -1):
            if columns[t] is None:
                continue
            shift = width * (last - t)
            for p, even, odd in columns[t]:
                value = values[id(p)] << shift
                for u in chain(even, odd):
                    packs[last - u] += value

    def failures(self, t: int) -> list[int]:
        """The fields of the row of top t whose sum is not delta: 1 in
        field t, that of the bottom w, and 0 in every other field.

        The row passes when T equals the target.  Otherwise the digits
        of T minus the target are the field sums minus delta: they lie
        in [-2^(W-1), 2^(W-1)), where balanced digits are unique.
        """
        pack, values = self.packs.__getitem__, self.values
        total = sum(
            values[id(p)] * (sum(map(pack, even)) - sum(map(pack, odd)))
            for p, even, odd in self.columns[t]
        ) - (1 << (self.width * t))
        return [f for f, d in enumerate(_balanced_digits(total, self.width)) if d]


def _balanced_digits(value: int, width: int) -> list[int]:
    """The digits of ``value`` in base 2^width, each in
    [-2^(width-1), 2^(width-1)), lowest first; none for 0.

    >>> _balanced_digits(-1 + (3 << 8) - (5 << 16), 8)
    [-1, 3, -5]
    >>> _balanced_digits(-(1 << 7) + (1 << 8), 8)
    [-128, 1]
    """
    digits = []
    half, mask = 1 << (width - 1), (1 << width) - 1
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << width
        digits.append(digit)
        value = (value - digit) >> width
    return digits


def verify_inversion_identity_batch(
    n: int = 4,
    cache: KLCache | None = None,
    samples: int | None = None,
    seed: int = 0,
    case_cap: int | None = None,
) -> VerificationReport:
    """Check the alternating inversion identity on comparable pairs.

    With ``samples`` unset the check is exhaustive over S_n, which is
    only reasonable for n <= 6; above that a sample count is required
    and the pairs that ``case_cap`` keeps are drawn with the given seed.
    A sampled pair runs :func:`klpoly.kl.check_inversion_identity`, a
    sum in Z[q].

    The exhaustive run names each element of S_n by its lexicographic
    index (see :func:`_down_sets`).  Its cases are the pairs (x, w)
    with x <= w, by top and then by bottom in lexicographic order, and
    ``case_cap`` keeps the first of them.  They are decided all at
    once, and the report is built from the failing fields, with no list
    of cases.

    It fills each column P(., w) it needs once, through
    :func:`_fill_columns`: from the top down, by the coset moves of
    :func:`klpoly.kl.kl_column`, reading the cache only at the maxima of
    the double cosets of w's descents.  Such a z lies below w by
    construction, so a zero read there is a wrong entry like any other,
    and the rows report the cases it breaks.  A column is a list of
    groups, one per read, each listing the z that copy it, split by the
    parity of l(w) - l(z), which is the sign of the entry in the
    identity.  So the reads are the polynomials that fix the widths.

    Each top's cases are then decided by one packed integer product
    (see :class:`_InversionRows`, which holds the proofs).  Each z has
    one dual pack D(z), the sum over x <= z of
    P(w0 z, w0 x)(2^B) 2^(W i(x)), with i(x) the index of x.  Since w0
    reverses lexicographic order, P(w0 z, w0 x) is entry N - 1 - i(z)
    of the column of index N - 1 - i(x), so the packs are scattered
    from the columns, each group's value once per z.  The row of w is
    the sum over z <= w of (-1)^(l(w) - l(z)) P(z, w)(2^B) D(z), taken
    per group as its value times the packs of its even z minus those of
    its odd z, and its field i(x) is the integer sum of the case (x, w).
    It passes exactly when it is 2^(W i(w)), and each failing field is a
    failing case.

    Only what the kept cases read is filled.  With U the union of the
    ideals of the kept tops, the kept rows read only the packs of the z
    in U, and those read only the columns of w0 x for the x in U, since
    U is closed downward.  So the batch fills the columns of the kept
    tops and of w0 U, in index order, and sums only the kept rows; an
    uncapped run fills every column of S_n once.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")

    def failure(x: Perm, w: Perm) -> Failure:
        case = f"x={format_perm(x)} w={format_perm(w)}"
        return Failure(case, "delta(x, w)", "nonzero deviation")

    if samples is not None:
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        import random

        rng = random.Random(seed)
        drawn = samples if case_cap is None else min(samples, case_cap)

        def evaluate(case: tuple[Perm, Perm], c: KLCache) -> Failure | None:
            return None if check_inversion_identity(*case, c) else failure(*case)

        return _run_cases(
            "inversion-identity",
            f"S_{n}, {samples} sampled pairs",
            [random_comparable_pair(n, rng) for _ in range(drawn)],
            evaluate,
            cache,
            case_cap,
            seed=seed,
        )

    if n > _EXHAUSTIVE_MAX_N:
        raise ValueError(
            f"exhaustive check over S_{n} is too large; pass a sample count"
        )
    tables = _down_sets(n)
    perms, ideals = tables[0], tables[2]
    last = len(perms) - 1

    def decide(count: int, c: KLCache) -> list[Failure]:
        # Fields and keys are indices in S_n.  The kept tops, each with
        # the number of its cases kept (all of them when it is at least
        # the size of the ideal), and the union U of their ideals.
        kept, reach = [], 0
        for t, ideal in enumerate(ideals):
            if count <= 0:
                break
            kept.append((t, count))
            count -= ideal.bit_count()
            reach |= ideal
        needed = {t for t, _ in kept}
        while reach:
            low = reach & -reach
            needed.add(last - (low.bit_length() - 1))
            reach ^= low

        columns: list[list[_Group] | None] = [None] * len(perms)
        for t, column in _fill_columns(tables, c, needed):
            columns[t] = column
        rows = _InversionRows(columns)
        failures = []
        for t, keep in kept:
            failed = rows.failures(t)
            # A top where the count ends keeps its ``keep`` smallest
            # indices: the f with at most ``keep`` set bits up to f.
            ideal = ideals[t]
            failed = [f for f in failed
                      if (ideal & ((2 << f) - 1)).bit_count() <= keep]
            failures += [failure(perms[f], perms[t]) for f in failed]
        return failures

    return _run_cases(
        "inversion-identity",
        f"S_{n} exhaustive",
        sum(ideal.bit_count() for ideal in ideals),
        decide,
        cache,
        case_cap,
    )


def verify_smoothness_equivalence(
    n: int = 5,
    cache: KLCache | None = None,
    case_cap: int | None = None,
) -> VerificationReport:
    """Check, for every top in S_n, that the pattern test for an
    all-ones column agrees with direct computation of the column, read
    through :func:`klpoly.kl._maxima_column` up to its first P != 1.
    The column's maxima on [e, w] are listed lazily from their block
    corner counts: none is walked to, and none listed past that P."""
    if not (2 <= n <= _EXHAUSTIVE_MAX_N):
        raise ValueError(f"n must be between 2 and {_EXHAUSTIVE_MAX_N}, got {n}")
    e = identity(n)

    def evaluate(w: Perm, c: KLCache) -> Failure | None:
        by_pattern = is_smooth_top(w)
        by_column = all(p == ONE for _, p in _maxima_column(e, w, c))
        if by_pattern != by_column:
            return Failure(
                f"w={format_perm(w)}",
                f"pattern test {by_pattern}",
                f"column check {by_column}",
            )
        return None

    return _run_cases(
        "smoothness-equivalence",
        f"all tops in S_{n}",
        list(all_perms(n)),
        evaluate,
        cache,
        case_cap,
    )

