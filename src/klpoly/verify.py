"""Batch verification of closed forms and identities against the
polynomial recursion.

Each verification op walks a parameter range, compares an exact closed
form or identity against values computed independently by the
recursion, and returns a :class:`VerificationReport`.  Failures are
collected rather than raised, with both polynomials recorded verbatim,
so a report is always produced and discrepancies stay auditable.

Cases run one after another, sharing the caller's cache when one is
given.  Reports are deterministic for a fixed seed and range, since
failures are sorted before emission.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

from .bruhat import _Record, bruhat_leq, coatom_count, covers_down, interval
from .families import (
    _family_cases,
    closed_form_inverse,
    closed_form_regular,
    family_pair,
)
from .kl import (
    KLCache,
    _InversionRows,
    _raise_bottom,
    check_inversion_identity,
    inverse_kl,
    is_smooth_top,
    kl_column,
    kl_polynomial,
)
from .perm import (
    Perm,
    _w0_times,
    all_perms,
    format_perm,
    identity,
    left_descents,
    length,
    right_descents,
)
from .polynomial import ONE, IntPolynomial

# S_n in lexicographic order, the lengths of its elements, and the
# indices of the ideal of each, in increasing order (see _ideals).
_Ideals = tuple[list[Perm], list[int], list[list[int]]]


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
    it is mutable, and so unhashable; each report gets its own
    ``notes`` list unless one is given."""

    __slots__ = __match_args__ = (
        "check",
        "parameter_range",
        "cases",
        "failures",
        "seed",
        "millis",
        "notes",
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
    notes: list[str]

    def __init__(
        self,
        check: str,
        parameter_range: str,
        cases: int,
        failures: list[Failure],
        seed: int | None = None,
        millis: int = 0,
        notes: list[str] | None = None,
    ) -> None:
        self.check = check
        self.parameter_range = parameter_range
        self.cases = cases
        self.failures = failures
        self.seed = seed
        self.millis = millis
        self.notes = [] if notes is None else notes

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
        for note in self.notes:
            lines.append(f"note: {note}")
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
    cases: Sequence[object],
    evaluate: Callable[..., Failure | None],
    cache: KLCache | None,
    case_cap: int | None,
    seed: int | None = None,
    notes: Sequence[str] = (),
) -> VerificationReport:
    """Evaluate the first ``case_cap`` cases (all of them when it is
    None) with one shared cache and report on them.

    Only the evaluation is timed.  Failures are sorted by case, and
    ``notes``, which ``evaluate`` may fill as it runs, are sorted too.
    Raises ValueError when ``case_cap`` is below 1.
    """
    if case_cap is not None:
        if case_cap < 1:
            raise ValueError(f"case_cap must be >= 1, got {case_cap}")
        cases = cases[:case_cap]
    shared = cache if cache is not None else KLCache()
    start = time.perf_counter()
    results = [evaluate(case, shared) for case in cases]
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        check=check,
        parameter_range=parameter_range,
        cases=len(cases),
        failures=sorted((f for f in results if f is not None), key=lambda f: f.case),
        seed=seed,
        millis=millis,
        notes=sorted(notes),
    )


def _double_coset_maxima(bottom: Perm, top: Perm) -> list[Perm]:
    """The z of [bottom, top] that are the maxima of their double cosets
    W_I z W_J, with I and J the left and right descents of top, ordered
    by (length, lexicographic).

    P(z, top) is constant on each such coset, and raising any z of
    [bottom, top] through those descents reaches one of these z, so
    they carry every value of the column of top on the interval.  They
    are the z of the walk from raised bottom to top through the right
    descents of top that also have its left descents.
    """
    right, left = right_descents(top), left_descents(top)
    walk = interval(_raise_bottom(bottom, right, left), top, right)
    return [
        z
        for z in walk.sorted_elements()
        if all(z.index(j + 1) < z.index(j) for j in left)
    ]


def verify_regular_closed_forms(
    max_n: int = 7,
    cache: KLCache | None = None,
    case_cap: int | None = None,
) -> VerificationReport:
    """Check the closed forms of kl on both family pairs, including the
    requirement that every strict-interior element of each interval has
    polynomial 1 against the top.

    The interior check queries only the interior z that are maxima of
    their double cosets under the descents of the top: every interior z
    raises to one of them, or to the top, with the same polynomial.  A
    failure names the shortest such z whose polynomial is not 1, the
    lexicographically first among those of its length.
    """

    def evaluate(case: tuple[str, int, int], c: KLCache) -> Failure | None:
        pair, k, m = case
        bottom, top = family_pair(pair, k, m)
        expected = closed_form_regular(pair, k, m)
        actual = kl_polynomial(bottom, top, c)
        if actual != expected:
            return Failure(f"{pair}-pair k={k} m={m}", str(expected), str(actual))
        for z in _double_coset_maxima(bottom, top):
            if z == bottom or z == top:
                continue
            p = kl_polynomial(z, top, c)
            if p != ONE:
                return Failure(
                    f"{pair}-pair k={k} m={m} interior z={format_perm(z)}",
                    "1",
                    str(p),
                )
        return None

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


def _ideals(n: int) -> _Ideals:
    """S_n in lexicographic order, the lengths of its elements, and the
    principal ideal [e, w] of each w as the increasing list of the
    indices of its members.

    One pass over the covers, in order of increasing length, builds
    them all, each as a bitmask over the indices: the ideal of w is w
    together with the ideals of its coatoms, since Bruhat order is
    graded and so every x < w lies below some coatom of w.
    """
    perms = list(all_perms(n))
    index = {v: i for i, v in enumerate(perms)}
    lengths = [length(v) for v in perms]
    masks = [0] * len(perms)
    for i in sorted(range(len(perms)), key=lengths.__getitem__):
        mask = 1 << i
        for z in covers_down(perms[i]):
            mask |= masks[index[z]]
        masks[i] = mask
    ideals = []
    for mask in masks:
        members = []
        while mask:
            low = mask & -mask
            members.append(low.bit_length() - 1)
            mask ^= low
        ideals.append(members)
    return perms, lengths, ideals


def _down_layers(
    n: int, ideals: _Ideals | None = None
) -> dict[Perm, tuple[tuple[Perm, ...], ...]]:
    """The layers of [e, w] for every w in S_n, keyed in lexicographic
    order of w: layer k holds the x <= w of length l(w) - k, in
    lexicographic order, as in ``interval(identity(n), w).layers``.
    ``ideals`` is :func:`_ideals` of n, built here when not given."""
    perms, lengths, members = ideals if ideals is not None else _ideals(n)
    downs = {}
    for w, top, below in zip(perms, lengths, members):
        layers: list[list[Perm]] = [[] for _ in range(top + 1)]
        for j in below:
            layers[top - lengths[j]].append(perms[j])
        downs[w] = tuple(map(tuple, layers))
    return downs


def _comparable_pairs(
    n: int, ideals: _Ideals | None = None
) -> list[tuple[Perm, Perm]]:
    """Every pair (x, w) in S_n with x <= w: w in lexicographic order,
    and within each w the x of [e, w] in lexicographic order, which is
    the order of their indices.  ``ideals`` is :func:`_ideals` of n,
    built here when not given."""
    perms, _, members = ideals if ideals is not None else _ideals(n)
    return [(perms[j], w) for w, below in zip(perms, members) for j in below]


def verify_inversion_identity_batch(
    n: int = 4,
    cache: KLCache | None = None,
    samples: int | None = None,
    seed: int = 0,
    case_cap: int | None = None,
) -> VerificationReport:
    """Check the alternating inversion identity on comparable pairs.

    With ``samples`` unset the check is exhaustive over S_n, which is
    only reasonable for n <= 5; above that a sample count is required
    and pairs are drawn with the given seed.  A sampled pair runs
    :func:`klpoly.kl.check_inversion_identity` on its own interval.

    The exhaustive run builds the ideal [e, w] of every top w in one
    pass over the covers of S_n (see :func:`_ideals`), and takes its
    cases and layers from those ideals.  It decides every case of a top
    with one packed integer product, built when its first case is
    evaluated (see :class:`klpoly.kl._InversionRows`).  Each z of S_n
    has one dual pack D(z), the sum over x <= z of
    P(w0 z, w0 x)(2^B) 2^(W i(x)), with i(x) the index of x in S_n; its
    values come from the columns of the w0 x, read from the cache once
    each through :func:`klpoly.kl.kl_column`.  The row of w is the sum
    over z <= w of (-1)^(l(w) - l(z)) P(z, w)(2^B) D(z), whose field
    i(x) is the integer sum of the case (x, w).  The row passes exactly
    when it is 2^(W i(w)); only a failing row is read field by field,
    so the report names the same cases as the one-pair check.  The row
    of w0 is built first, with the first case: it reads every column
    and has the most terms, so B and W are final from then on and each
    D(z) is packed once.  Its failures are reported only for the cases
    of w0 that are evaluated.  The columns and packs live for one call.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if samples is None:
        if n > 5:
            raise ValueError(
                f"exhaustive check over S_{n} is too large; pass a sample count"
            )
        ideals = _ideals(n)
        downs = _down_layers(n, ideals)
        cases = _comparable_pairs(n, ideals)
        parameter_range = f"S_{n} exhaustive"
        used_seed = None
        # Fields are indices in S_n; w0 is the last of them.
        perms = ideals[0]
        index = {v: i for i, v in enumerate(perms)}
        flip = {v: _w0_times(v) for v in perms}
        w0 = perms[-1]
    else:
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        import random

        rng = random.Random(seed)
        cases = [random_comparable_pair(n, rng) for _ in range(samples)]
        parameter_range = f"S_{n}, {samples} sampled pairs"
        used_seed = seed

    columns: dict[Perm, list[dict[Perm, IntPolynomial]]] = {}
    rows = _InversionRows()
    failed: dict[Perm, set[int]] = {}

    def column(v: Perm, c: KLCache) -> list[dict[Perm, IntPolynomial]]:
        if v not in columns:
            columns[v] = kl_column(v, c, downs[v])
        return columns[v]

    def dual(z: Perm, c: KLCache) -> dict[int, IntPolynomial]:
        # x at layer k of [e, z] puts w0 z at layer k of the column of w0 x.
        u = flip[z]
        return {
            index[x]: column(flip[x], c)[k][u]
            for k, layer in enumerate(downs[z])
            for x in layer
        }

    def row_failures(v: Perm, c: KLCache) -> set[int]:
        if v not in failed:
            failed[v] = set(
                rows.failures(column(v, c), lambda z: dual(z, c), index[v])
            )
        return failed[v]

    def evaluate(case: tuple[Perm, Perm], c: KLCache) -> Failure | None:
        x, w = case
        if samples is None:
            # The row of w0 first, so that B and W never grow after it.
            row_failures(w0, c)
            passed = index[x] not in row_failures(w, c)
        else:
            passed = check_inversion_identity(x, w, c)
        if not passed:
            return Failure(
                f"x={format_perm(x)} w={format_perm(w)}",
                "delta(x, w)",
                "nonzero deviation",
            )
        return None

    return _run_cases(
        "inversion-identity",
        parameter_range,
        cases,
        evaluate,
        cache,
        case_cap,
        seed=used_seed,
    )


def verify_smoothness_equivalence(
    n: int = 5,
    cache: KLCache | None = None,
    case_cap: int | None = None,
) -> VerificationReport:
    """Check, for every top in S_n, that the pattern test for an
    all-ones column agrees with direct computation of the column.  The
    column is read at the double-coset maxima of [e, w] only, which
    carry all of its values."""
    if not (2 <= n <= 6):
        raise ValueError(f"n must be between 2 and 6, got {n}")
    e = identity(n)

    def evaluate(w: Perm, c: KLCache) -> Failure | None:
        by_pattern = is_smooth_top(w)
        by_column = all(
            kl_polynomial(z, w, c) == ONE for z in _double_coset_maxima(e, w)
        )
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


def verify_coatom_bound(
    k_max: int = 3,
    cache: KLCache | None = None,
    case_cap: int | None = None,
) -> VerificationReport:
    """Check the coatom bound on the linear coefficient along the
    diagonal family: [q^1] of the inverse closed form at (k, k) must be
    (k-1)^2 and at most coatom_count - 1 for its interval.

    The ratio coefficient/coatoms is reported as a note per k so the
    asymptotic behaviour can be eyeballed.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    notes: list[str] = []

    def evaluate(k: int, c: KLCache) -> Failure | None:
        coefficient = closed_form_inverse("x", k, k).coefficient(1)
        if coefficient != (k - 1) ** 2:
            return Failure(
                f"k={k} linear coefficient",
                str((k - 1) ** 2),
                str(coefficient),
            )
        bottom, top = family_pair("x", k, k)
        coatoms = coatom_count(_w0_times(top), _w0_times(bottom))
        notes.append(
            f"k={k}: coefficient {coefficient}, coatoms {coatoms}, "
            f"ratio {coefficient / coatoms:.3f}"
        )
        if coefficient > coatoms - 1:
            return Failure(
                f"k={k} bound",
                f"<= {coatoms - 1}",
                str(coefficient),
            )
        return None

    return _run_cases(
        "coatom-bound",
        f"2 <= k <= {k_max}",
        list(range(2, k_max + 1)),
        evaluate,
        cache,
        case_cap,
        notes=notes,
    )
