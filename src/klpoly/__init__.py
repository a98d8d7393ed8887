"""Kazhdan-Lusztig polynomials in the symmetric group.

Exact computation of the polynomials and their inverses by the
defining recursion, Bruhat-order machinery (rank counts, comparison,
intervals, covers, text pictures), parametric permutation families
with known closed forms, and a verification harness that cross-checks
every closed form against the recursion.

``import klpoly`` loads only the recursion: the modules ``perm``,
``polynomial``, ``bruhat`` and ``kl``.  The families and the
verification harness (``klpoly.families``, ``klpoly.verify``) load on
first use of any of their names, so a polynomial query does not pay
for them.
"""

from .bruhat import (
    RankDifferenceTable,
    bruhat_leq,
    coatom_count,
    covers_down,
    covers_up,
    format_interval,
    interval,
    rank_count,
    render_picture,
)
from .kl import (
    KLCache,
    active_positions,
    check_inversion_identity,
    flatten_pair,
    inverse_kl,
    is_smooth_top,
    kl_column,
    kl_polynomial,
    mu,
)
from .perm import (
    Perm,
    all_perms,
    avoids_pattern,
    compose,
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
from .polynomial import ONE, Q, ZERO, IntPolynomial, geometric_sum

__version__ = "0.1.0"

__all__ = [
    "Failure",
    "FamilySpec",
    "IntPolynomial",
    "KLCache",
    "LemmaSides",
    "NontrivialIntervalError",
    "ONE",
    "Perm",
    "Q",
    "RankDifferenceTable",
    "VerificationReport",
    "ZERO",
    "active_positions",
    "all_perms",
    "avoids_pattern",
    "bruhat_leq",
    "check_inversion_identity",
    "closed_form_inverse",
    "closed_form_regular",
    "coatom_count",
    "compose",
    "covers_down",
    "covers_up",
    "family_pair",
    "find_pattern_instance",
    "flatten",
    "flatten_pair",
    "format_interval",
    "format_perm",
    "from_oneline",
    "geometric_sum",
    "identity",
    "interval",
    "inverse",
    "inverse_kl",
    "inverse_kl_from_interval_sum",
    "is_smooth_top",
    "kl_column",
    "kl_polynomial",
    "left_descents",
    "lemma_one_sides",
    "lemma_two_sides",
    "length",
    "longest_element",
    "make_family",
    "mu",
    "parse_family_spec",
    "parse_perm",
    "random_comparable_pair",
    "rank_count",
    "render_picture",
    "right_descents",
    "swap_positions",
    "verify_inverse_closed_forms",
    "verify_inversion_identity_batch",
    "verify_regular_closed_forms",
    "verify_smoothness_equivalence",
]


# The submodules that load on first use; every public name that the four
# modules above do not define is one of theirs.
_DEFERRED = ("families", "verify")


def __getattr__(name: str) -> object:
    """Load ``families`` and ``verify`` on first use of a name of theirs
    (PEP 562), and bind all their public names here."""
    if name not in __all__ and name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    unbound = set(__all__) - namespace.keys()
    for module in _DEFERRED:
        # Importing a submodule also binds it in this namespace.
        loaded = vars(import_module(f".{module}", __name__))
        namespace.update((key, loaded[key]) for key in unbound & loaded.keys())
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
