"""Command-line interface.

Every computation in the package is reachable from one subcommand so
batch scripts never need to touch Python.  Permutations are written in
one-line notation, either comma-separated ("4,2,3,1") or as a digit
string ("4231") when every value fits in one digit.  Family members
are written as "kind:k,m", e.g. "x:2,3".

Exit codes: 0 on success, 1 when a mathematical check reports a
failure (a verify run with failures, or a lemma whose sides differ),
2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .bruhat import (
    bruhat_leq,
    format_interval,
    interval,
    render_picture,
)
from .families import (
    closed_form_inverse,
    closed_form_regular,
    lemma_one_sides,
    lemma_two_sides,
    make_family,
    parse_family_spec,
)
from .kl import KLCache, inverse_kl, is_smooth_top, kl_polynomial, mu
from .perm import Perm, _checked_pair, format_perm, parse_perm
from .verify import (
    VerificationReport,
    verify_coatom_bound,
    verify_inverse_closed_forms,
    verify_inversion_identity_batch,
    verify_regular_closed_forms,
    verify_smoothness_equivalence,
)

# Verify name -> (batch, the batch's size keyword, the flag that sets it).
# A size is passed only when its flag is given, so every default lives in
# the batch's signature.
_VERIFY_BATCHES: dict[str, tuple[Callable[..., VerificationReport], str, str]] = {
    "regular": (verify_regular_closed_forms, "max_n", "n"),
    "inverse": (verify_inverse_closed_forms, "max_n", "n"),
    "inversion": (verify_inversion_identity_batch, "n", "n"),
    "smoothness": (verify_smoothness_equivalence, "n", "n"),
    "coatom-bound": (verify_coatom_bound, "k_max", "kmax"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klpoly",
        description="Kazhdan-Lusztig polynomials, Bruhat order and "
        "closed-form verification for the symmetric group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_cache(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-cache-entries",
            type=int,
            metavar="N",
            help="bound the memo table; evicted entries are recomputed",
        )

    p = sub.add_parser("kl", help="polynomial of a pair x <= w")
    p.add_argument("x")
    p.add_argument("w")
    add_json(p)
    add_cache(p)

    p = sub.add_parser("inv-kl", help="inverse polynomial of a pair")
    p.add_argument("x")
    p.add_argument("w")
    add_json(p)
    add_cache(p)

    p = sub.add_parser("mu", help="mu-coefficient of a pair")
    p.add_argument("x")
    p.add_argument("w")
    add_json(p)
    add_cache(p)

    p = sub.add_parser("interval", help="list the Bruhat interval [x, w]")
    p.add_argument("x")
    p.add_argument("w")
    add_json(p)

    p = sub.add_parser("leq", help="decide x <= w in Bruhat order")
    p.add_argument("x")
    p.add_argument("w")
    add_json(p)

    p = sub.add_parser("smooth", help="pattern test for an all-ones column")
    p.add_argument("w")
    add_json(p)

    p = sub.add_parser("picture", help="draw the pair on an n x n grid")
    p.add_argument("x")
    p.add_argument("w")
    add_json(p)

    p = sub.add_parser("family", help="construct a family member from kind:k,m")
    p.add_argument("spec")
    add_json(p)

    p = sub.add_parser(
        "closed-form",
        help="closed-form polynomial of a family pair (kinds x/w name the "
        "x-pair, y/v the y-pair)",
    )
    p.add_argument("spec")
    p.add_argument(
        "--inverse",
        action="store_true",
        help="the inverse polynomial instead of the ordinary one",
    )
    add_json(p)

    p = sub.add_parser("verify", help="run a verification batch")
    p.add_argument("name", choices=_VERIFY_BATCHES)
    p.add_argument("--n", type=int, help="size bound (default depends on check)")
    p.add_argument("--kmax", type=int, help="diagonal bound for coatom-bound")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument(
        "--cases",
        type=int,
        help="cap the number of cases; for `inversion` with n > 5 this is "
        "the sample count",
    )
    add_json(p)
    add_cache(p)

    p = sub.add_parser("lemma", help="evaluate both sides of a binomial identity")
    p.add_argument("which", choices=("1", "2"))
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    add_json(p)

    return parser


def _json(value: object) -> str:
    """value as one line of JSON.  The json module is imported here, so
    only --json output loads it."""
    import json

    return json.dumps(value)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _make_cache(args: argparse.Namespace) -> KLCache:
    limit = getattr(args, "max_cache_entries", None)
    return KLCache(max_entries=limit)


def _run_verify(args: argparse.Namespace) -> VerificationReport:
    batch, size_keyword, size_flag = _VERIFY_BATCHES[args.name]
    for _, _, flag in _VERIFY_BATCHES.values():
        if flag != size_flag and getattr(args, flag) is not None:
            raise ValueError(f"verify {args.name} reads --{size_flag}, not --{flag}")
    kwargs = {"cache": _make_cache(args), "case_cap": args.cases}
    size = getattr(args, size_flag)
    if size is not None:
        kwargs[size_keyword] = size
    if args.name == "inversion":
        kwargs["seed"] = args.seed
        # Above n = 5 the check samples, and --cases is the sample count.
        if size is not None and size > 5 and args.cases is not None:
            kwargs["samples"] = kwargs.pop("case_cap")
    return batch(**kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _pair(args: argparse.Namespace) -> tuple[Perm, Perm]:
    """The x and w arguments; ValueError unless they are permutations
    of one size."""
    return _checked_pair(parse_perm(args.x), parse_perm(args.w))


def _dispatch(args: argparse.Namespace) -> int:
    out = sys.stdout
    cmd = args.command

    if cmd == "kl":
        poly = kl_polynomial(*_pair(args), _make_cache(args))
        print(_json(poly.to_list()) if args.json else str(poly), file=out)
        return 0

    if cmd == "inv-kl":
        poly = inverse_kl(*_pair(args), _make_cache(args))
        print(_json(poly.to_list()) if args.json else str(poly), file=out)
        return 0

    if cmd == "mu":
        value = mu(*_pair(args), _make_cache(args))
        print(_json(value) if args.json else str(value), file=out)
        return 0

    if cmd == "interval":
        iv = interval(*_pair(args))
        if args.json:
            print(
                _json([format_perm(z) for z in iv.sorted_elements()]),
                file=out,
            )
        else:
            print(format_interval(iv), file=out)
        return 0

    if cmd == "leq":
        answer = bruhat_leq(*_pair(args))
        print(_json(answer) if args.json else _bool_text(answer), file=out)
        return 0

    if cmd == "smooth":
        answer = is_smooth_top(parse_perm(args.w))
        print(_json(answer) if args.json else _bool_text(answer), file=out)
        return 0

    if cmd == "picture":
        grid = render_picture(*_pair(args))
        if args.json:
            print(_json(grid.split("\n")), file=out)
        else:
            print(grid, file=out)
        return 0

    if cmd == "family":
        member = format_perm(make_family(parse_family_spec(args.spec)))
        print(_json(member) if args.json else member, file=out)
        return 0

    if cmd == "closed-form":
        spec = parse_family_spec(args.spec)
        closed_form = closed_form_inverse if args.inverse else closed_form_regular
        poly = closed_form(spec.pair, spec.k, spec.m)
        print(_json(poly.to_list()) if args.json else str(poly), file=out)
        return 0

    if cmd == "verify":
        report = _run_verify(args)
        print(report.to_json() if args.json else report.text(), file=out)
        return 0 if report.passed else 1

    if cmd == "lemma":
        sides = lemma_one_sides(args.k, args.m) if args.which == "1" else (
            lemma_two_sides(args.k, args.m)
        )
        if args.json:
            print(
                _json(
                    {
                        "lhs": sides.lhs.to_list(),
                        "rhs": sides.rhs.to_list(),
                        "equal": sides.equal,
                    }
                ),
                file=out,
            )
        else:
            print(f"lhs: {sides.lhs}", file=out)
            print(f"rhs: {sides.rhs}", file=out)
            print(f"equal: {_bool_text(sides.equal)}", file=out)
        return 0 if sides.equal else 1

    raise AssertionError(f"unhandled command {cmd!r}")


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
