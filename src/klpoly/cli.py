"""Command-line interface.

Every computation in the package is reachable from one subcommand so
batch scripts never need to touch Python.  Permutations are written in
one-line notation, either comma-separated ("4,2,3,1") or as a digit
string ("4231") when every value fits in one digit.  Family members
are written as "kind:k,m", e.g. "x:2,3".

Exit codes: 0 on success, 1 when a mathematical check reports a
failure (a verify run with failures, or a lemma whose sides differ),
2 on usage or parse errors, 141 (128 + SIGPIPE) when the reader of
standard output closed it before the output was written.

The library is reached through the package, so a command loads
``klpoly.families`` and ``klpoly.verify`` only when it uses a name of
theirs (see ``klpoly.__getattr__``).
"""

from __future__ import annotations

import argparse
import os
import sys

import klpoly

from .perm import Perm, _checked_pair

# Command -> (help, positional arguments, whether it takes
# --max-cache-entries).  Every command takes --json.
_COMMANDS: dict[str, tuple[str, tuple[str, ...], bool]] = {
    "kl": ("polynomial of a pair x <= w", ("x", "w"), True),
    "inv-kl": ("inverse polynomial of a pair", ("x", "w"), True),
    "mu": ("mu-coefficient of a pair", ("x", "w"), True),
    "interval": ("list the Bruhat interval [x, w]", ("x", "w"), False),
    "leq": ("decide x <= w in Bruhat order", ("x", "w"), False),
    "smooth": ("pattern test for an all-ones column", ("w",), False),
    "picture": ("draw the pair on an n x n grid", ("x", "w"), False),
    "family": ("construct a family member from kind:k,m", ("spec",), False),
    "closed-form": (
        "closed-form polynomial of a family pair (kinds x/w name the "
        "x-pair, y/v the y-pair)",
        ("spec",),
        False,
    ),
    "verify": ("run a verification batch", (), True),
    "lemma": ("evaluate both sides of a binomial identity", (), False),
}

# Verify name -> (the batch's name in the package, the size keyword that
# --n sets).  A size is passed only when --n is given, so every default
# lives in the batch's signature.
_VERIFY_BATCHES = {
    "regular": ("verify_regular_closed_forms", "max_n"),
    "inverse": ("verify_inverse_closed_forms", "max_n"),
    "inversion": ("verify_inversion_identity_batch", "n"),
    "smoothness": ("verify_smoothness_equivalence", "n"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klpoly",
        description="Kazhdan-Lusztig polynomials, Bruhat order and "
        "closed-form verification for the symmetric group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, cached) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg in positionals:
            p.add_argument(arg)
        if name == "closed-form":
            p.add_argument(
                "--inverse",
                action="store_true",
                help="the inverse polynomial instead of the ordinary one",
            )
        elif name == "verify":
            p.add_argument("name", choices=_VERIFY_BATCHES)
            p.add_argument("--n", type=int, help="size bound (default depends on check)")
            p.add_argument("--seed", type=int, help="seed for sampled checks (default 0)")
            p.add_argument(
                "--cases",
                type=int,
                help="cap the number of cases; for `inversion` with n above "
                "the exhaustive sizes this is the sample count",
            )
        elif name == "lemma":
            p.add_argument("which", choices=("1", "2"))
            p.add_argument("k", type=int)
            p.add_argument("m", type=int)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if cached:
            p.add_argument(
                "--max-cache-entries",
                type=int,
                metavar="N",
                help="bound the memo table; evicted entries are recomputed",
            )
    return parser


def _make_cache(args: argparse.Namespace) -> klpoly.KLCache:
    limit = args.max_cache_entries
    if limit is not None and limit < 1:
        raise ValueError(f"--max-cache-entries must be >= 1, got {limit}")
    return klpoly.KLCache(max_entries=limit)


def _run_verify(args: argparse.Namespace) -> klpoly.VerificationReport:
    batch, size_keyword = _VERIFY_BATCHES[args.name]
    ceiling = klpoly.verify._EXHAUSTIVE_MAX_N
    # Every batch's size floor is 2; the errors name flags, not parameters.
    if args.n is not None and args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    if args.name == "smoothness" and (args.n or 0) > ceiling:
        raise ValueError(f"--n must be between 2 and {ceiling}, got {args.n}")
    if args.cases is not None and args.cases < 1:
        raise ValueError(f"--cases must be >= 1, got {args.cases}")
    kwargs = {"cache": _make_cache(args), "case_cap": args.cases}
    if args.n is not None:
        kwargs[size_keyword] = args.n
    # Above the exhaustive ceiling the inversion check samples, with
    # --cases as the sample count; no other run reads --seed.
    if args.name == "inversion" and (args.n or 0) > ceiling:
        if args.cases is None:
            raise ValueError(
                f"verify inversion --n {args.n} samples; pass --cases, the sample count"
            )
        kwargs["samples"] = kwargs.pop("case_cap")
        if args.seed is not None:
            kwargs["seed"] = args.seed
    elif args.seed is not None:
        raise ValueError("--seed is read only by a sampled inversion run")
    return getattr(klpoly, batch)(**kwargs)


def _pair(args: argparse.Namespace) -> tuple[Perm, Perm]:
    """The x and w arguments; ValueError unless they are permutations
    of one size."""
    return _checked_pair(klpoly.parse_perm(args.x), klpoly.parse_perm(args.w))


def _answer(args: argparse.Namespace) -> tuple[str, object, int]:
    """The command's text, its JSON value and its exit code."""
    match args.command:
        case "kl" | "inv-kl" as cmd:
            query = klpoly.kl_polynomial if cmd == "kl" else klpoly.inverse_kl
            poly = query(*_pair(args), _make_cache(args))
            return str(poly), poly.to_list(), 0
        case "mu":
            value = klpoly.mu(*_pair(args), _make_cache(args))
            return str(value), value, 0
        case "interval":
            text = klpoly.format_interval(klpoly.interval(*_pair(args)))
            return text, text.split("\n"), 0
        case "leq":
            answer = klpoly.bruhat_leq(*_pair(args))
            return str(answer).lower(), answer, 0
        case "smooth":
            answer = klpoly.is_smooth_top(klpoly.parse_perm(args.w))
            return str(answer).lower(), answer, 0
        case "picture":
            grid = klpoly.render_picture(*_pair(args))
            return grid, grid.split("\n"), 0
        case "family":
            spec = klpoly.parse_family_spec(args.spec)
            member = klpoly.format_perm(klpoly.make_family(spec))
            return member, member, 0
        case "closed-form":
            spec = klpoly.parse_family_spec(args.spec)
            closed_form = (
                klpoly.closed_form_inverse if args.inverse else klpoly.closed_form_regular
            )
            poly = closed_form(spec.pair, spec.k, spec.m)
            return str(poly), poly.to_list(), 0
        case "lemma":
            lemma = klpoly.lemma_one_sides if args.which == "1" else klpoly.lemma_two_sides
            sides = lemma(args.k, args.m)
            equal = sides.equal
            text = f"lhs: {sides.lhs}\nrhs: {sides.rhs}\nequal: {str(equal).lower()}"
            value = {"lhs": sides.lhs.to_list(), "rhs": sides.rhs.to_list(), "equal": equal}
            return text, value, int(not equal)
        case "verify":
            report = _run_verify(args)
            return report.text(), report, int(not report.passed)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, value, code = _answer(args)
        if args.json:
            # Imported here, so only --json output loads the json module.
            # A report prints its own indented JSON.
            import json

            text = value.to_json() if args.command == "verify" else json.dumps(value)
        print(text)
        # Flushed here, so that a closed pipe raises below and not at exit.
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; pointing it at
        # devnull keeps that flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
