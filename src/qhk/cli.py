"""Command line front end.

Exit status: 0 for success (and for a verifier that passes), 1 for a
verifier that found failures, 2 for usage or input errors, 141 (128 +
SIGPIPE) when the reader closes stdout before the output ends, as
`qhk basis ... | head -1` does; that exit writes nothing to stderr.  A command
that would enumerate a monomial basis of more than MAX_BASIS_DIM elements
(`basis`, `annihilated`, `primitives` and `sieve` at --degree, `verify` of
theorems 2, 3 and root at --max-degree) is refused with exit status 2
before it starts; the dimension is predicted from the word counts
(`sieve.basis_dimension`).  Theorem 1 checks words one at a time and
enumerates no monomial basis, so it is not refused.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .cache import load_or_compute
from .exprs import (
    ExprError,
    element_text,
    element_to_json,
    factor_to_json,
    format_element,
    format_word_power,
    listing_terms,
    monomial_text,
    parse_element,
)
from .sieve import (
    annihilated_subspace,
    basis_dimension,
    monomial_basis,
    primitive_subspace,
    run_verifier,
    spherical_candidates,
)
from .spaces import parse_space, space_name
from .steenrod import sq_down


# The largest monomial basis a command enumerates.  Over P it admits
# degree 26 at caps 2 and 3 (95105 and 95404 monomials) and refuses degree
# 27; theorem 3 over P at degree 22 (21678) already peaks near 1 GB.
MAX_BASIS_DIM = 100_000


def _space_arg(token: str):
    try:
        return parse_space(token)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _nonneg(token: str) -> int:
    n = int(token)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _positive(token: str) -> int:
    n = int(token)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to `main` and shared by
    every later call in the process.  Nothing changes it once it is built;
    `parse_args` returns a new namespace each time."""
    parser = argparse.ArgumentParser(
        prog="qhk",
        description="Exact mod-2 homology operations for infinite loop spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_output(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = with_output(sub.add_parser("normalize", help="parse an expression into basis form"))
    p.add_argument("expr")
    p.add_argument("--space", type=_space_arg)

    p = with_output(sub.add_parser("act", help="apply a dual Steenrod operation"))
    p.add_argument("expr")
    p.add_argument("--sq", type=_nonneg, required=True, metavar="R")
    p.add_argument("--space", type=_space_arg)

    for name, help_text in (
        ("basis", "monomial basis of a fixed degree"),
        ("annihilated", "basis of the classes killed by all Sq^{2^k}"),
        ("primitives", "basis of the primitive classes"),
        ("sieve", "annihilated primitives: the spherical upper bound"),
    ):
        p = with_output(sub.add_parser(name, help=help_text))
        p.add_argument("--space", type=_space_arg, required=True)
        p.add_argument("--degree", type=_positive, required=True)
        p.add_argument("--max-length", type=_positive, default=2)
        if name == "basis":
            p.add_argument("--cache", metavar="DIR")

    p = with_output(sub.add_parser("verify", help="run a structure-theorem verifier"))
    p.add_argument("--theorem", choices=("1", "2", "3", "root"), required=True)
    p.add_argument("--space", type=_space_arg, required=True)
    p.add_argument("--max-degree", type=_positive)
    p.add_argument("--max-length", type=_positive, default=2)
    p.add_argument(
        "--max-vectors", type=_positive, default=64, help="members sampled per degree (theorem 2)"
    )

    return parser


def _indented_json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for plain JSON types
    (dict with string keys, list, tuple, str, int, and the scalars left to
    json).  With an indent set, json.dumps falls back to CPython's
    pure-Python encoder; this writer leaves only the scalars to json.  The
    indent is the newline plus the spaces that start a line at this depth.
    A dict's str and int values are written in place, without a call each."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        items = []
        for k, v in obj.items():
            t = type(v)
            if t is str:
                v = _json_str(v)
            elif t is int:
                v = repr(v)
            else:
                v = _indented_json(v, inner)
            items.append(f"{_json_str(k)}: {v}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = indent + "  "
        items = [_indented_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return repr(obj)
    return json.dumps(obj)


def _print_element(el, fmt: str) -> None:
    if fmt == "json":
        print(_indented_json(element_to_json(el)))
    else:
        print(format_element(el))


# The indents of a subspace listing's JSON: an element sits at depth 2 of
# the payload (in "basis"), a monomial at depth 4 (in "terms") and a factor
# at depth 6 (in "factors").
_ELEMENT_INDENT, _MONO_INDENT, _FACTOR_INDENT = ("\n" + " " * n for n in (4, 8, 12))


def _json_list_dict(key: str, items: list[str], indent: str) -> str:
    """_indented_json({key: values}, indent), where items are the values
    already written at the indent of the list's entries."""
    inner = indent + "  "
    if not items:
        return "{" + inner + _json_str(key) + ": []" + indent + "}"
    entry = inner + "  "
    body = entry + ("," + entry).join(items)
    return "{" + inner + _json_str(key) + ": [" + body + inner + "]" + indent + "}"


def _factor_fragment(w, e) -> str:
    return _indented_json(factor_to_json(w, e), _FACTOR_INDENT)


def _monomial_fragment(factors: list[str]) -> str:
    return _json_list_dict("factors", factors, _MONO_INDENT)


def _print_subspace(args, elements) -> None:
    """Write a listing one element at a time; the bytes are those of
    printing format_element of each element, or _indented_json of the whole
    payload with element_to_json of each."""
    write = sys.stdout.write
    if args.format == "text":
        for terms in listing_terms(elements, format_word_power, monomial_text):
            write(element_text(terms) + "\n")
        return
    payload = {
        "space": space_name(args.space),
        "degree": args.degree,
        "max_length": args.max_length,
        "dimension": len(elements),
        "basis": [],
    }
    text = _indented_json(payload)
    if not elements:
        write(text + "\n")
        return
    # the head ends in `"basis": []` and the close; keep its "[" open
    write(text[: -len("]\n}")])
    sep = _ELEMENT_INDENT
    for terms in listing_terms(elements, _factor_fragment, _monomial_fragment):
        write(sep + _json_list_dict("terms", terms, _ELEMENT_INDENT))
        sep = "," + _ELEMENT_INDENT
    write("\n  ]\n}\n")


def _too_large(space, degree: int, max_len: int) -> bool:
    """Whether the basis of this degree is above MAX_BASIS_DIM, saying so
    on stderr if it is."""
    dim = basis_dimension(space, degree, max_len)
    if dim <= MAX_BASIS_DIM:
        return False
    print(
        f"error: the monomial basis of {space_name(space)} in degree {degree} at "
        f"length cap {max_len} has {dim} elements, above the limit of {MAX_BASIS_DIM}",
        file=sys.stderr,
    )
    return True


# 128 + SIGPIPE, the status of a Unix tool whose reader went away
EXIT_CLOSED_PIPE = 141


def main(argv=None) -> int:
    """Run one command and return its exit status.  If the reader closes
    stdout early, the command stops quietly with EXIT_CLOSED_PIPE: stdout
    then points at os.devnull, so the flush at interpreter exit does not
    raise again."""
    try:
        status = _command(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return status


def _command(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command in ("normalize", "act"):
        try:
            el = parse_element(args.expr, args.space)
        except ExprError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        _print_element(el if args.command == "normalize" else sq_down(args.sq, el), args.format)
        return 0

    if args.command in ("basis", "annihilated", "primitives", "sieve"):
        if _too_large(args.space, args.degree, args.max_length):
            return 2
        bounds = (args.space, args.degree, args.max_length)
        if args.command == "basis":
            if not args.cache:
                basis = monomial_basis(*bounds)
            else:
                try:
                    basis = load_or_compute(args.cache, *bounds)
                except OSError as err:
                    msg = f"error: cannot use cache directory {args.cache}: {err.strerror or err}"
                    print(msg, file=sys.stderr)
                    return 2
            subspace = [(m,) for m in basis]
        else:
            fn = {
                "annihilated": annihilated_subspace,
                "primitives": primitive_subspace,
                "sieve": spherical_candidates,
            }[args.command]
            subspace = fn(*bounds)
        _print_subspace(args, subspace)
        return 0

    if args.command == "verify":
        if args.theorem != "root" and args.max_degree is None:
            parser.error(f"--theorem {args.theorem} requires --max-degree")
        if (
            args.theorem != "1"
            and args.max_degree is not None
            and _too_large(args.space, args.max_degree, args.max_length)
        ):
            return 2
        report = run_verifier(
            args.theorem, args.space, args.max_degree, args.max_length, args.max_vectors
        )
        if args.format == "json":
            print(_indented_json(report.to_json()))
        else:
            verdict = "PASS" if report.ok else "FAIL"
            print(
                f"theorem {report.theorem} over {report.space}: {verdict} "
                f"(checked {report.checked}, excluded {len(report.excluded)}, "
                f"{report.millis} ms)"
            )
            for line in report.failures:
                print(f"  failure: {line}")
        return 0 if report.ok else 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
