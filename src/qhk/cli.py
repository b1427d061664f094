"""Command line front end: the argument parser, the size guard, and the
head of a listing and the verifier reports, which json.dumps(..., indent=2)
writes.  Every element's text and JSON come from exprs (format_element,
element_json, listing_terms).

Exit status: 0 for success (and for a verifier that passes), 1 for a
verifier that found failures, 2 for usage or input errors, 141 (128 +
SIGPIPE) when the reader closes stdout before the output ends, as
`qhk basis ... | head -1` does; that exit writes nothing to stderr.  A command
that would enumerate a monomial basis of more than MAX_BASIS_DIM elements
(`basis`, `annihilated`, `primitives` and `sieve` at --degree, `verify` of
theorems 2, 3 and root at --max-degree) is refused with exit status 2
before it enumerates the basis; the dimension is predicted from the word
counts (`sieve.basis_dimension`), whose own cost grows with the degree.
Theorem 1 checks words one at a time and enumerates no monomial basis, so
it is not refused.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from array import array

from .exprs import (
    ExprError,
    element_json,
    element_to_json,  # unused here; bench/layers.py still times it as a boundary
    format_element,
    listing_terms,
    parse_element,
)
from .sieve import (
    annihilated_kernel,
    basis_dimension,
    bits,
    candidate_kernel,
    monomial_basis,
    primitive_kernel,
    run_verifier,
)
from .spaces import parse_space, space_name
from .steenrod import sq_down


# The largest monomial basis a command enumerates.  Over P it admits
# degree 26 at caps 2 and 3 (95105 and 95404 monomials) and refuses degree
# 27.  The Steenrod side sets the peak: theorem 3 over P reaches 614 MB at
# degree 26, cap 3, where the primitive listing alone takes 56 MB.
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

    p = with_output(sub.add_parser("verify", help="run a structure-theorem verifier"))
    p.add_argument("--theorem", choices=("1", "2", "3", "root"), required=True)
    p.add_argument("--space", type=_space_arg, required=True)
    p.add_argument("--max-degree", type=_positive)
    p.add_argument("--max-length", type=_positive, default=2)
    p.add_argument(
        "--max-vectors", type=_positive, default=64, help="members sampled per degree (theorem 2)"
    )

    return parser


def _print_subspace(args, basis, rows) -> None:
    """Write a listing one row of basis indices at a time; the bytes are those
    of printing format_element of each element, or json.dumps(..., indent=2)
    of the whole payload with element_to_json of each."""
    write = sys.stdout.write
    if args.format == "text":
        for text in listing_terms(basis, rows):
            write(text + "\n")
        return
    payload = {
        "space": space_name(args.space),
        "degree": args.degree,
        "max_length": args.max_length,
        "dimension": len(rows),
        "basis": [],
    }
    text = json.dumps(payload, indent=2)
    if not rows:
        write(text + "\n")
        return
    # the head ends in `"basis": []` and the close; keep its "[" open, and
    # write each element at depth 2, where the list's entries sit
    write(text[: -len("]\n}")])
    sep = "\n    "
    for text in listing_terms(basis, rows, json_depth=2):
        write(sep + text)
        sep = ",\n    "
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
        if args.command == "act":
            el = sq_down(args.sq, el)
        print(element_json(el) if args.format == "json" else format_element(el))
        return 0

    if args.command in ("basis", "annihilated", "primitives", "sieve"):
        if _too_large(args.space, args.degree, args.max_length):
            return 2
        bounds = (args.space, args.degree, args.max_length)
        basis = monomial_basis(*bounds)
        if args.command == "basis":
            # one index per row: n one-bit masks of width n would be quadratic
            rows = [(i,) for i in range(len(basis))]
        else:
            kernel = {
                "annihilated": annihilated_kernel,
                "primitives": primitive_kernel,
                "sieve": candidate_kernel,
            }[args.command]
            # an index is one machine word; a list would add an int object for each
            rows = [array("L", bits(mask)) for mask in kernel(*bounds)]
        _print_subspace(args, basis, rows)
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
            print(json.dumps(report.to_json(), indent=2))
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
