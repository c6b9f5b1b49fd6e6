"""Command-line interface.

Subcommands:

* ``bkj``       -- one bound, computed by both routes, which must agree
* ``dseq``      -- the d-sequence for a pair, from index -1 up to --max-m
* ``table``     -- all off-diagonal bounds of a matrix
* ``reflect``   -- new simple roots and change-of-basis data for one index
* ``selfcheck`` -- exhaustive closed-form vs. recursion sweep over small fields

``main`` runs each request from end to end: it reads and parses the
``--input`` document, computes through one subcommand handler, and renders
the report.  A handler returns only its own report keys; ``main`` writes
``command`` and, for a datum, ``field``.  The argument parser is built once,
at import.

All reports are canonical JSON on stdout (or --output FILE).  Exit codes:
0 success, 1 invalid input, 2 internal inconsistency (the two routes
disagree), 3 reflection undefined (some bound is infinite).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .cartan import (DEFAULT_SCAN_CAP, ConsistencyError, b_closed, b_recursive, b_table,
                     d_sequence)
from .cartanfile import (
    CartanFileError,
    encode_bvalue,
    encode_entry,
    field_doc,
    parse_cartan,
    render_document,
)
from .reflection import ReflectionUndefinedError, basis_determinant, reflect
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_VALIDATION_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_REFLECTION_UNDEFINED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error[usage]: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION_ERROR)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _load_datum(args):
    with open(args.input, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:   # a ValueError, which would read as error[invalid]
            raise CartanFileError(
                "bad-json", f"not UTF-8: {exc.reason} at byte offset {exc.start}") from None
    return parse_cartan(text, strict=args.strict)


def cmd_bkj(datum, args) -> dict:
    closed = b_closed(datum, args.k, args.j)
    recursive = b_recursive(datum, args.k, args.j, scan_cap=args.max_m)
    if closed != recursive:
        raise ConsistencyError(
            f"closed form gives {closed} but the recursion gives {recursive} "
            f"for k = {args.k}, j = {args.j}")
    return {
        "k": args.k,
        "j": args.j,
        "b": encode_bvalue(closed),
        "routes": {
            "closed": encode_bvalue(closed),
            "recursive": encode_bvalue(recursive),
            "agree": True,
        },
    }


def cmd_dseq(datum, args) -> dict:
    seq = d_sequence(datum, args.k, args.j, args.max_m)
    return {
        "k": args.k,
        "j": args.j,
        "parity": datum.parity(args.k).value,
        "first_index": -1,
        "values": [encode_entry(d) for d in seq.values],
    }


def cmd_table(datum, args) -> dict:
    return {
        "parities": [q.value for q in datum.parities],
        "table": [list(map(encode_bvalue, row)) for row in b_table(datum)],
    }


def cmd_reflect(datum, args) -> dict:
    result = reflect(datum, args.k)
    determinant = basis_determinant(result.basis_matrix)
    return {
        "k": args.k,
        "b_row": [encode_bvalue(b) for b in result.b_row],
        "sigma": [v.coords for v in result.sigma],
        "basis_matrix": result.basis_matrix,
        "determinant": determinant,
        "unimodular": determinant == -1,
    }


def cmd_selfcheck(args) -> dict:
    return {"primes": args.primes, "degrees": args.degrees,
            **run_selfcheck(args.primes, args.degrees)}


_INPUT = (("--input", dict(required=True, help="Cartan-data JSON file")),
          ("--strict", dict(action="store_true",
                            help="reject entries that are not reduced mod p")))
_K = ("--k", dict(type=int, required=True, help="reflecting index (1-based)"))
_J = ("--j", dict(type=int, required=True, help="target index (1-based)"))
_OUTPUT = ("--output", dict(help="write the report here instead of stdout"))

#: (name, handler, help, flags before --output) per subcommand.
_COMMANDS = (
    ("bkj", cmd_bkj, "compute one bound by both routes", (*_INPUT, _K, _J, (
        "--max-m", dict(type=int, default=DEFAULT_SCAN_CAP,
                        help=f"characteristic-0 scan cap (default {DEFAULT_SCAN_CAP})")))),
    ("dseq", cmd_dseq, "print a d-sequence", (*_INPUT, _K, _J, (
        "--max-m", dict(type=int, required=True, help="last index to print")))),
    ("table", cmd_table, "all off-diagonal bounds", _INPUT),
    ("reflect", cmd_reflect, "new simple roots for one index", (*_INPUT, _K)),
    ("selfcheck", cmd_selfcheck, "sweep closed form against recursion over small fields", (
        ("--primes", dict(type=_int_list, default=[2, 3, 5, 7],
                          help="comma-separated primes (default 2,3,5,7)")),
        ("--degrees", dict(type=_int_list, default=[1],
                           help="comma-separated extension degrees (default 1)")))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rootstrings",
                     description="Root-string bounds from Cartan data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, options in (*flags, _OUTPUT):
            sp.add_argument(flag, **options)
        sp.set_defaults(handler=handler)
    return parser


_PARSER = build_parser()


def _emit(text: str, args) -> None:
    """Write the report to stdout, or to --output atomically: into a
    temporary file beside the target, which then replaces it.  An error on
    the temporary file names the --output path, which is the one the user
    knows."""
    if not getattr(args, "output", None):
        sys.stdout.write(text)
        return
    tmp = f"{args.output}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, args.output)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # a stale temporary file from an earlier run keeps its name: it is in the way
        if exc.filename != tmp or isinstance(exc, FileExistsError):
            raise
        raise OSError(exc.errno, exc.strerror, args.output) from None


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = {"command": args.command}
        if "input" in args:             # every subcommand but selfcheck reads one datum
            datum = _load_datum(args)
            doc["field"] = field_doc(datum.spec)
            doc.update(args.handler(datum, args))
        else:
            doc.update(args.handler(args))
        _emit(render_document(doc), args)
    except CartanFileError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    except ReflectionUndefinedError as exc:
        print(f"error[reflection-undefined]: {exc}", file=sys.stderr)
        return EXIT_REFLECTION_UNDEFINED
    except ConsistencyError as exc:
        print(f"error[inconsistent]: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    except (ValueError, IndexError) as exc:
        print(f"error[invalid]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    # only a selfcheck report has "ok"; a false one is an inconsistency
    return EXIT_OK if doc.get("ok", True) else EXIT_INCONSISTENT
