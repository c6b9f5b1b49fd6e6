"""Command-line interface.

Subcommands:

* ``bkj``       -- one bound, computed by both routes, which must agree
* ``dseq``      -- the d-sequence for a pair, from index -1 up to --max-m
* ``table``     -- all off-diagonal bounds of a matrix
* ``reflect``   -- new simple roots and change-of-basis data for one index
* ``selfcheck`` -- exhaustive closed-form vs. recursion sweep over small fields

All reports are canonical JSON on stdout (or --output FILE).  Exit codes:
0 success, 1 invalid input, 2 internal inconsistency (the two routes
disagree), 3 reflection undefined (some bound is infinite).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .cartan import ConsistencyError, b_closed, b_recursive, b_table, d_sequence
from .cartanfile import (
    CartanFileError,
    encode_bvalue,
    encode_entry,
    field_doc,
    parse_cartan,
    render_document,
)
from .reflection import ReflectionUndefinedError, basis_determinant, reflect

EXIT_OK = 0
EXIT_VALIDATION_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_REFLECTION_UNDEFINED = 3

DEFAULT_SCAN_CAP = 1000


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
        return parse_cartan(handle.read(), strict=args.strict)


def cmd_bkj(args) -> tuple[dict, int]:
    datum = _load_datum(args)
    closed = b_closed(datum, args.k, args.j)
    scan_cap = DEFAULT_SCAN_CAP if args.max_m is None else args.max_m
    recursive = b_recursive(datum, args.k, args.j, scan_cap=scan_cap)
    if closed != recursive:
        raise ConsistencyError(
            f"closed form gives {closed} but the recursion gives {recursive} "
            f"for k = {args.k}, j = {args.j}")
    doc = {
        "command": "bkj",
        "field": field_doc(datum.spec),
        "k": args.k,
        "j": args.j,
        "b": encode_bvalue(closed),
        "routes": {
            "closed": encode_bvalue(closed),
            "recursive": encode_bvalue(recursive),
            "agree": True,
        },
    }
    return doc, EXIT_OK


def cmd_dseq(args) -> tuple[dict, int]:
    datum = _load_datum(args)
    seq = d_sequence(datum, args.k, args.j, args.max_m)
    doc = {
        "command": "dseq",
        "field": field_doc(datum.spec),
        "k": args.k,
        "j": args.j,
        "parity": datum.parity(args.k).value,
        "first_index": -1,
        "values": [encode_entry(d) for d in seq.values],
    }
    return doc, EXIT_OK


def cmd_table(args) -> tuple[dict, int]:
    datum = _load_datum(args)
    rows = b_table(datum)
    doc = {
        "command": "table",
        "field": field_doc(datum.spec),
        "parities": [q.value for q in datum.parities],
        "table": [[encode_bvalue(b) for b in row] for row in rows],
    }
    return doc, EXIT_OK


def cmd_reflect(args) -> tuple[dict, int]:
    datum = _load_datum(args)
    result = reflect(datum, args.k)
    determinant = basis_determinant(result.basis_matrix)
    doc = {
        "command": "reflect",
        "field": field_doc(datum.spec),
        "k": args.k,
        "b_row": [encode_bvalue(b) for b in result.b_row],
        "sigma": [list(v.coords) for v in result.sigma],
        "basis_matrix": [list(row) for row in result.basis_matrix],
        "determinant": determinant,
        "unimodular": determinant == -1,
    }
    return doc, EXIT_OK


def cmd_selfcheck(args) -> tuple[dict, int]:
    from .selfcheck import run_selfcheck

    report = run_selfcheck(args.primes, args.degrees)
    doc = {"command": "selfcheck", "primes": args.primes, "degrees": args.degrees}
    doc.update(report)
    return doc, EXIT_OK if report["ok"] else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rootstrings",
                     description="Root-string bounds from Cartan data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(sp):
        sp.add_argument("--input", required=True, help="Cartan-data JSON file")
        sp.add_argument("--strict", action="store_true",
                        help="reject entries that are not reduced mod p")

    def add_output_flag(sp):
        sp.add_argument("--output", help="write the report here instead of stdout")

    sp = sub.add_parser("bkj", help="compute one bound by both routes")
    add_input_flags(sp)
    sp.add_argument("--k", type=int, required=True, help="reflecting index (1-based)")
    sp.add_argument("--j", type=int, required=True, help="target index (1-based)")
    sp.add_argument("--max-m", type=int, default=None,
                    help=f"characteristic-0 scan cap (default {DEFAULT_SCAN_CAP})")
    add_output_flag(sp)
    sp.set_defaults(handler=cmd_bkj)

    sp = sub.add_parser("dseq", help="print a d-sequence")
    add_input_flags(sp)
    sp.add_argument("--k", type=int, required=True, help="reflecting index (1-based)")
    sp.add_argument("--j", type=int, required=True, help="target index (1-based)")
    sp.add_argument("--max-m", type=int, required=True, help="last index to print")
    add_output_flag(sp)
    sp.set_defaults(handler=cmd_dseq)

    sp = sub.add_parser("table", help="all off-diagonal bounds")
    add_input_flags(sp)
    add_output_flag(sp)
    sp.set_defaults(handler=cmd_table)

    sp = sub.add_parser("reflect", help="new simple roots for one index")
    add_input_flags(sp)
    sp.add_argument("--k", type=int, required=True, help="reflecting index (1-based)")
    add_output_flag(sp)
    sp.set_defaults(handler=cmd_reflect)

    sp = sub.add_parser("selfcheck",
                        help="sweep closed form against recursion over small fields")
    sp.add_argument("--primes", type=_int_list, default=[2, 3, 5, 7],
                    help="comma-separated primes (default 2,3,5,7)")
    sp.add_argument("--degrees", type=_int_list, default=[1],
                    help="comma-separated extension degrees (default 1)")
    add_output_flag(sp)
    sp.set_defaults(handler=cmd_selfcheck)

    return parser


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, code = args.handler(args)
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
    _emit(render_document(doc), args)
    return code
