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
``command`` and, for a datum, ``field``.  ``_parse`` reads argv from the
``_COMMANDS`` table, in the forms argparse accepts, without importing
argparse: a cold start pays for no parser it does not use.

All reports are canonical JSON on stdout (or --output FILE).  Exit codes:
0 success, 1 invalid input, 2 internal inconsistency (the two routes
disagree, or ``selfcheck`` found a mismatch or a bound above its ceiling),
3 reflection undefined (some bound is infinite).
"""

from __future__ import annotations

import os
import re
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .cartan import (DEFAULT_SCAN_CAP, ConsistencyError, _row_ints, b_closed, b_recursive,
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


class _Usage(Exception):
    """An argv that the CLI refuses; ``main`` prints it as one ``error[usage]``
    line and exits 1."""


class _Help(Exception):
    """-h or --help came before any refusal; ``main`` prints this help text."""


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _path(text: str) -> str:
    """A file name, refused when empty: an unset variable in ``--output "$OUT"``
    must not send the report to stdout."""
    if not text:
        raise ValueError("empty path")
    return text


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
    # each row as the ladder answers it, in ints, so no bound becomes a
    # BValue; only p = 0 has infinite bounds, the None that becomes "inf"
    table = []
    for k in range(1, datum.n + 1):
        row = _row_ints(datum, k)
        if None in row:
            row = ["inf" if b is None else b for b in row]
        row.insert(k - 1, None)
        table.append(row)
    return {"parities": [q.value for q in datum.parities], "table": table}


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
_OUTPUT = ("--output", dict(type=_path, help="write the report here instead of stdout"))

#: (name, handler, help, flags before --output) per subcommand; each flag's
#: options are those of argparse's ``add_argument``, which ``_parse`` reads.
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


#: subcommand -> (handler, help, {option string: (dest, options)}), from _COMMANDS
_TABLES = {name: (handler, help_text, {flag: (flag[2:].replace("-", "_"), options)
                                      for flag, options in (*flags, _OUTPUT)})
           for name, handler, help_text, flags in _COMMANDS}
_HELP = ("-h", "--help")
#: tokens that argparse reads as values although they start with "-"
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_EXPECTS = {int: "an integer", _int_list: "comma-separated integers", _path: "a file name"}


def _option(token: str, names: Sequence[str]) -> tuple[str, str | None] | None:
    """How argparse reads ``token`` among the option strings ``names``: None
    for a value, else (option string, the text after "=" or None), with the
    option string "" for an unknown option.  A prefix of exactly one long
    option stands for it; a prefix of several is refused."""
    if token == "--":       # argparse versions differ on what follows it
        raise _Usage("a bare -- is not accepted")
    if not token.startswith("-") or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, tail = token.partition("=")
    explicit = tail if eq else None
    if eq and head in names:
        return head, explicit
    if token.startswith("--"):
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise _Usage(f"ambiguous flag {token}: it could be {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif token.startswith("-h"):    # argparse reads -hX as -h given the value X
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return "", None


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` as argparse reads it with a parser built from
    ``_COMMANDS``: the same values, and a refusal (``_Usage``) wherever
    argparse refuses.  Tokens are read left to right.  A bad value, a flag
    without its value or an ambiguous prefix is refused at once; -h or
    --help before that raises ``_Help``.  A missing subcommand or required
    flag is refused at the end, and then an unknown flag or a stray value."""
    tokens = list(argv)
    kinds = [_option(token, _HELP) for token in tokens]
    flags: dict = {}
    args = None                 # until the subcommand is read
    seen = set()
    strays = []
    i = 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind is None and args is None:
            # the first value names the subcommand, which reads the rest of argv
            if token not in _TABLES:
                raise _Usage(f"unknown subcommand {token!r}, not one of {', '.join(_TABLES)}")
            handler, _, flags = _TABLES[token]
            args = SimpleNamespace(command=token, handler=handler, **{
                dest: options.get("default", False if options.get("action") else None)
                for dest, options in flags.values()})
            tokens = tokens[i:]
            kinds = [_option(t, (*_HELP, *flags)) for t in tokens]
            i = 0
        elif kind is None:
            strays.append(f"unexpected argument {token!r}")
        elif not kind[0]:
            strays.append(f"unknown flag {token}")
        else:
            flag, value = kind
            dest, options = flags.get(flag, (None, {"action": "help"}))     # -h, --help
            if options.get("action"):
                if value is not None:
                    raise _Usage(f"{flag} takes no value")
                if dest is None:
                    raise _Help(_help_text(args and args.command))
                value = True
            else:
                if value is None:
                    if i == len(tokens) or kinds[i] is not None:
                        raise _Usage(f"{flag} needs a value")
                    value = tokens[i]
                    i += 1
                convert = options.get("type", str)
                try:
                    value = convert(value)
                except ValueError:
                    raise _Usage(f"{flag} expects {_EXPECTS[convert]}, got {value!r}") from None
            setattr(args, dest, value)
            seen.add(flag)
    if args is None:
        raise _Usage(f"missing subcommand, one of {', '.join(_TABLES)}")
    missing = [flag for flag, (_, options) in flags.items()
               if options.get("required") and flag not in seen]
    if missing:
        raise _Usage(f"{args.command} needs {', '.join(missing)}")
    if strays:
        raise _Usage(strays[0])
    return args


def _help_text(command: str | None) -> str:
    if command is None:
        head = ("usage: rootstrings {" + ",".join(_TABLES) + "} [flags]\n\n"
                "Root-string bounds from Cartan data.\n\nsubcommands:")
        rows = [(name, help_text) for name, (_, help_text, _) in _TABLES.items()]
    else:
        _, help_text, flags = _TABLES[command]
        head = f"usage: rootstrings {command} [flags]\n\n{help_text}\n\nflags:"
        rows = [(flag if options.get("action") else f"{flag} {dest.upper()}",
                 options["help"] + ("; required" if options.get("required") else ""))
                for flag, (dest, options) in flags.items()]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    return head + "".join(f"\n  {left:<{width}}  {right}" for left, right in rows) + "\n"


def _emit(text: str, args) -> None:
    """Write the report to stdout, or to --output atomically: into a
    temporary file beside the target, which then replaces it.  An error on
    the temporary file names the --output path, which is the one the user
    knows."""
    if args.output is None:
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
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    except _Help as exc:
        sys.stdout.write(str(exc))
        return EXIT_OK
    try:
        doc = {"command": args.command}
        if hasattr(args, "input"):           # every subcommand but selfcheck reads one datum
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
