import contextlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rootstrings.cartan
import rootstrings.cartanfile
import rootstrings.cli
import rootstrings.selfcheck
from rootstrings.cartan import BValue, b_table
from rootstrings.cartanfile import (Scalars, encode_bvalue, field_doc, parse_cartan,
                                    render_document)
from rootstrings.field import PRIMALITY_LIMIT

from conftest import FIXTURES, GOLDEN, GOLDEN_CASES, bench_workloads, with_fixture_paths
from oracles import build_parser

SRC = Path(__file__).resolve().parent.parent / "src"


def flat_lists(value):
    """Every list or tuple inside ``value`` that holds no container."""
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (list, tuple)):
        return
    elif not any(isinstance(item, (dict, list, tuple)) for item in value):
        yield value
        return
    for item in value:
        yield from flat_lists(item)


@pytest.mark.parametrize("golden_name,argv", [
    case for case in GOLDEN_CASES if case[1][0] in ("dseq", "table", "reflect")])
def test_report_handlers_vouch_for_their_flat_lists(golden_name, argv):
    # the renderer writes a Scalars list from its text memo, trusting it to
    # hold only exact ints, strs and None: every flat list of these reports
    # is one, and holds only those types
    args = rootstrings.cli._parse(with_fixture_paths(argv))
    lists = list(flat_lists(args.handler(rootstrings.cli._load_datum(args), args)))
    assert lists
    for flat in lists:
        assert type(flat) is Scalars, golden_name
        assert set(map(type, flat)) <= {int, str, type(None)}, golden_name


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES)
def test_golden_outputs_byte_identical(run_cli, golden_name, argv):
    expected = (GOLDEN / golden_name).read_text()
    code, out, err = run_cli(*with_fixture_paths(argv))
    assert code == 0
    assert err == ""
    assert out == expected
    # determinism: a second run reproduces the bytes exactly
    code2, out2, _ = run_cli(*with_fixture_paths(argv))
    assert (code2, out2) == (0, expected)


def test_selfcheck_golden(run_cli):
    # the bytes are checked with the other goldens; these are the facts
    # that make the report a pass
    code, out, _ = run_cli("selfcheck", "--primes", "2,3", "--degrees", "1,2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["total_cases"] == 220
    assert report["total_mismatches"] == 0


def test_selfcheck_default_flags(run_cli):
    code, out, _ = run_cli("selfcheck")
    assert code == 0
    report = json.loads(out)
    assert report["primes"] == [2, 3, 5, 7]
    assert report["degrees"] == [1]
    assert report["total_cases"] == 2 * (4 + 9 + 25 + 49)
    assert report["ok"] is True


def test_output_flag_writes_identical_bytes(run_cli, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli("table", "--input", str(FIXTURES / "prime.json"),
                             "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "prime_table.json").read_text()


@pytest.mark.parametrize("form", [["--output", ""], ["--output="]], ids=["separate", "equals"])
def test_empty_output_is_refused(run_cli, tmp_path, monkeypatch, form):
    # an unset $OUT in --output "$OUT" must not send the report to stdout
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("table", "--input", str(FIXTURES / "prime.json"), *form)
    assert (code, out) == (1, "")
    assert err == "error[usage]: --output expects a file name, got ''\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exits_1(run_cli, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out, err = run_cli("table", "--input", str(FIXTURES / "prime.json"),
                             "--output", str(target))
    assert code == 1
    assert err.startswith("error[io]:")
    assert "x.json" in err
    assert ".tmp" not in err
    assert out == ""


def test_stale_temporary_file_is_named(run_cli, tmp_path):
    target = tmp_path / "x.json"
    target.write_text("previous report\n")
    stale = tmp_path / f"x.json.{os.getpid()}.tmp"
    stale.write_text("left by a killed run\n")
    code, out, err = run_cli("table", "--input", str(FIXTURES / "prime.json"),
                             "--output", str(target))
    assert code == 1
    assert err.startswith("error[io]:")
    assert str(stale) in err
    assert stale.read_text() == "left by a killed run\n"
    assert target.read_text() == "previous report\n"
    assert out == ""


def test_failed_replace_leaves_existing_output_intact(run_cli, tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("previous report\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(rootstrings.cli.os, "replace", failing_replace)
    code, out, err = run_cli("table", "--input", str(FIXTURES / "prime.json"),
                             "--output", str(target))
    assert code == 1
    assert err.startswith("error[io]:")
    assert target.read_text() == "previous report\n"
    assert list(tmp_path.iterdir()) == [target]          # no temporary file left


def wide_document(field: str, n: int) -> dict:
    """A seeded rank-n document over GF(9), GF(101) or Q whose row 1 has only
    finite bounds, so that it can be reflected at k = 1."""
    rng = random.Random(f"{field}:{n}")
    if field == "gf9":
        entry = lambda: [rng.randrange(3), rng.randrange(3)]
        header = {"characteristic": 3, "extension": {"degree": 2, "modulus": [1, 0, 1]}}
    elif field == "gf101":
        entry = lambda: rng.randrange(101)
        header = {"characteristic": 101}
    else:
        entry = lambda: f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
        header = {"characteristic": 0}
    matrix = [[entry() for _ in range(n)] for _ in range(n)]
    if field == "q":
        # even row, A_11 = 2 and A_1j = -c: the bound B_1j is c
        matrix[0] = [2] + [-rng.randrange(50) for _ in range(n - 1)]
    parities = ["ev"] + [rng.choice(["ev", "od"]) for _ in range(n - 1)]
    return {**header, "matrix": matrix, "parities": parities}


@pytest.mark.parametrize("field", ["gf9", "gf101", "q"])
@pytest.mark.parametrize("command", [["table"], ["reflect", "--k", "1"]],
                         ids=["table", "reflect"])
def test_wide_reports_render_canonically(run_cli, tmp_path, field, command):
    # the goldens are rank 2 and 3; these reach the long flat rows and the
    # n x n basis matrix that the renderer hands to the C encoder
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide_document(field, 60)))
    code, out, err = run_cli(command[0], "--input", str(path), *command[1:])
    assert (code, err) == (0, "")
    report = json.loads(out)
    rows = report["table"] if command[0] == "table" else report["basis_matrix"]
    assert len(rows) == 60 and all(len(row) == 60 for row in rows)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("kind", ["gf9", "gf125", "gf100", "q"])
def test_table_report_is_the_encoded_b_table(run_cli, tmp_path, kind):
    # the table report holds what encoding b_table's BValues entry by entry
    # gives: ints, "inf" and the diagonal null.  The Q document's row 1 has
    # A_12 = A_11 = 2, so c = 1 and B_12 is infinite at either parity
    workloads = bench_workloads()
    F = workloads.make_field(kind, random.Random(kind))
    doc, _, _ = workloads.cartan_doc(F, random.Random(f"{kind} table"), 40)
    if kind == "q":
        doc["matrix"][0][:2] = [2, 2]
    text = json.dumps(doc)
    (tmp_path / "doc.json").write_text(text)
    datum = parse_cartan(text)
    expected = render_document({
        "command": "table", "field": field_doc(datum.spec), "parities": doc["parities"],
        "table": [list(map(encode_bvalue, row)) for row in b_table(datum)]})
    assert run_cli("table", "--input", str(tmp_path / "doc.json")) == (0, expected, "")
    assert ('"inf"' in expected) == (kind == "q")


def test_table_builds_no_bvalue(run_cli, count_calls):
    # table writes the ladder's ints: no bound becomes a BValue, and none
    # is encoded back
    shared = count_calls(rootstrings.cartan._shared_bound)
    encoded = count_calls(rootstrings.cartanfile.encode_bvalue)
    code, out, _ = run_cli("table", "--input", str(FIXTURES / "wide_char0.json"))
    assert code == 0 and '"inf"' in out
    assert shared == encoded == []


# --- exit codes -----------------------------------------------------------------

def test_missing_file_exits_1(run_cli):
    code, out, err = run_cli("bkj", "--input", "/no/such/file.json", "--k", "1", "--j", "2")
    assert code == 1
    assert err.startswith("error[io]:")
    assert out == ""


def test_invalid_document_exits_1(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"characteristic": 4, "matrix": [[0]], "parities": ["ev"]}')
    code, _, err = run_cli("table", "--input", str(bad))
    assert code == 1
    assert err.startswith("error[bad-characteristic]:")


def test_bad_json_exits_1(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("table", "--input", str(bad))
    assert code == 1
    assert err.startswith("error[bad-json]:")


def test_non_utf8_document_exits_1_with_byte_offset(run_cli, tmp_path):
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"characteristic": 3}'.encode("utf-16-le"))
    latin1 = tmp_path / "latin1.json"
    latin1_bytes = b'{"characteristic": 3, "matrix": [[0]], "parities": ["\xe9v"]}'
    latin1.write_bytes(latin1_bytes)
    for path, offset in ((utf16, 0), (latin1, latin1_bytes.index(b"\xe9"))):
        code, out, err = run_cli("table", "--input", str(path))
        assert code == 1
        assert err.startswith("error[bad-json]: not UTF-8:")
        assert err.rstrip().endswith(f"at byte offset {offset}")
        assert out == ""


def test_deeply_nested_document_exits_1(run_cli, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"characteristic": 3, "matrix": [[%s0%s]], "parities": ["ev"]}'
                    % ("[" * 100_000, "]" * 100_000))
    code, out, err = run_cli("table", "--input", str(deep))
    assert code == 1
    assert err.startswith("error[bad-json]:")
    assert "Traceback" not in err
    assert out == ""


def test_oversized_integer_literal_exits_1(run_cli, tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"characteristic": 3, "matrix": [[%s]], "parities": ["ev"]}' % ("7" * 5000))
    code, out, err = run_cli("table", "--input", str(big))
    assert code == 1
    assert err.startswith("error[bad-json]:")
    assert "Traceback" not in err
    assert out == ""


def test_exponent_string_exits_1_quickly(run_cli, tmp_path):
    doc = tmp_path / "exponent.json"
    doc.write_text(json.dumps({
        "characteristic": 0,
        "matrix": [[2, "1e5000000"], [1, 2]],
        "parities": ["ev", "ev"],
    }))
    start = time.perf_counter()
    code, out, err = run_cli("table", "--input", str(doc))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error[bad-entry]:")
    assert out == ""


def test_characteristic_beyond_primality_limit_exits_1_quickly(run_cli, tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps({
        "characteristic": PRIMALITY_LIMIT,
        "matrix": [[2, 1], [1, 2]],
        "parities": ["ev", "ev"],
    }))
    start = time.perf_counter()
    code, out, err = run_cli("table", "--input", str(doc))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error[bad-characteristic]:")
    assert str(PRIMALITY_LIMIT) in err
    assert out == ""


def test_equal_indices_exit_1(run_cli):
    code, _, err = run_cli("bkj", "--input", str(FIXTURES / "prime.json"),
                           "--k", "1", "--j", "1")
    assert code == 1
    assert err.startswith("error[invalid]:")


def test_out_of_range_index_exits_1(run_cli):
    code, _, err = run_cli("reflect", "--input", str(FIXTURES / "prime.json"), "--k", "5")
    assert code == 1
    assert err.startswith("error[invalid]:")


def test_strict_mode_flag(run_cli, tmp_path):
    unreduced = tmp_path / "unreduced.json"
    unreduced.write_text(json.dumps({
        "characteristic": 3,
        "matrix": [[0, 7], [1, 0]],
        "parities": ["ev", "ev"],
    }))
    code, out, _ = run_cli("bkj", "--input", str(unreduced), "--k", "1", "--j", "2")
    assert code == 0
    assert json.loads(out)["b"] == 2
    code, _, err = run_cli("bkj", "--input", str(unreduced), "--k", "1", "--j", "2",
                           "--strict")
    assert code == 1
    assert err.startswith("error[unreduced-entry]:")


def test_non_prime_selfcheck_argument_exits_1(run_cli):
    code, _, err = run_cli("selfcheck", "--primes", "9")
    assert code == 1
    assert err.startswith("error[invalid]:")


def test_out_of_range_selfcheck_degree_exits_1(run_cli):
    code, out, err = run_cli("selfcheck", "--degrees", "9")
    assert code == 1
    assert err.startswith("error[invalid]:")
    assert out == ""


@pytest.mark.parametrize("flag,values", [("--primes", "3,3"), ("--degrees", "1,1")])
def test_repeated_selfcheck_value_exits_1(run_cli, flag, values):
    code, out, err = run_cli("selfcheck", flag, values)
    assert code == 1
    assert err.startswith("error[invalid]:")
    assert "listed more than once" in err
    assert out == ""


def test_malformed_primes_list_exits_1(run_cli):
    code, _, err = run_cli("selfcheck", "--primes", "2,x")
    assert code == 1


def test_missing_required_flag_exits_1(run_cli):
    code, _, err = run_cli("dseq", "--input", str(FIXTURES / "prime.json"),
                           "--k", "1", "--j", "2")
    assert code == 1


def test_unknown_subcommand_exits_1(run_cli):
    code, _, _ = run_cli("frobnicate")
    assert code == 1


def test_no_arguments_exits_1(run_cli):
    code, _, _ = run_cli()
    assert code == 1


def test_help_exits_0(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "bkj" in out and "selfcheck" in out


def test_cli_reads_argv_without_argparse(run_cli, monkeypatch):
    # None in sys.modules makes any import of argparse raise ImportError
    monkeypatch.setitem(sys.modules, "argparse", None)
    assert run_cli("table", "--input", str(FIXTURES / "prime.json"))[0] == 0
    assert run_cli("selfcheck", "--primes", "2")[0] == 0
    assert run_cli("bkj", "--help")[0] == 0
    assert run_cli("bkj", "--k", "x")[0] == 1


@pytest.mark.parametrize("argv,named", [
    ([], "subcommand"),
    (["frobnicate"], "frobnicate"),
    (["bkj", "--input", "x.json", "--k", "1"], "--j"),
    (["bkj", "--input", "x.json", "--k", "x", "--j", "2"], "--k"),
    (["table", "--input", "x.json", "--frob"], "--frob"),
    (["selfcheck", "--primes", "2,x"], "--primes"),
    (["table", "--"], "a bare -- is not accepted"),
    (["table", "--=x"], "ambiguous flag --=x: it could be --help, --input, --strict, --output"),
    (["table", "-hx"], "-h takes no value"),
], ids=["no-arguments", "unknown-subcommand", "missing-j", "bad-int", "unknown-flag",
        "bad-primes", "bare-double-dash", "empty-prefix", "help-with-value"])
def test_usage_refusal_is_one_stderr_line(run_cli, argv, named):
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error[usage]: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert named in err


# --- argv as argparse reads it ------------------------------------------------------

ORACLE = build_parser()
SUBCOMMANDS = [name for name, *_ in rootstrings.cli._COMMANDS]
FLAGS = sorted({flag for *_, flags in rootstrings.cli._COMMANDS
                for flag, _ in (*flags, rootstrings.cli._OUTPUT)} | {"--help", "--frob"})
VALUES = ["3", "-3", "+7", " 7", "0", "x", "", "1,2", "2,x", "-1.5", "a.json", "-x", "--k", "-h"]


@st.composite
def flag_tokens(draw):
    """A flag or a prefix of it of at least three characters, alone, with
    its value as the next token, or with "=value"."""
    flag = draw(st.sampled_from(FLAGS))
    flag = flag[:draw(st.integers(3, len(flag)))]
    value = draw(st.sampled_from(VALUES))
    return draw(st.sampled_from([[flag], [flag, value], [f"{flag}={value}"]]))


argv_tokens = st.lists(flag_tokens() | st.sampled_from(
    [["-h"], ["x"], ["-x"], ["-3"], [""]]), max_size=6).map(lambda parts: sum(parts, []))


@st.composite
def argvs(draw):
    """Flags before and after a subcommand, which may be missing or unknown.
    Left out, because argparse 3.10 to 3.13 read them differently: a bare
    "--", single-dash clusters such as -hh, and tokens that start with "-"
    and hold a space."""
    before = draw(st.lists(st.sampled_from([["-h"], ["--he"], ["--frob"], ["-x"]]),
                           max_size=1).map(lambda parts: sum(parts, [])))
    command = draw(st.lists(st.sampled_from([*SUBCOMMANDS, "frobnicate", "bk"]),
                            max_size=1))
    return before + command + draw(argv_tokens)


def argparse_reading(argv):
    """(exit code, parsed values) from argparse: (1, None) for a refusal,
    (0, None) for help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return None, vars(ORACLE.parse_args(argv))
        except SystemExit as exc:
            return exc.code, None


def cli_reading(argv):
    try:
        return None, vars(rootstrings.cli._parse(argv))
    except rootstrings.cli._Usage:
        return 1, None
    except rootstrings.cli._Help:
        return 0, None


@settings(max_examples=400)
@given(argvs())
def test_argv_is_read_as_argparse_reads_it(argv):
    assert cli_reading(argv) == argparse_reading(argv)


@pytest.mark.parametrize("argv", [
    ["bkj", "--inp", "a.json", "--k=1", "--j", "+7", "--max", "-3", "--k", "2"],
    ["dseq", "--input=a.json", "--strict", "--j", " 4", "--k", "1", "--max-m", "0"],
    ["selfcheck", "--pr", "2,3", "--degrees=1,2", "--out=r.json", "--h"],
    ["--he", "table"],
    ["table", "--strict=", "--input", "a.json"],
    ["reflect", "--input", "a.json", "--k", "1", "--output"],
    ["reflect", "--input", "--k", "1"],
    ["table", "--input", "a.json", "stray", "-h"],
    ["table", "-h", "--bogus"],
    ["table", "--input", "a.json", "--output=", "-h"],
], ids=["prefixes-repeats-negative", "equals-forms", "help-after-values", "top-level-prefix",
        "switch-with-value", "missing-value", "next-token-a-flag", "help-after-stray",
        "help-before-unknown", "empty-output"])
def test_argv_examples_read_as_argparse_reads_them(argv):
    assert cli_reading(argv) == argparse_reading(argv)


# --- the boundary fuzzer: generated documents and argv through main ---------
#
# main must answer every request with exit 0 (a report, or help), 1 (invalid
# input) or 3 (reflection undefined), never raise, and print one error line
# for a refusal; exit 2 would mean the routes disagree.  bkj and dseq walk
# the d-sequence to m = 2p - 1, which at a 13-digit p takes weeks, so only
# table and reflect draw a characteristic above 31.

JUNK = st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=3),
                 st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2))
HUGE = st.sampled_from([10**30, -10**30, 2**64 + 1, -(2**64), 10**400])
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 29, 31)
#: (characteristic, extension) pairs that parse, beside the prime fields and Q
GOOD_EXTENSIONS = ((3, {"degree": 2, "modulus": [1, 0, 1]}),
                   (2, {"degree": 3, "modulus": [1, 1, 0, 1]}),
                   (31, {"degree": 2, "modulus": [1, 0, 1]}))
#: characteristics above 31: primes of 7 and 13 digits, and a composite
LARGE_CHARACTERISTICS = (1000003, 9999999999971, 10**12 + 39, 2**40)


def rarely(draw, odds: int) -> bool:
    """True about once in ``odds`` draws: on a middle value of a range, since
    hypothesis favours its ends."""
    return draw(st.integers(0, odds - 1)) == odds // 2


def now_and_then(draw, usual, rare, odds: int):
    """A draw of ``usual``, or of ``rare`` about once in ``odds`` draws."""
    return draw(rare if rarely(draw, odds) else usual)


def bad_fields(large: bool):
    """(characteristic, extension) with junk in either slot, a non-prime or
    out-of-range characteristic, or an extension dict of any degree and
    modulus."""
    ints = st.sampled_from([1, 4, -3, -(10**30), *((10**30, 2**64 + 1) if large else ())])
    extension = st.one_of(
        st.none(), JUNK,
        st.fixed_dictionaries({"degree": st.one_of(st.integers(-1, 9), HUGE, JUNK),
                               "modulus": st.one_of(st.lists(st.integers(-1, 3), max_size=10),
                                                    JUNK)}))
    return st.tuples(st.one_of(ints, st.sampled_from(SMALL_PRIMES), JUNK), extension)


@st.composite
def documents(draw, large: bool):
    """(document, rank): a Cartan-data document of rank 0 to 4, mostly 2 to
    4, that mostly parses, with junk now and then in any slot."""
    n = now_and_then(draw, st.integers(2, 4), st.integers(0, 1), 10)
    fields = [(0, None), *((p, None) for p in SMALL_PRIMES), *GOOD_EXTENSIONS,
              *((p, None) for p in LARGE_CHARACTERISTICS if large)]
    characteristic, extension = now_and_then(draw, st.sampled_from(fields), bad_fields(large), 6)
    entry = st.one_of(st.integers(-3, 3), HUGE)
    if characteristic == 0:
        entry |= st.sampled_from(["1/2", "-7/3", "5"])
    elif (characteristic, extension) in GOOD_EXTENSIONS:
        entry |= st.lists(st.integers(0, characteristic - 1), min_size=1,
                          max_size=extension["degree"])
    matrix = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n and rarely(draw, 6):
        matrix[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.one_of(JUNK, st.sampled_from(["2/0", "x", "1e9", "1/2"])))
    matrix = now_and_then(draw, st.just(matrix),
                          st.one_of(JUNK, st.lists(st.lists(entry, max_size=4), max_size=4)), 10)
    parities = [draw(st.sampled_from(["ev", "od"])) for _ in range(n)]
    doc = {"characteristic": characteristic, "matrix": matrix,
           "parities": now_and_then(draw, st.just(parities),
                                    st.one_of(JUNK, st.lists(JUNK, max_size=4)), 10)}
    if extension is not None:
        doc["extension"] = extension
    if rarely(draw, 20):
        del doc[draw(st.sampled_from(sorted(doc)))]
    if rarely(draw, 20):
        doc["extra"] = 1
    return doc, n


def flag(draw, name: str, values) -> list[str]:
    """Mostly the flag with a drawn value; now and then no flag, or an
    empty or non-integer value."""
    value = now_and_then(draw, values, st.sampled_from(["", "1.5", "x", "-", "1e3"]), 20)
    return now_and_then(draw, st.just([name, value]), st.just([]), 20)


#: Primes and degrees for selfcheck, valid or not; 9999999999971 and 10**25
#: are refused before any sweep, the one for its case count, the other as
#: past the primality limit.
SELFCHECK_PRIMES = (-3, 0, 1, 2, 3, 4, 5, 7, 11, 13, 9999999999971, 10**25)
SELFCHECK_DEGREES = (-1, 0, 1, 2, 3, 4, 8, 9, 30)


def selfcheck_cases(primes, degrees):
    """The cases that ``run_selfcheck`` would sweep, or None where it
    refuses the lists before any sweep."""
    if (len(set(primes)) < len(primes) or len(set(degrees)) < len(degrees)
            or not set(primes) <= {2, 3, 5, 7, 11, 13, 9999999999971}
            or not set(degrees) <= set(range(1, 9))):
        return None
    cases = sum(2 * p ** (2 * d) for p in primes for d in degrees)
    return cases if cases <= rootstrings.selfcheck.MAX_CASES else None


@st.composite
def requests(draw):
    """(argv, document or None): a subcommand with drawn flags and the
    document that --input names; now and then an unknown subcommand, -h,
    --strict, an empty --output or a missing --input."""
    command = now_and_then(draw, st.sampled_from(["bkj", "dseq", "table", "reflect", "selfcheck"]),
                           st.just("bk"), 20)
    argv, doc = [command], None
    if command == "selfcheck":
        lists = [draw(st.lists(st.sampled_from(values), max_size=3))
                 for values in (SELFCHECK_PRIMES, SELFCHECK_DEGREES)]
        cases = selfcheck_cases(*[given or default for given, default in
                                  zip(lists, ([2, 3, 5, 7], [1]))])
        # a sweep runs only below 10^5 cases; a larger one must be refused
        assume(cases is None or cases < 10**5)
        for name, given in zip(("--primes", "--degrees"), lists):
            if given:
                argv += [name, ",".join(map(str, given))]
        argv += now_and_then(draw, st.just([]),
                             st.sampled_from([["--primes", ""], ["--degrees", "2,,3"]]), 10)
    elif command != "bk":
        doc, n = draw(documents(command in ("table", "reflect")))
        argv += now_and_then(draw, st.just(["--input", "DOC"]), st.just([]), 20)
        # mostly two distinct indices in [1, n], now and then any two
        anywhere = st.lists(st.integers(-1, n + 2), min_size=2, max_size=2)
        distinct = st.permutations(range(1, n + 1)).map(lambda ks: ks[:2]) if n > 1 else anywhere
        k, j = now_and_then(draw, distinct, anywhere, 10)
        if command != "table":
            argv += flag(draw, "--k", st.just(str(k)))
        if command in ("bkj", "dseq"):
            argv += flag(draw, "--j", st.just(str(j)))
            argv += flag(draw, "--max-m", st.integers(-2, 30).map(str))
        argv += now_and_then(draw, st.just([]), st.just(["--strict"]), 5)
    argv += now_and_then(draw, st.just([]), st.sampled_from([["-h"], ["--output="]]), 10)
    return argv, doc


class _Deadline(BaseException):
    """A request ran past its deadline; main catches no BaseException."""


def _expire(signum, frame):
    raise _Deadline


@settings(max_examples=300, deadline=None)
@given(request=requests())
def test_main_answers_every_bounded_request(tmp_path_factory, request):
    argv, doc = request
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    argv = [str(path) if token == "DOC" else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    # the deadline: an alarm that interrupts a request still running after 5 s
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rootstrings.cli.main(argv)
    except _Deadline:
        pytest.fail(f"no answer within 5 s: {argv} on {doc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 3), (argv, doc, err)
    if code:
        assert re.fullmatch(r"error\[[a-z-]+\]: [^\n]*\n", err), (argv, doc, err)
        assert out == ""
    elif out.startswith("usage: rootstrings"):
        assert "-h" in argv and err == ""
    else:
        assert json.loads(out)["command"] == argv[0] and err == ""


def test_route_disagreement_exits_2(run_cli, monkeypatch):
    monkeypatch.setattr(rootstrings.cli, "b_recursive",
                        lambda datum, k, j, **kw: BValue(0))
    code, out, err = run_cli("bkj", "--input", str(FIXTURES / "prime.json"),
                             "--k", "1", "--j", "2")
    assert code == 2
    assert err.startswith("error[inconsistent]:")
    assert out == ""


def test_selfcheck_mismatch_exits_2(run_cli, monkeypatch):
    # the recursion finds d_0 = 0 everywhere
    monkeypatch.setattr(rootstrings.selfcheck, "_row_walk",
                        lambda parity, p, kk, kjs: [0] * len(kjs))
    code, out, _ = run_cli("selfcheck", "--primes", "2", "--degrees", "1")
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["total_mismatches"] > 0
    assert report["fields"][0]["mismatches"]


def test_selfcheck_ceiling_violation_exits_2(run_cli, monkeypatch):
    # both routes agree, on a bound above every ceiling of the field
    too_big = lambda parity, p, kk, kjs: [2 * p] * len(kjs)
    monkeypatch.setattr(rootstrings.selfcheck, "_row_ladder", too_big)
    monkeypatch.setattr(rootstrings.selfcheck, "_row_walk", too_big)
    code, out, _ = run_cli("selfcheck", "--primes", "2", "--degrees", "1")
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["fields"][0]["failures"] == report["fields"][0]["cases"] == 8


def test_infinite_bound_reflection_exits_3(run_cli, tmp_path):
    inf = tmp_path / "inf.json"
    inf.write_text(json.dumps({
        "characteristic": 0,
        "matrix": [[2, 1], [1, 2]],
        "parities": ["ev", "ev"],
    }))
    code, out, err = run_cli("reflect", "--input", str(inf), "--k", "1")
    assert code == 3
    assert err.startswith("error[reflection-undefined]:")
    assert out == ""


def test_scan_cap_override_on_bkj(run_cli, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({
        "characteristic": 0,
        "matrix": [[2, -1500], [0, 2]],
        "parities": ["ev", "ev"],
    }))
    code, _, err = run_cli("bkj", "--input", str(deep), "--k", "1", "--j", "2")
    assert code == 1                       # default cap of 1000 is too small
    assert "scan_cap" in err
    assert err.startswith("error[invalid]: ") and err.count("\n") == 1
    assert "--max-m" in err                # the flag a CLI user can raise
    code, out, _ = run_cli("bkj", "--input", str(deep), "--k", "1", "--j", "2",
                           "--max-m", "1500")
    assert code == 0
    assert json.loads(out)["b"] == 1500


def test_negative_scan_cap_on_bkj_exits_1(run_cli):
    for fixture in ("char0.json", "prime.json"):
        code, out, err = run_cli("bkj", "--input", str(FIXTURES / fixture),
                                 "--k", "1", "--j", "2", "--max-m", "-3")
        assert code == 1
        assert err == "error[invalid]: scan cap must be >= 0\n"
        assert out == ""


# --- the installed entry point ----------------------------------------------------

@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES)
def test_golden_outputs_through_python_m(golden_name, argv):
    # a child interpreter with this one's -O flags, so that under python -O
    # the goldens are checked with the asserts stripped
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-m", "rootstrings",
         *with_fixture_paths(argv)],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / golden_name).read_bytes()


def test_large_extension_document_through_python_m(tmp_path):
    # GF(101^8): validating the modulus by trial division would take hours
    doc = tmp_path / "gf101_8.json"
    doc.write_text(json.dumps({
        "characteristic": 101,
        "extension": {"degree": 8, "modulus": [97, 2, 89, 34, 66, 52, 60, 48, 1]},
        "matrix": [[2, [0, 1]], [[3, 0, 5], 2]],
        "parities": ["ev", "od"],
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "rootstrings", "table", "--input", str(doc)],
                          capture_output=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    report = json.loads(proc.stdout)
    assert report["field"]["modulus"] == [97, 2, 89, 34, 66, 52, 60, 48, 1]
