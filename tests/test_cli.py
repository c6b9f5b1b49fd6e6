import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootstrings.cli
import rootstrings.selfcheck
from rootstrings.cartan import BValue
from rootstrings.field import PRIMALITY_LIMIT

from conftest import FIXTURES, GOLDEN, GOLDEN_CASES, with_fixture_paths
from oracles import build_parser

SRC = Path(__file__).resolve().parent.parent / "src"


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
], ids=["no-arguments", "unknown-subcommand", "missing-j", "bad-int", "unknown-flag",
        "bad-primes"])
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
    ["selfcheck", "--pr", "2,3", "--degrees=1,2", "--out=", "--h"],
    ["--he", "table"],
    ["table", "--strict=", "--input", "a.json"],
    ["reflect", "--input", "a.json", "--k", "1", "--output"],
    ["reflect", "--input", "--k", "1"],
    ["table", "--input", "a.json", "stray", "-h"],
    ["table", "-h", "--bogus"],
], ids=["prefixes-repeats-negative", "equals-forms", "help-after-values", "top-level-prefix",
        "switch-with-value", "missing-value", "next-token-a-flag", "help-after-stray",
        "help-before-unknown"])
def test_argv_examples_read_as_argparse_reads_them(argv):
    assert cli_reading(argv) == argparse_reading(argv)


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
                        lambda parity, a_kk: lambda kj: 0)
    code, out, _ = run_cli("selfcheck", "--primes", "2", "--degrees", "1")
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["total_mismatches"] > 0
    assert report["fields"][0]["mismatches"]


def test_selfcheck_ceiling_violation_exits_2(run_cli, monkeypatch):
    # both routes agree, on a bound above every ceiling of the field
    too_big = lambda a_kk: 2 * a_kk.spec.characteristic
    monkeypatch.setattr(rootstrings.selfcheck, "_row_ladder",
                        lambda parity, a_kk: lambda kj: BValue(too_big(a_kk)))
    monkeypatch.setattr(rootstrings.selfcheck, "_row_walk",
                        lambda parity, a_kk: lambda kj: too_big(a_kk))
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
