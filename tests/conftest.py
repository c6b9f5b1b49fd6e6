import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from rootstrings.cli import main
from rootstrings.field import FieldElement

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).resolve().parent.parent / "bench"

# Every byte-exact golden: (file under golden/, argv naming its fixture under
# fixtures/).  The in-process golden test, acceptance criterion 7 and the
# ``python -m rootstrings`` test all read this one list, so adding a golden
# is one line here plus its file.
GOLDEN_CASES = [
    ("prime_bkj.json", ["bkj", "--input", "prime.json", "--k", "1", "--j", "2"]),
    ("prime_dseq.json", ["dseq", "--input", "prime.json", "--k", "1", "--j", "2", "--max-m", "4"]),
    ("prime_table.json", ["table", "--input", "prime.json"]),
    ("prime_reflect.json", ["reflect", "--input", "prime.json", "--k", "1"]),
    ("extension_bkj.json", ["bkj", "--input", "extension.json", "--k", "1", "--j", "2"]),
    ("extension_dseq.json", ["dseq", "--input", "extension.json", "--k", "1", "--j", "2", "--max-m", "4"]),
    ("extension_table.json", ["table", "--input", "extension.json"]),
    ("extension_reflect.json", ["reflect", "--input", "extension.json", "--k", "1"]),
    ("char0_bkj.json", ["bkj", "--input", "char0.json", "--k", "1", "--j", "2"]),
    ("char0_dseq.json", ["dseq", "--input", "char0.json", "--k", "1", "--j", "2", "--max-m", "4"]),
    ("char0_table.json", ["table", "--input", "char0.json"]),
    ("char0_reflect.json", ["reflect", "--input", "char0.json", "--k", "1"]),
    # rank 40: ints, "n/d" strings and repeated values over Q, unreduced and
    # negative ints over GF(113); row 5 of wide_char0 has only finite bounds
    ("wide_char0_table.json", ["table", "--input", "wide_char0.json"]),
    ("wide_char0_reflect.json", ["reflect", "--input", "wide_char0.json", "--k", "5"]),
    ("wide_prime_table.json", ["table", "--input", "wide_prime.json"]),
    ("wide_prime_reflect.json", ["reflect", "--input", "wide_prime.json", "--k", "3"]),
    ("selfcheck_small.json", ["selfcheck", "--primes", "2,3", "--degrees", "1,2"]),
    # the wider sweeps: degree 3 and p = 5, 7; degree 2 at p = 11, 13, whose
    # rows of p^2 entries tabulate all p points; the modulus search at degree
    # 8; and GF(3^5), the first odd-p field above degree 3
    ("selfcheck_p2_3_5_7_d1_2_3.json", ["selfcheck", "--primes", "2,3,5,7", "--degrees", "1,2,3"]),
    ("selfcheck_p11_13_d2.json", ["selfcheck", "--primes", "11,13", "--degrees", "2"]),
    ("selfcheck_p2_d8.json", ["selfcheck", "--primes", "2", "--degrees", "8"]),
    ("selfcheck_p3_d5.json", ["selfcheck", "--primes", "3", "--degrees", "5"]),
]


def with_fixture_paths(argv):
    """``argv`` with each fixture name replaced by its path."""
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(function)`` replaces ``function`` in every rootstrings
    namespace that holds it by a counting wrapper, and returns the list that
    gains the arguments of each call from then on."""

    def count(original):
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name == "rootstrings" or name.startswith("rootstrings."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    return count


@pytest.fixture
def elements_built(monkeypatch):
    """A list that gains every FieldElement built from now on, through the
    public constructor (its ``__post_init__``) or the unchecked ``_trusted``."""
    built = []
    post_init, trusted = FieldElement.__post_init__, FieldElement._trusted

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_trusted(cls, *values):
        element = trusted(*values)
        built.append(element)
        return element

    monkeypatch.setattr(FieldElement, "__post_init__", counting_post_init)
    monkeypatch.setattr(FieldElement, "_trusted", classmethod(counting_trusted))
    return built


@functools.cache
def bench_workloads():
    """The benchmark's ``bench/workloads.py``, loaded once: its
    ``cartan_doc`` builds documents whose bounds are known by construction,
    with its own field arithmetic and no package code."""
    # workloads.py imports its field arithmetic as the top-level module gf
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses resolve annotations through sys.modules
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module
