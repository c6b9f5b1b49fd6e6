from pathlib import Path

import pytest

from rootstrings.cli import main
from rootstrings.field import FieldElement

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

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
