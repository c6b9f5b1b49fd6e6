"""``table`` and ``reflect`` against answers known by construction, on fields
that the exhaustive ``selfcheck`` sweep cannot reach: a 13-digit prime,
GF(p^2) and GF(p^3) with p near 1000, GF(7^8), GF(101^6) and Q, next to
the small GF(9) and GF(125).  Over Q, where ``cartan_doc`` draws no
infinite bound, two kinds of infinite bound are set by hand.

The documents come from the benchmark's ``bench/workloads.py``: its
``cartan_doc`` picks each bound first and solves for A_kj with its own
field arithmetic (``bench/gf.py``), so the expected reports use no package
code.  At ranks below p the rows over GF(1009^2), GF(997^3) and GF(101^6)
are shorter than p, so the closed form tabulates only the points of the
coordinates that occur in them; over GF(9), GF(125) and GF(7^8) the longer
rows tabulate all p points.
"""

import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootstrings.cli import main

from conftest import bench_workloads

workloads = bench_workloads()

#: Field kinds in ``workloads.make_field``'s names, with the largest rank
#: drawn for each: below p for the fields whose rows stay shorter than p.
KINDS = {"gf1009^2": 40, "gf997^3": 30, "gf101^6": 20, "gf7^8": 12, "prime13": 30,
         "gf9": 30, "gf125": 30, "q": 30}


@functools.lru_cache(maxsize=None)
def field(kind: str, draw: int):
    """One of three fields of each kind, drawn once: a degree-8 modulus
    takes tens of milliseconds to draw."""
    return workloads.make_field(kind, random.Random(draw))


def run(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main`` in this process."""
    return workloads.run_in_process(main, argv)[1:]


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("known") / "doc.json"


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=16, deadline=None)
@given(draw=st.integers(0, 2), seed=st.integers(0, 2**32), data=st.data())
def test_table_and_reflect_give_the_known_answers(document_path, kind, draw, seed, data):
    F = field(kind, draw)
    rng = random.Random(seed)
    n = data.draw(st.integers(2, KINDS[kind]), label="rank")
    doc, _, table = workloads.cartan_doc(F, rng, n)
    document_path.write_text(json.dumps(doc))
    path = str(document_path)
    assert run("table", "--input", path) == (
        0, workloads.expect_table(F, doc["parities"], table), "")
    k = data.draw(st.integers(1, n), label="k")
    assert run("reflect", "--input", path, "--k", str(k)) == (
        0, workloads.expect_reflect(F, k, table[k - 1]), "")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_infinite_bounds_over_q_are_known_too(document_path, seed, data):
    # cartan_doc draws no infinite bound, so two kinds are set by hand in a
    # drawn document whose diagonal is nonzero.  A_kj = A_kk gives c = 1,
    # and the even bound -2 and the odd bound 2 * (-1) are negative, so
    # infinite.  An even row with A_kk = 0 has bound 0 at a zero A_kj and an
    # infinite one at any other, and one A_kj of it is made nonzero.
    F = field("q", 0)
    n = data.draw(st.integers(2, KINDS["q"]), label="rank")
    doc, rows, table = workloads.cartan_doc(F, random.Random(seed), n, bmax=24)
    matrix, parities = doc["matrix"], doc["parities"]
    k, e = data.draw(st.permutations(range(n)), label="rows")[:2]
    j = data.draw(st.integers(0, n - 1).filter(lambda j: j != k), label="c = 1 column")
    matrix[k][j] = matrix[k][k]
    table[k][j] = "inf"
    parities[e], matrix[e][e] = "ev", 0
    f = data.draw(st.integers(0, n - 1).filter(lambda f: f != e), label="nonzero column")
    if F.is_zero(rows[e][f]):
        matrix[e][f] = 1
        rows[e][f] = Fraction(1)
    table[e] = [None if i == e else 0 if F.is_zero(a) else "inf" for i, a in enumerate(rows[e])]
    document_path.write_text(json.dumps(doc))
    path = str(document_path)
    assert run("table", "--input", path) == (0, workloads.expect_table(F, parities, table), "")
    for row in (k, e):
        least = table[row].index("inf") + 1
        assert run("reflect", "--input", path, "--k", str(row + 1)) == (
            3, "", f"error[reflection-undefined]: B is infinite at j = {least} "
                   f"when reflecting at k = {row + 1}\n")
