#!/usr/bin/env python3
"""Time the layers of the package, with no gate.

* ``selfcheck``: microseconds per case of the sweep that ``selfcheck
  --primes 2,3,5,7 --degrees 1,2,3`` runs (274,554 cases); both routes
  answer each row (i_k, A_kk) at once.
* The recursion walk: nanoseconds per step of ``cartan._first_zero``, the
  walk that ``bkj`` runs: two GF(p) walks at p near 10^6, one at A_kk =
  A_kj = 1, whose c = A_kj + m * A_kk stays below 2^21, and one odd at
  A_kk = 777777, like the benchmark's random A_kk, whose c passes 2^30
  (one CPython digit) within 1,400 of its 71,433 steps; a GF(p^2) walk
  with A_kj outside the prime subfield (2p - 1 steps); and the infinite Q
  case [[2, 1], [1, 2]] scanned to 10^6.
* Parse, table and render: nanoseconds per entry of ``json.loads`` against
  ``parse_cartan``, and of the table report's compute (``cmd_table`` on the
  parsed datum), on one rank-100 document per kind that the benchmark's
  ``cartan_doc`` generates with seed 1; then nanoseconds per scalar of
  ``render_document`` on that table report, and on the reflect report
  (``cmd_reflect``, k = 1) of the GF(p ~ 100) one.
* The ``wide_matrix`` phase split: milliseconds of read, parse, compute and
  render per document kind, summed over that kind's requests in one cycle
  of the benchmark's seed-1 ``wide_matrix`` workload, each request taken
  through the steps of ``cli.main``.  Each figure is the median over 5
  child processes, each of which times one cycle after one untimed one.

The first three sections run in this process, best of 3 each.

    PYTHONPATH=src python3 scripts/layer_times.py

Takes no flags, and prints one line per measurement.  The phase split
runs this script as its child with ``--phase-child``.
"""

import json
import os
import random
import statistics
import subprocess
from fractions import Fraction
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import rootstrings
from rootstrings.cartan import Parity, _first_zero
from rootstrings.cartanfile import field_doc, parse_cartan, render_document
from rootstrings.cli import _parse, cmd_reflect, cmd_table
from rootstrings.selfcheck import run_selfcheck

BENCH = Path(__file__).resolve().parent.parent / "bench"
#: ``workloads.make_field``'s kinds, each with the name its lines print.
KINDS = (("gf9", "GF(9)"), ("gf125", "GF(125)"), ("gf100", "GF(p ~ 100)"), ("q", "Q"))


def best(run, *args):
    """(the least of three wall times of ``run(*args)`` in seconds, its result)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = run(*args)
        times.append(time.perf_counter() - start)
    return min(times), result


def selfcheck_lines(primes: list[int], degrees: list[int]):
    took, report = best(run_selfcheck, primes, degrees)
    cases = report["total_cases"]
    yield f"{cases} cases in {took:.3f} s: {took / cases * 1e6:.3f} us per case"


def walk_lines(p: int, q: int, cap_exponent: int):
    """Walks over GF(p), over GF(q^2) and over Q to the cap 10^cap_exponent,
    each given to ``_first_zero`` as the characteristic and the coordinate
    tuples of A_kk and A_kj."""
    walks = [
        (f"GF({p}), even, A_kk = A_kj = 1", Parity.EVEN, p, (1,), (1,), 0),
        (f"GF({p}), odd, A_kk = 777777, A_kj = 5", Parity.ODD, p, (777777 % p,), (5,), 0),
        (f"GF({q}^2), odd, A_kk = 1, A_kj = t", Parity.ODD, q, (1, 0), (0, 1), 0),
        (f"Q, even, A_kk = 2, A_kj = 1, cap 10^{cap_exponent}", Parity.EVEN, 0,
         (Fraction(2),), (Fraction(1),), 10**cap_exponent),
    ]
    for name, parity, p, kk, kj, cap in walks:
        took, m = best(_first_zero, parity, p, kk, kj, cap)
        steps = (cap if m is None else m) + 1
        yield f"{name}: {steps} steps, {took / steps * 1e9:.0f} ns per step"


def load_workloads():
    """The benchmark's ``bench/workloads.py``, which imports its field
    arithmetic as the top-level module ``gf``."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def scalars(value) -> int:
    if isinstance(value, dict):
        return sum(map(scalars, value.values()))
    return sum(map(scalars, value)) if isinstance(value, (list, tuple)) else 1


def render_line(name: str, report) -> str:
    took, _ = best(render_document, report)
    return f"{name}: render_document {took / scalars(report) * 1e9:.0f} ns per scalar"


def document_lines(rank: int):
    workloads = load_workloads()
    for kind, name in KINDS:
        rng = random.Random(1)
        doc, _, _ = workloads.cartan_doc(workloads.make_field(kind, rng), rng, rank)
        text, entries = json.dumps(doc), rank * rank
        load, _ = best(json.loads, text)
        parse, datum = best(parse_cartan, text)
        table, report = best(cmd_table, datum, None)
        yield (f"{name}: json.loads {load / entries * 1e9:.0f} ns, parse_cartan "
               f"{parse / entries * 1e9:.0f} ns ({parse / load:.1f}x), table compute "
               f"{table / entries * 1e9:.0f} ns per entry")
        yield render_line(f"{name} table", report)
        if kind == "gf100":
            yield render_line(f"{name} reflect", cmd_reflect(datum, SimpleNamespace(k=1)))


PHASES = ("read", "parse", "compute", "render")
#: The flag with which the phase split runs this script as its child.
CHILD_FLAG = "--phase-child"


def time_phases(requests) -> dict[str, list[float]]:
    """Seconds of each of ``PHASES`` per document kind, summed over
    ``requests``, a list of (kind, argv), each taken through the steps of
    ``cli.main``: read the input file, parse it, build the report, render it."""
    totals: dict[str, list[float]] = {}
    for kind, argv in requests:
        args = _parse(argv)
        start = time.perf_counter()
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
        read = time.perf_counter()
        datum = parse_cartan(text, strict=args.strict)
        parsed = time.perf_counter()
        doc = {"command": args.command, "field": field_doc(datum.spec),
               **args.handler(datum, args)}
        computed = time.perf_counter()
        render_document(doc)
        rendered = time.perf_counter()
        sums = totals.setdefault(kind, [0.0] * len(PHASES))
        for i, took in enumerate((read - start, parsed - read, computed - parsed,
                                  rendered - computed)):
            sums[i] += took
    return totals


def phase_child() -> None:
    """Read the (kind, argv) list from stdin, run it once untimed, then print
    ``time_phases`` of a second run as JSON."""
    requests = json.load(sys.stdin)
    time_phases(requests)
    print(json.dumps(time_phases(requests)))


def phase_lines(seed: int = 1, processes: int = 5):
    """The ``wide_matrix`` phase split of ``seed``'s cycle, one line per
    document kind and one for the whole cycle, each figure the median over
    ``processes`` child processes."""
    workloads = load_workloads()
    env = {**os.environ, "PYTHONPATH": str(Path(rootstrings.__file__).resolve().parent.parent)}
    with tempfile.TemporaryDirectory(prefix="wide-matrix-") as scratch:
        cycle = workloads.WideMatrix(seed, Path(scratch), None).cycle
        requests = json.dumps([(req.label.split()[1], req.call) for req in cycle])
        runs = [json.loads(subprocess.run(
            [sys.executable, __file__, CHILD_FLAG], input=requests, env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout) for _ in range(processes)]
    for kind, name in (*KINDS, (None, "wide_matrix cycle")):
        count = len(cycle) if kind is None else sum(req.label.split()[1] == kind for req in cycle)
        figures = [statistics.median(sum(run[k][i] for k in run if kind in (None, k)) for run in runs)
                   for i in range(len(PHASES))]
        yield (f"{name}, seed {seed}, {count} requests: "
               + ", ".join(f"{phase} {ms * 1e3:.1f} ms" for phase, ms in zip(PHASES, figures))
               + f"; median of {processes} processes")


def main() -> None:
    if sys.argv[1:] == [CHILD_FLAG]:
        phase_child()
        return
    for lines in (selfcheck_lines([2, 3, 5, 7], [1, 2, 3]),
                  walk_lines(1000003, 100003, 6),
                  document_lines(100),
                  phase_lines()):
        for line in lines:
            print(line, flush=True)


if __name__ == "__main__":
    main()
