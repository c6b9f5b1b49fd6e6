"""The benchmark's workloads: seeded inputs with answers known by construction.

Every workload is one cycle of requests, drawn from the seed and shuffled
once; a run repeats the cycle whole.  The program only sees the generated
documents and argument lists.  Each request carries a check that compares the
response with an answer fixed when the input was built:

* ``bkj``: the known bound, with both routes reported and agreeing;
* ``table``: the known table;
* ``reflect``: sigma_j = alpha_j + B_kj * alpha_k, with determinant -1;
* ``dseq``: the closed forms of d_m, evaluated here;
* ``selfcheck``: ok, no mismatches, and 2 q^2 cases per field GF(q).

Bounds follow the closed-form ladder read backwards: pick the branch and the
bound, then solve for A_kj.  For an even row with A_kj = c * A_kk, c in
GF(p), the bound is lift(-2c); for an odd row it is 2 * lift(-c); a ratio
outside the prime subfield gives p - 1 (even) or 2p - 1 (odd).  No document
uses p = 2, where the even branch is different.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import gf
from gf import Field

CHILD_TIMEOUT_S = 60


@dataclass
class Request:
    label: str
    call: tuple   # sweep: (p, degree); the CLI workloads: the argument list
    check: Callable[[object], Optional[str]]  # the response -> an error, or None
    cases: int    # bounds B_kj the response carries


def render(doc: dict) -> str:
    """The CLI's canonical JSON: sorted keys, two-space indent, newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def expect_text(expected: str) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        return None if out == expected else "stdout differs from the known answer"
    return check


# -- known-answer documents ---------------------------------------------------

def solve_pair(F: Field, parity: str, a_kk, b: int):
    """A_kj giving bound b in a prime-subfield ratio with nonzero A_kk
    (b even when the row is odd)."""
    if F.p == 0:
        return F.scale(Fraction(-b, 2) if parity == "ev" else Fraction(-b // 2), a_kk)
    c = -b * pow(2, -1, F.p) if parity == "ev" else -(b // 2)
    return F.scale(c % F.p, a_kk)


def random_pair(F: Field, rng: random.Random, parity: str, a_kk, bmax: Optional[int]):
    """A random A_kj for a row, and the bound it gives."""
    p, even = F.p, parity == "ev"
    if rng.random() < 0.1:
        return F.zero(), 0
    if F.is_zero(a_kk):
        if even and p == 0:
            return F.zero(), 0  # a nonzero A_kj would make the bound infinite
        return F.random(rng, nonzero=True), (p - 1 if even else 1)
    if F.k > 1 and rng.random() < 0.35:
        return F.mul(F.random_outside(rng), a_kk), (p - 1 if even else 2 * p - 1)
    if p == 0 or bmax is not None:
        top = bmax or 24
        b = rng.randint(1, top) if even else 2 * rng.randint(1, top // 2)
    else:
        c = rng.randrange(1, p)
        b = -2 * c % p if even else 2 * (-c % p)
    return solve_pair(F, parity, a_kk, b), b


def cartan_doc(F: Field, rng: random.Random, n: int, bmax: Optional[int] = None):
    """A rank-n document and its table of bounds (None on the diagonal).

    With ``bmax`` every diagonal entry is nonzero and every bound is at most
    ``bmax``, so the recursion stays short even when p is huge.
    """
    parities = [rng.choice(("ev", "od")) for _ in range(n)]
    rows, table = [], []
    for k in range(n):
        a_kk = F.random(rng, nonzero=bmax is not None or rng.random() < 0.9)
        row, brow = [], []
        for j in range(n):
            a, b = (a_kk, None) if j == k else random_pair(F, rng, parities[k], a_kk, bmax)
            row.append(a)
            brow.append(b)
        rows.append(row)
        table.append(brow)
    doc = {**F.header(), "matrix": [[F.encode(a) for a in row] for row in rows],
           "parities": parities}
    return doc, rows, table


def expect_bkj(F: Field, k: int, j: int, b: int) -> str:
    return render({"command": "bkj", "field": F.report(), "k": k, "j": j, "b": b,
                   "routes": {"closed": b, "recursive": b, "agree": True}})


def expect_table(F: Field, parities, table) -> str:
    return render({"command": "table", "field": F.report(), "parities": parities,
                   "table": table})


def expect_reflect(F: Field, k: int, brow) -> str:
    n = len(brow)
    sigma = []
    for j in range(n):
        v = [0] * n
        if j == k - 1:
            v[j] = -1
        else:
            v[j] = 1
            v[k - 1] += brow[j]
        sigma.append(v)
    return render({"command": "reflect", "field": F.report(), "k": k, "b_row": brow,
                   "sigma": sigma, "basis_matrix": [list(r) for r in zip(*sigma)],
                   "determinant": -1, "unimodular": True})


def expect_dseq(F: Field, parity: str, a_kk, a_kj, k: int, j: int, last: int) -> str:
    values = [F.zero()]
    for m in range(last + 1):
        if parity == "ev":  # -(m+1) A_kj - C(m+1, 2) A_kk
            d = F.add(F.scale(-(m + 1), a_kj), F.scale(-math.comb(m + 1, 2), a_kk))
        elif m % 2 == 0:    # A_kj + l A_kk at m = 2l
            d = F.add(a_kj, F.scale(m // 2, a_kk))
        else:               # l A_kk at m = 2l - 1
            d = F.scale((m + 1) // 2, a_kk)
        values.append(d)
    return render({"command": "dseq", "field": F.report(), "k": k, "j": j,
                   "parity": parity, "first_index": -1,
                   "values": [F.encode(d) for d in values]})


def check_selfcheck(fields: list[tuple[int, int]]) -> Callable[[dict], Optional[str]]:
    """Checks a selfcheck report over the given (p, degree) fields."""
    def check(report: dict) -> Optional[str]:
        if not report["ok"] or report["total_mismatches"]:
            return "selfcheck found mismatches"
        if len(report["fields"]) != len(fields):
            return "wrong number of fields"
        for (p, d), entry in zip(fields, report["fields"]):
            cases = 2 * p ** (2 * d)
            if (entry["characteristic"], entry["degree"]) != (p, d):
                return f"field GF({p}^{d}) missing"
            if entry["cases"] != cases or entry["failures"]:
                return f"GF({p}^{d}): {entry['cases']} cases, expected {cases}"
            if sum(n for _, n in entry["b_counts"]) != cases:
                return f"GF({p}^{d}): bound histogram does not sum to the cases"
            if d > 1 and not gf.is_irreducible(entry["modulus"], p):
                return f"GF({p}^{d}): reported modulus is reducible"
        if report["total_cases"] != sum(2 * p ** (2 * d) for p, d in fields):
            return "wrong total case count"
        return None
    return check


def check_selfcheck_text(fields):
    check = check_selfcheck(fields)
    return lambda out: check(json.loads(out))


# -- workloads ----------------------------------------------------------------

class Workload:
    """One cycle of requests.  Subclasses build ``cycle`` and ``warmup``."""

    name = ""
    in_process = True
    # The tail percentile: the highest that a run's sample count leaves ten
    # samples beyond, placed between two of the cycle's cost steps so that it
    # lands on the same request whatever the number of cycles run.  Every
    # cycle has an odd number of requests, so that the median, too, falls
    # inside one request's runs rather than on the step between two.
    tail_q: float

    def __init__(self, seed: int, workdir: Path, ctx) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.dir = workdir
        self.ctx = ctx
        self.cycle: list[Request] = []
        self.warmup: Optional[Request] = None
        self._doc_count = 0

    def write_doc(self, doc: dict) -> str:
        path = self.dir / f"doc{self._doc_count:03d}.json"
        self._doc_count += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def execute(self, req: Request):
        """Run one request; returns (seconds, exit code, response, stderr)."""
        raise NotImplementedError

    def check(self, index: int, req: Request, response) -> Optional[str]:
        """The error in the response to cycle[index], or None."""
        return req.check(response)

    def verify(self) -> list[str]:
        """Checks that need the whole run; returns error messages."""
        return []


def run_in_process(main, argv):
    """Call cli.main; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(list(argv))
        t1 = time.perf_counter()
    return t1 - t0, code, out.getvalue(), err.getvalue()


class InProcessCli(Workload):
    def execute(self, req: Request):
        return run_in_process(self.ctx.cli.main, req.call)


class Sweep(Workload):
    name = "sweep"
    # Primes 2 to 23 and degrees 1 to 5: p sets the recursion length (at most
    # 2p - 1 steps) and the degree the vector width.  No field takes much
    # longer than the others, so every run repeats each one many times.
    FIELDS = ((7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (3, 2), (5, 2),
              (3, 3), (2, 4), (2, 5))
    tail_q = 0.85  # 9.35 of 11 requests

    def __init__(self, seed, workdir, ctx):
        super().__init__(seed, workdir, ctx)
        for p, d in self.FIELDS:
            req = Request(f"GF({p}^{d})", (p, d), check_selfcheck([(p, d)]),
                          2 * p ** (2 * d))
            self.cycle.append(req)
        self.warmup = self.cycle[0]
        self.rng.shuffle(self.cycle)

    def execute(self, req: Request):
        run_selfcheck = self.ctx.selfcheck.run_selfcheck
        p, d = req.call
        t0 = time.perf_counter()
        report = run_selfcheck([p], [d])
        return time.perf_counter() - t0, 0, report, ""


class LongString(InProcessCli):
    name = "long_string"
    # Bounds on a geometric grid, so every run sees the same spread of
    # recursion lengths; the seed jitters them by 1% and draws the primes,
    # the diagonal entries and the orientation.  Few GF(p^2) documents, whose
    # costs are alike, so that the requests at the median and at the tail
    # differ in cost from their neighbours.
    GRID = tuple(round(1000 * 50 ** (i / 10)) for i in range(11))
    OUTSIDE = 2
    tail_q = 0.9  # 11.7 of 13 requests

    def __init__(self, seed, workdir, ctx):
        super().__init__(seed, workdir, ctx)
        rng = self.rng
        for i, grid_b in enumerate(self.GRID):
            parity = "ev" if i % 2 == 0 else "od"
            b = round(grid_b * rng.uniform(0.99, 1.01))
            b += b % 2 if parity == "od" else 0
            F = Field(gf.random_prime(rng, max(10 ** 4, b + 2), 10 ** 6))
            a_kk = F.random(rng, nonzero=True)
            self.cycle.append(self._request(F, parity, a_kk, solve_pair(F, parity, a_kk, b), b))
        for _ in range(self.OUTSIDE):
            p = gf.random_prime(rng, 1000, 1040)
            F = Field(p, 2, gf.random_irreducible(rng, p, 2))
            a_kk = F.random(rng, nonzero=True)
            a_kj = F.mul(F.random_outside(rng), a_kk)
            self.cycle.append(self._request(F, "od", a_kk, a_kj, 2 * p - 1))
        self.warmup = self.cycle[0]
        self.rng.shuffle(self.cycle)

    def _request(self, F: Field, parity: str, a_kk, a_kj, b: int) -> Request:
        """A rank-2 document whose bound at its reflecting row is b."""
        rng = self.rng
        k, j = rng.choice(((1, 2), (2, 1)))
        rows = [[F.random(rng), F.random(rng)] for _ in range(2)]
        rows[k - 1][k - 1], rows[k - 1][j - 1] = a_kk, a_kj
        parities = [rng.choice(("ev", "od")) for _ in range(2)]
        parities[k - 1] = parity
        doc = {**F.header(), "matrix": [[F.encode(a) for a in row] for row in rows],
               "parities": parities}
        argv = ("bkj", "--input", self.write_doc(doc), "--k", str(k), "--j", str(j))
        return Request(f"bkj GF({F.p}^{F.k}) B={b}", argv,
                       expect_text(expect_bkj(F, k, j, b)), 1)


def make_field(kind: str, rng: random.Random) -> Field:
    """A field of the named kind, with its prime or modulus drawn from rng:
    "q", "gf9", "gf125", "gf100" (a prime near 100), "small" (a prime up to
    31), "prime13" (a 13-digit prime) or "gfP^K"."""
    if kind == "q":
        return Field(0)
    if kind == "small":
        return Field(rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31)))
    if kind == "gf100":
        return Field(gf.random_prime(rng, 90, 115))
    if kind == "prime13":
        return Field(gf.random_prime(rng, 10 ** 12, 11 * 10 ** 11))
    if kind == "gf9":
        p, k = 3, 2
    elif kind == "gf125":
        p, k = 5, 3
    else:
        p, k = map(int, kind[2:].split("^"))
    return Field(p, k, gf.random_irreducible(rng, p, k))


class WideMatrix(InProcessCli):
    name = "wide_matrix"
    # (field, subcommand, rank): fixed, so each run has the same cost mix;
    # the seed draws the moduli, the prime, the entries and the reflected k.
    # The median and the tail fall on the prime-field tables of rank 100 and
    # 160, whose costs vary least from seed to seed, and no other request
    # comes within about a fifth of their costs.
    SLOTS = (
        ("gf9", "table", 80), ("gf9", "table", 50), ("gf9", "reflect", 70), ("gf9", "reflect", 50),
        ("gf125", "table", 70), ("gf125", "table", 50), ("gf125", "reflect", 110), ("gf125", "reflect", 60),
        ("gf100", "table", 200), ("gf100", "table", 160), ("gf100", "table", 100),
        ("gf100", "reflect", 110), ("gf100", "reflect", 60),
        ("q", "table", 120), ("q", "table", 50), ("q", "reflect", 150), ("q", "reflect", 70),
    )
    tail_q = 0.85  # 14.45 of 17 requests

    def __init__(self, seed, workdir, ctx):
        super().__init__(seed, workdir, ctx)
        rng = self.rng
        fields = {kind: make_field(kind, rng) for kind in ("gf9", "gf125", "gf100", "q")}
        for kind, command, n in self.SLOTS:
            F = fields[kind]
            doc, _, table = cartan_doc(F, rng, n)
            path = self.write_doc(doc)
            if command == "table":
                req = Request(f"table {kind} n={n}", ("table", "--input", path),
                              expect_text(expect_table(F, doc["parities"], table)),
                              n * (n - 1))
            else:
                k = rng.randint(1, n)
                req = Request(f"reflect {kind} n={n}",
                              ("reflect", "--input", path, "--k", str(k)),
                              expect_text(expect_reflect(F, k, table[k - 1])), n - 1)
            self.cycle.append(req)
        self.warmup = min(self.cycle, key=lambda r: r.cases)
        self.rng.shuffle(self.cycle)


class ColdCli(Workload):
    name = "cold_cli"
    in_process = False
    # Two thirds cheap fields, where interpreter start and import set the
    # time, and a third with costly parse-time validation, so the median
    # falls among the cheap requests and the tail among the costly ones.
    # (subcommand, field, rank); a selfcheck slot names its fields instead.
    # Ranks and selfcheck fields are fixed so that every seed carries the same
    # number of bounds; the seed draws the fields' primes and moduli, the
    # entries and the indices.
    CHEAP = (("bkj", "small", 2), ("bkj", "q", 3), ("dseq", "gf9", 4), ("dseq", "q", 2),
             ("table", "small", 3), ("table", "gf9", 4), ("reflect", "small", 2),
             ("reflect", "q", 3), ("selfcheck", ((2, 1), (3, 1)), 0),
             ("selfcheck", ((3, 1), (3, 2)), 0))
    HEAVY = (("bkj", "prime13", 4), ("reflect", "prime13", 2), ("table", "gf7^8", 3),
             ("dseq", "gf13^6", 4), ("bkj", "gf13^7", 2))
    tail_q = 0.9  # 13.5 of 15 requests: among the two with 13-digit primes

    def __init__(self, seed, workdir, ctx):
        super().__init__(seed, workdir, ctx)
        rng = self.rng
        self.stdout: dict[int, bytes] = {}
        self.peak_rss_kib = 0
        for command, kind, n in self.CHEAP + self.HEAVY:
            if command == "selfcheck":
                primes = sorted({p for p, _ in kind})
                degrees = sorted({d for _, d in kind})
                argv = ("selfcheck", "--primes", ",".join(map(str, primes)),
                        "--degrees", ",".join(map(str, degrees)))
                self.cycle.append(Request(f"selfcheck {kind}", argv, check_selfcheck_text(kind),
                                          sum(2 * p ** (2 * d) for p, d in kind)))
                continue
            F = make_field(kind, rng)
            doc, rows, table = cartan_doc(F, rng, n, bmax=60 if kind == "prime13" else None)
            path = self.write_doc(doc)
            k, j = rng.sample(range(1, n + 1), 2)
            label = f"{command} {kind} n={n}"
            if command == "bkj":
                req = Request(label, ("bkj", "--input", path, "--k", str(k), "--j", str(j)),
                              expect_text(expect_bkj(F, k, j, table[k - 1][j - 1])), 1)
            elif command == "dseq":
                last = rng.randint(4, 8)
                req = Request(label, ("dseq", "--input", path, "--k", str(k), "--j", str(j),
                                      "--max-m", str(last)),
                              expect_text(expect_dseq(F, doc["parities"][k - 1], rows[k - 1][k - 1],
                                                      rows[k - 1][j - 1], k, j, last)), 0)
            elif command == "table":
                req = Request(label, ("table", "--input", path),
                              expect_text(expect_table(F, doc["parities"], table)), n * (n - 1))
            else:
                req = Request(label, ("reflect", "--input", path, "--k", str(k)),
                              expect_text(expect_reflect(F, k, table[k - 1])), n - 1)
            self.cycle.append(req)
        self.warmup = self.cycle[0]
        self.rng.shuffle(self.cycle)

    def execute(self, req: Request):
        return self._run([sys.executable, "-m", "rootstrings", *req.call])

    def execute_traced(self, req: Request, request_id: int, state_path: Path):
        """Run the request in a child that traces itself into ``state_path``."""
        return self._run([sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                          str(state_path), str(request_id), "--", *req.call])

    def _run(self, argv):
        seconds, code, out, err, rss_kib = self.ctx.run_child(argv)
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        return seconds, code, out, err

    def check(self, index: int, req: Request, out: bytes) -> Optional[str]:
        """The known answer, and the same bytes on every run of one request."""
        first = self.stdout.setdefault(index, out)
        if first != out:
            return "stdout changed between runs of one request"
        return req.check(out.decode("utf-8"))

    def verify(self) -> list[str]:
        """Each request's stdout must equal, byte for byte, what cli.main
        prints in this process for the same arguments."""
        errors = []
        for index, out in self.stdout.items():
            req = self.cycle[index]
            _, code, text, err = run_in_process(self.ctx.cli.main, req.call)
            if code != 0:
                errors.append(f"{req.label}: in-process exit {code}: {err.strip()}")
            elif text.encode("utf-8") != out:
                errors.append(f"{req.label}: subprocess stdout differs from cli.main")
        return errors


WORKLOADS = {w.name: w for w in (Sweep, LongString, WideMatrix, ColdCli)}


class Context:
    """The package under test, and a way to start Python children with a
    fixed environment: the checkout's sources on the path, bytecode cached
    under the benchmark's output directory, no -O, a fixed hash seed."""

    def __init__(self, root: Path, pycache: Path) -> None:
        import rootstrings.cli
        import rootstrings.selfcheck

        package = Path(rootstrings.__file__).resolve()
        if not package.is_relative_to((root / "src").resolve()):
            raise RuntimeError(f"imported rootstrings from {package}, not from the checkout")
        self.cli = rootstrings.cli
        self.selfcheck = rootstrings.selfcheck
        self.root = root
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP",
                            "PYTHONINSPECT", "PYTHONDEVMODE", "PYTHONPROFILEIMPORTTIME")}
        env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(pycache),
                   PYTHONHASHSEED="0")
        self.env = env

    def run_child(self, argv):
        """Returns (seconds, exit code, stdout bytes, stderr text, peak RSS KiB)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # The children write little to stderr, so reading stdout first
            # cannot block on a full stderr pipe.
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t1 - t0, proc.returncode, out, err.decode("utf-8", "replace"), usage.ru_maxrss
