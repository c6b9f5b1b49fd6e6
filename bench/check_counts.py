"""Check that the traced run's counts repeat exactly for one seed.

    python3 bench/check_counts.py

For each workload this makes three traced runs: two with seed 1 and one with
seed 2.  The two runs with one seed must report identical counts; every run
must pass its known-answer checks.  Exits 1 on any difference or failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "long_string", "wide_matrix", "cold_cli")
SEED, OTHER_SEED = 1, 2
COUNTS = ("cartan.recursion_steps", "cartanfile.entries_parsed", "field.is_prime_calls",
          "reflection.determinant_calls", "trace.requests", "field.arith_calls",
          "field.elements_built", "cartan.b_recursive_calls", "cartan.b_closed_calls",
          "field.check_irreducible_calls", "cartanfile.bytes_rendered")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        seeds = (SEED, SEED, OTHER_SEED)
        runs = [traced_run(workload, s) for s in seeds]
        for seed, run in zip(seeds, runs):
            if not run["correct"] or run["failed"]:
                print(f"{workload} seed {seed}: {run['failed']} failed checks")
                ok = False
        first, second = ([run["metrics"][name]["value"] for name in COUNTS] for run in runs[:2])
        for name, a, b in zip(COUNTS, first, second):
            if a != b:
                print(f"{workload}: {name} differs between two runs of seed {SEED}: {a} != {b}")
                ok = False
        same = "identical" if first == second else "DIFFERENT"
        print(f"{workload}: counts {same} for seed {SEED}; "
              f"seed {OTHER_SEED} correct={runs[2]['correct']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
