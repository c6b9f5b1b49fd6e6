#!/usr/bin/env python3
"""Survey the distribution of root-string bounds over small finite fields.

For each requested field and each parity this sweeps every (A_kk, A_kj)
pair and tabulates how often each bound B occurs, alongside the
theoretical ceiling (p - 1 for even parity when p is odd, 3 for even
parity at p = 2, and 2p - 1 for odd parity).

    python3 scripts/bvalue_survey.py --primes 2,3,5 --degrees 1,2
"""

import argparse
import itertools
from collections import Counter

from rootstrings.cartan import Parity, b_closed, pair_datum
from rootstrings.selfcheck import bound_ceiling, field_for


def survey(spec) -> dict[Parity, Counter]:
    counts = {parity: Counter() for parity in Parity}
    elements = list(spec.elements())
    for parity, a_kk, a_kj in itertools.product(Parity, elements, elements):
        datum = pair_datum(spec, a_kk, a_kj, parity)
        counts[parity][int(b_closed(datum, 1, 2))] += 1
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Survey the distribution of root-string bounds over small finite fields.")
    parser.add_argument("--primes", default="2,3,5,7",
                        help="comma-separated primes (default 2,3,5,7)")
    parser.add_argument("--degrees", default="1",
                        help="comma-separated extension degrees (default 1)")
    args = parser.parse_args()
    primes = [int(x) for x in args.primes.split(",")]
    degrees = [int(x) for x in args.degrees.split(",")]

    header = f"{'field':>10}  {'parity':>6}  {'cases':>6}  {'max':>4}  {'cap':>4}  distribution"
    print(header)
    print("-" * len(header))
    for p in primes:
        for degree in degrees:
            spec = field_for(p, degree)
            for parity, counts in survey(spec).items():
                dist = "  ".join(f"{b}:{n}" for b, n in sorted(counts.items()))
                print(f"{str(spec):>10}  {parity.value:>6}  {sum(counts.values()):>6}"
                      f"  {max(counts):>4}  {bound_ceiling(p, parity):>4}  {dist}")


if __name__ == "__main__":
    main()
