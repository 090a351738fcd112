#!/usr/bin/env python3
"""Run the exhaustive small-graph sweep and print a per-property table.

Every theorem, chain identity, and engine-vs-oracle equivalence is checked
on every digraph of order up to --order-max (530 graphs through order 3;
order 4 adds 65536 more and takes correspondingly longer).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diagsets.bruteforce import exhaustive_sweep  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order-max", type=int, default=3)
    args = ap.parse_args()

    start = time.perf_counter()
    report = exhaustive_sweep(order_max=args.order_max)
    elapsed = time.perf_counter() - start

    print(f"checked {report.graphs_checked} graphs in {elapsed:.2f}s "
          f"(per order: {report.per_order})")
    width = max(len(p.name) for p in report.properties)
    for prop in report.properties:
        line = f"  {prop.name:<{width}}  {prop.passes:>6} pass  {prop.failures:>3} fail"
        if prop.first_counterexample:
            line += f"  first: {prop.first_counterexample}"
        print(line)
    if report.ok():
        print("all properties hold")
        return 0
    print(f"{report.total_failures()} failure(s)")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
