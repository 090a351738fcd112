#!/usr/bin/env python3
"""Time the spectra route for an astronomically large walk length.

Computes D_n, the vertices with no closed walk of length n+1, on a seeded
random graph for n around 10^9: one lookup per vertex in the closed-walk
spectra, with no matrix power.  Then recomputes it through the
eventual-periodicity trace and confirms the two routes agree.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diagsets.diagonals import diagonal_n  # noqa: E402
from diagsets.graph import VertexSet  # noqa: E402
from diagsets.graphio import gen_random  # noqa: E402
from diagsets.walks import power_trace  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=256)
    ap.add_argument("--p", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=424242)
    ap.add_argument("--n", type=int, default=10**9 + 7)
    args = ap.parse_args()

    g = gen_random(args.order, args.p, args.seed, "allow")
    print(f"graph: order {g.n}, {g.edge_count()} edges (p={args.p}, seed={args.seed})")

    start = time.perf_counter()
    fast = diagonal_n(g, args.n)
    t_spectra = time.perf_counter() - start
    print(f"spectra route: diagonal_n(n={args.n}) in {t_spectra:.3f}s "
          f"({len(fast)} vertices in the set)")

    start = time.perf_counter()
    trace = power_trace(g)
    via_trace = VertexSet(g.n, trace.power(args.n + 1).loops().bits).complement()
    t_trace = time.perf_counter() - start
    print(f"trace route: mu={trace.mu} lambda={trace.lam} in {t_trace:.3f}s")

    if fast != via_trace:
        print("ROUTES DISAGREE")
        return 1
    print("routes agree")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
