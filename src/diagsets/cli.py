"""Command-line surface: analyze, verify, spectrum, gen.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource cap (an id or order too large to represent, or memory running out).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from time import perf_counter

from . import __version__
from .bruteforce import exhaustive_sweep
from .diagonals import (
    CHAIN_N_MAX,
    GraphAnalysis,
    InternalDisagreementError,
    TheoremViolationError,
    default_spec_battery,
)
from .graphio import emit_edge_list, gen_random, parse_edge_list, scan_seed_comment
from .report import analyze_graph, report_json
from .upsets import parse_upset


def _parse_n_list(text: str) -> list[int]:
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok.isdecimal() or int(tok) < 1:
            raise ValueError(f"--n expects positive integers, got {tok!r} (D covers n = 0)")
        values.append(int(tok))
    return values


def _parse_p_list(text: str) -> list[float]:
    values = []
    for tok in text.split(","):
        p = float(tok)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability must lie in [0, 1], got {tok}")
        values.append(p)
    return values


def _parse_size_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdecimal() or not hi.isdecimal():
        raise ValueError(f"--size expects MIN..MAX, got {text!r}")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i < 1 or hi_i < lo_i:
        raise ValueError(f"--size range {text!r} is empty or starts below 1")
    return lo_i, hi_i


def _cmd_analyze(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text()
    t0 = perf_counter()
    g = parse_edge_list(text)
    parse_ms = (perf_counter() - t0) * 1000.0
    n_values = _parse_n_list(args.n) if args.n is not None else []
    s_sets = [parse_upset(lit) for lit in args.s or []]
    for s in s_sets:
        if s.is_empty():
            raise ValueError("--s sets must be nonempty")
    report = analyze_graph(
        g,
        n_values=n_values,
        s_sets=s_sets,
        include_spectra=args.spectra,
        seed=scan_seed_comment(text),
        parse_ms=parse_ms,
    )
    payload = report_json(report)
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.random < 0:
        raise ValueError(f"--random expects a graph count of at least 0, got {args.random}")
    lo, hi = _parse_size_range(args.size)
    ps = _parse_p_list(args.p)
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    failures = 0
    report = exhaustive_sweep(order_max=args.order_max)
    print(f"exhaustive sweep: orders 1..{args.order_max}, {report.graphs_checked} graphs")
    for prop in report.properties:
        line = f"  {prop.name}: {prop.passes} pass / {prop.failures} fail"
        if prop.first_counterexample:
            line += f"  first: {prop.first_counterexample}"
        print(line)
    failures += report.total_failures()

    if args.random:
        battery = default_spec_battery()
        s_samples = [spec.s for spec in battery if spec.kind == "DS"]
        random_failures = 0
        for i in range(args.random):
            order = lo + i % (hi - lo + 1)
            p = ps[i % len(ps)]
            loops = "allow" if i % 2 == 0 else "forbid"
            g = gen_random(order, p, args.seed + i, loops)
            analysis = GraphAnalysis(g)
            try:
                analysis.verify_battery(battery)
                analysis.inclusion_chain_check(CHAIN_N_MAX, s_samples)
            except (MemoryError, OverflowError):
                raise
            except Exception as exc:  # any other fault is this graph's counterexample
                random_failures += 1
                print(f"  FAIL seed={args.seed + i} order={order} p={p} loops={loops}: {exc}")
        print(
            f"randomized: {args.random} graphs, orders {lo}..{hi}, "
            f"{random_failures} failures"
        )
        failures += random_failures

    if failures:
        print(f"VERIFY FAILED: {failures} failure(s)")
        return 1
    print("VERIFY OK")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    g = parse_edge_list(Path(args.input).read_text())
    print(GraphAnalysis(g).spectrum(args.vertex).literal())
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    g = gen_random(args.n, args.p, args.seed, args.loops)
    sys.stdout.write(emit_edge_list(g, seed=args.seed))
    return 0


@functools.cache  # parse_args reads the parser without changing it: build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagsets",
        description="Diagonal sets, inequality witnesses, and verification on finite digraphs.",
    )
    parser.add_argument("--version", action="version", version=f"diagsets {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full JSON report for one graph")
    p_analyze.add_argument("--input", required=True, help="edge-list file")
    p_analyze.add_argument("--n", help="comma-separated n values for Dn, e.g. 1,2,5")
    p_analyze.add_argument(
        "--s", action="append", help="UPSet literal for DS, repeatable, e.g. finite(0,2)"
    )
    p_analyze.add_argument("--spectra", action="store_true", help="include per-vertex spectra")
    p_analyze.add_argument("--out", help="write the report here instead of stdout")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="exhaustive sweep plus optional random suite")
    p_verify.add_argument("--order-max", type=int, default=3, dest="order_max")
    p_verify.add_argument("--random", type=int, default=0, help="number of random graphs")
    p_verify.add_argument("--size", default="4..16", help="random order range MIN..MAX")
    p_verify.add_argument("--p", default="0.05,0.2,0.5,0.9", help="edge probabilities, CSV")
    p_verify.add_argument("--seed", type=int, default=0, help="base seed for random graphs")
    p_verify.set_defaults(func=_cmd_verify)

    p_spectrum = sub.add_parser("spectrum", help="closed-walk length spectrum of one vertex")
    p_spectrum.add_argument("--input", required=True, help="edge-list file")
    p_spectrum.add_argument("--vertex", type=int, required=True)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_gen = sub.add_parser("gen", help="emit a seeded random graph as an edge list")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--loops", choices=("allow", "forbid"), default="allow")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TheoremViolationError, InternalDisagreementError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError) as exc:
        print(f"resource cap: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
