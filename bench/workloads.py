"""The benchmark's inputs, made from a seed, and the operations run on them.

Graphs are generated here with the benchmark's own G(n, p) sampler and
edge-list writer, not with the program's, so the program only ever sees
finished graphs.  Each graph keeps its adjacency as a list of bit masks
(``rows[v]`` is Out(v)), which the checks in ``checks.py`` use to compute
every expected answer on their own.

Run ``python3 bench/workloads.py --workload NAME --seed N --out DIR`` to
write a workload's input graphs as edge-list files.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BIG_N = 10**9 + 7

# battery-mid: the acceptance suite's mid-size mix.
MID_COUNT = 512
MID_PS = (0.05, 0.2, 0.5, 0.9)

# analyze-large: every order with every density.
LARGE_ORDERS = (128, 256, 384, 512)
LARGE_PS = (0.02, 0.05, 0.5)

# analyze-adversarial: structured families.  Vertex labels are shuffled by
# the seed, except for the three cycle unions whose period exceeds the
# power-trace cap n^2+n+2: those fail the same way on every seed.
WIELANDT_ORDERS = (8, 16, 24, 32)
COPRIME_CYCLES = ((2, 3), (3, 4, 5), (4, 5, 7), (5, 7, 9), (7, 8, 9))
TRACE_CAP_CYCLES = ((3, 5, 7, 8), (2, 3, 5, 7, 11), (2, 3, 5, 7, 11, 13))
BLOWUPS = ((3, 4), (4, 5), (6, 6))  # (cycle length, copies of each vertex)
PATHS_INTO_CYCLES = ((40, 5), (60, 7), (100, 3))  # (path length, cycle length)

ANALYZE_ARGS = (
    "--n", f"1,2,{BIG_N}",
    "--s", "up(t=0,d=2,r=0)",
    "--s", "finite(0,2)",
    "--spectra",
)


@dataclass
class Case:
    """One input graph: its adjacency and, for structured families, its closed form."""

    name: str
    rows: list[int]
    seed: int | None = None
    # closed_form[v](m) says whether a closed walk of length m >= 1 passes v.
    closed_form: list[Callable[[int], bool]] | None = None
    # The period of those lengths (0: no closed walk at all), per vertex.
    closed_period: list[int] | None = None
    # Beyond this length the closed form is periodic with closed_period[v].
    closed_bound: int = 1
    fails_trace_cap: bool = False
    edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.rows)


def _from_edges(name: str, n: int, edges: list[tuple[int, int]], **kw) -> Case:
    rows = [0] * n
    for u, w in edges:
        rows[u] |= 1 << w
    return Case(name, rows, edges=sorted(set(edges)), **kw)


def gnp(name: str, n: int, p: float, seed: int, loops: bool) -> Case:
    """Directed G(n, p): every ordered pair independently, row-major."""
    rng = random.Random(seed)
    draw = rng.random
    edges = [(u, w) for u in range(n) for w in range(n) if (loops or u != w) and draw() < p]
    return _from_edges(name, n, edges, seed=seed)


def battery_cases(seed: int) -> list[Case]:
    return [
        gnp(
            f"mid-{i}",
            4 + i % 61,
            MID_PS[i % 4],
            seed * 1_000_003 + i,
            loops=i % 2 == 0,
        )
        for i in range(MID_COUNT)
    ]


def large_cases(seed: int) -> list[Case]:
    cases = []
    for j, n in enumerate(LARGE_ORDERS):
        for k, p in enumerate(LARGE_PS):
            i = j * len(LARGE_PS) + k
            cases.append(gnp(f"gnp-{n}-{p}", n, p, seed * 1_000_003 + i, loops=i % 2 == 0))
    return cases


def _multiples(length: int) -> Callable[[int], bool]:
    return lambda m: m >= 1 and m % length == 0


def _never(m: int) -> bool:
    return False


def _semigroup(k: int, need_k: bool) -> Callable[[int], bool]:
    """Sums a*k + b*(k-1) (a >= 1 when need_k, else a+b >= 1)."""
    bound = k * k + 2 * k
    members = set()
    for a in range(bound // k + 1):
        for b in range(bound // (k - 1) + 1):
            m = a * k + b * (k - 1)
            if m <= bound and m >= 1 and (a >= 1 or not need_k):
                members.add(m)
    return lambda m: m in members if m <= bound else True


def _relabel(case: Case, rng: random.Random | None) -> Case:
    if rng is None:
        return case
    n = case.n
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[w]) for u, w in case.edges]
    out = _from_edges(case.name, n, edges)
    out.closed_bound = case.closed_bound
    if case.closed_form is not None:
        form = [_never] * n
        period = [0] * n
        for v in range(n):
            form[perm[v]] = case.closed_form[v]
            period[perm[v]] = case.closed_period[v]
        out.closed_form, out.closed_period = form, period
    return out


def wielandt(k: int) -> Case:
    edges = [(i, i + 1) for i in range(k - 1)] + [(k - 1, 0), (k - 1, 1)]
    form = [_semigroup(k, need_k=True)] + [_semigroup(k, need_k=False)] * (k - 1)
    return _from_edges(
        f"wielandt-{k}", k, edges, closed_form=form, closed_period=[1] * k, closed_bound=k * k + 2 * k
    )


def cycle_union(lengths: tuple[int, ...], **kw) -> Case:
    edges, form, period = [], [], []
    base = 0
    for length in lengths:
        edges += [(base + j, base + (j + 1) % length) for j in range(length)]
        form += [_multiples(length)] * length
        period += [length] * length
        base += length
    name = "cycles-" + "-".join(map(str, lengths))
    return _from_edges(name, base, edges, closed_form=form, closed_period=period, **kw)


def blowup(length: int, copies: int) -> Case:
    """Each vertex of a directed cycle replaced by `copies` twins, all edges kept."""
    n = length * copies
    edges = [
        (g * copies + a, ((g + 1) % length) * copies + b)
        for g in range(length)
        for a in range(copies)
        for b in range(copies)
    ]
    return _from_edges(
        f"blowup-{length}x{copies}",
        n,
        edges,
        closed_form=[_multiples(length)] * n,
        closed_period=[length] * n,
    )


def path_into_cycle(path: int, length: int) -> Case:
    n = path + length
    edges = [(i, i + 1) for i in range(path)]
    edges += [(path + j, path + (j + 1) % length) for j in range(length)]
    form = [_never] * path + [_multiples(length)] * length
    period = [0] * path + [length] * length
    return _from_edges(f"path-{path}-cycle-{length}", n, edges, closed_form=form, closed_period=period)


def adversarial_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = [_relabel(wielandt(k), rng) for k in WIELANDT_ORDERS]
    cases += [_relabel(cycle_union(c), rng) for c in COPRIME_CYCLES]
    cases += [cycle_union(c, fails_trace_cap=True) for c in TRACE_CAP_CYCLES]
    cases += [_relabel(blowup(d, b), rng) for d, b in BLOWUPS]
    cases += [_relabel(path_into_cycle(p, c), rng) for p, c in PATHS_INTO_CYCLES]
    return cases


def edge_list_text(case: Case) -> str:
    lines = [] if case.seed is None else [f"# seed {case.seed}"]
    lines.append(f"n {case.n}")
    lines += [f"{u} {w}" for u, w in case.edges]
    return "\n".join(lines) + "\n"


CASES = {
    "battery-mid": battery_cases,
    "analyze-large": large_cases,
    "analyze-adversarial": adversarial_cases,
    "verify-sweep": lambda seed: [],
}


def main() -> int:
    ap = argparse.ArgumentParser(description="Write a workload's input graphs as edge lists.")
    ap.add_argument("--workload", required=True, choices=sorted(CASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the .edges files")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cases = CASES[args.workload](args.seed)
    for case in cases:
        (out / f"{case.name}.edges").write_text(edge_list_text(case))
    print(f"wrote {len(cases)} graphs to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
