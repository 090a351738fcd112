"""Brute-force reference implementations and exhaustive small-graph sweeps.

The oracle functions evaluate the diagonal-set definitions literally: each
extends walks one edge at a time, reading edges through ``Graph.has_edge``
once per vertex pair: no bitset algebra, no matrix products, no
periodicity traces.  They are the ground truth the engine is compared
against, and they are deliberately guarded so nobody mistakes them for a
scalable path.  Every oracle, the two walk oracles included, reads a
``walk_table``: each vertex's walk-end sets, stepped one edge at a time.
``walk_exists_bf`` and ``walk_from_exists_bf`` build one per call; the
others take one, or build their own without it.  The sweep builds one per
graph and hands it to every oracle call.

``exhaustive_sweep`` runs every engine-vs-oracle comparison and every
theorem over *all* digraphs up to a given order (2 + 16 + 512 = 530
graphs through order 3).  Each graph's theorems take one battery; only a
graph whose battery fails reruns them spec by spec, so that each failure
is named with its own message.  One literal oracle, ``diagonal_S_bf``,
checks D, Dn and every finite DS; the sweep records each exception, an
oracle guard or the trace cap included, as a counterexample, never as a
skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator

from .diagonals import (
    CHAIN_N_MAX,
    DiagonalSpec,
    GraphAnalysis,
    default_spec_battery,
    distinct_out_count,
)
from .graph import Graph, VertexSet
from .walks import power_trace, spectra_from_trace

MAX_ORACLE_ORDER = 8
MAX_ORACLE_WALK = 12
MAX_ORACLE_SPECTRUM = 128
SWEEP_SPECTRUM_LEN = 40

# Per vertex, the end sets of its walks of 0, 1, 2, ... edges.
WalkTable = list[list[frozenset[int]]]


class OracleGuardError(ValueError):
    """An oracle call exceeded its tractability guard."""


def _guard(g: Graph, walk_len: int | None = None) -> None:
    if g.n > MAX_ORACLE_ORDER:
        raise OracleGuardError(f"oracle limited to order <= {MAX_ORACLE_ORDER}, got {g.n}")
    if walk_len is not None and walk_len > MAX_ORACLE_WALK:
        raise OracleGuardError(
            f"oracle limited to walk length <= {MAX_ORACLE_WALK}, got {walk_len}"
        )


def walk_table(g: Graph, length: int) -> WalkTable:
    """Per vertex v, the end sets of v's walks of 0, 1, ..., `length` edges.

    Each vertex pair is read once, through ``has_edge``, and each distinct
    end set is stepped once, however many rows reach it.
    """
    _guard(g)
    if length > MAX_ORACLE_SPECTRUM:
        raise OracleGuardError(f"oracle walk table limited to length <= {MAX_ORACLE_SPECTRUM}")
    succ = [[y for y in range(g.n) if g.has_edge(x, y)] for x in range(g.n)]
    step: dict[frozenset[int], frozenset[int]] = {}
    table = []
    for v in range(g.n):
        ends = frozenset((v,))
        row = [ends]
        for _ in range(length):
            if ends not in step:
                step[ends] = frozenset(y for x in ends for y in succ[x])
            ends = step[ends]
            row.append(ends)
        table.append(row)
    return table


def _table_for(g: Graph, table: WalkTable | None, length: int) -> WalkTable:
    """The given walk table, checked to reach `length` edges, or a new one for this call."""
    if table is None:
        return walk_table(g, length)
    if len(table) != g.n or len(table[0]) <= length:
        raise ValueError(f"walk table must list {g.n} vertices' walks of up to {length} edges")
    return table


def walk_exists_bf(g: Graph, u: int, w: int, length: int) -> bool:
    """Extend u's walks to `length` edges; true iff one ends at w."""
    _guard(g, length)
    g._check_vertex(u)
    g._check_vertex(w)
    if length < 0:
        raise ValueError("walk length must be nonnegative")
    return w in walk_table(g, length)[u][length]


def walk_from_exists_bf(g: Graph, v: int, length: int) -> bool:
    """Extend v's walks; true iff one of exactly `length` edges exists."""
    _guard(g, length)
    g._check_vertex(v)
    if length < 0:
        raise ValueError("walk length must be nonnegative")
    return bool(walk_table(g, length)[v][length])


def closed_walk_lengths_bf(
    g: Graph, v: int, max_len: int, table: WalkTable | None = None
) -> set[int]:
    """Lengths L in [1, max_len] of closed walks through v, by endpoint sets."""
    _guard(g)
    g._check_vertex(v)
    if max_len > MAX_ORACLE_SPECTRUM:
        raise OracleGuardError(f"oracle spectrum limited to length <= {MAX_ORACLE_SPECTRUM}")
    ends = _table_for(g, table, max(max_len, 0))[v]
    return {length for length in range(1, max_len + 1) if v in ends[length]}


def diagonal_n_bf(g: Graph, n: int) -> VertexSet:
    """Literal evaluation: vertices with no length-(n+1) closed walk."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return diagonal_S_bf(g, [n])


def diagonal_inf_bf(g: Graph, table: WalkTable | None = None) -> VertexSet:
    """Literal evaluation of the no-infinite-walk set.

    A finite graph admits an infinite walk from v iff it admits one of
    length exactly |V|; that reduction is itself re-verified here by
    checking every length 1..|V|.
    """
    _guard(g, g.n)
    ends = _table_for(g, table, g.n)
    via_full = {v for v in range(g.n) if not ends[v][g.n]}
    via_all = {v for v in range(g.n) if not all(ends[v][1 : g.n + 1])}
    if via_full != via_all:
        raise RuntimeError("length-|V| reduction failed its enumeration re-check")
    return VertexSet.from_indices(g.n, via_full)


def diagonal_S_bf(
    g: Graph, s_values: Iterable[int], table: WalkTable | None = None
) -> VertexSet:
    """Literal two-clause evaluation of the selective diagonal, for finite S."""
    values = sorted(set(s_values))
    if not values:
        raise ValueError("S must be nonempty")
    if any(v < 0 for v in values):
        raise ValueError("S values must be nonnegative")
    _guard(g, max(values) + 1)
    ends = _table_for(g, table, max(values) + 1)  # walks of 0..max(S)+1 edges

    def excluded(v: int) -> bool:
        if 0 in values and g.has_edge(v, v):
            return True
        return any(v in ends[v][n + 1] for n in values if n > 0)

    return VertexSet.from_indices(g.n, (v for v in range(g.n) if not excluded(v)))


def enumerate_graphs(order: int) -> Iterator[Graph]:
    """All 2^(order^2) digraphs of the given order, in mask order."""
    if order < 1:
        raise ValueError("order must be at least 1")
    cell_mask = (1 << order) - 1
    for mask in range(1 << (order * order)):
        rows = tuple((mask >> (u * order)) & cell_mask for u in range(order))
        yield Graph(order, rows)


@dataclass
class PropertyResult:
    name: str
    passes: int = 0
    failures: int = 0
    first_counterexample: str | None = None

    def record(self, g: Graph, error: Exception | None) -> None:
        if error is None:
            self.passes += 1
            return
        self.failures += 1
        if self.first_counterexample is None:
            self.first_counterexample = f"order={g.n} edges={list(g.edges())}: {error}"


@dataclass
class SweepReport:
    graphs_checked: int
    per_order: dict[int, int]
    properties: list[PropertyResult] = field(default_factory=list)

    def total_failures(self) -> int:
        return sum(p.failures for p in self.properties)

    def ok(self) -> bool:
        return self.total_failures() == 0


def exhaustive_sweep(order_max: int = 3) -> SweepReport:
    """Check the default battery and every engine-vs-oracle pair over all small graphs.

    Each graph's theorems take one ``verify_battery`` call.  If it raises,
    ``verify_unequal`` reruns them spec by spec, so each failing spec is
    named with its own message and every other spec still passes.
    Each graph gets one ``walk_table`` of ``SWEEP_SPECTRUM_LEN`` edges, and
    every oracle call on it reads that table.
    Failures are recorded, never raised; callers assert the report is clean.
    Order 4 adds 65536 graphs to the 530 of orders 1 to 3.
    """
    if not 1 <= order_max <= 4:
        raise ValueError("order_max must be between 1 and 4")
    specs = default_spec_battery()
    s_samples = [spec.s for spec in specs if spec.kind == "DS"]
    theorems = [(f"theorem[{spec.label()}]", spec) for spec in specs]
    # D, Dn and DS are each D_S of a length set S; every finite S has the literal oracle.
    oracles = [
        (
            f"oracle[{spec.label()}]",
            spec,
            diagonal_inf_bf
            if spec.lengths is None
            else partial(diagonal_S_bf, s_values=spec.lengths.exceptional),
        )
        for spec in specs
        if spec.lengths is None or spec.lengths.is_finite()
    ]
    names = (
        [name for name, _ in theorems]
        + ["chain"]
        + [name for name, _, _ in oracles]
        + ["spectrum", "pigeonhole"]
    )
    results = {name: PropertyResult(name) for name in names}

    def check(name: str, g: Graph, thunk) -> None:
        try:
            thunk()
            error = None
        except Exception as exc:  # any failure is a counterexample, keep sweeping
            error = exc
        results[name].record(g, error)

    def assert_eq(a, b, spec: DiagonalSpec) -> None:
        if a != b:
            raise AssertionError(f"{spec.label()}: engine={a} oracle={b}")

    per_order: dict[int, int] = {}
    checked = 0
    for order in range(1, order_max + 1):
        per_order[order] = 0
        for g in enumerate_graphs(order):
            checked += 1
            per_order[order] += 1
            analysis = GraphAnalysis(g)
            table = walk_table(g, SWEEP_SPECTRUM_LEN)
            try:
                analysis.verify_battery(specs)
            except Exception:  # rerun spec by spec to name each failure
                for name, spec in theorems:
                    check(name, g, partial(analysis.verify_unequal, spec))
            else:
                for name, _ in theorems:
                    results[name].record(g, None)
            check("chain", g, lambda: analysis.inclusion_chain_check(CHAIN_N_MAX, s_samples))
            for name, spec, oracle in oracles:
                check(
                    name,
                    g,
                    lambda s=spec, o=oracle: assert_eq(
                        analysis.diagonal_set(s), o(g, table=table), s
                    ),
                )
            check("spectrum", g, lambda: _check_spectra(analysis, table))
            check("pigeonhole", g, lambda: _check_pigeonhole(g))
    return SweepReport(checked, per_order, list(results.values()))


def _check_spectra(analysis: GraphAnalysis, table: WalkTable) -> None:
    g, spectra = analysis.g, analysis.spectra
    if spectra != spectra_from_trace(power_trace(g)):
        raise AssertionError("engine spectra differ from the power-trace spectra")
    for v in range(g.n):
        truth = closed_walk_lengths_bf(g, v, SWEEP_SPECTRUM_LEN, table=table)
        member = spectra[v].member
        engine = {length for length in range(SWEEP_SPECTRUM_LEN + 1) if member(length)}
        if engine != truth:
            raise AssertionError(f"spectrum of {v} wrong at length {min(engine ^ truth)}")


def _check_pigeonhole(g: Graph) -> None:
    count, order = distinct_out_count(g)
    if count > order:
        raise AssertionError(f"{count} distinct outgoing sets on {order} vertices")
    d = g.loops().complement()
    for v in range(g.n):
        if g.out_set(v) == d:
            raise AssertionError(f"D equals Out({v})")
