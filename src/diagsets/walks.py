"""Walk existence via boolean matrix powers and SCC-local frontiers.

Entry (u, w) of A^L is 1 exactly when a walk of length L from u to w
exists; boolean products realize walk concatenation.  A closed walk
through v never leaves its strongly connected component (SCC) C, so v's
spectrum {k >= 1 : v in B_k} and its witness walks come from the backward
layers B_0 = {v}, B_(k+1) = In(B_k) & C (:class:`FrontierOrbit`), whatever
the period of the whole graph.  The SCCs themselves come from bitset row
ORs too (Kosaraju's two passes).  ``diagonals.GraphAnalysis`` composes
these kernels into each vertex's SCC mask and spectrum, once per graph.

:class:`PowerTrace`, the periodicity certificate of the whole power
sequence A^1, A^2, ..., is kept only as an independent oracle for them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import Graph, bits_of
from .upsets import UPSet

# Orbit steps read 8-bit block tables above this many SCC vertices; below
# it the table build costs more than it saves.
_BLOCK_TABLE_MIN_SCC = 8
# A product ORs rows one set bit of the left factor at a time while that
# is cheaper than building block tables, at every order.  One such OR
# costs about three table lookups (measured at orders 8 to 512 in
# CPython 3.11).
_NAIVE_OR_COST = 3


def _block_tables(rows: Sequence[int], n: int, mask: int) -> list:
    """Per 8-column block, the OR of every subset of its rows.

    A block that misses ``mask`` is only ever read at byte 0 and gets (0,).
    """
    tables = []
    for base in range(0, n, 8):
        if not mask >> base & 255:
            tables.append((0,))
            continue
        tab = [0]
        for idx in range(base, min(base + 8, n)):
            row = rows[idx]
            tab += [x | row for x in tab]
        tables.append(tab)
    return tables


def frontier_step(rows: Sequence[int], comp: int, blocked: bool) -> Callable[[int], int]:
    """F -> (OR of rows[u] over u in F) & comp; ``blocked`` reads it off 8-bit block tables."""
    if not blocked:

        def step(f: int) -> int:
            acc = 0
            while f:
                low = f & -f
                acc |= rows[low.bit_length() - 1]
                f ^= low
            return acc & comp

        return step
    tables = _block_tables(rows, len(rows), comp)
    nbytes = len(tables)

    def step(f: int) -> int:
        acc = 0
        for tab, byte in zip(tables, f.to_bytes(nbytes, "little")):
            acc |= tab[byte]
        return acc & comp

    return step


def orbit_step(rows: Sequence[int], comp: int) -> Callable[[int], int]:
    """``frontier_step`` inside one SCC, with block tables above 8 of its vertices."""
    return frontier_step(rows, comp, comp.bit_count() > _BLOCK_TABLE_MIN_SCC)


def mat_mul_bool(a: Graph, b: Graph) -> Graph:
    """OR-of-ANDs product: u -> w in a*b iff some x has u -> x in a and x -> w in b.

    The product of the graphs of length-j and length-k walks is the graph
    of length-(j+k) walks: row u of a*b is one frontier step from row u of a.
    """
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} != {b.n}")
    n = a.n
    # The block tables cost 255 ORs to build each of the ceil(n/8) tables,
    # then ceil(n/8) lookups per row.
    blocked = _NAIVE_OR_COST * sum(map(int.bit_count, a.rows)) >= (n + 255) * -(-n // 8)
    return Graph(n, tuple(map(frontier_step(b.rows, (1 << n) - 1, blocked), a.rows)))


def mat_pow_bool(a: Graph, exponent: int) -> Graph:
    """A^exponent, the graph of length-exponent walks, by square-and-multiply."""
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    result: Graph | None = None
    base = a
    e = exponent
    while e:
        if e & 1:
            result = base if result is None else mat_mul_bool(result, base)
        e >>= 1
        if e:
            base = mat_mul_bool(base, base)
    assert result is not None
    return result


def long_walk_starts(g: Graph) -> int:
    """The nonzero rows of A^|V|, as a mask: the vertices with a length-|V| walk.

    This is A^k times the all-ones vector, read as sets: L_0 = V and
    L_(k+1) = {v : Out(v) meets L_k}, so L_k holds the nonzero rows of A^k.
    The chain L_0 >= L_1 >= ... shrinks, so it repeats within |V| steps and
    stays put from then on.  Only the rows are read: no SCCs, no spectra.
    """
    rows = g.rows
    live = (1 << g.n) - 1
    while True:
        dead = 0
        for v in bits_of(live):
            if not rows[v] & live:
                dead |= 1 << v
        if not dead:
            return live
        live ^= dead


class TraceCapError(RuntimeError):
    """The power sequence did not repeat within the configured cap."""


def default_trace_cap(n: int) -> int:
    return max(64, n * n + n + 2)


@dataclass(frozen=True)
class PowerTrace:
    """Eventual-periodicity certificate of A^1, A^2, ...

    ``powers[k-1]`` is A^k for k in [1, mu+lam); A^(mu+lam) = A^mu, and
    every exponent L >= mu reduces to mu + ((L - mu) mod lam).
    """

    mu: int
    lam: int
    powers: tuple[Graph, ...]

    def reduce_exponent(self, exponent: int) -> int:
        if exponent < 1:
            raise ValueError("exponent must be at least 1")
        if exponent < self.mu:
            return exponent
        return self.mu + (exponent - self.mu) % self.lam

    def power(self, exponent: int) -> Graph:
        return self.powers[self.reduce_exponent(exponent) - 1]


def power_trace(g: Graph, cap: int | None = None) -> PowerTrace:
    """Find minimal (mu, lam) with A^(mu+lam) = A^mu by hashing powers."""
    if cap is None:
        cap = default_trace_cap(g.n)
    if cap < 2:
        raise ValueError("cap must be at least 2")
    seen: dict[Graph, int] = {}
    powers: list[Graph] = []
    cur = g
    k = 1
    while k <= cap:
        if cur in seen:
            mu = seen[cur]
            return PowerTrace(mu, k - mu, tuple(powers))
        seen[cur] = k
        powers.append(cur)
        cur = mat_mul_bool(cur, g)
        k += 1
    raise TraceCapError(f"no repeated power within cap {cap}; raise the cap")


def spectra_from_trace(trace: PowerTrace) -> list[UPSet]:
    """Closed-walk length spectrum of every vertex, from one trace."""
    n = trace.powers[0].n
    mu, lam = trace.mu, trace.lam
    diag = [m.loops().bits for m in trace.powers]
    out = []
    for v in range(n):
        bit = 1 << v
        exceptional = frozenset(k for k in range(1, mu) if diag[k - 1] & bit)
        residues = frozenset(k % lam for k in range(mu, mu + lam) if diag[k - 1] & bit)
        out.append(UPSet(mu, lam, residues, exceptional))
    return out


class FrontierOrbit:
    """Frontiers x_0 = start, x_(k+1) = step(x_k), stored only as far as read.

    Over a finite vertex set the sequence is eventually periodic.  Hashing
    each frontier finds the first repeat x_(mu+lam) = x_mu exactly; from
    then on every index reduces into the stored prefix.
    """

    def __init__(self, start: int, step: Callable[[int], int]):
        self.items = [start]
        self.mu = 0
        self.lam = 0  # 0 until the first repeat is found
        self._step = step
        self._seen: dict[int, int] | None = {start: 0}

    def _extend(self, k: int) -> None:
        """Store frontiers up to index k, or stop at the first repeat."""
        items, seen, step = self.items, self._seen, self._step
        x = items[-1]
        i = len(items)
        while i <= k:
            x = step(x)
            j = seen.setdefault(x, i)
            if j != i:
                self.mu, self.lam, self._seen = j, i - j, None
                return
            items.append(x)
            i += 1

    def __getitem__(self, k: int) -> int:
        if k >= len(self.items) and not self.lam:
            self._extend(k)
        if k < len(self.items):
            return self.items[k]
        return self.items[self.mu + (k - self.mu) % self.lam]

    def hits(self, v: int) -> UPSet:
        """{k >= 1 : v in x_k}, as a UPSet."""
        if not self.lam:
            self._extend(math.inf)
        t = max(self.mu, 1)
        exceptional = frozenset(k for k in range(1, t) if self.items[k] >> v & 1)
        residues = frozenset(k % self.lam for k in range(t, t + self.lam) if self[k] >> v & 1)
        return UPSet(t, self.lam, residues, exceptional)


def strongly_connected_components(g: Graph, rev: Sequence[int]) -> list[int]:
    """The SCCs as masks, by Kosaraju's two passes; ``rev`` is ``transpose_rows(g)``.

    Pass 1 is a depth-first search whose next child is the lowest unseen
    successor; it lists the vertices as they finish.  Pass 2 takes them in
    reverse finishing order: the still unassigned vertices that reach one
    form its SCC.
    """
    rows = g.rows
    unseen = (1 << g.n) - 1
    finished: list[int] = []
    while unseen:
        stack = [(unseen & -unseen).bit_length() - 1]
        unseen &= unseen - 1
        while stack:
            nxt = rows[stack[-1]] & unseen
            if nxt:
                low = nxt & -nxt
                unseen ^= low
                stack.append(low.bit_length() - 1)
            else:
                finished.append(stack.pop())
    components = []
    unassigned = (1 << g.n) - 1
    for v in reversed(finished):
        if unassigned >> v & 1:
            components.append(reach_from(rev, 1 << v, within=unassigned))
            unassigned ^= components[-1]
    return components


def transpose_rows(g: Graph) -> tuple[int, ...]:
    """In(w) per vertex w: columns read off blocks of 256 rows written out as binary digits."""
    rev = [0] * g.n
    for base in range(0, g.n, 256):
        block = g.rows[base : base + 256]
        held = functools.reduce(int.__or__, block)  # the columns the block holds
        if held:
            low = (held & -held).bit_length() - 1
            width = held.bit_length() - low
            # Rows last first, columns from low on: column w starts at low + width - 1 - w.
            digits = "".join([format(row >> low, f"0{width}b") for row in reversed(block)])
            for w in bits_of(held):
                rev[w] |= int(digits[low + width - 1 - w :: width], 2) << base
    return tuple(rev)


def reach_from(rows: Sequence[int], start: int, within: int = -1) -> int:
    """The mask ``start`` and all it reaches along ``rows`` within the mask ``within``."""
    step = frontier_step(rows, within, False)
    reached = frontier = start
    while frontier:
        frontier = step(frontier) & ~reached
        reached |= frontier
    return reached
