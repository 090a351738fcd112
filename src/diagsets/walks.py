"""Walk existence via boolean matrix powers and SCC-local frontiers.

Entry (u, w) of A^L is 1 exactly when a walk of length L from u to w
exists; boolean products realize walk concatenation.  A closed walk
through v never leaves its strongly connected component (SCC) C, so v's
spectrum and its witness walks are found inside C, whatever the period of
the whole graph.  The SCCs come from bitset row ORs (Kosaraju's two
passes), whose second pass gives each SCC's :class:`CyclicClasses`.  One
:func:`forward_pass` per SCC finds every spectrum of C and where C's
backward layers settle; it steps by slot gathers or by block tables,
whichever :func:`_gathers_beat_tables` prices lower.  :func:`back_layers`
steps v's layers below that index for its witness walks.
``diagonals.GraphAnalysis`` composes these kernels into each vertex's SCC
mask and spectrum, once per graph.

:class:`PowerTrace`, the periodicity certificate of the whole power
sequence A^1, A^2, ..., is kept only as an independent oracle for them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .graph import Graph, bits_of
from .upsets import UPSet

# Orbit steps read 8-bit block tables above this many SCC vertices; below
# it the table build costs more than it saves.
_BLOCK_TABLE_MIN_SCC = 8
# A product ORs rows one set bit of the left factor at a time while that
# is cheaper than building block tables, at every order.  One such OR costs
# about three table lookups, and the tables about 300 lookups of set-up per
# product (measured at orders 8 to 512 in CPython 3.11).
_NAIVE_OR_COST, _TABLE_SET_UP = 3, 300
# A forward pass's gather step costs about two block-table lookups per edge
# of the SCC, counting its set-up; its table step costs about eight lookups
# per row on top of the row's table reads.  Fitted to the faster kernel on
# random, Wielandt, cycle and blow-up SCCs of 9 to 512 vertices (CPython 3.11).
_PASS_EDGE_COST = 2
_ORBIT_STEP_LOOKUPS = 8


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


def _gathers_beat_tables(rows: Sequence[int], comp: int) -> bool:
    """Whether a ``forward_pass`` over the SCC ``comp`` steps faster by slot gathers than by tables.

    Per step, the gathers OR one row per edge of the SCC, and the tables
    read ceil(|C|/8) block tables for each of the |C| rows.  Up to
    _BLOCK_TABLE_MIN_SCC vertices the table step ORs rows, and the gathers'
    fixed costs outweigh what they save.
    """
    m = comp.bit_count()
    if m <= _BLOCK_TABLE_MIN_SCC:
        return False
    edges = sum((rows[v] & comp).bit_count() for v in bits_of(comp))
    return _PASS_EDGE_COST * edges < m * (-(-m // 8) + _ORBIT_STEP_LOOKUPS)


def mat_mul_bool(a: Graph, b: Graph) -> Graph:
    """OR-of-ANDs product: u -> w in a*b iff some x has u -> x in a and x -> w in b.

    The product of the graphs of length-j and length-k walks is the graph
    of length-(j+k) walks: row u of a*b is one frontier step from row u of a.
    """
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} != {b.n}")
    n = a.n
    # The block tables cost 255 ORs to build each of the ceil(n/8) tables,
    # then ceil(n/8) lookups per row, and their set-up.
    tables = (n + 255) * -(-n // 8) + _TABLE_SET_UP
    blocked = _NAIVE_OR_COST * sum(map(int.bit_count, a.rows)) >= tables
    # The rows of b never leave [0, n), so the mask -1 keeps every column.
    return Graph(n, tuple(map(frontier_step(b.rows, -1, blocked), a.rows)))


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


def long_walk_starts(g: Graph, rev: Sequence[int]) -> int:
    """The nonzero rows of A^|V|, as a mask: the vertices with a length-|V| walk.

    This is A^k times the all-ones vector, read as sets: L_0 = V and
    L_(k+1) = {v : Out(v) meets L_k}, so L_k holds the nonzero rows of A^k.
    The chain L_0 >= L_1 >= ... shrinks, so it repeats within |V| steps and
    stays put from then on.  A vertex leaving L_(k+1) has a successor that
    just left L_k, so a round re-tests only those vertices' live predecessors,
    read off ``rev = transpose_rows(g)``: Kahn's (1962) sink removal, in
    batches.  Only the rows are read: no SCCs, no spectra.
    """
    rows = g.rows
    live = (1 << g.n) - 1
    dead = sum(1 << v for v, row in enumerate(rows) if not row)
    while dead:
        live ^= dead
        suspects = 0
        for v in bits_of(dead):
            suspects |= rev[v]
        dead = 0
        for u in bits_of(suspects & live):
            if not rows[u] & live:
                dead |= 1 << u
    return live


class TraceCapError(RuntimeError):
    """The power sequence did not repeat within the configured cap."""


@dataclass(frozen=True)
class PowerTrace:
    """Eventual-periodicity certificate of A^1, A^2, ...

    ``powers[k-1]`` is A^k for k in [1, mu+lam); A^(mu+lam) = A^mu, and
    every exponent L >= mu reduces to mu + ((L - mu) mod lam).
    """

    mu: int
    lam: int
    powers: tuple[Graph, ...]

    def power(self, exponent: int) -> Graph:
        if exponent < 1:
            raise ValueError("exponent must be at least 1")
        if exponent >= self.mu:
            exponent = self.mu + (exponent - self.mu) % self.lam
        return self.powers[exponent - 1]


def power_trace(g: Graph, cap: int | None = None) -> PowerTrace:
    """Find minimal (mu, lam) with A^(mu+lam) = A^mu by hashing powers."""
    if cap is None:
        cap = max(64, g.n * g.n + g.n + 2)
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


class CyclicClasses:
    """A cyclic SCC's period and class sizes, read off the levels of a backward search.

    ``levels[d]`` holds the vertices of the SCC C whose shortest walk to its
    root has d edges.  Two walks between the same vertices of C have lengths
    congruent mod its period p, so every edge u -> w of C has p dividing
    d(w) + 1 - d(u), and p is the gcd of these gaps (Denardo, 1977).  Class
    c holds the vertices with d = -c (mod p), so every edge leads from one
    class to the next, and only the class sizes are kept.
    """

    def __init__(self, rev: Sequence[int], levels: Sequence[int]):
        self.comp = comp = sum(levels)
        self._rev = rev
        depth = {u: d for d, level in enumerate(levels) for u in bits_of(level)}
        into = frontier_step(rev, comp, False)  # u is in into({w}) for each edge u -> w
        # An edge into level d comes from level d + 1 (gap 0) or nearer.
        gaps = (
            d + 1 - depth[u]
            for d, (level, farther) in enumerate(zip(levels, [*levels[1:], 0]))
            for u in bits_of(into(level) & ~farther)
        )
        self.period = p = functools.reduce(math.gcd, gaps, 0)
        self.sizes = [0] * p
        for d, level in enumerate(levels):
            self.sizes[-d % p] += level.bit_count()
        self.class_of = {u: -d % p for u, d in depth.items()}

    @functools.cached_property
    def back_step(self) -> Callable[[int], int]:
        """F -> In(F) & C, by ``orbit_step``: built once, by the first layer that steps."""
        return orbit_step(self._rev, self.comp)


def back_layers(v: int, classes: CyclicClasses, settled: float, length: int) -> list[int]:
    """v's backward layers B_0, ..., B_(length-1), length >= 1: B_0 = {v}, B_(k+1) = In(B_k) & C.

    B_k, the vertices of v's SCC C with a length-k walk to v, lies in the
    class (class(v) - k) mod p, and once it is that whole class, so is every
    later layer.  So the layers are stepped up to the first one as large as
    its class, and never to ``settled``, the stop of C's ``forward_pass``.
    C stands for each later layer: every edge of C leads to the next class,
    so a descent reads the same successors in C as in the full class.
    """
    sizes, c = classes.sizes, classes.class_of[v]  # c: the class of the last layer
    layer, step = 1 << v, None
    layers = [layer]
    for _ in range(min(length, settled) - 1):
        if layer.bit_count() == sizes[c]:
            break
        step = step or classes.back_step  # built by the first layer that steps
        layer = step(layer)
        layers.append(layer)
        c = (c - 1) % classes.period
    return layers + [classes.comp] * (length - len(layers))


def _pass_step(
    rows: Sequence[int], comp: int
) -> tuple[list[int], list[int], Callable[[list[int]], list[int]]]:
    """C's vertices in row order, X_0 and the step X_k -> X_(k+1) of C's ``forward_pass``.

    Block tables step each row by ``orbit_step`` over the forward rows.
    Slot gathers work on local indices: with vertices sorted by out-degree,
    out-degree slot j serves a prefix of them.  X ends with a 0 for no
    vertex, and each column with its index, so every gather returns a tuple.
    """
    if not _gathers_beat_tables(rows, comp):
        step = orbit_step(rows, comp)
        vs = list(bits_of(comp))
        return vs, [1 << v for v in vs], lambda x: list(map(step, x))
    vs = sorted(bits_of(comp), key=lambda v: -(rows[v] & comp).bit_count())
    m = len(vs)
    local = {v: i for i, v in enumerate(vs)}
    succ = [[local[w] for w in bits_of(rows[v] & comp)] for v in vs]
    columns = [[js[slot] for js in succ if len(js) > slot] + [m] for slot in range(len(succ[0]))]
    first, *others = [operator.itemgetter(*col) for col in columns]
    prefixes = [len(col) - 1 for col in columns[1:]]

    def gather(x: list[int]) -> list[int]:
        nxt = list(first(x))
        for slot, c in zip(others, prefixes):
            nxt[:c] = map(operator.or_, nxt[:c], slot(x))
        return nxt

    return vs, [1 << i for i in range(m)] + [0], gather


def forward_pass(rows: Sequence[int], classes: CyclicClasses) -> tuple[int, dict[int, list[int]]]:
    """Where a cyclic SCC's layers settle, and each vertex's hits below it, from one pass.

    X_k[u], the vertices of the SCC C that u reaches by a walk of length k, is
    X_0[u] = {u} and X_(k+1)[u] = Out(X_k[u]) & C, stepped by slot gathers
    or by block tables, whichever ``_gathers_beat_tables`` prices lower.
    X_k[u] lies in the class (class(u) + k) mod p, and a row that fills
    its class stays full, so the pass stops at the first step s where every
    row has as many vertices as its class.  Since v is in X_k[u] exactly
    when u is in v's backward layer B_k, s is the largest settled index of
    C's layers.  A closed walk has a length divisible by p, so the diagonal,
    X_s[u] & X_0[u] in either step's bit layout, is read only at the
    multiples of p below s.  Where every class is one vertex, a plain cycle
    or a looped vertex alone, X_0 has settled: the pass returns at s = 0,
    before it builds a step.
    """
    p, sizes = classes.period, classes.sizes
    if p == len(classes.class_of):
        return 0, {v: [] for v in classes.class_of}
    vs, x, step = _pass_step(rows, classes.comp)
    unit, everyone = x, range(len(vs))
    own = [classes.class_of[v] for v in vs]
    hits: list[list[int]] = [[] for _ in vs]
    s = 0
    while not all(map(operator.eq, map(int.bit_count, x), (sizes[(c + s) % p] for c in own))):
        if s and not s % p:
            for i in itertools.compress(everyone, map(operator.and_, x, unit)):
                hits[i].append(s)
        x = step(x)
        s += 1
    return s, dict(zip(vs, hits))


def strongly_connected_components(g: Graph, rev: Sequence[int]) -> list[list[int]]:
    """The SCCs, each as its levels back from a root, by Kosaraju's two passes.

    Pass 1 is a depth-first search whose next child is the lowest unseen
    successor; it lists the vertices as they finish.  Pass 2 takes them in
    reverse finishing order: the still unassigned vertices that reach one,
    its root, form its SCC, found level by level along ``rev``
    (``transpose_rows(g)``) by ``bfs_levels``.
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
            components.append(list(bfs_levels(rev, 1 << v, within=unassigned)))
            unassigned ^= sum(components[-1])
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


def bfs_levels(rows: Sequence[int], start: int, within: int = -1) -> Iterator[int]:
    """Level d: the vertices d steps from the mask ``start`` along ``rows``, within ``within``."""
    step = frontier_step(rows, within, False)
    reached = level = start
    while level:
        yield level
        level = step(level) & ~reached
        reached |= level
