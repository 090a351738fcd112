"""Diagonal sets on finite digraphs, with per-vertex inequality witnesses.

Four constructions, each provably unequal to every outgoing set Out(v):

* D     -- the unlooped vertices: D_S of {0}
* Dn    -- vertices with no closed walk of length n+1: D_S of {n}
* Dinf  -- vertices from which no infinite walk starts
* DS    -- vertices with no closed walk of length n+1 for any n in a
           fixed nonempty ultimately periodic set S

``GraphAnalysis.verify_unequal`` turns the inequality into checked
artifacts: for every vertex it compares the diagonal set against Out(v)
directly *and* emits a witness in their symmetric difference, re-validated
against the computed sets.  A witness that fails validation, or an
equality, raises ``TheoremViolationError``: both are impossible unless the
implementation is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .graph import Graph, VertexSet
from .upsets import UPSet
from .walks import (
    CyclicClasses,
    back_layers,
    bfs_levels,
    forward_pass,
    long_walk_starts,
    mat_mul_bool,
    mat_pow_bool,
    strongly_connected_components,
    transpose_rows,
)

# Longest walk evidence materialized, in vertices.  Witnesses for larger
# walk lengths keep their membership claims but omit the explicit walk.
EVIDENCE_CAP = 10_000

# The spectrum of every vertex that no closed walk passes through.
_NO_CLOSED_WALK = UPSet.empty()


class TheoremViolationError(RuntimeError):
    """A diagonal set matched an outgoing set, or a witness failed validation.

    Either event is an implementation-bug signal, never a report entry.
    """


class InternalDisagreementError(RuntimeError):
    """Two redundant computation routes disagreed (implementation bug)."""


class Side(str, Enum):
    OUT_MINUS_DX = "OutMinusDx"
    DX_MINUS_OUT = "DxMinusOut"


# Read once: each ``Side.X`` read is a Python-level descriptor call.
_OUT_MINUS_DX, _DX_MINUS_OUT = Side.OUT_MINUS_DX, Side.DX_MINUS_OUT


@dataclass(frozen=True)
class Evidence:
    """Walk evidence: a closed walk, or a finite prefix entering a cycle."""

    vertices: tuple[int, ...]
    infinite_tail: bool = False


@dataclass(frozen=True)
class Witness:
    """A vertex in the symmetric difference of a diagonal set and Out(against)."""

    vertex: int
    side: Side
    against: int
    evidence: Evidence | None = None


@dataclass(frozen=True)
class DiagonalSpec:
    """Which diagonal set to build: D, Dn(n), Dinf, or DS(S)."""

    kind: str
    n: int | None = None
    s: UPSet | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("D", "Dn", "Dinf", "DS"):
            raise ValueError(f"unknown diagonal kind {self.kind!r}")
        if self.kind == "Dn":
            if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
                raise ValueError(f"Dn requires an integer n >= 1 (D covers n = 0), got {self.n!r}")
        elif self.n is not None:
            raise ValueError(f"{self.kind} takes no n parameter")
        if self.kind == "DS":
            if not isinstance(self.s, UPSet):
                raise ValueError(f"DS requires a UPSet length set, got {type(self.s).__name__}")
            if self.s.is_empty():
                raise ValueError("DS requires a nonempty length set")
        elif self.s is not None:
            raise ValueError(f"{self.kind} takes no S parameter")

    # D, each Dn and Dinf are built once per process, so every analysis
    # reads one copy of their cached length sets.  typed: Dn(True) is not Dn(1).
    @classmethod
    @lru_cache(maxsize=None)
    def d(cls) -> DiagonalSpec:
        return cls("D")

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def dn(cls, n: int) -> DiagonalSpec:
        return cls("Dn", n=n)

    @classmethod
    @lru_cache(maxsize=None)
    def dinf(cls) -> DiagonalSpec:
        return cls("Dinf")

    @classmethod
    def ds(cls, s: UPSet) -> DiagonalSpec:
        return cls("DS", s=s)

    @cached_property
    def lengths(self) -> UPSet | None:
        """The S of D_S: {0} for D, {n} for Dn, S itself for DS, None for Dinf."""
        return UPSet.from_finite([self.n or 0]) if self.kind in ("D", "Dn") else self.s

    @cached_property
    def walk_lengths(self) -> UPSet | None:  # S+1, the lengths of violating closed walks
        return None if self.lengths is None else self.lengths.shift(1)

    def label(self) -> str:
        if self.kind == "Dn":
            return f"Dn({self.n})"
        if self.kind == "DS":
            return f"DS({self.s.literal()})"
        return self.kind


def diagonal_n(g: Graph, n: int) -> VertexSet:
    """Vertices with no closed walk of length n+1, for n >= 1."""
    return GraphAnalysis(g).diagonal_set(DiagonalSpec.dn(n))


def diagonal_inf(g: Graph) -> VertexSet:
    """Vertices from which no infinite walk starts.

    Computed twice, by cycle reachability and by the zero rows of A^|V|,
    read off the walk-count fixpoint of ``long_walk_starts``; the routes
    must agree or the call aborts.
    """
    return GraphAnalysis(g).diagonal_set(DiagonalSpec.dinf())


def diagonal_S(g: Graph, s: UPSet) -> VertexSet:
    """Vertices whose closed-walk spectrum avoids {n+1 | n in S}.

    A closed walk of length 1 is exactly a self-loop, so this uniform rule
    also covers the 0-in-S clause of the definition.
    """
    return GraphAnalysis(g).diagonal_set(DiagonalSpec.ds(s))


def verify_battery(
    g: Graph, specs: Iterable[DiagonalSpec]
) -> list[tuple[DiagonalSpec, VertexSet, list[Witness]]]:
    """Run GraphAnalysis.verify_unequal for many specs sharing one analysis."""
    return GraphAnalysis(g).verify_battery(specs)


# The chain check covers D_n for n in 0..CHAIN_N_MAX in reports and sweeps.
CHAIN_N_MAX = 8


def inclusion_chain_check(
    g: Graph, n_max: int, s_samples: Iterable[UPSet] = ()
) -> ChainReport:
    """Check Dinf <= Dn <= D for n in 1..n_max and the intersection identities."""
    return GraphAnalysis(g).inclusion_chain_check(n_max, s_samples)


def _descend(g: Graph, layers: Sequence[int], start: int, length: int) -> Iterator[int]:
    """The least walk of the given length from start into layers[0], smallest step first.

    ``layers[k]`` holds the vertices with a length-k walk into layers[0].
    The walk is yielded vertex by vertex, start first; every caller reads all of it.
    """
    u = start
    yield u
    for remaining in range(length - 1, -1, -1):
        nxt = g.rows[u] & layers[remaining]
        if not nxt:
            raise InternalDisagreementError(
                f"no continuation at step {length - remaining} of a length-{length} "
                f"descent from {start}"
            )
        u = (nxt & -nxt).bit_length() - 1
        yield u


class GraphAnalysis:
    """The per-graph facts behind every diagonal set and witness, each computed once.

    Each fact is computed on first read and kept: the transposed rows,
    the cyclic SCCs and their cyclic classes (one Kosaraju pass, whose
    levels give both), the cyclic set and the levels of one
    breadth-first search back from it, each SCC's settled index, the
    spectra, the vertices of each distinct spectrum and one entry per
    length set S (None for Dinf): its violation table and its set.  No
    matrix power is kept: the chain check makes the ones it reads in one
    walk and drops them.  The independent routes run once per analysis:
    Dinf by the levels and by the zero rows of A^|V|, and in the chain
    check D_n and D_S from the spectra and from the loops of powers.

    The first vertex of an SCC that needs a spectrum runs the SCC's one
    ``forward_pass``: every spectrum of the SCC, and its settled index, the
    largest of its backward layers.  A vertex on no closed walk has the
    empty spectrum and no layers.  Equal spectra are one object, built
    once.  S's entry, built in ``_answer``, maps each to its shortest
    violation of S+1, and D_S holds the spectra with none: the diagonal
    sets, the battery and the chain check's bound work per distinct
    spectrum.  The battery runs vertex by vertex and once per distinct
    length set S: one row of shortest violations per (spectrum, in Dinf or
    not), one check per set and witness column.  An unlooped vertex lists
    its backward layers once, to its longest kept walk, and each witness
    walk descends that list: one per distinct shortest violation, shared by
    every spec with that violation.  Dinf tails descend the levels.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._spectra: list[UPSet | None] = [None] * g.n
        # By length set S (None for Dinf): its violation table and its set, from ``_answer``.
        self._answers: dict[UPSet | None, tuple[dict[UPSet, int | None] | None, VertexSet]] = {}
        self._made: dict = {}  # the spectra, by (p, settled index, hits) and by themselves
        self._settled: dict[CyclicClasses, int] = {}  # per passed SCC: the pass's stop

    @cached_property
    def classes(self) -> list[CyclicClasses | None]:
        """Per vertex, its SCC's cyclic classes if a closed walk passes through it, else None."""
        rows, rev = self.g.rows, self.transposed_rows
        found: list[CyclicClasses | None] = [None] * self.g.n
        for levels in strongly_connected_components(self.g, rev):
            v = levels[0].bit_length() - 1  # the root, alone at level 0
            if len(levels) > 1 or rows[v] >> v & 1:
                classes = CyclicClasses(rev, levels)
                for v in classes.class_of:
                    found[v] = classes
        return found

    @cached_property
    def transposed_rows(self) -> tuple[int, ...]:
        return transpose_rows(self.g)

    @cached_property
    def cyclic(self) -> VertexSet:
        # Each SCC's mask once; distinct SCCs are disjoint.
        return VertexSet(self.g.n, sum(c.comp for c in set(self.classes) - {None}))

    @cached_property
    def cycle_levels(self) -> list[int]:
        """Level d: the vertices whose shortest walk into a cycle has d edges."""
        return list(bfs_levels(self.transposed_rows, self.cyclic.bits))

    @cached_property
    def canreach_cycle(self) -> VertexSet:
        return VertexSet(self.g.n, sum(self.cycle_levels))

    def spectrum(self, v: int) -> UPSet:
        """{L >= 1 : a closed walk of length L passes through v}, off its SCC's forward pass."""
        self.g._check_vertex(v)  # a negative v would index another vertex's classes
        classes = self.classes[v]  # None: no closed walk passes through v
        if classes is None:
            return _NO_CLOSED_WALK
        if self._spectra[v] is None:  # the SCC's one pass gives all its spectra and settled index
            settled, hits = forward_pass(self.g.rows, classes)
            p, start = classes.period, max(settled, 1)
            for u, h in hits.items():  # the hits below the settled index, then every multiple of p
                key = (p, start, tuple(h))  # one build per key, one object per value
                if key not in self._made:
                    made = UPSet(start, p, frozenset({0}), frozenset(h))
                    self._made[key] = self._made.setdefault(made, made)
                self._spectra[u] = self._made[key]
            self._settled[classes] = settled
        return self._spectra[v]

    @property
    def spectra(self) -> list[UPSet]:
        if None in self._spectra:
            self._spectra = [self.spectrum(v) for v in range(self.g.n)]
        return self._spectra

    @cached_property
    def _holders(self) -> dict[UPSet, int]:
        """Each distinct spectrum, with the mask of the vertices that have it."""
        holders: dict[UPSet, int] = {}
        for v, sp in enumerate(self.spectra):
            holders[sp] = holders.get(sp, 0) | 1 << v
        return holders

    def diagonal_set(self, spec: DiagonalSpec) -> VertexSet:
        """The diagonal set of spec, kept per length set S: D and DS({0}) share one."""
        return self._answer(spec)[1]

    def _answer(self, spec: DiagonalSpec) -> tuple[dict[UPSet, int | None] | None, VertexSet]:
        """Per distinct spectrum its shortest violation of S+1 or None, and D_S: once per S."""
        answer = self._answers.get(spec.lengths)
        if answer is None:
            n = self.g.n
            if spec.kind != "Dinf":  # D_S: the holders of the spectra that S+1 does not violate
                table = {sp: sp.min_common(spec.walk_lengths) for sp in self._holders}
                dx = VertexSet(n, sum(m for sp, m in self._holders.items() if table[sp] is None))
            else:  # no table; the set both routes give
                table, dx = None, self.canreach_cycle.complement()
                starts = VertexSet(n, long_walk_starts(self.g, self.transposed_rows))
                if dx != starts.complement():
                    raise InternalDisagreementError(
                        f"infinite-walk routes disagree: scc={dx.to_list()} "
                        f"matrix={starts.complement().to_list()}"
                    )
            answer = self._answers[spec.lengths] = table, dx
        return answer

    def _vertex(self, v: int, tables: Sequence[dict | None], rows: dict) -> list[Witness]:
        """Per length set's violation table from ``_answer`` (None for Dinf), v's witness.

        ``rows`` keeps, per (spectrum, in Dinf or not), the shortest violation
        per table, their distinct values, one witness each, and the longest
        kept walk, as far as v's backward layers are listed, once.
        """
        # Building a table filled every spectrum; a Dinf-only battery builds none, and no pass.
        spectrum = self._spectra[v]
        tail = None if None in tables and v in self.diagonal_set(DiagonalSpec.dinf()) else math.inf
        row = rows.get((spectrum, tail))
        if row is None:  # Dinf's violation is an infinite walk, the others' a closed walk
            shortest = [tail if t is None else t[spectrum] for t in tables]
            distinct = dict.fromkeys(shortest)
            kept = max((m for m in distinct if m is not None and m + 1 <= EVIDENCE_CAP), default=0)
            row = rows[spectrum, tail] = shortest, distinct, kept
        shortest, distinct, kept = row
        classes = self.classes[v]
        listed = kept and not self.g.rows[v] >> v & 1  # a looped vertex walks its loop
        layers = back_layers(v, classes, self._settled[classes], kept) if listed else None
        made = {m: self._witness(v, m, layers) for m in distinct}
        return [made[m] for m in shortest]

    def _witness(self, v: int, length: float | None, layers: list[int] | None) -> Witness:
        """v's witness, given its shortest violation and its backward layers.

        The three-way case split: for D = D_S({0}), v itself, the fixed point.
        ``length`` is None when v is in the diagonal, ``math.inf`` for an
        infinite walk (a Dinf violation), else a closed-walk length.
        """
        g = self.g
        if g.rows[v] >> v & 1:
            # Looped: v itself, pumped around its loop min(S) + 1 times or forever.
            if length == math.inf:
                return Witness(v, _OUT_MINUS_DX, v, Evidence((v,), infinite_tail=True))
            evidence = Evidence((v,) * (length + 1)) if length + 1 <= EVIDENCE_CAP else None
            return Witness(v, _OUT_MINUS_DX, v, evidence)
        if length is None:  # no violation: v is in the diagonal
            return Witness(v, _DX_MINUS_OUT, v, None)
        # Unlooped but outside the diagonal: rotate a violating walk from v.
        if length == math.inf:
            firsts = g.rows[v] & self.canreach_cycle.bits
            if not firsts:
                raise InternalDisagreementError(f"vertex {v} left D_inf without a path to a cycle")
            w = (firsts & -firsts).bit_length() - 1
            levels = self.cycle_levels
            d = next(d for d, level in enumerate(levels) if level >> w & 1)
            # Level d's vertices have no successor nearer than level d - 1.
            tail = tuple(_descend(g, levels, w, d))
            return Witness(w, _OUT_MINUS_DX, v, Evidence(tail, infinite_tail=True))
        # A shortest violating closed walk, rotated to start at its first step.
        if length + 1 <= EVIDENCE_CAP:
            _, first, *rest = _descend(g, layers, v, length)
            return Witness(first, _OUT_MINUS_DX, v, Evidence((first, *rest, first)))
        # Past the cap only the first step is read, a length-1 descent into
        # B_(length-1), for which C stands from the settled index on.
        classes, k = self.classes[v], length - 1
        settled = self._settled[classes]
        last = back_layers(v, classes, settled, length)[k] if k < settled else classes.comp
        _, first = _descend(g, [last], v, 1)
        return Witness(first, _OUT_MINUS_DX, v, None)

    def verify_unequal(self, spec: DiagonalSpec) -> list[Witness]:
        """Assert the diagonal differs from every Out(v) and return validated witnesses."""
        return self.verify_battery((spec,))[0][2]

    def verify_battery(
        self, specs: Iterable[DiagonalSpec]
    ) -> list[tuple[DiagonalSpec, VertexSet, list[Witness]]]:
        """``verify_unequal`` per spec, with the witnesses built vertex by vertex first.

        Each vertex is read once per distinct length set S (None for Dinf),
        not per spec: specs that share S, such as D and DS({0}), share its
        entry (its shortest violations and its set, from ``_answer``) and its
        witnesses.  The first spec of each distinct length set checks them:
        the checks read nothing of a spec but S.
        """
        specs = list(specs)
        g = self.g
        firsts: dict[UPSet | None, DiagonalSpec] = {}  # one spec per length set
        for spec in specs:
            firsts.setdefault(spec.lengths, spec)
        keys = list(firsts.values())
        tables = [self._answer(spec)[0] for spec in keys]
        rows: dict = {}  # this battery's own: a row lists its tables
        witnesses = [self._vertex(v, tables, rows) for v in range(g.n)]
        columns = dict(zip(firsts, zip(*witnesses)))  # by length set
        for spec in keys:
            dx = self.diagonal_set(spec)
            if dx.bits in g.rows:
                raise TheoremViolationError(f"{spec.label()} equals Out({g.rows.index(dx.bits)})")
            for w in columns[spec.lengths]:
                validate_witness(g, spec, dx, w, self.cyclic)
        return [(spec, self.diagonal_set(spec), list(columns[spec.lengths])) for spec in specs]

    def inclusion_chain_check(self, n_max: int, s_samples: Iterable[UPSet] = ()) -> ChainReport:
        """Check Dinf <= Dn <= D for n in 1..n_max and the intersection identities.

        Here the spectra meet matrix powers.  Each D_n (D for n = 0) must be
        the unlooped vertices of A^(n+1), and D_S the intersection of the
        D_n over S, read off powers A^(m+1) for the members m of S.  An
        infinite S is truncated at the largest max(t_v, t_S+1) +
        lcm(d_v, d_S) over the vertices v, with (t_v, d_v) the threshold and
        period of v's spectrum, read once per distinct spectrum; beyond it
        each vertex's violations are periodic, so nothing new can appear.

        The members up to cut = min(bound, max(n_max, t_S - 1)), each one
        up to n_max and each exceptional one, are read one by one.  Past cut
        each residue class of S is one tail: its first member m and the
        J = (bound - m) // d_S after it, read off A^(m+1) (I v A^d_S)^J,
        since (I v B)^J = I v B v ... v B^J in Boolean arithmetic.

        One ascending walk over the exponents read makes every power, each
        from the one before by one product with A^gap.  The walk keeps A^gap
        from where it passes exponent gap to its last use, and
        ``mat_pow_bool`` makes only a gap it never passes; it keeps each
        tail's A^(m+1) and A^d_S to the end.  The walk passes every exponent
        up to n_max + 1, and once a gap-1 product returns its input, A^(k+1)
        = A^k, every later exponent reads A^k, and so does a tail starting
        there: no further product is made.  A primitive A settles at
        all-ones, a nilpotent one at 0.  No power outlives the check.
        """
        if not isinstance(n_max, int) or isinstance(n_max, bool):
            raise ValueError(f"n_max must be an integer, got {n_max!r}")
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        d = self.diagonal_set(DiagonalSpec.d())
        dinf = self.diagonal_set(DiagonalSpec.dinf())
        samples = []  # (D_S, its members read one by one, its tails (m, J), its bound or None)
        held = set()  # the exponents the tails read: each tail's m + 1, and d_S where J >= 1
        for s in s_samples:
            # A finite S lies below its threshold.
            spec, bound, cut, upto = DiagonalSpec.ds(s), None, s.threshold, s.threshold
            if not s.is_finite():
                bound = max(
                    max(sp.threshold, s.threshold + 1) + math.lcm(sp.period, s.period)
                    for sp in self._holders
                )
                cut = min(bound, max(n_max, s.threshold - 1))
                upto = min(bound, cut + s.period)  # the first member past cut of each class
            members = list(s.members_upto(upto))
            tails = [(m, (bound - m) // s.period) for m in members if m > cut]
            held.update(m + 1 for m, _ in tails)
            if any(j for _, j in tails):
                held.add(s.period)
            samples.append((spec, [m for m in members if m <= cut], tails, bound))

        # The walk starts at A^1, which D = D_0 reads.
        walk = sorted({*range(1, n_max + 2), *(m + 1 for _, ms, _, _ in samples for m in ms), *held})
        gaps = [b - a for a, b in zip(walk, walk[1:])]
        last_use = {gap: i for i, gap in enumerate(gaps)}
        last_use.update(dict.fromkeys(held, len(gaps)))  # the tails read theirs after the walk
        power, steps = self.g, {1: self.g}  # steps: A^gap by gap, for the gaps still to read
        settled = math.inf  # the exponent where the powers settle, if they do
        unlooped = {1: power.loops().complement()}
        for i, (k, gap) in enumerate(zip(walk[1:], gaps)):
            step = steps.pop(gap) if gap in steps else mat_pow_bool(self.g, gap)
            if last_use[gap] > i:
                steps[gap] = step
            # Powers of A commute; the sparser step goes on the left.
            product = mat_mul_bool(step, power)
            if gap == 1 and product == power:  # A^k = A^(k-1): so is every later power
                unlooped.update(dict.fromkeys(walk[i + 1 :], unlooped[k - 1]))
                settled = k - 1
                break
            power = product
            if last_use.get(k, -1) > i:
                steps[k] = power
            unlooped[k] = power.loops().complement()

        for n in range(n_max + 1):
            dn = self.diagonal_set(DiagonalSpec.dn(n)) if n else d
            if dn != unlooped[n + 1]:
                raise InternalDisagreementError(f"D_{n} routes disagree: spectra vs A^{n + 1}")
            if n and not dinf.issubset(dn):
                raise TheoremViolationError(f"D_inf is not a subset of D_{n}")
            if n and not dn.issubset(d):
                raise TheoremViolationError(f"D_{n} is not a subset of D")

        finite_ids: list[str] = []
        truncated: list[tuple[str, int]] = []
        reflexive: dict[tuple[int, int], Graph] = {}  # (I v A^d)^J by (d, J)
        for spec, members, tails, bound in samples:
            expected = VertexSet.full(self.g.n)
            for m in members:
                expected &= unlooped[m + 1]
            for m, j in tails:
                if j and m + 1 < settled:
                    key = spec.s.period, j
                    if key not in reflexive:  # a held power past the settle is the last one
                        rows = steps.get(spec.s.period, power).rows
                        loop = Graph(self.g.n, tuple(row | 1 << v for v, row in enumerate(rows)))
                        reflexive[key] = mat_pow_bool(loop, j)
                    expected &= mat_mul_bool(steps[m + 1], reflexive[key]).loops().complement()
                else:
                    expected &= unlooped[m + 1]
            if self.diagonal_set(spec) != expected:
                raise TheoremViolationError(
                    f"D_S for S={spec.s.literal()} differs from the intersection of its D_n"
                )
            if bound is None:
                finite_ids.append(spec.s.literal())
            else:
                truncated.append((spec.s.literal(), bound))
        return ChainReport(
            n_max=n_max,
            inclusions_checked=2 * n_max,
            finite_identities=tuple(finite_ids),
            truncated_identities=tuple(truncated),
        )


def validate_witness(
    g: Graph,
    spec: DiagonalSpec,
    dx: VertexSet,
    witness: Witness,
    cyclic: VertexSet,
) -> None:
    """Re-check every claim a witness makes; a Dinf tail must end in ``cyclic``."""
    u, v = witness.vertex, witness.against
    if not 0 <= v < g.n:
        g._check_vertex(v)
    in_out_v = 0 <= u < g.n and g.rows[v] >> u & 1
    # Bit tests: a VertexSet's bits lie below its width.
    side, ev = witness.side, witness.evidence
    if side is _OUT_MINUS_DX:
        if not in_out_v or dx.bits >> u & 1:
            raise TheoremViolationError(
                f"{spec.label()}: witness {u} not in Out({v}) \\ diagonal"
            )
    elif side is _DX_MINUS_OUT:
        if not (u >= 0 and dx.bits >> u & 1) or in_out_v:
            raise TheoremViolationError(
                f"{spec.label()}: witness {u} not in diagonal \\ Out({v})"
            )
        if ev is not None:
            raise TheoremViolationError(f"{spec.label()}: DxMinusOut witness {u} carries evidence")
    else:
        raise TheoremViolationError(f"{spec.label()}: witness side {side!r} is not a Side")
    if ev is None:
        return
    verts = ev.vertices
    if not verts or verts[0] != u:
        raise TheoremViolationError(f"{spec.label()}: evidence does not start at witness {u}")
    if min(verts) < 0 or max(verts) >= g.n:
        raise TheoremViolationError(f"{spec.label()}: evidence leaves the vertex range [0, {g.n})")
    rows = g.rows
    for a, b in zip(verts, verts[1:]):
        if not rows[a] >> b & 1:
            raise TheoremViolationError(f"{spec.label()}: evidence step {a}->{b} is not an edge")
    if ev.infinite_tail:
        if spec.kind != "Dinf":
            raise TheoremViolationError(f"{spec.label()}: infinite-tail evidence is Dinf-only")
        if not cyclic.bits >> verts[-1] & 1:
            raise TheoremViolationError(
                f"{spec.label()}: tail prefix ends at non-cyclic vertex {verts[-1]}"
            )
        return
    if spec.kind == "Dinf":
        raise TheoremViolationError("Dinf: closed-walk evidence is not meaningful")
    if verts[-1] != u:
        raise TheoremViolationError(f"{spec.label()}: closed-walk evidence does not return to {u}")
    length = len(verts) - 1
    if not spec.lengths.member(length - 1):
        raise TheoremViolationError(f"{spec.label()}: evidence length {length} has no n in S")


def default_spec_battery() -> list[DiagonalSpec]:
    """The standard verification battery: D, Dn for n in 1..6, Dinf, five S."""
    evens = UPSet(0, 2, frozenset({0}))
    odds = UPSet(0, 2, frozenset({1}))
    specs = [DiagonalSpec.d()]
    specs += [DiagonalSpec.dn(n) for n in range(1, 7)]
    specs.append(DiagonalSpec.dinf())
    specs += [
        DiagonalSpec.ds(UPSet.from_finite([0])),
        DiagonalSpec.ds(UPSet.from_finite([1])),
        DiagonalSpec.ds(UPSet.from_finite([0, 2])),
        DiagonalSpec.ds(evens),
        DiagonalSpec.ds(odds),
    ]
    return specs


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the inclusion and intersection identity checks."""

    n_max: int
    inclusions_checked: int
    finite_identities: tuple[str, ...]
    truncated_identities: tuple[tuple[str, int], ...]
    ok: bool = True

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "inclusions_checked": self.inclusions_checked,
            "finite_identities": list(self.finite_identities),
            "truncated_identities": [
                {"s": lit, "bound": bound} for lit, bound in self.truncated_identities
            ],
            "ok": self.ok,
        }


def distinct_out_count(g: Graph) -> tuple[int, int]:
    """(number of distinct outgoing sets, graph order); the count never exceeds the order."""
    return len(set(g.rows)), g.n
