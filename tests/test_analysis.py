"""GraphAnalysis: one per-graph cache that every entry point reads."""

import functools
import math
import operator
import weakref
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagsets import diagonals, walks
from diagsets.diagonals import (
    DiagonalSpec,
    Evidence,
    GraphAnalysis,
    InternalDisagreementError,
    Side,
    Witness,
    default_spec_battery,
)
from diagsets.graph import VertexSet, make_graph
from diagsets.graphio import gen_random
from diagsets.report import analyze_graph
from diagsets.upsets import UPSet, parse_upset
from diagsets.walks import power_trace, spectra_from_trace

from strategies import graphs

EVENS = UPSet(0, 2, frozenset({0}))

# Cycles of lengths 2 and 3 joined by a path, plus a looped tail that 7
# reaches through 5: every spec has members inside and outside its set.
TWO_CYCLES = make_graph(
    8, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6), (6, 6), (7, 5)]
)

# A 20-cycle with the chord 19 -> 1: one SCC of 20 vertices and 21 edges,
# whose forward pass the cost rule steps by slot gathers.
CHORDED_CYCLE = make_graph(20, [(i, (i + 1) % 20) for i in range(20)] + [(19, 1)])


def _count_calls(monkeypatch, calls, name):
    """Count calls of ``name`` made through the walks and diagonals bindings."""
    for module in (walks, diagonals):
        original = getattr(module, name, None)
        if original is None:
            continue

        def counted(*args, _original=original, **kwargs):
            calls[name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def _count_orbit_steps(monkeypatch, calls):
    """Count ``orbit_step`` builds, and every call of the step functions they return."""
    original = walks.orbit_step

    def counted(*args):
        calls["orbit_step"] += 1
        step = original(*args)

        def counted_step(frontier):
            calls["orbit steps"] += 1
            return step(frontier)

        return counted_step

    monkeypatch.setattr(walks, "orbit_step", counted)


def _count_layer_starts(monkeypatch):
    """B_0 of every list of backward layers the analysis makes, in order."""
    starts = []
    original = walks.back_layers

    def counted(v, *args):
        starts.append(1 << v)
        return original(v, *args)

    monkeypatch.setattr(diagonals, "back_layers", counted)
    return starts


def test_analyze_graph_computes_each_per_graph_fact_once(monkeypatch):
    g = TWO_CYCLES
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "strongly_connected_components")
    _count_calls(monkeypatch, calls, "forward_pass")
    _count_orbit_steps(monkeypatch, calls)
    starts = _count_layer_starts(monkeypatch)
    _count_calls(monkeypatch, calls, "transpose_rows")
    _count_calls(monkeypatch, calls, "mat_mul_bool")
    _count_calls(monkeypatch, calls, "mat_pow_bool")

    report = analyze_graph(
        g, n_values=(1, 2), s_sets=(EVENS, UPSet.from_finite([0, 2])), include_spectra=True
    )

    assert report["chain"]["ok"]
    assert calls["strongly_connected_components"] == 1
    # One forward pass per cyclic SCC gives all its spectra: {0, 1},
    # {2, 3, 4} and {6}.  One list of backward layers per unlooped cyclic
    # vertex; the looped 6 walks its loop, and the acyclic vertices 5 and 7
    # take the empty spectrum and list no layers.
    assert calls["forward_pass"] == 3
    assert sorted(starts) == [1 << v for v in range(5)]
    # Each SCC is a plain cycle, settled at X_0: its pass returns before
    # it builds a step, and the layers build none.
    assert calls["orbit_step"] == 0
    assert calls["transpose_rows"] == 1
    # A^2, ..., A^9 for the chain, one product each: the 2- and 3-cycles
    # keep the powers changing.  The evens stop at bound 7, so every power
    # they read is one of those.  Building any A^k twice, or by squaring,
    # breaks this count.
    assert calls["mat_mul_bool"] == 8
    assert calls["mat_pow_bool"] == 0
    # The passes step as often as for the spectra alone, and every witness
    # walk reads the layers without a step of its own.  The Dinf tails
    # descend the cycle levels: 7's tail 5 -> 6 goes from level 1 to 0.
    analyze_steps = calls["orbit steps"]
    GraphAnalysis(g).spectra
    assert analyze_steps == calls["orbit steps"] - analyze_steps
    assert report["specs"][3]["witnesses"][7]["evidence"] == {"infinite_tail": [5, 6]}  # Dinf


def test_a_plain_cycle_steps_no_layer(monkeypatch):
    # Each vertex of a 5-cycle is its own cyclic class, so its layers are
    # settled at B_0 = {v}: its spectrum and its witness walks read the
    # classes, and no layer is ever stepped.
    g = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    calls: Counter = Counter()
    _count_orbit_steps(monkeypatch, calls)
    analysis = GraphAnalysis(g)
    assert not walks._gathers_beat_tables(g.rows, (1 << 5) - 1)  # the pass's table step
    battery = analysis.verify_battery([*default_spec_battery(), DiagonalSpec.dn(10**9 + 4)])
    assert analysis.spectra == [UPSet(1, 5, frozenset({0}))] * 5
    assert battery[-1][2][0].evidence is None  # past the evidence cap
    assert battery[4][2][2].evidence == Evidence((3, 4, 0, 1, 2, 3))  # Dn(4) at 2
    assert calls["orbit steps"] == 0


def test_dinf_alone_builds_no_spectrum(monkeypatch):
    # Dinf reads no closed-walk length, so it runs no SCC's forward pass and
    # steps no orbit: its tails descend the levels of one breadth-first
    # search back from the cycles.
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 2), (4, 4)])
    calls: Counter = Counter()
    _count_orbit_steps(monkeypatch, calls)
    _count_calls(monkeypatch, calls, "forward_pass")
    _count_calls(monkeypatch, calls, "bfs_levels")
    analysis = GraphAnalysis(g)
    witnesses = analysis.verify_unequal(DiagonalSpec.dinf())
    assert witnesses[0].evidence.vertices == (1, 2)  # 0's tail goes from level 1 to level 0
    assert analysis.cycle_levels == [0b11100, 0b00010, 0b00001]
    assert analysis.verify_unequal(DiagonalSpec.dinf())[0] == witnesses[0]
    # Kosaraju's second pass sums levels once per SCC ({0}, {1}, {2, 3}
    # and {4}), and the cycles' levels are searched once.
    assert calls == {"bfs_levels": 5}


def test_forward_pass_route_reads_orbits_only_below_its_start(monkeypatch):
    # Wielandt-16: one SCC of 16 vertices and 17 edges, whose forward pass
    # the cost rule steps by slot gathers.  Its classes take over from walk
    # length 226 = 15^2 + 1 on.
    g = make_graph(16, [(i, i + 1) for i in range(15)] + [(15, 0), (15, 1)])
    calls: Counter = Counter()
    _count_orbit_steps(monkeypatch, calls)
    _count_calls(monkeypatch, calls, "forward_pass")
    analysis = GraphAnalysis(g)
    huge = analysis.verify_unequal(DiagonalSpec.dn(10**9 + 7))
    assert calls["forward_pass"] == 1
    # The spectra come from the gathers and each first step from a class,
    # so no vertex's orbit is made.
    assert calls["orbit_step"] == 0
    assert [w.vertex for w in huge] == [*range(1, 16), 0]  # the least successor: 0 for v = 15
    # The shortest odd closed walks, of length 15 (31 through vertex 0),
    # descend the vertices' own orbits, each only as far as it reads.
    analysis.verify_unequal(DiagonalSpec.ds(UPSet(0, 2, frozenset({0}))))
    assert calls["forward_pass"] == 1
    assert calls["orbit steps"] == 15 * 14 + 30


def test_chain_check_reads_each_power_off_the_previous_one(monkeypatch):
    # The 2- and 3-cycles make the powers of TWO_CYCLES repeat with period
    # 6, so no power equals the one before it.
    analysis = GraphAnalysis(TWO_CYCLES)
    analysis.diagonal_set(DiagonalSpec.dinf())  # no matrix product
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "mat_mul_bool")
    _count_calls(monkeypatch, calls, "mat_pow_bool")
    analysis.inclusion_chain_check(8)
    assert calls == {"mat_mul_bool": 8}  # A^2, ..., A^9, one product each


def test_chain_check_builds_its_specs_once_per_process(monkeypatch):
    GraphAnalysis(TWO_CYCLES).inclusion_chain_check(8)
    built = []
    post_init = DiagonalSpec.__post_init__

    def recorded(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DiagonalSpec, "__post_init__", recorded)
    GraphAnalysis(CHORDED_CYCLE).inclusion_chain_check(8)
    assert built == []  # D, Dinf and D_1..D_8 come from the first check


def test_chain_check_reads_memoised_powers_for_members_of_s(monkeypatch):
    analysis = GraphAnalysis(TWO_CYCLES)  # whose powers never settle
    analysis.diagonal_set(DiagonalSpec.dinf())
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "mat_mul_bool")
    _count_calls(monkeypatch, calls, "mat_pow_bool")
    report = analysis.inclusion_chain_check(8, [UPSet.from_finite([0, 2])])
    assert report.finite_identities == ("finite(0,2)",)
    assert calls == {"mat_mul_bool": 8}  # D_0 and D_2 read A^1 and A^3 too


def test_dn_at_a_huge_n_makes_no_matrix_product(monkeypatch):
    g = gen_random(40, 0.08, 7, "allow")
    n = 10**9 + 7
    expected = power_trace(g).power(n + 1).loops().complement()
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "mat_mul_bool")
    _count_calls(monkeypatch, calls, "mat_pow_bool")
    assert GraphAnalysis(g).diagonal_set(DiagonalSpec.dn(n)) == expected
    assert 0 < len(expected) < g.n
    assert not calls


def test_dinf_catches_routes_that_disagree(monkeypatch):
    g = make_graph(3, [(0, 1), (1, 2), (2, 2)])  # every vertex starts an infinite walk
    monkeypatch.setattr(diagonals, "long_walk_starts", lambda g, rev: 0b011)
    with pytest.raises(InternalDisagreementError, match="infinite-walk routes disagree"):
        GraphAnalysis(g).diagonal_set(DiagonalSpec.dinf())


def test_chain_check_catches_a_spectrum_that_disagrees_with_the_powers():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    analysis = GraphAnalysis(g)
    analysis.spectra[0] = UPSet.empty()  # 0 lies on the 3-cycle: A^3 has its loop
    with pytest.raises(InternalDisagreementError, match="D_2 routes disagree"):
        analysis.inclusion_chain_check(8)


@given(graphs(max_order=6))
@settings(max_examples=40)
def test_ds_set_and_witness_lengths_read_the_shortest_violations(g):
    analysis = GraphAnalysis(g)
    for spec in default_spec_battery():
        if spec.kind != "DS":
            continue
        shortest = [sp.min_common(spec.walk_lengths) for sp in analysis.spectra]
        assert analysis.diagonal_set(spec).to_list() == [
            v for v, m in enumerate(shortest) if m is None
        ]
        for v in range(g.n):
            w = analysis.verify_unequal(spec)[v]
            if g.has_edge(v, v) or shortest[v] is None or w.evidence is None:
                continue
            assert w.side is Side.OUT_MINUS_DX
            assert len(w.evidence.vertices) - 1 == shortest[v]


@given(graphs(max_order=12))
@settings(max_examples=40)
def test_vertex_major_battery_equals_one_spec_at_a_time(g):
    # D and DS(finite(0)) share the length set {0}, Dn(1) and DS(finite(1))
    # share {1}: the battery does their work once, a fresh analysis twice.
    specs = [*default_spec_battery(), DiagonalSpec.dn(10**9 + 7)]
    assert len({spec.lengths for spec in specs}) == len(specs) - 2
    single = []
    for spec in specs:
        analysis = GraphAnalysis(g)  # fresh: spectra first, then lazily read layers
        single.append((spec, analysis.diagonal_set(spec), analysis.verify_unequal(spec)))
    battery = GraphAnalysis(g).verify_battery(specs)
    assert battery == single
    by_label = {spec.label(): (dx, witnesses) for spec, dx, witnesses in battery}
    assert by_label["DS(finite(0))"] == by_label["D"]
    assert by_label["DS(finite(1))"] == by_label["Dn(1)"]


def test_a_wrong_witness_in_a_shared_column_names_the_first_spec_of_its_length_set(monkeypatch):
    # D and DS(finite(0)) share the length set {0}, its set and its column,
    # which the battery checks once, under D, the first spec that has it.
    vertex = GraphAnalysis._vertex
    flipped = {Side.OUT_MINUS_DX: Side.DX_MINUS_OUT, Side.DX_MINUS_OUT: Side.OUT_MINUS_DX}

    def planted(self, v, *args):
        witnesses = vertex(self, v, *args)
        if v == 2 and witnesses:  # column 0 is D's, the first length set
            w = witnesses[0]
            witnesses = [Witness(w.vertex, flipped[w.side], w.against, w.evidence), *witnesses[1:]]
        return witnesses

    monkeypatch.setattr(GraphAnalysis, "_vertex", planted)
    specs = default_spec_battery()
    assert specs[0] == DiagonalSpec.d() and DiagonalSpec.ds(UPSet.from_finite([0])) in specs
    with pytest.raises(diagonals.TheoremViolationError, match=r"^D: witness 2 not in Out\(2\)"):
        GraphAnalysis(TWO_CYCLES).verify_battery(specs)


@given(graphs(max_order=8))
@settings(max_examples=40)
def test_a_spec_listed_twice_gets_two_equal_entries(g):
    d, dn2 = DiagonalSpec.d(), DiagonalSpec.dn(2)
    first, second, third = GraphAnalysis(g).verify_battery([d, dn2, d])
    fresh = GraphAnalysis(g)
    assert first == third == (d, fresh.diagonal_set(d), fresh.verify_unequal(d))
    assert first[2] is not third[2]  # each entry owns its list
    assert second == (dn2, *GraphAnalysis(g).verify_battery([dn2])[0][1:])


@given(graphs(max_order=10))
@settings(max_examples=40)
def test_a_second_battery_on_one_analysis_equals_a_fresh_analysis(g):
    # The second battery's length sets differ from the first's, and come in
    # another order, so it must not read the first battery's rows.
    analysis = GraphAnalysis(g)
    analysis.verify_battery(default_spec_battery())
    odds = UPSet(0, 2, frozenset({1}))
    other = [DiagonalSpec.dinf(), DiagonalSpec.ds(odds), DiagonalSpec.dn(3), DiagonalSpec.d()]
    assert analysis.verify_battery(other) == GraphAnalysis(g).verify_battery(other)
    assert analysis.verify_battery(other[:1]) == GraphAnalysis(g).verify_battery(other[:1])


def test_specs_with_one_shortest_violation_share_one_witness():
    odds = UPSet(0, 2, frozenset({1}))
    specs = [
        DiagonalSpec.d(),
        DiagonalSpec.dn(1),
        DiagonalSpec.ds(odds),
        DiagonalSpec.ds(UPSet.from_finite([0])),
    ]
    (_, _, d), (_, _, dn1), (_, _, ds_odds), (_, _, d0) = GraphAnalysis(
        TWO_CYCLES
    ).verify_battery(specs)
    assert all(a is b for a, b in zip(d, d0))  # one length set {0}
    # 0's shortest violation of both {1} and the odds is the 2-cycle.
    assert dn1[0] is ds_odds[0]
    assert dn1[0].evidence == Evidence((1, 0, 1))
    # 2 lies on the 3-cycle only, so neither {0} nor {1} is violated there.
    assert d[2] is dn1[2]
    assert d[2] == Witness(2, Side.DX_MINUS_OUT, 2, None)
    assert ds_odds[2].evidence == Evidence((3, 4, 2, 3, 4, 2, 3))  # length 6


@pytest.mark.parametrize("g", [TWO_CYCLES, CHORDED_CYCLE, gen_random(24, 0.15, 3, "allow")])
def test_one_witness_and_at_most_one_descent_per_vertex_and_length(monkeypatch, g):
    made = []
    witness = GraphAnalysis._witness

    def recorded(self, v, length, layers):
        made.append((v, length))
        return witness(self, v, length, layers)

    monkeypatch.setattr(GraphAnalysis, "_witness", recorded)
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "_descend")
    min_common = UPSet.min_common

    def counted_min_common(self, other):
        calls["min_common"] += 1
        return min_common(self, other)

    monkeypatch.setattr(UPSet, "min_common", counted_min_common)
    specs = [*default_spec_battery(), DiagonalSpec.dn(10**9 + 7)]
    analysis = GraphAnalysis(g)
    battery = analysis.verify_battery(specs)
    # One shortest violation per distinct spectrum and distinct length set of a closed walk.
    lengths = {spec.lengths for spec in specs} - {None}
    assert calls["min_common"] == len(lengths) * len(set(analysis.spectra)) < len(lengths) * g.n
    assert len(made) == len(set(made)) < len(specs) * g.n
    # Only an unlooped vertex outside a diagonal descends, once per length.
    walks_made = [(v, m) for v, m in made if m is not None and not g.has_edge(v, v)]
    assert calls["_descend"] == len(walks_made)
    assert sum(len(witnesses) for _, _, witnesses in battery) == len(specs) * g.n


def test_witness_of_a_looped_vertex_follows_its_length():
    g = make_graph(2, [(0, 0), (0, 1)])
    analysis = GraphAnalysis(g)
    tail = analysis._witness(0, math.inf, None)  # a looped vertex reads no layer
    assert tail == Witness(0, Side.OUT_MINUS_DX, 0, Evidence((0,), infinite_tail=True))
    pumped = analysis._witness(0, 3, None)
    assert pumped == Witness(0, Side.OUT_MINUS_DX, 0, Evidence((0, 0, 0, 0)))
    for spec, w in ((DiagonalSpec.dinf(), tail), (DiagonalSpec.dn(2), pumped)):
        diagonals.validate_witness(g, spec, analysis.diagonal_set(spec), w, analysis.cyclic)


def test_walks_past_the_evidence_cap_keep_their_first_step(monkeypatch):
    # Wielandt-k, a k-cycle with the chord k-1 -> 1, settles at (k-1)^2 + 1:
    # 65 for k = 9 and 530 for k = 24.  Under a cap of 30, Dn(n) for n up to
    # 118 walks past the cap both below and at or above the settled index.
    chords = [(k, [(i, (i + 1) % k) for i in range(k)] + [(k - 1, 1)]) for k in (9, 13, 24)]
    wielandt = [make_graph(k, edges) for k, edges in chords]
    randoms = [gen_random(n, 0.15, seed, "allow") for n, seed in zip(range(12, 32, 2), range(10))]
    specs = [DiagonalSpec.dn(n) for n in range(1, 120, 3)]
    below = set()  # per walk past the cap from an unlooped vertex: is B_(length-1) stepped?
    for g in wielandt + randoms:
        real = GraphAnalysis(g).verify_battery(specs)
        with monkeypatch.context() as patch:
            patch.setattr(diagonals, "EVIDENCE_CAP", 30)
            analysis = GraphAnalysis(g)
            capped = analysis.verify_battery(specs)
        for (spec, dx, witnesses), (_, real_dx, real_witnesses) in zip(capped, real):
            length = spec.n + 1  # of every violating closed walk
            assert dx == real_dx
            for w, r in zip(witnesses, real_witnesses):
                assert (w.vertex, w.side, w.against) == (r.vertex, r.side, r.against)
                diagonals.validate_witness(g, spec, dx, w, analysis.cyclic)
                closed = w.side is Side.OUT_MINUS_DX
                assert (w.evidence is None) == (not closed or length + 1 > 30)
                if w.evidence is not None:
                    assert w.evidence == r.evidence
                elif closed and not g.has_edge(w.against, w.against):
                    classes = analysis.classes[w.against]
                    below.add(length - 1 < analysis._settled[classes])
    assert below == {True, False}


def test_dn_matches_the_trace():
    g = gen_random(12, 0.2, 5, "allow")
    trace = power_trace(g)
    spec = DiagonalSpec.dn(6)
    assert GraphAnalysis(g).diagonal_set(spec) == trace.power(7).loops().complement()


def test_chain_walk_makes_the_gaps_it_never_passes_and_matches_the_trace(monkeypatch):
    # Past A^9 the walk reads A^37 for up(t=30,...) and A^41 for
    # finite(0,40): the gap 28 is no exponent the walk passes, so
    # mat_pow_bool makes it.  The powers of TWO_CYCLES never settle, so
    # the walk reads every one of them.
    g = TWO_CYCLES
    samples = [parse_upset("finite(0,40)"), parse_upset("up(t=30,d=12,r=0|5)")]
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "mat_pow_bool")
    analysis = GraphAnalysis(g)
    report = analysis.inclusion_chain_check(8, samples)
    assert calls["mat_pow_bool"] == 1
    assert report.finite_identities == ("finite(0,40)",)
    ((literal, bound),) = report.truncated_identities
    assert literal == samples[1].literal()
    trace = power_trace(g)
    for s, upto in zip(samples, (40, bound)):
        expected = VertexSet.full(g.n)
        for m in s.members_upto(upto):
            expected &= trace.power(m + 1).loops().complement()
        assert analysis.diagonal_set(DiagonalSpec.ds(s)) == expected


def test_chain_check_keeps_no_product_alive(monkeypatch):
    analysis = GraphAnalysis(TWO_CYCLES)  # whose powers never settle
    products = []
    for module in (walks, diagonals):

        def kept(a, b, _original=module.mat_mul_bool):
            product = _original(a, b)
            products.append(weakref.ref(product))
            return product

        monkeypatch.setattr(module, "mat_mul_bool", kept)
    analysis.inclusion_chain_check(8, [EVENS, parse_upset("finite(0,40)")])
    assert len(products) > 8
    assert all(ref() is None for ref in products)


@pytest.mark.parametrize(
    ("g", "samples", "products"),
    [
        # All-ones: A^2 = A.
        (make_graph(4, [(a, b) for a in range(4) for b in range(4)]), [], 1),
        # A 5-vertex path: A^2, ..., A^6 = A^5 = 0, and no product for A^7 to A^9.
        (make_graph(5, [(i, i + 1) for i in range(4)]), [], 5),
        (gen_random(12, 0.3, 3, "allow"), [EVENS, parse_upset("finite(0,40)")], 5),
        # A^4 = A^3, which A^37 and A^42 read too: no gap is made.
        (gen_random(12, 0.3, 11, "allow"), [parse_upset("up(t=30,d=12,r=0|5)")], 3),
    ],
)
def test_chain_check_stops_multiplying_where_the_powers_settle(monkeypatch, g, samples, products):
    trace = power_trace(g)
    assert trace.lam == 1 and trace.mu == products  # A^(mu+1) = A^mu
    analysis = GraphAnalysis(g)
    analysis.diagonal_set(DiagonalSpec.dinf())
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "mat_mul_bool")
    _count_calls(monkeypatch, calls, "mat_pow_bool")
    assert analysis.inclusion_chain_check(8, samples).ok
    assert calls == {"mat_mul_bool": products}


def test_chain_check_settles_only_on_a_gap_1_product():
    # A 2-cycle's powers alternate.  The walk makes A^11 = A^2 A^9 = A^9 by
    # a gap of 2, yet A^12 differs from A^11, which the identity reads.
    g = make_graph(2, [(0, 1), (1, 0)])
    report = GraphAnalysis(g).inclusion_chain_check(8, [UPSet.from_finite([10, 11])])
    assert report.finite_identities == ("finite(10,11)",)


def _toggled(sp, length):
    """The spectrum sp with the one walk length ``length`` added or removed."""
    t = max(sp.threshold, length + 1)
    below = {m for m in range(t) if sp.member(m)} ^ {length}
    return UPSet(t, sp.period, sp.residues, frozenset(below))


def test_chain_check_catches_a_spectrum_planted_wrong_past_the_fixpoint():
    # The powers of a loopless K_3 settle at A^2 = A^3, all-ones, so A^8 is read off A^2.
    g = make_graph(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    analysis = GraphAnalysis(g)
    assert analysis.spectra[0] == UPSet(2, 1, frozenset({0}))
    analysis.spectra[0] = _toggled(analysis.spectra[0], 8)
    with pytest.raises(InternalDisagreementError, match="D_7 routes disagree"):
        analysis.inclusion_chain_check(8)


@given(graphs(max_order=8), st.data())
@settings(max_examples=80)
def test_chain_check_catches_one_length_toggled_whether_or_not_the_powers_settle(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    length = data.draw(st.integers(1, 9))
    analysis = GraphAnalysis(g)
    analysis.spectra[v] = _toggled(analysis.spectra[v], length)
    with pytest.raises(InternalDisagreementError, match=f"D_{length - 1} routes disagree"):
        analysis.inclusion_chain_check(8)


# A 5-cycle blown up 20-fold: 100 vertices with one spectrum, the multiples of 5.
BLOWUP_5X20 = make_graph(
    100, [(c * 20 + a, (c + 1) % 5 * 20 + b) for c in range(5) for a in range(20) for b in range(20)]
)


# A 2-cycle and a 3-cycle sharing the edge 0 -> 1: the layers of 0 and 1
# settle at different indices into one spectrum, {2, 3, ...}.
SHARED_EDGE = make_graph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])


@pytest.mark.parametrize("g", [BLOWUP_5X20, gen_random(64, 0.5, 2, "allow"), SHARED_EDGE])
def test_an_analysis_builds_each_spectrum_once_and_keeps_it_only_itself(monkeypatch, g):
    made = []
    post_init = UPSet.__post_init__

    def recorded(self):
        made.append((self.threshold, self.period, self.residues, self.exceptional))
        post_init(self)

    monkeypatch.setattr(UPSet, "__post_init__", recorded)
    first = GraphAnalysis(g).spectra
    # Equal spectra are one object, and each constructor input is built once.
    assert len(set(map(id, first))) == len(set(first)) < g.n
    assert len(made) == len(set(made))
    built = made.copy()
    # A second analysis of the same graph builds its spectra again.
    second = GraphAnalysis(g).spectra
    assert second == first and not set(map(id, second)) & set(map(id, first))
    assert made == built + built


@pytest.mark.parametrize("first", ["spectrum", "spectra", "verify_battery"])
def test_an_sccs_route_is_decided_once_whatever_is_called_first(monkeypatch, first):
    g = CHORDED_CYCLE
    assert walks._gathers_beat_tables(g.rows, (1 << g.n) - 1)
    expected = spectra_from_trace(power_trace(g))
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "forward_pass")
    _count_orbit_steps(monkeypatch, calls)
    analysis = GraphAnalysis(g)
    entry_points = {
        "spectrum": lambda: analysis.spectrum(7),
        "spectra": lambda: analysis.spectra,
        "verify_battery": lambda: analysis.verify_battery(default_spec_battery()),
    }
    entry_points[first]()
    assert calls["forward_pass"] == 1
    if first != "verify_battery":  # whose descents read orbits below the pass's start
        assert calls["orbit_step"] == 0  # the pass gathers, and no layer steps
    for call in entry_points.values():
        call()
    assert [analysis.spectrum(v) for v in range(g.n)] == analysis.spectra == expected
    assert calls["forward_pass"] == 1


def test_d_and_ds_of_zero_share_one_set():
    analysis = GraphAnalysis(CHORDED_CYCLE)
    d = analysis.diagonal_set(DiagonalSpec.d())
    assert analysis.diagonal_set(DiagonalSpec.ds(UPSet.from_finite([0]))) is d
    n3 = analysis.verify_battery([DiagonalSpec.dn(3)])[0][1]
    assert analysis.diagonal_set(DiagonalSpec.ds(UPSet.from_finite([3]))) is n3


def _distances_to_a_cycle(g, cyclic):
    """Per vertex, the edges of its shortest walk into ``cyclic``, by a plain BFS."""
    dist = {v: 0 for v in cyclic}
    queue = deque(cyclic)
    while queue:
        w = queue.popleft()
        for u in range(g.n):
            if g.has_edge(u, w) and u not in dist:
                dist[u] = dist[w] + 1
                queue.append(u)
    return dist


@given(graphs(max_order=10))
@settings(max_examples=80)
def test_cycle_levels_are_a_plain_breadth_first_search(g):
    analysis = GraphAnalysis(g)
    levels = analysis.cycle_levels
    assert sum(levels) == functools.reduce(operator.or_, levels, 0)  # disjoint
    assert sum(levels) == analysis.canreach_cycle.bits
    assert all(levels)
    cyclic = [v for v, sp in enumerate(analysis.spectra) if not sp.is_empty()]
    dist = _distances_to_a_cycle(g, cyclic)
    for d, level in enumerate(levels):
        assert level == sum(1 << v for v, dv in dist.items() if dv == d)
