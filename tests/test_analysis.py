"""GraphAnalysis: one per-graph cache that every entry point reads."""

from collections import Counter

import pytest
from hypothesis import given, settings

from diagsets import diagonals, walks
from diagsets.diagonals import (
    DiagonalSpec,
    GraphAnalysis,
    InternalDisagreementError,
    Side,
    default_spec_battery,
)
from diagsets.graph import make_graph
from diagsets.graphio import gen_random
from diagsets.report import analyze_graph
from diagsets.upsets import UPSet
from diagsets.walks import power_trace

from strategies import graphs

EVENS = UPSet(0, 2, frozenset({0}))


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

    for module in (walks, diagonals):
        monkeypatch.setattr(module, "orbit_step", counted)


def test_analyze_graph_computes_each_per_graph_fact_once(monkeypatch):
    # Cycles of lengths 2 and 3 joined by a path, plus a looped tail that
    # 7 reaches through 5: every spec has members inside and outside its set.
    g = make_graph(
        8, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6), (6, 6), (7, 5)]
    )
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "strongly_connected_components")
    _count_orbit_steps(monkeypatch, calls)
    hits = walks.FrontierOrbit.hits

    def counted_hits(self, v):
        calls["FrontierOrbit.hits"] += 1
        return hits(self, v)

    monkeypatch.setattr(walks.FrontierOrbit, "hits", counted_hits)
    _count_calls(monkeypatch, calls, "transpose_rows")
    _count_calls(monkeypatch, calls, "mat_mul_bool")
    _count_calls(monkeypatch, calls, "mat_pow_bool")

    report = analyze_graph(
        g, n_values=(1, 2), s_sets=(EVENS, UPSet.from_finite([0, 2])), include_spectra=True
    )

    assert report["chain"]["ok"]
    assert calls["strongly_connected_components"] == 1
    assert calls["FrontierOrbit.hits"] == g.n  # one spectrum per vertex
    # One step function per mask that layers step in: the SCCs {0, 1},
    # {2, 3, 4} and {6}, the empty mask of the acyclic vertices 5 and 7,
    # and the can-reach-a-cycle set {0, ..., 7} of the Dinf tails.
    assert calls["orbit_step"] == 5
    assert calls["transpose_rows"] == 1
    # A^2, ..., A^9 for the chain, one product each; the evens stop at
    # bound 7, so every power they read is one of those.  Building any
    # A^k twice, or by squaring, breaks this count.
    assert calls["mat_mul_bool"] == 8
    assert calls["mat_pow_bool"] == 0
    # Each vertex's orbit is stepped once, for its spectrum, and every
    # witness walk reads it without a step of its own.  The only other
    # steps are the Dinf tails': 7's tail 5 -> 6 reads cycle_layers[1].
    analyze_steps = calls["orbit steps"]
    fresh = GraphAnalysis(g)
    fresh.spectra
    fresh.cycle_layers[1]
    assert analyze_steps == calls["orbit steps"] - analyze_steps
    assert report["specs"][3]["witnesses"][7]["evidence"] == {"infinite_tail": [5, 6]}  # Dinf


def test_dinf_alone_builds_no_spectrum(monkeypatch):
    # Dinf reads no closed-walk length, so its witnesses step no vertex's
    # orbit: the only step is the Dinf tails' cycle_layers[1].
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 2), (4, 4)])
    calls: Counter = Counter()
    _count_orbit_steps(monkeypatch, calls)
    analysis = GraphAnalysis(g)
    witnesses = analysis.verify_unequal(DiagonalSpec.dinf())
    assert witnesses[0].evidence.vertices == (1, 2)  # 0's tail descends cycle_layers[1]
    assert calls["orbit steps"] == 1
    assert analysis.variant_witness(0, DiagonalSpec.dinf()) == witnesses[0]
    assert calls["orbit steps"] == 1
    assert calls["orbit_step"] == 1  # only cycle_layers made a step function


def test_forward_pass_route_reads_orbits_only_below_its_start(monkeypatch):
    # Wielandt-16: one SCC of 16 vertices and 17 edges, where the cost rule
    # picks one forward pass over 16 orbits.  Its classes take over from
    # walk length 226 = 15^2 + 1 on.
    g = make_graph(16, [(i, i + 1) for i in range(15)] + [(15, 0), (15, 1)])
    calls: Counter = Counter()
    _count_orbit_steps(monkeypatch, calls)
    _count_calls(monkeypatch, calls, "forward_pass")
    analysis = GraphAnalysis(g)
    huge = analysis.verify_unequal(DiagonalSpec.dn(10**9 + 7))
    assert calls["forward_pass"] == 1
    # The spectra come from the pass and each first step from a class, so
    # no vertex's orbit is made.
    assert calls["orbit_step"] == 0
    assert [w.vertex for w in huge] == [*range(1, 16), 0]  # the least successor: 0 for v = 15
    # The shortest odd closed walks, of length 15 (31 through vertex 0),
    # descend the vertices' own orbits, each only as far as it reads.
    analysis.verify_unequal(DiagonalSpec.ds(UPSet(0, 2, frozenset({0}))))
    assert calls["forward_pass"] == 1
    assert calls["orbit steps"] == 15 * 14 + 30


def test_chain_check_reads_each_power_off_the_previous_one(monkeypatch):
    g = gen_random(12, 0.3, 3, "allow")
    analysis = GraphAnalysis(g)
    analysis.diagonal_set(DiagonalSpec.dinf())  # no matrix product
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "mat_mul_bool")
    _count_calls(monkeypatch, calls, "mat_pow_bool")
    analysis.inclusion_chain_check(8)
    assert calls == {"mat_mul_bool": 8}  # A^2, ..., A^9, one product each


def test_chain_check_reads_memoised_powers_for_members_of_s(monkeypatch):
    g = gen_random(12, 0.3, 3, "allow")
    analysis = GraphAnalysis(g)
    analysis.diagonal_set(DiagonalSpec.dinf())
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, "mat_mul_bool")
    _count_calls(monkeypatch, calls, "mat_pow_bool")
    report = analysis.inclusion_chain_check(8, [UPSet.from_finite([0, 2])])
    assert report.finite_identities == ("finite(0,2)",)
    assert calls == {"mat_mul_bool": 8}  # A^1 and A^3 come from the D_n loop's memo


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
    monkeypatch.setattr(diagonals, "long_walk_starts", lambda g: 0b011)
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
        shortest = analysis.shortest_violations(spec)
        assert analysis.diagonal_set(spec).to_list() == [
            v for v, m in enumerate(shortest) if m is None
        ]
        for v in range(g.n):
            w = analysis.variant_witness(v, spec)
            if g.has_edge(v, v) or shortest[v] is None or w.evidence is None:
                continue
            assert w.side is Side.OUT_MINUS_DX
            assert len(w.evidence.vertices) - 1 == shortest[v]


@given(graphs(max_order=12))
@settings(max_examples=40)
def test_vertex_major_battery_equals_one_spec_at_a_time(g):
    specs = [*default_spec_battery(), DiagonalSpec.dn(10**9 + 7)]
    single = []
    for spec in specs:
        analysis = GraphAnalysis(g)  # fresh: spectra first, then lazily read layers
        single.append((spec, analysis.diagonal_set(spec), analysis.verify_unequal(spec)))
    assert GraphAnalysis(g).verify_battery(specs) == single


def test_power_memo_matches_the_trace():
    g = gen_random(12, 0.2, 5, "allow")
    analysis = GraphAnalysis(g)
    trace = power_trace(g)
    for k in (1, 2, 7, 10**9 + 8):
        assert analysis.power(k) == trace.power(k)
        assert analysis.power(k) is analysis.power(k)
    spec = DiagonalSpec.dn(6)
    assert analysis.diagonal_set(spec) == trace.power(7).loops().complement()
