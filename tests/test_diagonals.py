import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagsets import diagonals
from diagsets.bruteforce import diagonal_S_bf, diagonal_inf_bf, diagonal_n_bf
from diagsets.diagonals import (
    DiagonalSpec,
    Evidence,
    GraphAnalysis,
    Side,
    TheoremViolationError,
    Witness,
    default_spec_battery,
    distinct_out_count,
    validate_witness,
)
from diagsets.graph import VertexSet, bits_of, make_graph
from diagsets.graphio import gen_random
from diagsets.upsets import UPSet, parse_upset
from diagsets.walks import power_trace, spectra_from_trace

from strategies import graphs

C3 = make_graph(3, [(0, 1), (1, 2), (2, 0)])
PATH3 = make_graph(3, [(0, 1), (1, 2)])
LOOP1 = make_graph(1, [(0, 0)])
K3_LOOPED = make_graph(3, [(u, w) for u in range(3) for w in range(3)])
EVENS = UPSet(0, 2, frozenset({0}))
NATURALS = UPSet(0, 1, frozenset({0}))


def cantor_witness(g, v):
    """The fixed-point witness: v itself separates D from Out(v)."""
    if g.has_edge(v, v):
        return Witness(v, Side.OUT_MINUS_DX, v, Evidence((v, v)))
    return Witness(v, Side.DX_MINUS_OUT, v, None)


def test_diagonal_examples():
    assert GraphAnalysis(C3).diagonal_set(DiagonalSpec.d()).to_list() == [0, 1, 2]
    assert GraphAnalysis(K3_LOOPED).diagonal_set(DiagonalSpec.d()).to_list() == []
    looped_0 = make_graph(2, [(0, 0), (0, 1)])
    assert GraphAnalysis(looped_0).diagonal_set(DiagonalSpec.d()).to_list() == [1]


def test_diagonal_n_examples():
    assert GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(1)) == diagonal_n_bf(C3, 1)
    assert GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(1)).to_list() == [0, 1, 2]
    assert GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(2)).to_list() == []


def test_diagonal_n_rejects_zero():
    with pytest.raises(ValueError):
        GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(0))


@pytest.mark.parametrize("first, second", [(1, True), (True, 1), (2, 2.0), (2.0, 2)])
def test_dn_is_built_once_per_n_and_type(first, second):
    DiagonalSpec.dn.__func__.cache_clear()  # so that first is asked for first
    for n in (first, second):
        if type(n) is int:
            spec = DiagonalSpec.dn(n)
            assert spec is DiagonalSpec.dn(n) and type(spec.n) is int
        else:  # an equal n of another type is rejected, whether the int is cached or not
            with pytest.raises(ValueError, match="integer n"):
                DiagonalSpec.dn(n)
    assert DiagonalSpec.d() is DiagonalSpec.d()
    assert DiagonalSpec.dinf() is DiagonalSpec.dinf()


@pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None])
def test_dn_rejects_an_n_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="integer n"):
        DiagonalSpec.dn(n)
    with pytest.raises(ValueError, match="integer n"):
        DiagonalSpec("Dn", n=n)


def test_looped_vertex_excluded_for_every_n():
    g = make_graph(3, [(0, 0), (0, 1), (1, 2)])
    for n in range(1, 9):
        assert 0 not in GraphAnalysis(g).diagonal_set(DiagonalSpec.dn(n))


def test_diagonal_inf_examples():
    assert GraphAnalysis(PATH3).diagonal_set(DiagonalSpec.dinf()).to_list() == [0, 1, 2]
    assert GraphAnalysis(C3).diagonal_set(DiagonalSpec.dinf()).to_list() == []
    g = make_graph(2, [(0, 1), (1, 1)])
    assert GraphAnalysis(g).diagonal_set(DiagonalSpec.dinf()).to_list() == []
    assert GraphAnalysis(g).diagonal_set(DiagonalSpec.dinf()) == diagonal_inf_bf(g)


def test_diagonal_S_examples():
    analysis = GraphAnalysis(C3)
    assert analysis.diagonal_set(DiagonalSpec.ds(UPSet.from_finite([2]))).to_list() == []
    assert analysis.diagonal_set(DiagonalSpec.ds(UPSet.from_finite([0, 1]))).to_list() == [0, 1, 2]


def test_diagonal_S_rejects_empty_set():
    with pytest.raises(ValueError):
        GraphAnalysis(C3).diagonal_set(DiagonalSpec.ds(UPSet.empty()))
    with pytest.raises(ValueError):
        DiagonalSpec.ds(UPSet.empty())


@given(graphs(max_order=6))
@settings(max_examples=40)
def test_diagonal_S_of_naturals_is_the_acyclic_walk_set(g):
    spectra = spectra_from_trace(power_trace(g))
    expected = VertexSet.from_indices(
        g.n, (v for v in range(g.n) if spectra[v].is_empty())
    )
    assert GraphAnalysis(g).diagonal_set(DiagonalSpec.ds(NATURALS)) == expected


@given(graphs(max_order=6), st.sets(st.integers(0, 5), min_size=1))
@settings(max_examples=60)
def test_diagonal_S_matches_literal_two_clause_oracle(g, values):
    spec = DiagonalSpec.ds(UPSet.from_finite(values))
    assert GraphAnalysis(g).diagonal_set(spec) == diagonal_S_bf(g, values)


def test_cantor_witness_on_loop():
    w = cantor_witness(LOOP1, 0)
    assert (w.vertex, w.side, w.against) == (0, Side.OUT_MINUS_DX, 0)
    assert w.evidence.vertices == (0, 0)


def test_cantor_witness_on_c3():
    w = cantor_witness(C3, 1)
    assert (w.vertex, w.side) == (1, Side.DX_MINUS_OUT)
    assert w.evidence is None


@given(graphs(max_order=6))
def test_cantor_witness_is_a_fixed_point_and_validates(g):
    d = GraphAnalysis(g).diagonal_set(DiagonalSpec.d())
    for v in range(g.n):
        w = cantor_witness(g, v)
        assert w.vertex == v
        validate_witness(g, DiagonalSpec.d(), d, w, GraphAnalysis(g).cyclic)


@given(graphs(max_order=6))
@settings(max_examples=40)
def test_dn_is_ds_of_a_singleton(g):
    for n in [*range(1, 9), 10**9 + 7]:
        singleton = UPSet.from_finite([n])
        dn, ds = DiagonalSpec.dn(n), DiagonalSpec.ds(singleton)
        assert GraphAnalysis(g).diagonal_set(dn) == GraphAnalysis(g).diagonal_set(ds)
        assert GraphAnalysis(g).verify_unequal(dn) == GraphAnalysis(g).verify_unequal(ds)


@given(graphs(max_order=6))
def test_d_is_ds_of_zero_with_the_cantor_witnesses(g):
    zero = UPSet.from_finite([0])
    d_via_s = GraphAnalysis(g).diagonal_set(DiagonalSpec.ds(zero))
    assert GraphAnalysis(g).diagonal_set(DiagonalSpec.d()) == d_via_s
    analysis = GraphAnalysis(g)
    for v in range(g.n):
        for spec in (DiagonalSpec.d(), DiagonalSpec.ds(zero)):
            assert cantor_witness(g, v) == analysis.verify_unequal(spec)[v]


def test_variant_witness_case_unlooped_outside_diagonal():
    g = make_graph(2, [(0, 1), (1, 1)])
    w = GraphAnalysis(g).verify_unequal(DiagonalSpec.dinf())[0]
    assert (w.vertex, w.side) == (1, Side.OUT_MINUS_DX)
    assert w.evidence.infinite_tail
    assert w.evidence.vertices == (1,)


def reference_tail(g, cyclic, start):
    """The breadth-first search that built Dinf tails before the layer descent.

    Successors are visited in ascending order; the first cyclic vertex
    found ends the walk.
    """
    if start in cyclic:
        return (start,)
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in bits_of(g.rows[u]):
                if w in parent:
                    continue
                parent[w] = u
                if w in cyclic:
                    path = [w]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                nxt.append(w)
        frontier = nxt
    raise AssertionError(f"vertex {start} cannot reach a cycle")


def _assert_dinf_tails_match_the_reference(g):
    analysis = GraphAnalysis(g)
    for w in analysis.verify_unequal(DiagonalSpec.dinf()):
        if w.evidence is not None:
            assert w.evidence.vertices == reference_tail(g, analysis.cyclic, w.vertex)


_sparse_graphs = st.builds(
    gen_random,
    st.integers(1, 14),
    st.sampled_from([0.05, 0.1, 0.15, 0.2]),
    st.integers(0, 2**16),
    st.sampled_from(["allow", "forbid"]),
)


@given(_sparse_graphs)
@settings(max_examples=300)
def test_dinf_tails_equal_the_breadth_first_reference(g):
    _assert_dinf_tails_match_the_reference(g)


def test_dinf_tail_where_breadth_first_discovery_is_not_ascending():
    # From 0 the search meets 5 (via 1) before 3 (via 2) at depth 2, and
    # both lead to a cycle in one step; the tail takes the smaller first step.
    edges = [(8, 0), (0, 1), (0, 2), (1, 5), (2, 3), (5, 6), (6, 7), (7, 6), (3, 4), (4, 4)]
    g = make_graph(9, edges)
    w = GraphAnalysis(g).verify_unequal(DiagonalSpec.dinf())[8]
    assert (w.vertex, w.side) == (0, Side.OUT_MINUS_DX)
    assert w.evidence.vertices == (0, 1, 5, 6)
    assert reference_tail(g, GraphAnalysis(g).cyclic, 0) == (0, 1, 5, 6)
    _assert_dinf_tails_match_the_reference(g)


def test_variant_witness_case_unlooped_inside_diagonal():
    w = GraphAnalysis(C3).verify_unequal(DiagonalSpec.dn(1))[0]
    assert (w.vertex, w.side) == (0, Side.DX_MINUS_OUT)
    assert w.evidence is None


def test_variant_witness_case_looped_pumps_the_loop():
    for spec, copies in (
        (DiagonalSpec.dn(4), 6),  # closed walk of length 5
        (DiagonalSpec.ds(parse_upset("up(t=4,d=3,r=2)")), 7),  # least member 5
        (DiagonalSpec.ds(parse_upset("up(t=4,d=3,r=2,f=1)")), 3),  # least member the exceptional 1
    ):
        w = GraphAnalysis(LOOP1).verify_unequal(spec)[0]
        assert (w.vertex, w.side) == (0, Side.OUT_MINUS_DX)
        assert w.evidence.vertices == (0,) * copies


def test_variant_witness_rotates_a_violating_closed_walk():
    w = GraphAnalysis(C3).verify_unequal(DiagonalSpec.dn(2))[0]
    assert (w.vertex, w.side) == (1, Side.OUT_MINUS_DX)
    assert w.evidence.vertices == (1, 2, 0, 1)


def test_variant_witness_for_plain_diagonal_spec_is_the_cantor_witness():
    for g in (C3, LOOP1, make_graph(2, [(0, 1), (1, 1)])):
        for v in range(g.n):
            assert GraphAnalysis(g).verify_unequal(DiagonalSpec.d())[v] == cantor_witness(g, v)


def test_variant_witness_with_huge_n_omits_evidence_but_validates():
    two_cycle = make_graph(2, [(0, 1), (1, 0)])
    spec = DiagonalSpec.dn(10**9 + 1)  # n+1 is even: every vertex violates
    w = GraphAnalysis(two_cycle).verify_unequal(spec)[0]
    assert (w.vertex, w.side) == (1, Side.OUT_MINUS_DX)
    assert w.evidence is None
    dx = GraphAnalysis(two_cycle).diagonal_set(DiagonalSpec.dn(10**9 + 1))
    validate_witness(two_cycle, spec, dx, w, VertexSet.full(2))


@given(graphs(max_order=6))
@settings(max_examples=60)
def test_closed_walk_witness_is_the_least_first_step_by_the_trace(g):
    # The first step of a shortest violating closed walk from v, read off
    # A^(L-1) of the whole-graph trace; Dn(10^9+7) takes the no-evidence path.
    trace = power_trace(g)
    analysis = GraphAnalysis(g)
    specs = [DiagonalSpec.dn(n) for n in (*range(1, 9), 10**9 + 7)]
    specs += [spec for spec in default_spec_battery() if spec.kind == "DS"]
    for spec in specs:
        shortest = [sp.min_common(spec.walk_lengths) for sp in analysis.spectra]
        for v in range(g.n):
            w = analysis.verify_unequal(spec)[v]
            if g.has_edge(v, v) or w.side is not Side.OUT_MINUS_DX:
                continue
            back = trace.power(shortest[v] - 1)
            assert w.vertex == min(u for u in g.out_set(v) if back.has_edge(u, v))


def test_diagonal_spec_validation():
    with pytest.raises(ValueError):
        DiagonalSpec("Dn", n=0)
    with pytest.raises(ValueError):
        DiagonalSpec("D", n=3)
    with pytest.raises(ValueError):
        DiagonalSpec("Dinf", s=EVENS)
    with pytest.raises(ValueError):
        DiagonalSpec("bogus")
    assert DiagonalSpec.dn(3).label() == "Dn(3)"
    assert DiagonalSpec.ds(EVENS).label() == "DS(up(t=0,d=2,r=0))"


def test_verify_unequal_cantor_on_c3():
    witnesses = GraphAnalysis(C3).verify_unequal(DiagonalSpec.d())
    assert [(w.vertex, w.side) for w in witnesses] == [
        (v, Side.DX_MINUS_OUT) for v in range(3)
    ]


def test_verify_unequal_on_single_looped_vertex():
    witnesses = GraphAnalysis(LOOP1).verify_unequal(DiagonalSpec.dn(3))
    assert len(witnesses) == 1
    w = witnesses[0]
    assert (w.vertex, w.side) == (0, Side.OUT_MINUS_DX)
    assert len(w.evidence.vertices) == 5  # closed walk of length n+1 = 4


def test_verify_unequal_on_edgeless_singleton():
    g = make_graph(1, [])
    witnesses = GraphAnalysis(g).verify_unequal(DiagonalSpec.dinf())
    assert (witnesses[0].vertex, witnesses[0].side) == (0, Side.DX_MINUS_OUT)


@given(graphs(max_order=6))
@settings(max_examples=40)
def test_verify_battery_validates_all_specs_everywhere(g):
    for spec, dx, witnesses in GraphAnalysis(g).verify_battery(default_spec_battery()):
        assert len(witnesses) == g.n
        for w in witnesses:
            out_v = g.out_set(w.against)
            if w.side is Side.OUT_MINUS_DX:
                assert w.vertex in out_v and w.vertex not in dx
            else:
                assert w.vertex in dx and w.vertex not in out_v


@given(graphs(max_order=6))
@settings(max_examples=30)
def test_variant_inequality_holds_up_to_n_eight(g):
    for n in range(1, 9):
        dn = GraphAnalysis(g).diagonal_set(DiagonalSpec.dn(n))
        for v in range(g.n):
            assert dn != g.out_set(v)
    GraphAnalysis(g).verify_unequal(DiagonalSpec.dn(7))
    GraphAnalysis(g).verify_unequal(DiagonalSpec.dn(8))


def test_validate_witness_rejects_wrong_claims():
    from diagsets.diagonals import Evidence, Witness

    d = GraphAnalysis(C3).diagonal_set(DiagonalSpec.d())
    cyclic = VertexSet.full(3)
    # 0 is unlooped, so it cannot sit in Out(0) \ D.
    with pytest.raises(TheoremViolationError):
        validate_witness(C3, DiagonalSpec.d(), d, Witness(0, Side.OUT_MINUS_DX, 0, None), cyclic)
    # 1 lies in Out(0), so it is not in D \ Out(0).
    with pytest.raises(TheoremViolationError):
        validate_witness(C3, DiagonalSpec.d(), d, Witness(1, Side.DX_MINUS_OUT, 0, None), cyclic)
    # A witness outside the vertex range is wrong on either side; a bad `against` is bad input.
    for u in (-1, C3.n):
        for side in Side:
            with pytest.raises(TheoremViolationError):
                validate_witness(C3, DiagonalSpec.d(), d, Witness(u, side, 0, None), cyclic)
    bad_against = Witness(0, Side.DX_MINUS_OUT, C3.n, None)
    with pytest.raises(ValueError, match="outside"):
        validate_witness(C3, DiagonalSpec.d(), d, bad_against, cyclic)
    # Evidence must be a real walk of the advertised length.
    ok = Witness(0, Side.DX_MINUS_OUT, 0, None)
    validate_witness(C3, DiagonalSpec.d(), d, ok, cyclic)
    with pytest.raises(TheoremViolationError):
        validate_witness(
            C3,
            DiagonalSpec.dn(2),
            GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(2)),
            Witness(1, Side.OUT_MINUS_DX, 0, Evidence((1, 0, 1))),  # 1->0 is no edge
            cyclic,
        )
    with pytest.raises(TheoremViolationError):
        validate_witness(
            C3,
            DiagonalSpec.dn(2),
            GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(2)),
            Witness(1, Side.OUT_MINUS_DX, 0, Evidence((1, 2, 1))),  # wrong length and 2->1 no edge
            cyclic,
        )
    # Evidence through a vertex outside [0, n) is a false claim, not bad input.
    for bad in ((1, 7, 1), (1, -1, 1), (1, 2, 0, 1, 3)):
        with pytest.raises(TheoremViolationError, match="vertex range"):
            validate_witness(
                C3,
                DiagonalSpec.dn(2),
                GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(2)),
                Witness(1, Side.OUT_MINUS_DX, 0, Evidence(bad)),
                cyclic,
            )
    # A Dinf tail must end on a cycle: here only 2 is on one.
    g = make_graph(3, [(0, 1), (1, 2), (2, 2)])
    dinf = GraphAnalysis(g).diagonal_set(DiagonalSpec.dinf())
    on_cycle = VertexSet.from_indices(3, [2])
    tail = Witness(1, Side.OUT_MINUS_DX, 0, Evidence((1, 2), infinite_tail=True))
    validate_witness(g, DiagonalSpec.dinf(), dinf, tail, on_cycle)
    short = Witness(1, Side.OUT_MINUS_DX, 0, Evidence((1,), infinite_tail=True))
    with pytest.raises(TheoremViolationError, match="non-cyclic vertex 1"):
        validate_witness(g, DiagonalSpec.dinf(), dinf, short, on_cycle)


@pytest.mark.parametrize("side", ["OutMinusDx", "nonsense"])
def test_validate_witness_rejects_a_side_that_is_not_a_side_member(side):
    g = make_graph(2, [(0, 1)])
    d = GraphAnalysis(g).diagonal_set(DiagonalSpec.d())
    # 0 is in D \ Out(1), but the witness does not claim that side.
    no_cycle = VertexSet(2, 0)
    with pytest.raises(TheoremViolationError, match="is not a Side"):
        validate_witness(g, DiagonalSpec.d(), d, Witness(0, side, 1, None), no_cycle)
    validate_witness(g, DiagonalSpec.d(), d, Witness(0, Side.DX_MINUS_OUT, 1, None), no_cycle)


def test_validate_witness_rejects_evidence_on_a_dx_minus_out_witness():
    g = make_graph(2, [(0, 1)])
    d = GraphAnalysis(g).diagonal_set(DiagonalSpec.d())
    w = Witness(0, Side.DX_MINUS_OUT, 1, Evidence((0,)))
    with pytest.raises(TheoremViolationError, match="carries evidence"):
        validate_witness(g, DiagonalSpec.d(), d, w, VertexSet(2, 0))


def test_a_diagonal_equal_to_an_outgoing_set_is_a_theorem_violation():
    analysis = GraphAnalysis(C3)
    spec = DiagonalSpec.d()
    table, _ = analysis._answer(spec)
    analysis._answers[spec.lengths] = table, C3.out_set(0)  # planted: the theorem rules it out
    with pytest.raises(TheoremViolationError, match=r"equals Out\(0\)"):
        analysis.verify_unequal(spec)


def test_inclusion_chain_on_c3():
    report = GraphAnalysis(C3).inclusion_chain_check(6, [UPSet.from_finite([0]), EVENS])
    assert report.ok
    assert report.n_max == 6
    assert report.finite_identities == ("finite(0)",)
    assert len(report.truncated_identities) == 1


def test_chain_identity_with_zero_uses_plain_diagonal():
    # finite(0) makes D_S coincide with D itself; the check asserts that.
    for g in (C3, PATH3, LOOP1, K3_LOOPED):
        d = GraphAnalysis(g).diagonal_set(DiagonalSpec.d())
        assert GraphAnalysis(g).diagonal_set(DiagonalSpec.ds(UPSet.from_finite([0]))) == d
        GraphAnalysis(g).inclusion_chain_check(4, [UPSet.from_finite([0])])


def test_chain_on_loop_graph_with_evens():
    assert GraphAnalysis(LOOP1).diagonal_set(DiagonalSpec.ds(EVENS)).to_list() == []
    GraphAnalysis(LOOP1).inclusion_chain_check(8, [EVENS])


@pytest.mark.parametrize(
    "view, view_args, method, method_args",
    [
        ("diagonal_n", (2,), "diagonal_set", (DiagonalSpec.dn(2),)),
        ("diagonal_inf", (), "diagonal_set", (DiagonalSpec.dinf(),)),
        ("diagonal_S", (EVENS,), "diagonal_set", (DiagonalSpec.ds(EVENS),)),
        ("verify_battery", (default_spec_battery(),), "verify_battery", (default_spec_battery(),)),
        ("inclusion_chain_check", (8, [EVENS]), "inclusion_chain_check", (8, [EVENS])),
    ],
)
def test_free_views_equal_their_graph_analysis_counterparts(view, view_args, method, method_args):
    """The free views stay for callers outside the package that look them up by name."""
    for g in (C3, PATH3, LOOP1, K3_LOOPED, gen_random(12, 0.3, 7, "allow")):
        expected = getattr(GraphAnalysis(g), method)(*method_args)
        assert getattr(diagonals, view)(g, *view_args) == expected


def test_diagonal_n_is_not_monotone_in_n():
    # D_1 = V and D_2 = empty on the 3-cycle: the per-n chain does not nest.
    d2 = GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(2))
    assert not GraphAnalysis(C3).diagonal_set(DiagonalSpec.dn(1)).issubset(d2)


def test_chain_rejects_bad_arguments():
    with pytest.raises(ValueError):
        GraphAnalysis(C3).inclusion_chain_check(0)
    with pytest.raises(ValueError, match="DS requires a nonempty length set"):
        GraphAnalysis(C3).inclusion_chain_check(3, [UPSet.empty()])


@pytest.mark.parametrize(
    "call, s",
    [
        (DiagonalSpec.ds, [1]),
        (DiagonalSpec.ds, "finite(1)"),
        (lambda s: GraphAnalysis(C3).inclusion_chain_check(2, [s]), [0, 2]),
    ],
)
def test_a_length_set_that_is_not_a_upset_is_rejected(call, s):
    with pytest.raises(ValueError, match=f"DS requires a UPSet length set, got {type(s).__name__}"):
        call(s)


@pytest.mark.parametrize("n_max", [True, 2.5])
def test_chain_rejects_an_n_max_that_is_not_an_int(n_max):
    with pytest.raises(ValueError, match="n_max must be an integer"):
        GraphAnalysis(C3).inclusion_chain_check(n_max)


def test_distinct_out_count_examples():
    assert distinct_out_count(C3) == (3, 3)
    assert distinct_out_count(make_graph(5, [])) == (1, 5)
    k4 = make_graph(4, [(u, w) for u in range(4) for w in range(4)])
    assert distinct_out_count(k4) == (1, 4)
