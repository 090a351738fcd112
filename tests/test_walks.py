import itertools
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagsets import diagonals, walks
from diagsets.bruteforce import closed_walk_lengths_bf, walk_exists_bf
from diagsets.diagonals import DiagonalSpec, GraphAnalysis, default_spec_battery
from diagsets.graph import Graph, VertexSet, bits_of, make_graph
from diagsets.graphio import gen_random
from diagsets.upsets import UPSet
from diagsets.walks import (
    CyclicClasses,
    TraceCapError,
    back_layers,
    bfs_levels,
    forward_pass,
    frontier_step,
    long_walk_starts,
    mat_mul_bool,
    mat_pow_bool,
    power_trace,
    spectra_from_trace,
    strongly_connected_components,
    transpose_rows,
)

from strategies import graphs

C3 = make_graph(3, [(0, 1), (1, 2), (2, 0)])
PATH3 = make_graph(3, [(0, 1), (1, 2)])
LOOP1 = make_graph(1, [(0, 0)])


def test_mat_mul_gives_length_two_walks_on_c3():
    a = C3
    sq = mat_mul_bool(a, a)
    for u in range(3):
        for w in range(3):
            assert sq.has_edge(u, w) == walk_exists_bf(C3, u, w, 2)
    assert [sq.rows[u] for u in range(3)] == [0b100, 0b001, 0b010]


def test_mat_mul_identity_is_neutral():
    a = C3
    assert mat_mul_bool(a, make_graph(3, [(v, v) for v in range(3)])) == a
    assert mat_mul_bool(make_graph(3, [(v, v) for v in range(3)]), a) == a


def test_mat_mul_with_zero_is_zero():
    zero = make_graph(3, [])
    a = C3
    assert mat_mul_bool(zero, a) == zero
    assert mat_mul_bool(a, zero) == zero


def test_mat_mul_rejects_order_mismatch():
    with pytest.raises(ValueError):
        mat_mul_bool(
            make_graph(2, [(v, v) for v in range(2)]), make_graph(3, [(v, v) for v in range(3)])
        )


def test_mat_pow_cubes_c3_to_identity():
    a = C3
    cubed = mat_pow_bool(a, 3)
    assert cubed == make_graph(3, [(v, v) for v in range(3)])
    for u in range(3):
        for w in range(3):
            assert cubed.has_edge(u, w) == walk_exists_bf(C3, u, w, 3)


def test_mat_pow_one_is_the_matrix():
    a = C3
    assert mat_pow_bool(a, 1) == a


def test_mat_pow_huge_exponent_matches_trace_reduction():
    a = C3
    trace = power_trace(C3)
    exponent = 3 * 10**9
    direct = mat_pow_bool(a, exponent)
    assert direct == trace.power(exponent)
    assert direct == make_graph(3, [(v, v) for v in range(3)])  # exponent is a multiple of 3


def test_mat_pow_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        mat_pow_bool(make_graph(2, [(v, v) for v in range(2)]), 0)


def test_has_closed_walk_on_c3():
    assert GraphAnalysis(C3).spectrum(0).member(3)
    assert not GraphAnalysis(C3).spectrum(0).member(2)


def test_loop_vertex_closes_walks_of_every_length():
    for length in range(1, 13):
        assert GraphAnalysis(LOOP1).spectrum(0).member(length)


def test_power_trace_c3():
    trace = power_trace(C3)
    assert (trace.mu, trace.lam) == (1, 3)
    assert len(trace.powers) == 3


def test_power_trace_idempotent_loop():
    trace = power_trace(LOOP1)
    assert (trace.mu, trace.lam) == (1, 1)


def test_power_trace_nilpotent_path():
    trace = power_trace(PATH3)
    assert (trace.mu, trace.lam) == (3, 1)
    assert trace.power(3) == trace.power(17)


def test_power_trace_cap_too_small():
    with pytest.raises(TraceCapError):
        power_trace(C3, cap=3)
    with pytest.raises(ValueError):
        power_trace(C3, cap=1)


@given(graphs(max_order=6))
def test_trace_reduction_matches_direct_powers(g):
    trace = power_trace(g)
    a = g
    for exponent in range(1, trace.mu + 3 * trace.lam + 1):
        assert mat_pow_bool(a, exponent) == trace.power(exponent)


@given(graphs(max_order=5), st.integers(1, 6))
@settings(max_examples=40)
def test_matrix_entries_are_walk_existence(g, length):
    power = mat_pow_bool(g, length)
    for u in range(g.n):
        for w in range(g.n):
            assert power.has_edge(u, w) == walk_exists_bf(g, u, w, length)


def test_spectrum_of_c3_vertex():
    spectrum = GraphAnalysis(C3).spectrum(0)
    assert spectrum == UPSet(1, 3, frozenset({0}))
    assert spectrum.literal() == "up(t=1,d=3,r=0)"
    truth = closed_walk_lengths_bf(C3, 0, 40)
    for length in range(41):
        assert spectrum.member(length) == (length in truth)


def test_spectrum_of_two_meshed_cycles():
    # Cycles of lengths 2 and 3 through vertex 0; their sums cover all
    # lengths from 2 up.
    g = make_graph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])
    spectrum = GraphAnalysis(g).spectrum(0)
    assert spectrum == UPSet(2, 1, frozenset({0}))
    truth = closed_walk_lengths_bf(g, 0, 40)
    for length in range(41):
        assert spectrum.member(length) == (length in truth)


def test_spectrum_of_edgeless_vertex_is_empty():
    g = make_graph(3, [])
    assert GraphAnalysis(g).spectrum(1).is_empty()


def test_one_vertex_spectrum_runs_only_its_own_sccs_pass(monkeypatch):
    # A dense 16-vertex SCC, whose pass takes the table step, and an edge
    # from it into a 20-cycle with a chord, whose pass gathers.
    dense = gen_random(16, 0.5, 1, "allow")
    edges = [(u, w) for u in range(16) for w in bits_of(dense.rows[u])]
    edges += [(16 + i, 16 + (i + 1) % 20) for i in range(20)] + [(35, 17), (0, 16)]
    g = make_graph(36, edges)
    expected = spectra_from_trace(power_trace(g))
    classes = GraphAnalysis(g).classes
    assert not walks._gathers_beat_tables(g.rows, classes[5].comp)
    assert walks._gathers_beat_tables(g.rows, classes[20].comp)
    passed = []

    def recorded(rows, classes):
        passed.append(classes.comp)
        return forward_pass(rows, classes)

    monkeypatch.setattr(diagonals, "forward_pass", recorded)
    analysis = GraphAnalysis(g)
    for v, comp in ((5, classes[5].comp), (20, classes[20].comp)):
        assert analysis.spectrum(v) == expected[v]
        assert passed[-1] == comp
        # The pass gives every spectrum of v's SCC, and none outside it.
        assert [u for u, sp in enumerate(analysis._spectra) if sp is not None] == [
            u for u in range(g.n) if sum(passed) >> u & 1
        ]
    assert len(passed) == 2


@given(graphs(max_order=6))
@settings(max_examples=40)
def test_spectrum_sound_against_enumeration(g):
    spectra = spectra_from_trace(power_trace(g))
    for v in range(g.n):
        truth = closed_walk_lengths_bf(g, v, 20)
        assert not spectra[v].member(0)
        for length in range(1, 21):
            assert spectra[v].member(length) == (length in truth)


@given(graphs(max_order=8))
def test_frontier_spectra_equal_trace_spectra(g):
    assert GraphAnalysis(g).spectra == spectra_from_trace(power_trace(g))


@given(graphs(max_order=6))
def test_one_vertex_spectrum_equals_trace_spectrum(g):
    spectra = spectra_from_trace(power_trace(g))
    for v in range(g.n):
        assert GraphAnalysis(g).spectrum(v) == spectra[v]


def test_frontier_step_block_tables_match_row_ors():
    g = gen_random(40, 0.1, 5, "allow")
    comp = sum(1 << v for v in range(3, 37))  # more than 8 vertices: block tables
    step = frontier_step(g.rows, comp, True)
    for f in (1 << 3, comp, 0b1011 << 20, 0):
        expected = 0
        for u in bits_of(f):
            expected |= g.rows[u]
        assert step(f) == expected & comp


@given(graphs(max_order=6))
@settings(max_examples=40)
def test_spectrum_closed_under_addition(g):
    spectra = spectra_from_trace(power_trace(g))
    for v in range(g.n):
        members = list(spectra[v].members_upto(12))
        for m1 in members:
            for m2 in members:
                assert spectra[v].member(m1 + m2)


def test_cyclic_vertices_examples():
    assert GraphAnalysis(C3).cyclic.to_list() == [0, 1, 2]
    assert GraphAnalysis(PATH3).cyclic.to_list() == []
    assert GraphAnalysis(make_graph(2, [(0, 1), (1, 1)])).cyclic.to_list() == [1]


@given(graphs(max_order=6))
def test_cyclic_vertices_equal_nonempty_spectra(g):
    spectra = spectra_from_trace(power_trace(g))
    expected = VertexSet.from_indices(
        g.n, (v for v in range(g.n) if not spectra[v].is_empty())
    )
    assert GraphAnalysis(g).cyclic == expected


def test_scc_partition_covers_all_vertices():
    comps = strongly_connected_components(C3, transpose_rows(C3))
    assert sorted(v for levels in comps for level in levels for v in bits_of(level)) == [0, 1, 2]
    assert len(comps) == 1
    # Kosaraju's second pass searches back from its root, vertex 0: 2 -> 0
    # and 1 -> 2 -> 0 are the shortest walks to it.
    assert comps == [[0b001, 0b100, 0b010]]
    assert strongly_connected_components(PATH3, transpose_rows(PATH3)) == [[1], [2], [4]]


def _transpose_by_edges(g):
    rev = [0] * g.n
    for u, row in enumerate(g.rows):
        for w in bits_of(row):
            rev[w] |= 1 << u
    return tuple(rev)


@given(graphs(max_order=80))
def test_transpose_rows_equals_the_per_edge_loop(g):
    assert transpose_rows(g) == _transpose_by_edges(g)


def test_transpose_rows_over_several_blocks_of_rows():
    # 600 rows make three blocks of 256: a path writes only its band, a
    # block with no edges is skipped, and G(n, p) spans every column.
    n = 600
    path = make_graph(n, [(u, u + 1) for u in range(n - 1)])
    assert transpose_rows(path) == (0, *(1 << u for u in range(n - 1)))
    late = make_graph(n, [(u, n - 1 - u) for u in range(300, n)])
    for g in (path, late, gen_random(n, 0.02, 1)):
        assert transpose_rows(g) == _transpose_by_edges(g)


@given(graphs(max_order=8))
def test_scc_masks_are_mutual_reachability(g):
    def reachable(u):
        seen, todo = {u}, [u]
        while todo:
            x = todo.pop()
            for y in range(g.n):
                if g.has_edge(x, y) and y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    reach = [reachable(u) for u in range(g.n)]
    for v, classes in enumerate(GraphAnalysis(g).classes):
        # v is on a closed walk iff some successor of v reaches back to v.
        cyclic = any(g.has_edge(v, w) and v in reach[w] for w in range(g.n))
        comp = {u for u in reach[v] if v in reach[u]} if cyclic else set()
        assert set(bits_of(0 if classes is None else classes.comp)) == comp


@pytest.mark.parametrize("reverse", [False, True])
def test_scc_masks_on_a_long_path_into_a_cycle(reverse):
    # Path 0 -> 1 -> ... -> 2999 into the 3-cycle 3000 -> 3001 -> 3002 -> 3000,
    # so the DFS stack grows 3,003 deep; with the labels reversed it starts
    # at the cycle and meets the path one root at a time.
    n = 3003
    edges = [(v, v + 1) for v in range(n - 1)] + [(n - 1, n - 3)]
    label = (lambda v: n - 1 - v) if reverse else (lambda v: v)
    g = make_graph(n, [(label(u), label(w)) for u, w in edges])
    cycle = sum(1 << label(v) for v in range(n - 3, n))
    masks = [0 if classes is None else classes.comp for classes in GraphAnalysis(g).classes]
    assert masks == [cycle if cycle >> v & 1 else 0 for v in range(n)]
    assert len(strongly_connected_components(g, transpose_rows(g))) == n - 2


def test_reach_backward_examples():
    def reach_backward(g, targets):
        return VertexSet(g.n, sum(bfs_levels(transpose_rows(g), targets.bits)))

    g = make_graph(2, [(0, 1)])
    assert reach_backward(g, VertexSet.from_indices(2, [1])).to_list() == [0, 1]
    assert reach_backward(C3, VertexSet.from_indices(3, [0])).to_list() == [0, 1, 2]
    edgeless = make_graph(3, [])
    assert reach_backward(edgeless, VertexSet.from_indices(3, [2])).to_list() == [2]


def _product_by_steps(a, b, blocked):
    return Graph(a.n, tuple(map(frontier_step(b.rows, (1 << a.n) - 1, blocked), a.rows)))


def test_blocked_and_naive_products_agree():
    # Order 80, and every order from 1 to 24 (most not multiples of 8),
    # sparse to dense: both kernels, and whichever the cost model picks.
    cases = [(80, 0.08, 11)] + [
        (order, p, order) for order in range(1, 25) for p in (0.05, 0.2, 0.5, 0.9)
    ]
    for order, p, seed in cases:
        a = gen_random(order, p, seed, "allow")
        b = gen_random(order, p, seed + 100, "allow")
        naive = _product_by_steps(a, b, False)
        assert _product_by_steps(a, b, True) == naive
        assert mat_mul_bool(a, b) == naive


def test_product_kernel_follows_the_left_factors_density(monkeypatch):
    sparse = gen_random(80, 0.02, 4, "allow")
    dense = gen_random(80, 0.5, 4, "allow")
    dense64 = gen_random(64, 0.5, 4, "allow")
    sparse64 = gen_random(64, 0.02, 4, "allow")
    # Each product is checked against the other kernel.
    sparse_dense = _product_by_steps(sparse, dense, True)
    dense_sparse = _product_by_steps(dense, sparse, False)
    sparse_dense64 = _product_by_steps(sparse64, dense64, True)
    dense_sparse64 = _product_by_steps(dense64, sparse64, False)
    builds = []
    original = walks._block_tables

    def recorded(rows, n, mask):
        builds.append(n)
        return original(rows, n, mask)

    monkeypatch.setattr(walks, "_block_tables", recorded)
    assert mat_mul_bool(sparse, dense) == sparse_dense
    assert builds == []  # a sparse left factor: one row OR per edge
    assert mat_mul_bool(dense, sparse) == dense_sparse
    assert builds == [80]  # a dense one: block tables
    # The same rule at order 64.
    assert mat_mul_bool(dense64, sparse64) == dense_sparse64
    assert builds == [80, 64]
    assert mat_mul_bool(sparse64, dense64) == sparse_dense64
    assert builds == [80, 64]
    # Up to order 16 the tables' set-up outweighs what they save: row ORs
    # even for a complete left factor.  At order 24 a dense one takes tables.
    complete16 = make_graph(16, [(u, w) for u in range(16) for w in range(16)])
    assert mat_mul_bool(complete16, complete16) == complete16
    dense24 = gen_random(24, 0.9, 1, "allow")
    assert mat_mul_bool(dense24, dense24) == _product_by_steps(dense24, dense24, False)
    assert builds == [80, 64, 24]


def _nonzero_rows(g):
    return sum(1 << v for v, row in enumerate(mat_pow_bool(g, g.n).rows) if row)


# Uniform graphs of order 10 are dense; sparse ones have dead vertices.
_sparse_graphs = st.builds(
    lambda order, p, seed: gen_random(order, p, seed, "allow"),
    st.integers(1, 10),
    st.sampled_from([0.05, 0.1, 0.2, 0.3]),
    st.integers(0, 2**16),
)


def _starts(g):
    return long_walk_starts(g, transpose_rows(g))


def _starts_round_by_round(g):
    """The reference loop: each round re-tests every live vertex against L_k."""
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


@given(graphs(max_order=10) | _sparse_graphs)
@settings(max_examples=120)
def test_long_walk_starts_are_the_nonzero_rows_of_the_order_power(g):
    assert _starts(g) == _nonzero_rows(g) == _starts_round_by_round(g)


def test_long_walk_starts_on_long_paths():
    cycle = [(100, 101), (101, 102), (102, 100)]
    path = [(i, i + 1) for i in range(100)]
    # A path of length 100 into a 3-cycle: every vertex starts an infinite walk.
    into = make_graph(103, path + cycle)
    assert _starts(into) == _nonzero_rows(into) == (1 << 103) - 1
    # The same path out of a 2-cycle, ending in a sink: each step drops one
    # path vertex, so the chain L_0 > L_1 > ... is as long as it gets.
    out_of = make_graph(103, path + [(101, 102), (102, 101), (101, 0)])
    assert _starts(out_of) == _nonzero_rows(out_of) == 0b11 << 101
    bare = make_graph(103, path + [(100, 101), (101, 102)])
    assert _starts(bare) == _nonzero_rows(bare) == 0


@pytest.mark.parametrize("reverse", [False, True])
def test_long_walk_starts_peel_equals_the_round_by_round_loop_at_order_2000(reverse):
    n = 2000
    label = (lambda v: n - 1 - v) if reverse else (lambda v: v)
    path = make_graph(n, [(label(i), label(i + 1)) for i in range(n - 1)])
    assert _starts(path) == _starts_round_by_round(path) == 0
    # About one out-edge per vertex: sinks, long chains into them, and cycles.
    rng = random.Random(3 + reverse)
    sparse = make_graph(
        n, [(u, rng.randrange(n)) for u in range(n) for _ in range(rng.choice((0, 1, 1, 2)))]
    )
    starts = _starts(sparse)
    assert starts == _starts_round_by_round(sparse)
    assert 0 < starts.bit_count() < n


def _kernel(gathers):
    """Every forward pass forced onto one step kernel: slot gathers, else block tables."""
    return mock.patch.object(walks, "_gathers_beat_tables", lambda rows, comp: gathers)


def _by_kernel(g, gathers, specs):
    """Spectra and battery of g with every SCC's forward pass forced onto one step kernel."""
    with _kernel(gathers):
        analysis = GraphAnalysis(g)
        return analysis.spectra, analysis.verify_battery(specs)


LONG_SPECS = [*default_spec_battery(), DiagonalSpec.dn(10**9 + 7), DiagonalSpec.dn(10**18)]


def _blowup(sizes, seed, chord=None):
    """A cycle of classes of the given sizes, each class to the next by random edges.

    The first vertex of each class is a hub: it has an edge to every vertex
    of the next class and one from every vertex of the class before.  So the
    graph is strongly connected, with period len(sizes) unless ``chord``
    (u, w) adds an edge between classes that are not neighbours.
    """
    rng = random.Random(seed)
    p = len(sizes)
    starts = [sum(sizes[:c]) for c in range(p + 1)]
    members = [range(starts[c], starts[c + 1]) for c in range(p)]
    edges = set()
    for c in range(p):
        nxt = members[(c + 1) % p]
        edges |= {(u, w) for u in members[c] for w in nxt if rng.random() < 0.4}
        edges |= {(members[c][0], w) for w in nxt} | {(u, nxt[0]) for u in members[c]}
    return make_graph(starts[p], sorted(edges | ({chord} if chord else set())))


@given(graphs(max_order=8))
@example(_blowup((2, 3), 1))
@example(_blowup((3, 2, 2), 2))
@example(_blowup((2, 2, 3, 2), 3))
@example(_blowup((1, 3, 1, 2, 2), 4))
@example(_blowup((3, 3, 3), 5, chord=(0, 1)))  # class 0 to class 0: period 3 becomes 1
@example(_blowup((2, 2, 2, 2), 6, chord=(0, 6)))  # class 0 to class 3: period 4 becomes 2
def test_forward_pass_and_orbits_agree_on_spectra_and_witnesses(g):
    # The gather step against ``orbit_step``'s block tables, on every SCC.
    by_gathers = _by_kernel(g, True, LONG_SPECS)
    assert by_gathers == _by_kernel(g, False, LONG_SPECS)
    assert by_gathers[0] == spectra_from_trace(power_trace(g))


def _own_settle(v, classes, rev):
    """v's own settled index, the first k where |B_k| is its class's size, and its hits below it.

    The layers are plain frontier steps from {v}, with no settled index.
    """
    step, layers = frontier_step(rev, classes.comp, False), [1 << v]
    c, p = classes.class_of[v], classes.period
    while layers[-1].bit_count() != classes.sizes[(c - len(layers) + 1) % p]:
        layers.append(step(layers[-1]))
    settled = len(layers) - 1
    return settled, [k for k in range(1, settled) if layers[k] >> v & 1]


def _class_masks(classes):
    """Each cyclic class as a mask, built from ``class_of``."""
    masks = [0] * classes.period
    for u, c in classes.class_of.items():
        masks[c] |= 1 << u
    return masks


def _assert_listed_layers(g, classes, v, own, direct, bound, length):
    """``back_layers`` against ``direct``, the plain frontier steps from {v}, longer than ``length``.

    Below v's own settled index each entry is the plain step; later ones are
    the plain step or C, and a descent step from any vertex of the plain
    B_(k+1) reads the same successors in entry k as in B_k.
    """
    layers = back_layers(v, classes, bound, length)
    assert len(layers) == length
    for k, layer in enumerate(layers):
        assert layer == direct[k] or (k >= own and layer == classes.comp)
        for u in bits_of(direct[k + 1]):
            assert g.rows[u] & layer == g.rows[u] & direct[k]


def _first_repeat(start, step):
    """(mu, lam) of the first x_(mu+lam) = x_mu of x_0 = start, x_(k+1) = step(x_k), by hashing."""
    seen = {}
    x = start
    while x not in seen:
        seen[x] = len(seen)
        x = step(x)
    return seen[x], len(seen) - seen[x]


@given(graphs(max_order=10))
@settings(max_examples=150)
def test_back_layers_settle_into_cyclic_classes(g):
    # A Hamiltonian cycle 0 -> 1 -> ... -> 0 makes g strongly connected.
    n = g.n
    g = Graph(n, tuple(row | 1 << (u + 1) % n for u, row in enumerate(g.rows)))
    full = (1 << n) - 1
    rev = transpose_rows(g)
    [levels] = strongly_connected_components(g, rev)
    classes = CyclicClasses(rev, levels)
    p, masks = classes.period, _class_masks(classes)
    # The classes partition the SCC, and every edge leads from a class to the next.
    assert classes.comp == full and sorted(classes.class_of) == list(range(n))
    assert sum(masks) == full and all(masks)
    assert [m.bit_count() for m in masks] == classes.sizes
    for u in range(n):
        for w in bits_of(g.rows[u]):
            assert classes.class_of[w] == (classes.class_of[u] + 1) % p
    # p is the gcd of the closed-walk lengths.
    spectra = spectra_from_trace(power_trace(g))
    lengths = [m for sp in spectra for m in sp.members_upto(sp.threshold + 2 * sp.period)]
    assert p == math.gcd(*lengths)
    start, _ = forward_pass(g.rows, classes)
    step = frontier_step(rev, full, False)
    settled = []
    for v in range(n):
        own, hits = _own_settle(v, classes, rev)
        settled.append(own)
        # The hashed orbit of the same layers first repeats at (settled, p),
        # where B_k is its whole class.
        assert _first_repeat(1 << v, step) == (own, p)
        direct = [1 << v]
        for _ in range(own + 3 * p + 1):
            direct.append(step(direct[-1]))
        assert direct[own] == masks[(classes.class_of[v] - own) % p]
        # Layers listed without a settled index, and up to the pass's.
        for bound in (math.inf, start):
            _assert_listed_layers(g, classes, v, own, direct, bound, len(direct) - 1)
        assert UPSet(max(own, 1), p, frozenset({0}), frozenset(hits)) == spectra[v]
    # The forward pass stops at the first step where every layer is settled.
    assert start == max(settled)


def test_cyclic_classes_of_a_long_cycle_keep_no_class_masks():
    # A 10,000-cycle has 10,000 one-vertex classes: as masks of up to
    # 10,000 bits, they would take 8 MB.
    n = 10_000
    analysis = GraphAnalysis(make_graph(n, [(v, (v + 1) % n) for v in range(n)]))
    analysis.transposed_rows  # made before the measure
    tracemalloc.start()
    try:
        classes = analysis.classes
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert classes[0].sizes == [1] * n
    assert kept < 2_000_000


def _wielandt(k):
    """A k-cycle plus the chord k-1 -> 1: one SCC whose layers settle late, near (k-1)^2."""
    return make_graph(k, [(i, i + 1) for i in range(k - 1)] + [(k - 1, 0), (k - 1, 1)])


@given(graphs(max_order=8) | st.integers(2, 10).map(_wielandt))
@settings(max_examples=100)
def test_back_layers_hand_a_descent_its_layers_as_one_list(g):
    analysis = GraphAnalysis(g)
    analysis.spectra  # each cyclic SCC's forward pass, and its settled index
    rev = analysis.transposed_rows
    for v in range(g.n):
        classes = analysis.classes[v]
        if classes is None:
            continue
        settled, (own, _) = analysis._settled[classes], _own_settle(v, classes, rev)
        # Plain frontier steps from {v}, with no classes and no settled index.
        step, direct = frontier_step(rev, classes.comp, False), [1 << v]
        while len(direct) <= settled + 2 * classes.period:
            direct.append(step(direct[-1]))
        for length in range(1, len(direct)):
            for bound in (math.inf, settled):
                _assert_listed_layers(g, classes, v, own, direct, bound, length)


@st.composite
def _periodic_blowups(draw):
    """A blow-up of a cycle of period 2 to 12, with classes of 1 to 3 vertices and maybe a chord."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=12))
    n = sum(sizes)
    chord = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    return _blowup(tuple(sizes), draw(st.integers(0, 2**16)), chord)


@given(st.one_of(graphs(max_order=10), _periodic_blowups()))
@settings(max_examples=150)
def test_forward_pass_stops_at_the_largest_settled_index_and_both_routes_match_the_trace(g):
    spectra = spectra_from_trace(power_trace(g))
    analysis = GraphAnalysis(g)
    for classes in set(analysis.classes) - {None}:
        start, passed = forward_pass(g.rows, classes)
        p, members = classes.period, list(bits_of(classes.comp))
        layered = {v: _own_settle(v, classes, analysis.transposed_rows) for v in members}
        assert start == max(own for own, _ in layered.values())
        for v in members:
            for settled, hits in (layered[v], (start, passed[v])):
                assert UPSet(max(settled, 1), p, frozenset({0}), frozenset(hits)) == spectra[v]
    for gathers in (True, False):
        assert _by_kernel(g, gathers, [])[0] == spectra


@given(st.one_of(graphs(max_order=10), _periodic_blowups()))
@example(_blowup((2, 2, 3, 2), 3))
@example(_blowup((3, 3, 3), 5, chord=(0, 1)))  # period 3 becomes 1
@example(_blowup((2, 2, 2, 2), 6, chord=(0, 6)))  # period 4 becomes 2
@settings(max_examples=150)
def test_both_step_kernels_give_one_pass_and_the_trace_spectra(g):
    spectra = spectra_from_trace(power_trace(g))
    for classes in set(GraphAnalysis(g).classes) - {None}:
        passes = []
        for gathers in (True, False):
            with _kernel(gathers):
                passes.append(forward_pass(g.rows, classes))
        assert passes[0] == passes[1]
        start, hits = passes[0]
        for v in bits_of(classes.comp):
            spectrum = UPSet(max(start, 1), classes.period, frozenset({0}), frozenset(hits[v]))
            assert spectrum == spectra[v]


def _pass_steps(g, gathers):
    """g's spectra, with every SCC's forward pass forced onto one step kernel, and its kernels.

    Each step kernel the pass builds is listed as the number of steps it takes.
    """
    passes, kernels = [], []

    def counted_pass(*args):
        passes.append(args)
        return forward_pass(*args)

    def counted_kernel(*args):
        vs, x, step = pass_step(*args)
        kernels.append(0)
        slot = len(kernels) - 1

        def counted(x):
            kernels[slot] += 1
            return step(x)

        return vs, x, counted

    pass_step = walks._pass_step
    with (
        _kernel(gathers),
        mock.patch.object(walks, "_pass_step", counted_kernel),
        mock.patch.object(diagonals, "forward_pass", counted_pass),
    ):
        spectra = GraphAnalysis(g).spectra
    assert len(passes) == 1  # g is strongly connected: one pass
    return spectra, kernels


def test_forward_pass_steps_until_every_row_fills_its_class():
    # Each class of a plain cycle is one vertex, so X_0 has settled: the
    # pass returns before it builds a step kernel.
    n = 3000
    for gathers in (True, False):
        spectra, kernels = _pass_steps(make_graph(n, [(v, (v + 1) % n) for v in range(n)]), gathers)
        assert kernels == []
        assert spectra == [UPSet(1, n, frozenset({0}))] * n
    # Blow-ups with every edge from a class to the next: X_1 is full, X_0 is
    # not, whatever the period and the step kernel.
    for p, c in ((7, 3), (1000, 4)):
        pairs = list(itertools.product(range(c), repeat=2))
        edges = [(g * c + a, (g + 1) % p * c + b) for g in range(p) for a, b in pairs]
        for gathers in (True, False):
            spectra, kernels = _pass_steps(make_graph(p * c, edges), gathers)
            assert kernels == [1]
            assert spectra == [UPSet(1, p, frozenset({0}))] * (p * c)
