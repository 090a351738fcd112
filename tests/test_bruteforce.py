import pytest

from diagsets import bruteforce, diagonals, graph
from diagsets.bruteforce import (
    MAX_ORACLE_ORDER,
    SWEEP_SPECTRUM_LEN,
    OracleGuardError,
    closed_walk_lengths_bf,
    diagonal_S_bf,
    diagonal_inf_bf,
    diagonal_n_bf,
    enumerate_graphs,
    exhaustive_sweep,
    walk_exists_bf,
    walk_from_exists_bf,
    walk_table,
)
from diagsets.diagonals import GraphAnalysis
from diagsets.graph import bits_of, make_graph
from diagsets.graphio import gen_random
from diagsets.walks import mat_mul_bool

C3 = make_graph(3, [(0, 1), (1, 2), (2, 0)])
PATH3 = make_graph(3, [(0, 1), (1, 2)])
LOOP1 = make_graph(1, [(0, 0)])
K3_LOOPED = make_graph(3, [(u, w) for u in range(3) for w in range(3)])

BATTERY_LABELS = (
    ["D"] + [f"Dn({n})" for n in range(1, 7)] + ["Dinf"]
    + ["DS(finite(0))", "DS(finite(1))", "DS(finite(0,2))"]
)
SWEEP_PROPERTIES = (
    [f"theorem[{label}]" for label in BATTERY_LABELS]
    + ["theorem[DS(up(t=0,d=2,r=0))]", "theorem[DS(up(t=0,d=2,r=1))]", "chain"]
    + [f"oracle[{label}]" for label in BATTERY_LABELS]
    + ["spectrum", "pigeonhole"]
)


def test_walk_exists_on_c3():
    assert walk_exists_bf(C3, 0, 0, 3)
    assert not walk_exists_bf(C3, 0, 0, 2)


def test_empty_walk_convention():
    assert walk_exists_bf(PATH3, 1, 1, 0)
    assert not walk_exists_bf(PATH3, 1, 2, 0)


def test_walk_from_exists():
    assert walk_from_exists_bf(PATH3, 0, 2)
    assert not walk_from_exists_bf(PATH3, 0, 3)


def test_guards_are_hard_errors():
    big = make_graph(9, [])
    with pytest.raises(OracleGuardError):
        walk_exists_bf(big, 0, 0, 1)
    # The guard comes before the vertex checks.
    with pytest.raises(OracleGuardError):
        walk_exists_bf(big, 0, 99, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        walk_exists_bf(C3, 0, 0, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        walk_from_exists_bf(C3, 0, -1)
    with pytest.raises(OracleGuardError):
        walk_exists_bf(C3, 0, 0, 13)
    with pytest.raises(OracleGuardError):
        diagonal_n_bf(C3, 12)
    with pytest.raises(OracleGuardError):
        closed_walk_lengths_bf(C3, 0, 129)


def test_diagonal_n_bf_on_c3():
    assert diagonal_n_bf(C3, 2).to_list() == []
    assert diagonal_n_bf(C3, 1).to_list() == [0, 1, 2]
    with pytest.raises(ValueError):
        diagonal_n_bf(C3, 0)


def test_diagonal_inf_bf_on_acyclic_path():
    assert diagonal_inf_bf(PATH3).to_list() == [0, 1, 2]
    assert diagonal_inf_bf(C3).to_list() == []


def test_diagonal_S_bf_on_loop():
    assert diagonal_S_bf(LOOP1, [0, 4]).to_list() == []
    with pytest.raises(ValueError):
        diagonal_S_bf(LOOP1, [])


def test_closed_walk_lengths():
    assert closed_walk_lengths_bf(C3, 0, 10) == {3, 6, 9}
    assert closed_walk_lengths_bf(PATH3, 0, 10) == set()
    assert closed_walk_lengths_bf(LOOP1, 0, 5) == {1, 2, 3, 4, 5}
    assert closed_walk_lengths_bf(C3, 0, 0) == set()
    assert closed_walk_lengths_bf(C3, 0, -3) == set()


def _walk_exists_by_recursion(g, u, w, length):
    """Literal enumeration of every walk of `length` edges from u; w=None accepts any end."""
    if length == 0:
        return w is None or u == w
    return any(
        _walk_exists_by_recursion(g, y, w, length - 1) for y in range(g.n) if g.has_edge(u, y)
    )


def test_walk_oracles_equal_literal_enumeration_on_every_graph_of_order_three():
    for order in range(1, 4):
        for g in enumerate_graphs(order):
            for u in range(g.n):
                for length in range(8):
                    assert walk_from_exists_bf(g, u, length) == _walk_exists_by_recursion(
                        g, u, None, length
                    )
                    for w in range(g.n):
                        assert walk_exists_bf(g, u, w, length) == _walk_exists_by_recursion(
                            g, u, w, length
                        )
                closed = {L for L in range(1, 13) if _walk_exists_by_recursion(g, u, u, L)}
                assert closed_walk_lengths_bf(g, u, 12) == closed


def _count_has_edge(monkeypatch):
    calls = []
    has_edge = graph.Graph.has_edge
    monkeypatch.setattr(
        graph.Graph, "has_edge", lambda g, u, w: calls.append((u, w)) or has_edge(g, u, w)
    )
    return calls


def test_walk_oracle_reads_each_vertex_pair_once(monkeypatch):
    calls = _count_has_edge(monkeypatch)
    assert walk_exists_bf(K3_LOOPED, 0, 0, 12)
    assert len(calls) == 9
    calls.clear()
    assert walk_from_exists_bf(K3_LOOPED, 0, 12)
    assert len(calls) == 9
    # Every n of S, and every length 1..|V| of Dinf, is served by one read
    # of the 9 vertex pairs; S's 0-clause reads each loop once more.
    calls.clear()
    assert diagonal_S_bf(K3_LOOPED, [0, 1, 5]).to_list() == []
    assert len(calls) == 9 + 3
    calls.clear()
    assert diagonal_inf_bf(K3_LOOPED).to_list() == []
    assert len(calls) == 9


def test_sweep_oracles_read_the_graph_once_per_graph(monkeypatch):
    calls = _count_has_edge(monkeypatch)
    assert exhaustive_sweep(order_max=3).ok()
    # One walk table per graph reads its n^2 vertex pairs once; the 0-clauses
    # of D, DS(finite(0)) and DS(finite(0,2)) read each loop once more. One
    # read per (vertex, n) took 175,056 calls, one per oracle call 70,078.
    assert len(calls) == sum(
        (1 << order * order) * (order * order + 3 * order) for order in range(1, 4)
    )
    assert len(calls) == 9_384


def _table_test_graphs():
    for order in range(1, 4):
        yield from enumerate_graphs(order)
    for seed in range(40):
        yield gen_random(4 + seed % (MAX_ORACLE_ORDER - 3), 0.1 + seed % 7 * 0.1, seed)


def test_walk_table_rows_are_the_rows_of_the_powers_of_a_and_every_oracle_reads_them():
    for g in _table_test_graphs():
        table = walk_table(g, SWEEP_SPECTRUM_LEN)
        powers = [None, g]  # powers[L] is A^L
        while len(powers) <= SWEEP_SPECTRUM_LEN:
            powers.append(mat_mul_bool(powers[-1], g))
        for v in range(g.n):
            rows = [frozenset(bits_of(a.rows[v])) for a in powers[1:]]
            assert table[v] == [frozenset((v,)), *rows]
            assert closed_walk_lengths_bf(g, v, SWEEP_SPECTRUM_LEN, table=table) == (
                closed_walk_lengths_bf(g, v, SWEEP_SPECTRUM_LEN)
            )
        assert diagonal_inf_bf(g, table=table) == diagonal_inf_bf(g)
        for s in ([0], [1], [0, 2], [3], [1, 5, 11]):
            assert diagonal_S_bf(g, s, table=table) == diagonal_S_bf(g, s)


def test_a_walk_table_too_short_for_the_call_is_refused():
    table = walk_table(C3, 2)
    assert diagonal_S_bf(C3, [1], table=table).to_list() == [0, 1, 2]
    with pytest.raises(ValueError, match="walk table"):
        diagonal_S_bf(C3, [2], table=table)
    with pytest.raises(ValueError, match="walk table"):
        diagonal_inf_bf(C3, table=table)
    with pytest.raises(ValueError, match="walk table"):
        closed_walk_lengths_bf(C3, 0, 3, table=table)
    with pytest.raises(ValueError, match="walk table"):
        diagonal_inf_bf(PATH3, table=walk_table(C3, 3)[:2])
    with pytest.raises(OracleGuardError):
        walk_table(C3, 129)
    with pytest.raises(OracleGuardError):
        walk_table(make_graph(9, []), 1)


def test_enumerate_graphs_counts():
    assert len(list(enumerate_graphs(1))) == 2
    two = list(enumerate_graphs(2))
    assert len(two) == 16
    assert len(set(two)) == 16


def test_sweep_order_one():
    report = exhaustive_sweep(order_max=1)
    assert report.graphs_checked == 2
    assert report.per_order == {1: 2}
    assert report.ok()


def test_sweep_order_two():
    report = exhaustive_sweep(order_max=2)
    assert report.graphs_checked == 18
    assert report.per_order == {1: 2, 2: 16}
    assert [p.name for p in report.properties] == SWEEP_PROPERTIES
    assert all(p.passes == 18 and p.failures == 0 for p in report.properties)
    assert all(p.first_counterexample is None for p in report.properties)


def test_sweep_rejects_bad_bounds():
    with pytest.raises(ValueError):
        exhaustive_sweep(order_max=0)
    with pytest.raises(ValueError):
        exhaustive_sweep(order_max=5)


def _assert_only_these_fail(report, failing):
    """Each property's (passes, failures, first counterexample) over the 530 graphs."""
    for p in report.properties:
        tally = (p.passes, p.failures, p.first_counterexample)
        assert tally == failing.get(p.name, (530, 0, None)), p.name


def test_sweep_names_a_failing_witness_check_by_its_spec(monkeypatch):
    validate = diagonals.validate_witness

    def planted(g, spec, dx, witness, cyclic):
        if spec.label() == "Dn(3)" and g.rows[0] & 1:
            raise diagonals.TheoremViolationError("planted on Dn(3)")
        return validate(g, spec, dx, witness, cyclic)

    monkeypatch.setattr(diagonals, "validate_witness", planted)
    first = "order=1 edges=[(0, 0)]: planted on Dn(3)"
    _assert_only_these_fail(exhaustive_sweep(3), {"theorem[Dn(3)]": (265, 265, first)})


def test_sweep_names_every_spec_a_failing_descent_reaches(monkeypatch):
    descend = diagonals._descend

    def planted(g, layers, start, length):
        if length == 4:
            raise diagonals.InternalDisagreementError("planted descent of length 4")
        return descend(g, layers, start, length)

    monkeypatch.setattr(diagonals, "_descend", planted)
    message = "planted descent of length 4"
    first_dn = f"order=2 edges=[(0, 1), (1, 0)]: {message}"
    first_ds = f"order=3 edges=[(0, 0), (0, 1), (1, 2), (2, 0)]: {message}"
    _assert_only_these_fail(
        exhaustive_sweep(3),
        {
            "theorem[Dn(3)]": (277, 253, first_dn),
            "theorem[DS(up(t=0,d=2,r=1))]": (500, 30, first_ds),
        },
    )


def test_passing_sweep_runs_one_battery_per_graph(monkeypatch):
    calls = {}

    def count(name):
        method = getattr(GraphAnalysis, name)

        def counted(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return method(self, *args)

        monkeypatch.setattr(GraphAnalysis, name, counted)

    for name in ("verify_battery", "verify_unequal", "_vertex", "_witness"):
        count(name)
    assert exhaustive_sweep(3).ok()
    # One verify_unequal per spec took 6,890 batteries, 20,410 vertex
    # passes and 20,410 witnesses.
    assert calls == {"verify_battery": 530, "_vertex": 1570, "_witness": 9549}


def test_the_literal_spectrum_check_catches_a_fault_the_trace_cannot(monkeypatch):
    # The trace comparison passes on both plants; only the literal lengths differ.
    closed = bruteforce.closed_walk_lengths_bf
    with_length_three = sum(
        any(_walk_exists_by_recursion(g, v, v, 3) for v in range(g.n))
        for order in range(1, 4)
        for g in enumerate_graphs(order)
    )
    assert with_length_three == 476

    monkeypatch.setattr(
        bruteforce, "closed_walk_lengths_bf", lambda *args, **kw: closed(*args, **kw) - {3}
    )
    first = "order=1 edges=[(0, 0)]: spectrum of 0 wrong at length 3"
    _assert_only_these_fail(
        exhaustive_sweep(3), {"spectrum": (530 - with_length_three, with_length_three, first)}
    )

    monkeypatch.setattr(
        bruteforce, "closed_walk_lengths_bf", lambda *args, **kw: closed(*args, **kw) | {0}
    )
    first = "order=1 edges=[]: spectrum of 0 wrong at length 0"
    _assert_only_these_fail(exhaustive_sweep(3), {"spectrum": (0, 530, first)})
