"""Adversarial corpus: graphs whose power sequence is long or slow to settle.

Families: unions of cycles with coprime lengths, whose whole-graph period
(up to 30030) exceeds the default power-trace cap; Wielandt graphs, whose
preperiod (n-1)^2+1 is the largest a primitive graph can have; blow-ups of
a cycle, strongly connected but imprimitive; and long paths into a cycle.
Every spectrum is checked against its closed form, and the sets against
the power-trace oracle wherever that oracle is tractable.
"""

import json
from functools import partial
from unittest import mock

import pytest

from diagsets import cli, walks
from diagsets.diagonals import (
    DiagonalSpec,
    GraphAnalysis,
    default_spec_battery,
)
from diagsets.graph import VertexSet, make_graph
from diagsets.graphio import emit_edge_list
from diagsets.upsets import UPSet
from diagsets.walks import (
    TraceCapError,
    power_trace,
    spectra_from_trace,
)

BIG_N = 10**9 + 7
S_SAMPLES = [spec.s for spec in default_spec_battery() if spec.kind == "DS"]


def multiples(length):
    return UPSet(1, length, frozenset({0}))


def cycle_union(lengths):
    edges, spectra, base = [], [], 0
    for length in lengths:
        edges += [(base + j, base + (j + 1) % length) for j in range(length)]
        spectra += [multiples(length)] * length
        base += length
    return make_graph(base, edges), spectra


def wielandt(k):
    # A k-cycle 0 -> 1 -> ... -> k-1 -> 0 plus the chord k-1 -> 1: vertex 0
    # lies on the k-cycle only, every other vertex on the (k-1)-cycle too.
    edges = [(i, i + 1) for i in range(k - 1)] + [(k - 1, 0), (k - 1, 1)]

    def sums(shift):
        # {shift + a*k + b*(k-1) >= 1}; every m >= k^2 - 3k + 2 is such a sum.
        bound = shift + k * k
        members = {
            m
            for m in range(max(shift, 1), bound)
            if any((m - shift - a * k) % (k - 1) == 0 for a in range((m - shift) // k + 1))
        }
        return UPSet(bound, 1, frozenset({0}), frozenset(members))

    return make_graph(k, edges), [sums(k)] + [sums(0)] * (k - 1)


def blowup(length, copies):
    n = length * copies
    edges = [
        (c * copies + a, ((c + 1) % length) * copies + b)
        for c in range(length)
        for a in range(copies)
        for b in range(copies)
    ]
    return make_graph(n, edges), [multiples(length)] * n


def path_into_cycle(path, length):
    edges = [(i, i + 1) for i in range(path)]
    edges += [(path + j, path + (j + 1) % length) for j in range(length)]
    return make_graph(path + length, edges), [UPSet.empty()] * path + [multiples(length)] * length


CORPUS = {
    **{f"cycles-{'-'.join(map(str, c))}": partial(cycle_union, c) for c in [
        (2, 3), (3, 4, 5), (4, 5, 7), (5, 7, 9), (7, 8, 9),
        (3, 5, 7, 8), (2, 3, 5, 7, 11), (2, 3, 5, 7, 11, 13),
    ]},
    **{f"wielandt-{k}": partial(wielandt, k) for k in (8, 16, 24, 32, 64)},
    **{f"blowup-{d}x{c}": partial(blowup, d, c) for d, c in [(3, 4), (4, 5), (6, 6), (2, 9)]},
    **{f"path-{p}-cycle-{c}": partial(path_into_cycle, p, c) for p, c in [(40, 5), (60, 7), (100, 3)]},
}

# The power-trace oracle needs under a second on every graph but these
# two, given an explicit cap above the default n^2+n+2 that the (3,5,7,8)
# and (2,3,5,7,11) unions exceed (periods 840 and 2310).
TRACE_CAP = 2400
TRACTABLE = sorted(set(CORPUS) - {"cycles-2-3-5-7-11-13", "wielandt-64"})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_spectra_match_closed_forms(name):
    g, expected = CORPUS[name]()
    assert GraphAnalysis(g).spectra == expected


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_forward_pass_and_orbits_give_the_same_spectra_and_long_witnesses(name):
    # Each step kernel of the forward pass, slot gathers or ``orbit_step``'s
    # block tables, forced on every SCC, whatever the cost rule picks.
    g, expected = CORPUS[name]()
    specs = [DiagonalSpec.dn(BIG_N), DiagonalSpec.dn(10**18)]
    kernels = []
    for gathers in (True, False):
        with mock.patch.object(walks, "_gathers_beat_tables", lambda rows, comp: gathers):
            analysis = GraphAnalysis(g)
            kernels.append((analysis.spectra, analysis.verify_battery(specs)))
    assert kernels[0] == kernels[1]
    assert kernels[0][0] == expected


@pytest.mark.parametrize("name", TRACTABLE)
def test_spectra_and_sets_match_power_trace(name):
    g, _ = CORPUS[name]()
    trace = power_trace(g, cap=TRACE_CAP)
    oracle = spectra_from_trace(trace)
    assert GraphAnalysis(g).spectra == oracle
    for n in (1, 2, 3, 5, 8, BIG_N):
        via_trace = VertexSet(g.n, trace.power(n + 1).loops().bits).complement()
        assert GraphAnalysis(g).diagonal_set(DiagonalSpec.dn(n)) == via_trace
    for s in S_SAMPLES:
        shifted = s.shift(1)
        via_trace = VertexSet.from_indices(
            g.n, (v for v in range(g.n) if oracle[v].intersect(shifted).is_empty())
        )
        assert GraphAnalysis(g).diagonal_set(DiagonalSpec.ds(s)) == via_trace


def test_default_trace_cap_is_too_small_for_coprime_unions():
    for name in ("cycles-3-5-7-8", "cycles-2-3-5-7-11", "cycles-2-3-5-7-11-13"):
        g, _ = CORPUS[name]()
        with pytest.raises(TraceCapError):
            power_trace(g)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_battery_and_chain_pass(name):
    g, _ = CORPUS[name]()
    specs = default_spec_battery() + [DiagonalSpec.dn(BIG_N)]
    for _, _, witnesses in GraphAnalysis(g).verify_battery(specs):
        assert len(witnesses) == g.n
    report = GraphAnalysis(g).inclusion_chain_check(8, S_SAMPLES)
    assert report.ok


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_dn_is_ds_of_a_singleton(name):
    g, _ = CORPUS[name]()
    ns = [*range(1, 9), BIG_N]
    dn = GraphAnalysis(g).verify_battery([DiagonalSpec.dn(n) for n in ns])
    ds = GraphAnalysis(g).verify_battery([DiagonalSpec.ds(UPSet.from_finite([n])) for n in ns])
    assert [row[1:] for row in dn] == [row[1:] for row in ds]


def test_cli_analyze_prime_cycle_union_exits_zero(tmp_path, capsys):
    g, _ = CORPUS["cycles-2-3-5-7-11-13"]()
    path = tmp_path / "primes.edges"
    path.write_text(emit_edge_list(g))
    args = ["--n", f"1,2,{BIG_N}", "--s", "up(t=0,d=2,r=0)", "--spectra"]
    assert cli.main(["analyze", "--input", str(path), *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spectra"][0]["literal"] == "up(t=1,d=2,r=0)"
    assert report["spectra"][40]["literal"] == "up(t=1,d=13,r=0)"


def test_cli_spectrum_on_union_past_the_trace_cap(tmp_path, capsys):
    g, _ = CORPUS["cycles-3-5-7-8"]()
    path = tmp_path / "union.edges"
    path.write_text(emit_edge_list(g))
    assert cli.main(["spectrum", "--input", str(path), "--vertex", "0"]) == 0
    assert capsys.readouterr().out.strip() == "up(t=1,d=3,r=0)"


def test_chain_truncates_at_the_per_vertex_bound():
    # max over v of max(t_v, t_S + 1) + lcm(d_v, d_S) for the evens:
    # the 3-cycle gives 1 + 6, the path vertices 1 + 2.
    g, _ = CORPUS["path-100-cycle-3"]()
    evens = UPSet(0, 2, frozenset({0}))
    report = GraphAnalysis(g).inclusion_chain_check(8, [evens])
    assert report.truncated_identities == ((evens.literal(), 7),)
