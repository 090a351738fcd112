"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.

Corpora: every digraph of order <= 3 (530 graphs), 200 seeded random
graphs of order <= 8, and 512 seeded random graphs of orders 4..64 over
four densities with loops alternately allowed and forbidden.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from diagsets.bruteforce import (
    MAX_ORACLE_SPECTRUM,
    closed_walk_lengths_bf,
    diagonal_S_bf,
    diagonal_inf_bf,
    diagonal_n_bf,
    enumerate_graphs,
)
from diagsets.diagonals import (
    DiagonalSpec,
    Evidence,
    GraphAnalysis,
    Side,
    Witness,
    default_spec_battery,
    distinct_out_count,
)
from diagsets.graph import VertexSet
from diagsets.graphio import gen_random
from diagsets.upsets import UPSet
from diagsets.walks import (
    power_trace,
    spectra_from_trace,
)

EVENS = UPSet(0, 2, frozenset({0}))
ODDS = UPSet(0, 2, frozenset({1}))
PS = (0.05, 0.2, 0.5, 0.9)


def cantor_witness(g, v):
    """The fixed-point witness: v itself separates D from Out(v)."""
    if g.has_edge(v, v):
        return Witness(v, Side.OUT_MINUS_DX, v, Evidence((v, v)))
    return Witness(v, Side.DX_MINUS_OUT, v, None)


@contextmanager
def criterion(name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")


@pytest.fixture(scope="module")
def small_exhaustive():
    graphs = []
    for order in (1, 2, 3):
        graphs.extend(enumerate_graphs(order))
    return graphs


@pytest.fixture(scope="module")
def random_small():
    return [
        gen_random(3 + i % 6, PS[i % 4], 1000 + i, "allow" if i % 2 == 0 else "forbid")
        for i in range(200)
    ]


@pytest.fixture(scope="module")
def random_mid():
    return [
        gen_random(4 + i % 61, PS[i % 4], 2000 + i, "allow" if i % 2 == 0 else "forbid")
        for i in range(512)
    ]


def test_criterion_01_exhaustive_theorem_check(small_exhaustive):
    with criterion("1. exhaustive theorem check: 530 graphs x 13 specs, witnesses validated, < 10 s"):
        battery = default_spec_battery()
        assert len(battery) == 13
        assert len(small_exhaustive) == 530
        by_order = {}
        for g in small_exhaustive:
            by_order[g.n] = by_order.get(g.n, 0) + 1
        assert by_order == {1: 2, 2: 16, 3: 512}
        start = time.perf_counter()
        for g in small_exhaustive:
            results = GraphAnalysis(g).verify_battery(battery)
            assert all(len(witnesses) == g.n for _, _, witnesses in results)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_randomized_theorem_check(random_mid):
    with criterion("2. randomized theorem check: 512 graphs, orders 4..64, < 60 s"):
        battery = default_spec_battery()
        assert len(random_mid) >= 500
        orders = {g.n for g in random_mid}
        assert min(orders) == 4 and max(orders) == 64
        start = time.perf_counter()
        for g in random_mid:
            results = GraphAnalysis(g).verify_battery(battery)
            assert all(len(witnesses) == g.n for _, _, witnesses in results)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_oracle_equivalence(small_exhaustive, random_small):
    with criterion("3. oracle equivalence: Dn (n<=5), Dinf, finite DS match brute force exactly"):
        finite_samples = [[0], [1], [0, 2], [2, 5], [0, 1, 2, 3, 4, 5]]
        for g in small_exhaustive + random_small:
            for n in range(1, 6):
                assert GraphAnalysis(g).diagonal_set(DiagonalSpec.dn(n)) == diagonal_n_bf(g, n)
            assert GraphAnalysis(g).diagonal_set(DiagonalSpec.dinf()) == diagonal_inf_bf(g)
            for values in finite_samples:
                spec = DiagonalSpec.ds(UPSet.from_finite(values))
                assert GraphAnalysis(g).diagonal_set(spec) == diagonal_S_bf(g, values)


def test_criterion_04_spectrum_soundness(small_exhaustive, random_small):
    with criterion("4. spectrum soundness: spectra = one-vertex spectrum = enumeration, L <= 40"):
        for g in small_exhaustive + random_small:
            spectra = spectra_from_trace(power_trace(g))
            assert GraphAnalysis(g).spectra == spectra
            for v in range(g.n):
                truth = closed_walk_lengths_bf(g, v, 40)
                for length in range(1, 41):
                    member = spectra[v].member(length)
                    assert member == (length in truth)
                    assert member == GraphAnalysis(g).spectrum(v).member(length)
                assert not spectra[v].member(0)


def test_criterion_05_dinf_triple_agreement(small_exhaustive, random_small):
    with criterion("5. D_inf triple agreement: SCC route = matrix route = brute force"):
        for g in small_exhaustive + random_small:
            # The Dinf diagonal set computes both engine routes and aborts on mismatch.
            assert GraphAnalysis(g).diagonal_set(DiagonalSpec.dinf()) == diagonal_inf_bf(g)


def test_criterion_06_chain_and_intersection_identities(
    small_exhaustive, random_small, random_mid
):
    with criterion("6. chain D_inf <= D_n <= D (n <= 8) and the intersection identities"):
        samples = [
            UPSet.from_finite([0]),
            UPSet.from_finite([1]),
            UPSet.from_finite([0, 2]),
            EVENS,
            ODDS,
        ]
        for g in small_exhaustive + random_small + random_mid:
            GraphAnalysis(g).inclusion_chain_check(8, samples)
        # Truncation-bound validation on brute-force-checkable orders: the
        # engine D_S must match enumeration over a window beyond the bound.
        for g in small_exhaustive + random_small:
            trace = power_trace(g)
            for s in (EVENS, ODDS):
                bound = max(trace.mu, s.threshold + 1) + math.lcm(trace.lam, s.period)
                window = min(MAX_ORACLE_SPECTRUM, 2 * bound + 16)
                assert window >= bound
                engine = GraphAnalysis(g).diagonal_set(DiagonalSpec.ds(s))
                for v in range(g.n):
                    lengths = closed_walk_lengths_bf(g, v, window)
                    violated = any(s.member(length - 1) for length in lengths)
                    assert (v in engine) == (not violated)


def test_criterion_07_cantor_fixed_point(small_exhaustive, random_small, random_mid):
    with criterion("7. D's witness for v is cantor_witness(G, v), at v, on every corpus graph"):
        for g in small_exhaustive + random_small + random_mid:
            witnesses = GraphAnalysis(g).verify_unequal(DiagonalSpec.d())
            assert witnesses == [cantor_witness(g, v) for v in range(g.n)]
            assert all(w.vertex == v for v, w in enumerate(witnesses))


def test_criterion_08_pigeonhole_count(small_exhaustive, random_small, random_mid):
    with criterion("8. distinct out-set count <= order; D avoids all out-sets (order <= 3)"):
        for g in small_exhaustive + random_small + random_mid:
            count, order = distinct_out_count(g)
            assert count <= order
        for g in small_exhaustive:
            d = GraphAnalysis(g).diagonal_set(DiagonalSpec.d())
            assert all(g.out_set(v) != d for v in range(g.n))


def test_criterion_09_big_exponent_performance():
    with criterion("9. Dn at n = 10^9+7 on order 256 in < 2 s, equal to trace route"):
        g = gen_random(256, 0.05, 424242, "allow")
        n = 10**9 + 7
        start = time.perf_counter()
        fast = GraphAnalysis(g).diagonal_set(DiagonalSpec.dn(n))
        elapsed = time.perf_counter() - start
        trace = power_trace(g)
        via_trace = VertexSet(g.n, trace.power(n + 1).loops().bits).complement()
        assert fast == via_trace
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def _run_cli(args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "diagsets", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_criterion_10_cli_determinism(tmp_path):
    with criterion("10. CLI determinism: gen byte-identical, analyze timing-only diffs, verify ok"):
        gen_args = ["gen", "--n", "16", "--p", "0.25", "--seed", "42", "--loops", "forbid"]
        gen1 = _run_cli(gen_args)
        gen2 = _run_cli(gen_args)
        assert gen1.returncode == 0 and gen2.returncode == 0, gen1.stderr + gen2.stderr
        assert gen1.stdout == gen2.stdout

        graph_file = tmp_path / "generated.edges"
        graph_file.write_text(gen1.stdout)
        analyze_args = [
            "analyze",
            "--input",
            str(graph_file),
            "--n",
            "1,2,5",
            "--s",
            "finite(0,2)",
            "--spectra",
        ]
        rep1 = _run_cli(analyze_args)
        rep2 = _run_cli(analyze_args)
        assert rep1.returncode == 0 and rep2.returncode == 0, rep1.stderr + rep2.stderr
        doc1 = json.loads(rep1.stdout)
        doc2 = json.loads(rep2.stdout)
        assert doc1.pop("timings_ms") is not None
        assert doc2.pop("timings_ms") is not None
        assert doc1 == doc2
        assert doc1["seed"] == 42

        verify = _run_cli(["verify", "--order-max", "3"])
        assert verify.returncode == 0, verify.stdout + verify.stderr
        assert "VERIFY OK" in verify.stdout
