import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from diagsets import bruteforce, cli, graphio
from diagsets.bruteforce import OracleGuardError, PropertyResult, SweepReport
from diagsets.diagonals import DiagonalSpec, GraphAnalysis, Side, Witness, validate_witness
from diagsets.graph import VertexSet
from diagsets.graphio import parse_edge_list
from diagsets.upsets import parse_upset
from diagsets.walks import TraceCapError

C3_TEXT = "n 3\n0 1\n1 2\n2 0\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_c3_report_sets(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", C3_TEXT)
    rc = cli.main(["analyze", "--input", path, "--n", "1,2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    by_spec = {entry["spec"]: entry["set"] for entry in report["specs"]}
    assert by_spec == {"D": [0, 1, 2], "Dn(1)": [0, 1, 2], "Dn(2)": [], "Dinf": []}
    assert report["graph"] == {"order": 3, "edges": 3, "loops": 0, "distinct_out_sets": 3}
    assert report["chain"]["ok"] is True
    assert report["seed"] is None


def test_one_parser_serves_every_call_without_carrying_arguments_over(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", C3_TEXT)
    assert cli.main(["analyze", "--input", path, "--n", "2", "--s", "finite(0,2)"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(["analyze", "--input", path]) == 0
    second = json.loads(capsys.readouterr().out)
    assert [e["spec"] for e in first["specs"]] == ["D", "Dn(2)", "Dinf", "DS(finite(0,2))"]
    assert [e["spec"] for e in second["specs"]] == ["D", "Dinf"]
    assert cli._build_parser() is cli._build_parser()


def test_analyze_report_witnesses_validate_on_reload(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", C3_TEXT)
    rc = cli.main(["analyze", "--input", path, "--n", "2", "--s", "finite(0,2)", "--spectra"])
    assert rc == 0
    raw = capsys.readouterr().out
    report = json.loads(raw)
    assert json.loads(json.dumps(report)) == report
    g = parse_edge_list(C3_TEXT)
    from diagsets.diagonals import Evidence

    for entry in report["specs"]:
        label = entry["spec"]
        if label == "D":
            spec = DiagonalSpec.d()
        elif label == "Dinf":
            spec = DiagonalSpec.dinf()
        elif label.startswith("Dn("):
            spec = DiagonalSpec.dn(int(label[3:-1]))
        else:
            spec = DiagonalSpec.ds(parse_upset(label[3:-1]))
        dx = VertexSet.from_indices(g.n, entry["set"])
        for row in entry["witnesses"]:
            ev = row["evidence"]
            evidence = None
            if ev is not None:
                if "walk" in ev:
                    evidence = Evidence(tuple(ev["walk"]))
                else:
                    evidence = Evidence(tuple(ev["infinite_tail"]), infinite_tail=True)
            witness = Witness(row["u"], Side(row["side"]), row["v"], evidence)
            validate_witness(g, spec, dx, witness, VertexSet.full(3))
    spectra = {entry["vertex"]: entry for entry in report["spectra"]}
    assert spectra[0]["literal"] == "up(t=1,d=3,r=0)"


def test_analyze_drops_duplicate_s_sets(tmp_path, capsys):
    path = _write(tmp_path, "c2.edges", "n 2\n0 1\n1 0\n")
    # Two literals for the evens: both parse to up(t=0,d=2,r=0).
    rc = cli.main(
        ["analyze", "--input", path, "--s", "up(t=0,d=2,r=0)", "--s", "up(t=0,d=4,r=0|2)"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert [entry["spec"] for entry in report["specs"]] == ["D", "Dinf", "DS(up(t=0,d=2,r=0))"]
    assert [row["s"] for row in report["chain"]["truncated_identities"]] == ["up(t=0,d=2,r=0)"]


def test_analyze_out_file(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", "# seed 7\n" + C3_TEXT)
    out = tmp_path / "report.json"
    rc = cli.main(["analyze", "--input", path, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["seed"] == 7


def test_analyze_rejects_bad_literal(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", C3_TEXT)
    assert cli.main(["analyze", "--input", path, "--s", "up(t=1)"]) == 2
    assert cli.main(["analyze", "--input", path, "--s", "finite()"]) == 2
    assert cli.main(["analyze", "--input", path, "--n", "0,2"]) == 2


def test_analyze_ignores_a_seed_comment_without_a_decimal_seed(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", "# seed \u00b2\n" + C3_TEXT)
    assert cli.main(["analyze", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] is None


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "\u00b2"], "--n expects positive integers"),
        (["--s", "finite(\u00b2)"], "value must be a natural number"),
    ],
)
def test_analyze_rejects_non_decimal_digits_with_the_parser_message(
    tmp_path, capsys, args, message
):
    path = _write(tmp_path, "c3.edges", C3_TEXT)
    assert cli.main(["analyze", "--input", path, *args]) == 2
    assert message in capsys.readouterr().err


def test_analyze_missing_file_is_usage_error(capsys):
    assert cli.main(["analyze", "--input", "/nonexistent/ghosts.edges"]) == 2


def test_analyze_malformed_edge_list(tmp_path):
    path = _write(tmp_path, "bad.edges", "0 zebra\n")
    assert cli.main(["analyze", "--input", path]) == 2


def test_spectrum_subcommand(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", C3_TEXT)
    rc = cli.main(["spectrum", "--input", path, "--vertex", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "up(t=1,d=3,r=0)"


def test_spectrum_vertex_out_of_range(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", C3_TEXT)
    for vertex in ("5", "-1"):
        assert cli.main(["spectrum", "--input", path, "--vertex", vertex]) == 2
        assert f"vertex {vertex} outside [0, 3)" in capsys.readouterr().err


def test_gen_emits_parseable_deterministic_output(capsys):
    assert cli.main(["gen", "--n", "6", "--p", "0.4", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["gen", "--n", "6", "--p", "0.4", "--seed", "42"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("# seed 42\nn 6\n")
    parse_edge_list(first)


def test_gen_forbid_loops(capsys):
    assert cli.main(["gen", "--n", "5", "--p", "1.0", "--seed", "1", "--loops", "forbid"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.loops().to_list() == []
    assert g.edge_count() == 20


def test_verify_small_sweep_exits_zero(capsys):
    assert cli.main(["verify", "--order-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "VERIFY OK" in out
    assert "18 graphs" in out


def test_verify_with_random_suite(capsys):
    rc = cli.main(["verify", "--order-max", "1", "--random", "6", "--size", "4..6", "--seed", "3"])
    assert rc == 0
    assert "randomized: 6 graphs" in capsys.readouterr().out


def test_verify_reports_failures_with_exit_one(monkeypatch, capsys):
    broken = SweepReport(
        graphs_checked=1,
        per_order={1: 1},
        properties=[PropertyResult("theorem[D]", passes=0, failures=1, first_counterexample="x")],
    )
    monkeypatch.setattr(cli, "exhaustive_sweep", lambda **kwargs: broken)
    assert cli.main(["verify", "--order-max", "1"]) == 1
    assert "VERIFY FAILED" in capsys.readouterr().out


def _plant_on_order_five(monkeypatch, method, error):
    original = getattr(GraphAnalysis, method)

    def planted(self, *args):
        if self.g.n == 5:
            raise error("planted engine fault")
        return original(self, *args)

    monkeypatch.setattr(GraphAnalysis, method, planted)


RANDOM_THREE = ["verify", "--order-max", "1", "--random", "3", "--size", "4..6", "--seed", "3"]


@pytest.mark.parametrize("method", ["verify_battery", "inclusion_chain_check"])
@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_verify_random_reports_any_engine_fault_as_that_graphs_failure(
    monkeypatch, capsys, method, error
):
    # The second of three random graphs has order 5; the other two still pass.
    _plant_on_order_five(monkeypatch, method, error)
    assert cli.main(RANDOM_THREE) == 1
    out = capsys.readouterr().out.splitlines()
    fails = [line for line in out if "FAIL" in line]
    assert len(fails) == 2, out
    assert fails[0].startswith("  FAIL seed=4 order=5 p=0.2 loops=forbid: ")
    assert "planted engine fault" in fails[0]
    assert "randomized: 3 graphs, orders 4..6, 1 failures" in out
    assert fails[1] == "VERIFY FAILED: 1 failure(s)"


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_verify_random_still_exits_three_on_a_resource_cap(monkeypatch, capsys, error):
    _plant_on_order_five(monkeypatch, "verify_battery", error)
    assert cli.main(RANDOM_THREE) == 3
    assert capsys.readouterr().err == "resource cap: planted engine fault\n"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze"])  # missing --input
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_bad_size_range(capsys):
    assert cli.main(["verify", "--order-max", "1", "--random", "2", "--size", "6..4"]) == 2


def test_s_with_a_period_past_a_million_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "c2.edges", "n 2\n0 1\n1 0\n")
    assert cli.main(["analyze", "--input", path, "--s", "up(t=0,d=1048573,r=0)"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["specs"][-1]["set"] == []
    assert report["chain"]["truncated_identities"] == [
        {"s": "up(t=0,d=1048573,r=0)", "bound": 2097147}
    ]
    assert report["chain"]["ok"]


@pytest.mark.parametrize(
    ("error", "target", "prop"),
    [
        (TraceCapError, "power_trace", "spectrum"),
        (OracleGuardError, "diagonal_inf_bf", "oracle[Dinf]"),
    ],
    ids=["TraceCapError", "OracleGuardError"],
)
def test_resource_caps_exit_three(monkeypatch, capsys, error, target, prop):
    # The name is kept from when cli.main mapped these two caps to exit 3. Only the
    # sweep raises them, and it records each as a counterexample, so verify exits 1.
    def capped(g, table=None):
        raise error("planted cap")

    monkeypatch.setattr(bruteforce, target, capped)
    props = {p.name: p for p in bruteforce.exhaustive_sweep(1).properties}
    assert (props[prop].passes, props[prop].failures) == (0, 2)
    assert "planted cap" in props[prop].first_counterexample
    assert cli.main(["verify", "--order-max", "1"]) == 1
    assert "VERIFY FAILED: 2 failure(s)" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["0 99999999999999999999\n", "n 99999999999999999999\n"])
def test_ids_too_large_to_represent_exit_three(tmp_path, capsys, text):
    path = _write(tmp_path, "huge.edges", text)
    assert cli.main(["analyze", "--input", path]) == 3
    assert capsys.readouterr().err.startswith("resource cap: ")


def test_an_order_past_the_memory_limit_exits_three(tmp_path):
    # The adjacency rows of 3e8 vertices need 2.4 GB; the child may map 1 GiB.
    path = _write(tmp_path, "big.edges", "n 300000000\n")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from diagsets import cli\n"
        f"sys.exit(cli.main(['analyze', '--input', {path!r}]))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("resource cap: ")


def test_gen_rejects_a_negative_seed_before_writing(monkeypatch, capsys):
    # "# seed -7" would not read back, and Random(-7) draws the graph of seed 7.
    def drawn(seed):
        raise AssertionError(f"a graph was drawn from seed {seed}")

    monkeypatch.setattr(graphio.random, "Random", drawn)
    assert cli.main(["gen", "--n", "3", "--p", "0.5", "--seed", "-7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative, got -7\n"


@pytest.mark.parametrize(
    "bad", [["--size", "9..3"], ["--p", "1.5"], ["--random", "-1"], ["--seed", "-1"]]
)
def test_verify_random_arguments_are_checked_before_the_sweep(capsys, bad):
    assert cli.main(["verify", "--random", "2", *bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_analyze_with_an_empty_n_list_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "c3.edges", C3_TEXT)
    assert cli.main(["analyze", "--input", path, "--n="]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --n expects positive integers, got ''")


def test_verify_checks_the_random_arguments_without_random_graphs(capsys):
    assert cli.main(["verify", "--size", "nonsense", "--p", "7", "--seed", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --size expects MIN..MAX, got 'nonsense'\n"


def test_report_example_is_current(tmp_path, capsys):
    example = Path(__file__).resolve().parents[1] / "docs" / "report.example.json"
    committed = example.read_text()
    path = _write(tmp_path, "c3.edges", "# seed 42\n" + C3_TEXT)
    rc = cli.main(["analyze", "--input", path, "--n", "1,2", "--s", "finite(0,2)", "--spectra"])
    assert rc == 0
    # The bytes the CLI wrote, with only the values under "timings_ms" masked.
    assert _mask_timings(capsys.readouterr().out) == _mask_timings(committed)


def _mask_timings(text):
    head, key, tail = text.partition('"timings_ms": {')
    block, brace, rest = tail.partition("}")
    assert key and brace
    return head + key + re.sub(r": [0-9.e+-]+", ": <ms>", block) + brace + rest
