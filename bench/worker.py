"""One run of one workload in a fresh process: set-up, measured phase, checks.

``run.py`` starts this script.  It prints ``READY {...}`` as soon as set-up
(imports, input generation, file writing) is done, then, unless
``--setup-only`` is given, one JSON line with the run's raw results.

Operations call the program in this process through its public entry
points, looked up on their modules at call time so that the tracer's
wrappers are used when installed.  Each operation's output is checked
right after it returns, outside its timed interval.
"""

from __future__ import annotations

from time import perf_counter

# First reading of the clock in this process: the set-up's Python part starts here.
T_PROCESS = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from probe import SpeedProbe  # noqa: E402


class Battery:
    """battery-mid: verify_battery then inclusion_chain_check, one graph per operation."""

    graphs_per_op = 1
    labels = (
        ["D"] + [f"Dn({k})" for k in range(1, 7)] + ["Dinf"]
        + [f"DS({s})" for s in ("finite(0)", "finite(1)", "finite(0,2)",
                                "up(t=0,d=2,r=0)", "up(t=0,d=2,r=1)")]
    )
    finite_s = ["finite(0)", "finite(1)", "finite(0,2)"]
    infinite_s = ["up(t=0,d=2,r=0)", "up(t=0,d=2,r=1)"]

    def __init__(self, seed: int, workdir: Path, lib):
        from workloads import battery_cases

        self.lib = lib
        self.cases = battery_cases(seed)
        self.graphs = []
        for case in self.cases:
            self.graphs.append(lib.graph.make_graph(case.n, case.edges))
            case.edges = []
        self.battery = lib.diagonals.default_spec_battery()
        self.s_samples = [spec.s for spec in self.battery if spec.kind == "DS"]
        self.facts = {}

    def __len__(self) -> int:
        return len(self.cases)

    def run(self, i: int):
        d = self.lib.diagonals
        g = self.graphs[i]
        return d.verify_battery(g, self.battery), d.inclusion_chain_check(g, 8, self.s_samples)

    def check(self, i: int, out) -> bool:
        checks = self.lib.checks
        case = self.cases[i]
        if i not in self.facts:
            self.facts[i] = checks.Facts(case.rows, 7)
        battery, chain = out
        checks.check_battery(case, self.facts[i], battery, chain, self.labels,
                             self.finite_s, self.infinite_s)
        return True


class Analyze:
    """analyze-large / analyze-adversarial: one ``diagsets analyze`` call per graph file."""

    graphs_per_op = 1
    labels = ["D", "Dn(1)", "Dn(2)", "Dn(1000000007)", "Dinf",
              "DS(up(t=0,d=2,r=0))", "DS(finite(0,2))"]

    def __init__(self, cases, workdir: Path, lib):
        from workloads import ANALYZE_ARGS, edge_list_text

        self.lib = lib
        self.cases = cases
        self.inputs, self.outputs = [], []
        workdir.mkdir(parents=True, exist_ok=True)
        for case in cases:
            path = workdir / f"{case.name}.edges"
            path.write_text(edge_list_text(case))
            case.edges = []
            self.inputs.append(str(path))
            self.outputs.append(workdir / f"{case.name}.json")
        self.args = list(ANALYZE_ARGS)
        self.facts = {}

    def __len__(self) -> int:
        return len(self.cases)

    def run(self, i: int):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.lib.cli.main(
                ["analyze", "--input", self.inputs[i], "--out", str(self.outputs[i]), *self.args]
            )
        return rc, err.getvalue()

    def check(self, i: int, out) -> bool:
        checks = self.lib.checks
        case = self.cases[i]
        rc, err = out
        if rc != 0:
            # The one fault kept in the workload: cycle unions whose period
            # exceeds the power-trace cap fail every time, with this message.
            if case.fails_trace_cap and rc == 1 and "no repeated power within cap" in err:
                return False
            raise checks.CheckError(f"{case.name}: analyze exited {rc}: {err.strip()}")
        if i not in self.facts:
            self.facts[i] = checks.Facts(case.rows, 3)
        path = self.outputs[i]
        report = json.loads(path.read_text())
        path.unlink()
        checks.check_report(case, self.facts[i], report, self.labels)
        return True


class Sweep:
    """verify-sweep: ``diagsets verify --order-max 3``, one call per operation."""

    def __init__(self, seed: int, workdir: Path, lib):
        self.lib = lib
        self.graphs_per_op = lib.checks.sweep_graph_count()

    def __len__(self) -> int:
        return 1

    def run(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.lib.cli.main(["verify", "--order-max", str(self.lib.checks.SWEEP_ORDER_MAX)])
        return rc, buf.getvalue()

    def check(self, i: int, out) -> bool:
        self.lib.checks.check_sweep(*out)
        return True


def make_workload(name: str, seed: int, workdir: Path, lib):
    from workloads import adversarial_cases, large_cases

    if name == "battery-mid":
        return Battery(seed, workdir, lib)
    if name == "analyze-large":
        return Analyze(large_cases(seed), workdir, lib)
    if name == "analyze-adversarial":
        return Analyze(adversarial_cases(seed), workdir, lib)
    if name == "verify-sweep":
        return Sweep(seed, workdir, lib)
    raise SystemExit(f"unknown workload {name!r}")


class Lib:
    """The program's modules, plus the benchmark's checks."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import diagsets.cli
        import diagsets.diagonals
        import diagsets.graph

        import checks

        self.cli = diagsets.cli
        self.diagonals = diagsets.diagonals
        self.graph = diagsets.graph
        self.checks = checks


def run_ops(wl, lib, probe, count: int | None, seconds: float, tracer=None):
    """Run operations round-robin; return [(start, end, status)] and error messages.

    Without ``count``, runs whole rounds (every input once) until ``seconds``
    have passed: inputs differ tenfold in cost, so a partial round would
    change the mix with the host's speed, and the share of known failures
    must be the same in every run.

    status is "ok", "failed-known" (the trace-cap fault), "failed" (the
    program raised) or "wrong" (its output did not pass the checks).
    """
    records, errors = [], []
    n = len(wl)
    t_begin = perf_counter()
    i = 0
    while True:
        idx = i % n
        s = perf_counter()
        try:
            if tracer is None:
                out = wl.run(idx)
            else:
                with tracer.op_span(idx):
                    out = wl.run(idx)
            exc = None
        except Exception as e:  # noqa: BLE001 - any raise is a failed operation
            out, exc = None, e
        e_time = perf_counter()
        if exc is not None:
            status = "failed"
            errors.append(f"op {idx}: {type(exc).__name__}: {exc}")
        else:
            try:
                status = "ok" if wl.check(idx, out) else "failed-known"
            except lib.checks.CheckError as err:
                status = "wrong"
                errors.append(f"op {idx}: {err}")
        records.append((s, e_time, status))
        i += 1
        if count is not None:
            if i >= count:
                break
        elif i % n == 0 and perf_counter() - t_begin >= seconds:
            break
    probe.burst()
    return records, errors


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all order statistics.

    It moves less from run to run than a single order statistic, which
    matters when a few values sit on either side of the quantile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(xs, 1):
        cur = _betainc(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total


def summarize(wl, probe, records) -> dict:
    """End-to-end figures of a measured phase, in reference-speed time.

    Latency quantiles weight every input equally: they are taken over each
    input's median latency, so they do not depend on how many rounds a run
    completed.  A workload with a single input takes them over its calls.
    """
    n = len(wl)
    lat = [probe.rescaled(s, e) for s, e, _ in records]
    by_case: dict[int, list[float]] = {}
    for i, (x, (_, _, status)) in enumerate(zip(lat, records)):
        if status == "ok":
            by_case.setdefault(i % n, []).append(x * 1e3)
    ok_ops = sum(len(v) for v in by_case.values())
    per_case = [statistics.median(v) for v in by_case.values()] if n > 1 else by_case.get(0, [])
    info = {
        "ops": len(records),
        "ok_ops": ok_ops,
        "rescaled_s": sum(lat),
        "raw_s": sum(e - s for s, e, _ in records),
    }
    if n <= 32:
        info["op_ms_by_case"] = {i: round(statistics.median(v), 2) for i, v in sorted(by_case.items())}
    metrics = {}
    if per_case:
        metrics["graphs_per_s"] = wl.graphs_per_op * ok_ops / sum(lat)
        metrics["op_ms.p50"] = hd_quantile(per_case, 0.5)
        metrics["op_ms.p90"] = hd_quantile(per_case, 0.9)
    return {"metrics": metrics, "info": info}


LAYER_METRICS = (
    ("walks.products", "walks.mat_mul_bool", "calls"),
    ("walks.mat_mul_bool.self_ms", "walks.mat_mul_bool", "self"),
    ("walks.mat_pow_bool.calls", "walks.mat_pow_bool", "calls"),
    ("walks.power_trace.calls", "walks.power_trace", "calls"),
    ("walks.power_trace.self_ms", "walks.power_trace", "self"),
    ("walks.trace_powers", "walks.trace_powers", "counter"),
    ("walks.spectra_from_trace.self_ms", "walks.spectra_from_trace", "self"),
    ("walks.scc.self_ms", "walks.scc", "self"),
    ("upsets.intersect.calls", "upsets.intersect", "calls"),
    ("upsets.intersect.self_ms", "upsets.intersect", "self"),
    ("diagonals.verify_battery.self_ms", "diagonals.verify_battery", "self"),
    ("diagonals.validate_witness.self_ms", "diagonals.validate_witness", "self"),
    ("diagonals.inclusion_chain_check.self_ms", "diagonals.inclusion_chain_check", "self"),
    ("diagonals.diagonal_n.calls", "diagonals.diagonal_n", "calls"),
    ("diagonals.diagonal_S.calls", "diagonals.diagonal_S", "calls"),
    ("diagonals.diagonal_inf.calls", "diagonals.diagonal_inf", "calls"),
    ("bruteforce.exhaustive_sweep.self_ms", "bruteforce.exhaustive_sweep", "self"),
    ("bruteforce.oracle.calls", "bruteforce.oracle", "calls"),
    ("bruteforce.oracle.self_ms", "bruteforce.oracle", "self"),
    ("graphio.parse_edge_list.self_ms", "graphio.parse_edge_list", "self"),
    ("graph.make_graph.self_ms", "graph.make_graph", "self"),
    ("report.analyze_graph.self_ms", "report.analyze_graph", "self"),
    ("report.report_json.self_ms", "report.report_json", "self"),
    ("cli.main.self_ms", "cli.main", "self"),
)


def layer_metrics(parts) -> dict:
    """Per-layer figures summed over (snapshot, host-speed scale) parts."""
    out = {}
    for metric, span, kind in LAYER_METRICS:
        total = 0.0
        for snap, scale in parts:
            if kind == "counter":
                total += snap["counters"].get(span, 0)
                continue
            calls, _, self_s = snap["stats"].get(span, (0, 0.0, 0.0))
            total += calls if kind == "calls" else self_s * scale * 1e3
        out[metric] = total if kind == "self" else int(total)
    return out


def traced_phase(wl, lib, probe, tracer, seconds, setup_snap, setup_scale) -> dict:
    """Pairs of rounds, untraced then traced, until ``seconds`` have passed.

    Every figure is the median over the pairs.  Call counts repeat exactly
    from round to round; the tracing overhead is the traced round's time
    over the untraced one's, both at reference speed.
    """
    t_begin = perf_counter()
    records, errors, pairs = [], [], []
    while not pairs or perf_counter() - t_begin < seconds:
        plain, more = run_ops(wl, lib, probe, len(wl), 0.0)
        errors += more
        tracer.reset()
        tracer.install()
        try:
            traced, more = run_ops(wl, lib, probe, len(wl), 0.0, tracer)
        finally:
            tracer.uninstall()
        errors += more
        records += plain + traced
        plain_s = sum(probe.rescaled(s, e) for s, e, _ in plain)
        traced_s = sum(probe.rescaled(s, e) for s, e, _ in traced)
        raw_s = sum(e - s - probe.own_time(s, e) for s, e, _ in traced)
        figures = layer_metrics([(setup_snap, setup_scale), (tracer.snapshot(), traced_s / raw_s)])
        figures["trace.overhead_pct"] = (traced_s - plain_s) / plain_s * 100.0
        pairs.append(figures)
    metrics = {}
    for name in pairs[0]:
        values = [p[name] for p in pairs]
        metrics[name] = statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)
    return {
        "records": records,
        "errors": errors,
        "metrics": metrics,
        "info": {"pairs": len(pairs), "ops": len(records)},
        "dump": {"setup": setup_snap, "last_round": tracer.snapshot()},
    }


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    workdir = BENCH / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        lib = Lib(root)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        wl = make_workload(args.workload, args.seed, workdir, lib)
        t_ready = perf_counter()
        probe.burst()
        setup_scale = probe.scale(T_PROCESS, t_ready)
        setup_snap = None
        if tracer is not None:
            tracer.uninstall()
            setup_snap = tracer.snapshot()
            tracer.reset()
        print("READY " + json.dumps({"scale": setup_scale, "t_process": T_PROCESS}), flush=True)
        if args.setup_only:
            return 0

        if tracer is None:
            records, errors = run_ops(wl, lib, probe, None, args.seconds)
            result = summarize(wl, probe, records)
        else:
            result = traced_phase(wl, lib, probe, tracer, args.seconds, setup_snap, setup_scale)
            records, errors = result.pop("records"), result.pop("errors")
            dump = result.pop("dump")
            results_dir = BENCH / "_results"
            results_dir.mkdir(exist_ok=True)
            tracer.dump(
                results_dir / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, **dump},
            )
        statuses = [r[2] for r in records]
        result["attempted"] = len(records)
        result["failed"] = sum(st != "ok" for st in statuses)
        result["correct"] = not any(st in ("failed", "wrong") for st in statuses)
        result["errors"] = errors[:20]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
        return 0
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
