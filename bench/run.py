#!/usr/bin/env python3
"""Benchmark for diagsets: one workload, one run, every metric on the last line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload battery-mid --seed 1 --seconds 20 --trace 0

Set-up is measured several times, each in a fresh worker process, from
process start to the worker's READY line; the last of those workers then
runs the measured phase.  With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer ones (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("battery-mid", "analyze-large", "analyze-adversarial", "verify-sweep")
# Set-up is repeated at least SETUP_RUNS times and for at least SETUP_MIN_S.
SETUP_RUNS = 7
SETUP_MIN_S = 2.0
# A run must end within 180 s; stop a worker that is still going after this.
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time.

    Set-up runs from the spawn to the worker's READY line.  The part before
    the worker's first line of Python (process creation and interpreter
    start-up) is kept as measured: the probe's loop does not track it.  The
    rest is rescaled to reference speed (see probe.py).
    """
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    t_ready = perf_counter()
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker failed during set-up (exit {proc.returncode})")
    ready = json.loads(line[len("READY "):])
    # perf_counter is CLOCK_MONOTONIC here, so the worker's reading compares with ours.
    start_up = ready["t_process"] - t_spawn
    return proc, start_up + (t_ready - ready["t_process"]) * ready["scale"]


def finish_worker(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker overran its time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out


def main() -> int:
    t_begin = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (Path.cwd() / "src" / "diagsets" / "__init__.py").is_file():
        print("error: run from the root of a diagsets checkout (src/diagsets not found)", file=sys.stderr)
        return 2

    deadline = t_begin + WORKER_TIMEOUT_S
    setups = []
    try:
        t_setups = perf_counter()
        while len(setups) < SETUP_RUNS - 1 or perf_counter() - t_setups < SETUP_MIN_S:
            proc, setup_s = start_worker(args, setup_only=True)
            finish_worker(proc, deadline)
            setups.append(setup_s)
        proc, setup_s = start_worker(args, setup_only=False)
        setups.append(setup_s)
        out = finish_worker(proc, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raw = json.loads(out.strip().splitlines()[-1])
    for err in raw["errors"]:
        print(f"check: {err}", file=sys.stderr)

    if args.trace:
        values = raw["metrics"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = dict(raw["metrics"])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = raw["peak_rss_mb"]
        missing = [k for k in END_TO_END_UNITS if k not in values]
        if missing:
            print(f"error: no successful operation, so no {missing}", file=sys.stderr)
            return 1
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    results_dir = BENCH / "_results"
    results_dir.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_runs_s=setups, info=raw["info"],
                  peak_rss_mb=raw["peak_rss_mb"])
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n"
    )
    print(f"# {args.workload} seed={args.seed}: {raw['attempted']} ops, {raw['failed']} failed, "
          f"info={json.dumps(raw['info'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
