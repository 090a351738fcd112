"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each traced function on every module binding
that refers to it (``power_trace``, for example, is imported into
``diagonals``, ``report`` and ``bruteforce`` as well as living in
``walks``), so calls made inside the package are seen too.  ``uninstall``
puts the originals back.  Spans and counters stay in memory; ``dump``
writes them out when the run ends.

A span's self time is its duration minus the durations of the spans it
directly caused.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from time import perf_counter

MODULES = ("graph", "upsets", "walks", "diagonals", "bruteforce", "graphio", "report", "cli")

# (span name, module, attribute); "Class.method" patches the class attribute.
TRACED = (
    ("walks.mat_mul_bool", "walks", "mat_mul_bool"),
    ("walks.mat_pow_bool", "walks", "mat_pow_bool"),
    ("walks.power_trace", "walks", "power_trace"),
    ("walks.spectra_from_trace", "walks", "spectra_from_trace"),
    ("walks.scc", "walks", "strongly_connected_components"),
    ("upsets.intersect", "upsets", "UPSet.intersect"),
    ("diagonals.verify_battery", "diagonals", "verify_battery"),
    ("diagonals.validate_witness", "diagonals", "validate_witness"),
    ("diagonals.inclusion_chain_check", "diagonals", "inclusion_chain_check"),
    ("diagonals.diagonal_n", "diagonals", "diagonal_n"),
    ("diagonals.diagonal_S", "diagonals", "diagonal_S"),
    ("diagonals.diagonal_inf", "diagonals", "diagonal_inf"),
    ("bruteforce.exhaustive_sweep", "bruteforce", "exhaustive_sweep"),
    ("bruteforce.oracle", "bruteforce", "walk_exists_bf"),
    ("bruteforce.oracle", "bruteforce", "walk_from_exists_bf"),
    ("bruteforce.oracle", "bruteforce", "closed_walk_lengths_bf"),
    ("bruteforce.oracle", "bruteforce", "diagonal_n_bf"),
    ("bruteforce.oracle", "bruteforce", "diagonal_inf_bf"),
    ("bruteforce.oracle", "bruteforce", "diagonal_S_bf"),
    ("graphio.parse_edge_list", "graphio", "parse_edge_list"),
    ("graph.make_graph", "graph", "make_graph"),
    ("report.analyze_graph", "report", "analyze_graph"),
    ("report.report_json", "report", "report_json"),
    ("cli.main", "cli", "main"),
)

# Spans kept individually (the rest are only aggregated), so a long run
# cannot grow without bound.
SPAN_LOG_LIMIT = 20_000


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module("diagsets")] + [
            importlib.import_module(f"diagsets.{m}") for m in MODULES
        ]
        self._by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules[1:]}
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self.root_id = 0
        self.spans: list[tuple] = []  # (id, parent id, name, start_s, duration_s)
        self.spans_dropped = 0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def _wrap(self, name: str, fn, after=None):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else tracer.root_id
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                s = tracer.stats_for(name)
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
                tracer._log(span_id, parent, name, t0, dt)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def stats_for(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _count_trace_powers(self, trace) -> None:
        self.counters["walks.trace_powers"] = (
            self.counters.get("walks.trace_powers", 0) + trace.mu + trace.lam
        )

    def install(self) -> None:
        if self._patches:
            return
        for name, mod_name, attr in TRACED:
            owner = self._by_name[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            after = self._count_trace_powers if name == "walks.power_trace" else None
            wrapper = self._wrap(name, original, after)
            for mod in self.modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    @contextlib.contextmanager
    def op_span(self, index: int):
        """One benchmark operation: the root of the spans it causes."""
        span_id = self._next_id
        self._next_id += 1
        self.root_id = span_id
        t0 = perf_counter()
        try:
            yield
        finally:
            self._log(span_id, 0, f"bench.op[{index}]", t0, perf_counter() - t0)
            self.root_id = 0

    def _log(self, span_id: int, parent: int, name: str, t0: float, dt: float) -> None:
        if len(self.spans) < SPAN_LOG_LIMIT:
            self.spans.append((span_id, parent, name, t0, dt))
        else:
            self.spans_dropped += 1

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["spans_dropped"] = self.spans_dropped
        payload["spans"] = [
            {"id": i, "parent": p, "name": n, "start_s": round(t, 6), "dur_ms": round(d * 1e3, 4)}
            for i, p, n, t, d in self.spans
        ]
        path.write_text(json.dumps(payload, indent=1) + "\n")
