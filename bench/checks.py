"""Output checks, computed by the benchmark itself from a graph's adjacency.

Nothing here calls the program.  The expected answers come from:

* D: the unlooped vertices;
* Dinf: the vertices removed by repeatedly pruning sinks;
* Dn for small n: walk-set iteration, W_0 = {v}, W_{k+1} = Out(W_k);
* Dn(10^9+7): v is outside it iff v lies on a cycle whose strongly
  connected component has a period dividing 10^9+8 (every large multiple
  of the period is a closed-walk length, and no other length is);
* DS for the S used here: walk sets for finite S, SCC periods for the
  evens (an odd closed walk exists iff the period is odd) and the odds
  (an even one exists iff v lies on a cycle);
* spectra: a vertex on a cycle has its SCC's period and residues {0}; an
  acyclic vertex has the empty spectrum ``finite()``;
* structured families: their closed forms (see ``workloads.Case``).

Every witness is re-validated against Out(v) and the expected set.
"""

from __future__ import annotations

import math
import re

from workloads import BIG_N, Case


class CheckError(AssertionError):
    """The program's output disagrees with the benchmark's own answer."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


class Facts:
    """Independent facts about one graph, computed once and reused."""

    def __init__(self, rows: list[int], max_len: int):
        self.rows = rows
        self.n = n = len(rows)
        self.full = (1 << n) - 1
        self.loops = sum(1 << v for v in range(n) if rows[v] >> v & 1)
        self.d = self.full & ~self.loops
        self.dinf = self._pruned_sinks()
        self.max_len = max_len
        # closed[v] has bit k set iff a closed walk of length k passes v (k <= max_len).
        self.closed = [self._closed_lengths(v, max_len) for v in range(n)]
        self.period = self._periods()

    def _pruned_sinks(self) -> int:
        alive = self.full
        changed = True
        while changed:
            changed = False
            for v in _bits(alive):
                if self.rows[v] & alive == 0:
                    alive &= ~(1 << v)
                    changed = True
        return self.full & ~alive

    def _closed_lengths(self, v: int, max_len: int) -> int:
        rows = self.rows
        walk_set = 1 << v
        lengths = 0
        for k in range(1, max_len + 1):
            nxt = 0
            for u in _bits(walk_set):
                nxt |= rows[u]
            walk_set = nxt
            if walk_set >> v & 1:
                lengths |= 1 << k
            if not walk_set:
                break
        return lengths

    def _periods(self) -> list[int]:
        """Period of v's strongly connected component if v lies on a cycle, else 0."""
        rows, n = self.rows, self.n
        rev = [0] * n
        for u in range(n):
            for w in _bits(rows[u]):
                rev[w] |= 1 << u
        period = [0] * n
        assigned = 0
        for root in range(n):
            if assigned >> root & 1:
                continue
            fwd = self._reach(rows, root)
            bwd = self._reach(rev, root)
            comp = fwd & bwd
            assigned |= comp
            # BFS levels inside the component; the period is the gcd of
            # level[u] + 1 - level[w] over the component's edges u -> w.
            level = {root: 0}
            frontier = [root]
            g = 0
            while frontier:
                nxt = []
                for u in frontier:
                    for w in _bits(rows[u] & comp):
                        if w in level:
                            g = math.gcd(g, level[u] + 1 - level[w])
                        else:
                            level[w] = level[u] + 1
                            nxt.append(w)
                frontier = nxt
            for v in _bits(comp):
                period[v] = g
        return period

    @staticmethod
    def _reach(adj: list[int], root: int) -> int:
        seen = 1 << root
        frontier = seen
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= adj[u]
            frontier = nxt & ~seen
            seen |= frontier
        return seen

    def cyclic(self, v: int) -> bool:
        return self.period[v] > 0

    def has_closed(self, v: int, length: int) -> bool:
        if length <= self.max_len:
            return bool(self.closed[v] >> length & 1)
        if length == BIG_N + 1:
            p = self.period[v]
            return p > 0 and length % p == 0
        raise CheckError(f"no independent answer for closed walks of length {length}")

    def spec_set(self, label: str) -> int:
        """The expected diagonal set for a spec label such as Dn(2) or DS(finite(0,2))."""
        n = self.n
        if label == "D":
            return self.d
        if label == "Dinf":
            return self.dinf
        m = re.fullmatch(r"Dn\((\d+)\)", label)
        if m:
            length = int(m.group(1)) + 1
            return sum(1 << v for v in range(n) if not self.has_closed(v, length))
        m = re.fullmatch(r"DS\(finite\(([\d,]+)\)\)", label)
        if m:
            lengths = [int(x) + 1 for x in m.group(1).split(",")]
            return sum(
                1 << v for v in range(n) if not any(self.has_closed(v, k) for k in lengths)
            )
        if label == "DS(up(t=0,d=2,r=0))":  # S = evens: lengths 1, 3, 5, ...
            return sum(1 << v for v in range(n) if not self.period[v] % 2)
        if label == "DS(up(t=0,d=2,r=1))":  # S = odds: lengths 2, 4, 6, ...
            return sum(1 << v for v in range(n) if not self.cyclic(v))
        raise CheckError(f"no independent answer for spec {label}")


def _spec_param(label: str) -> tuple[str, object]:
    if label in ("D", "Dinf"):
        return label, None
    m = re.fullmatch(r"Dn\((\d+)\)", label)
    if m:
        return "Dn", int(m.group(1))
    m = re.fullmatch(r"DS\(finite\(([\d,]+)\)\)", label)
    if m:
        values = {int(x) for x in m.group(1).split(",")}
        return "DS", lambda k: k in values
    if label == "DS(up(t=0,d=2,r=0))":
        return "DS", lambda k: k % 2 == 0
    if label == "DS(up(t=0,d=2,r=1))":
        return "DS", lambda k: k % 2 == 1
    raise CheckError(f"unknown spec {label}")


def check_witness(facts: Facts, label: str, dx: int, v: int, u: int, side: str,
                  walk: list[int] | None, infinite_tail: bool) -> None:
    kind, param = _spec_param(label)
    out_v = facts.rows[v]
    where = f"{label} witness for v={v}"
    if side == "OutMinusDx":
        _require(out_v >> u & 1 and not dx >> u & 1, f"{where}: {u} not in Out(v) minus the set")
    elif side == "DxMinusOut":
        _require(dx >> u & 1 and not out_v >> u & 1, f"{where}: {u} not in the set minus Out(v)")
    else:
        raise CheckError(f"{where}: unknown side {side!r}")
    if walk is None:
        return
    _require(bool(walk) and walk[0] == u, f"{where}: evidence does not start at {u}")
    for a, b in zip(walk, walk[1:]):
        _require(bool(facts.rows[a] >> b & 1), f"{where}: evidence step {a}->{b} is no edge")
    if infinite_tail:
        _require(kind == "Dinf", f"{where}: infinite tail outside Dinf")
        _require(facts.cyclic(walk[-1]), f"{where}: tail ends off every cycle")
        return
    _require(kind != "Dinf", f"{where}: closed walk given for Dinf")
    _require(walk[-1] == u, f"{where}: evidence walk is not closed")
    length = len(walk) - 1
    if kind == "D":
        _require(length == 1, f"{where}: loop evidence of length {length}")
    elif kind == "Dn":
        _require(length == param + 1, f"{where}: evidence length {length} != n+1")
    else:
        _require(param(length - 1), f"{where}: evidence length {length} not in S+1")


def check_battery(case: Case, facts: Facts, battery, chain, labels: list[str],
                  finite_s: list[str], infinite_s: list[str]) -> None:
    """verify_battery + inclusion_chain_check results for one graph."""
    n = facts.n
    got_labels = [spec.label() for spec, _, _ in battery]
    _require(got_labels == labels, f"{case.name}: battery specs {got_labels}")
    for spec, dx, witnesses in battery:
        label = spec.label()
        want = facts.spec_set(label)
        _require(dx.bits == want, f"{case.name}: {label} is {dx.to_list()}, want {list(_bits(want))}")
        _require([w.against for w in witnesses] == list(range(n)), f"{case.name}: {label} witness rows")
        for w in witnesses:
            ev = w.evidence
            check_witness(
                facts, label, want, w.against, w.vertex, w.side.value,
                None if ev is None else list(ev.vertices),
                False if ev is None else ev.infinite_tail,
            )
    _require(chain.ok and chain.n_max == 8 and chain.inclusions_checked == 16,
             f"{case.name}: chain report {chain}")
    _require(list(chain.finite_identities) == finite_s, f"{case.name}: chain finite identities")
    _require([s for s, _ in chain.truncated_identities] == infinite_s
             and all(b >= 1 for _, b in chain.truncated_identities),
             f"{case.name}: chain truncated identities")


def _spectrum_member(entry: dict, m: int) -> bool:
    if m < entry["t"]:
        return m in entry["f"]
    return m % entry["d"] in entry["r"]


def check_report(case: Case, facts: Facts, report: dict, labels: list[str]) -> None:
    """An ``analyze`` JSON report, including spectra and the chain verdict."""
    n, rows = facts.n, facts.rows
    name = case.name
    graph = report["graph"]
    _require(graph == {
        "order": n,
        "edges": sum(bin(r).count("1") for r in rows),
        "loops": bin(facts.loops).count("1"),
        "distinct_out_sets": len(set(rows)),
    }, f"{name}: graph summary {graph}")
    _require(report["seed"] == case.seed, f"{name}: seed {report['seed']}")
    specs = report["specs"]
    _require([s["spec"] for s in specs] == labels, f"{name}: specs {[s['spec'] for s in specs]}")
    for s in specs:
        label = s["spec"]
        want = facts.spec_set(label)
        _require(s["set"] == list(_bits(want)), f"{name}: {label} is {s['set']}")
        _require([w["v"] for w in s["witnesses"]] == list(range(n)), f"{name}: {label} witness rows")
        for w in s["witnesses"]:
            ev = w["evidence"]
            walk = None if ev is None else ev.get("walk", ev.get("infinite_tail"))
            check_witness(facts, label, want, w["v"], w["u"], w["side"], walk,
                          ev is not None and "infinite_tail" in ev)
    spectra = report["spectra"]
    _require([e["vertex"] for e in spectra] == list(range(n)), f"{name}: spectra rows")
    for v, e in enumerate(spectra):
        if facts.cyclic(v):
            _require(e["d"] == facts.period[v] and e["r"] == [0],
                     f"{name}: spectrum of {v} is {e['literal']}, period {facts.period[v]}")
        else:
            _require(e["literal"] == "finite()", f"{name}: acyclic {v} has spectrum {e['literal']}")
        for k in range(1, facts.max_len + 1):
            _require(_spectrum_member(e, k) == facts.has_closed(v, k),
                     f"{name}: spectrum of {v} wrong at length {k}")
    chain = report["chain"]
    _require(chain["ok"] is True and chain["n_max"] == 8 and chain["inclusions_checked"] == 16
             and chain["finite_identities"] == ["finite(0,2)"]
             and [t["s"] for t in chain["truncated_identities"]] == ["up(t=0,d=2,r=0)"],
             f"{name}: chain {chain}")
    if case.closed_form is not None:
        check_closed_form(case, facts, report)


def check_closed_form(case: Case, facts: Facts, report: dict) -> None:
    """Structured families: spectra and Dn sets against their closed forms."""
    n = facts.n
    _require(facts.period == case.closed_period, f"{case.name}: SCC periods differ from the family's")
    for v, e in enumerate(report["spectra"]):
        form = case.closed_form[v]
        # Both sides are periodic past max(thresholds), so one joint period more decides all m.
        bound = max(e["t"], case.closed_bound) + math.lcm(e["d"], case.closed_period[v] or 1)
        for m in range(1, bound + 1):
            _require(_spectrum_member(e, m) == form(m),
                     f"{case.name}: spectrum of {v} is {e['literal']}, wrong at length {m}")
        _require(_spectrum_member(e, BIG_N + 1) == form(BIG_N + 1),
                 f"{case.name}: spectrum of {v} wrong at length {BIG_N + 1}")
    for s in report["specs"]:
        m = re.fullmatch(r"Dn\((\d+)\)", s["spec"])
        if m:
            length = int(m.group(1)) + 1
            want = [v for v in range(n) if not case.closed_form[v](length)]
            _require(s["set"] == want, f"{case.name}: {s['spec']} is {s['set']}, closed form {want}")
        elif s["spec"] in ("D", "Dinf"):
            want = list(range(n)) if s["spec"] == "D" else []
            _require(s["set"] == want, f"{case.name}: {s['spec']} is {s['set']}")


SWEEP_ORDER_MAX = 3
SWEEP_PROPERTIES = (
    ["theorem[D]"] + [f"theorem[Dn({k})]" for k in range(1, 7)] + ["theorem[Dinf]"]
    + [f"theorem[DS({s})]" for s in
       ("finite(0)", "finite(1)", "finite(0,2)", "up(t=0,d=2,r=0)", "up(t=0,d=2,r=1)")]
    + ["chain", "oracle[D]"] + [f"oracle[Dn({k})]" for k in range(1, 7)] + ["oracle[Dinf]"]
    + [f"oracle[DS({s})]" for s in ("finite(0)", "finite(1)", "finite(0,2)")]
    + ["spectrum", "pigeonhole"]
)


def sweep_graph_count(order_max: int = SWEEP_ORDER_MAX) -> int:
    return sum(2 ** (k * k) for k in range(1, order_max + 1))


def check_sweep(rc: int, text: str) -> None:
    """``diagsets verify --order-max 3``: 530 graphs, every property clean."""
    total = sweep_graph_count()
    lines = text.splitlines()
    _require(rc == 0, f"verify exited {rc}")
    _require(bool(lines) and lines[0] == f"exhaustive sweep: orders 1..{SWEEP_ORDER_MAX}, {total} graphs",
             f"verify header {lines[:1]}")
    seen = {}
    for line in lines[1:]:
        m = re.fullmatch(r"  (\S+): (\d+) pass / (\d+) fail", line)
        if m:
            seen[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    for prop in SWEEP_PROPERTIES:
        _require(seen.get(prop) == (total, 0), f"verify property {prop}: {seen.get(prop)}")
    _require(all(v == (total, 0) for v in seen.values()), f"verify properties {seen}")
    _require(lines[-1] == "VERIFY OK", f"verify verdict {lines[-1]!r}")
