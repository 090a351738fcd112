"""Edge-list documents and seeded random graph generation.

Edge-list grammar: an optional header line ``n <order>``, then one
``<u> <v>`` edge per line (0-based decimal ids).  ``#`` starts a comment,
blank lines are ignored.  Without a header the order is 1 + the largest
id, so edgeless graphs require the header.
"""

from __future__ import annotations

import random

from .graph import Graph, make_graph


class EdgeListError(ValueError):
    """Malformed edge-list document; the message carries the line number."""


def parse_edge_list(text: str) -> Graph:
    order: int | None = None
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if order is not None:
                raise EdgeListError(f"line {lineno}: duplicate 'n' header")
            if edges:
                raise EdgeListError(f"line {lineno}: 'n' header must precede all edges")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise EdgeListError(f"line {lineno}: malformed header, expected 'n <order>'")
            order = int(parts[1])
            if order < 1:
                raise EdgeListError(f"line {lineno}: order must be at least 1")
            continue
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise EdgeListError(f"line {lineno}: expected '<u> <v>' with decimal ids")
        edges.append((int(parts[0]), int(parts[1]), lineno))
    if order is None:
        if not edges:
            raise EdgeListError("empty document: an edgeless graph needs an 'n <order>' header")
        order = 1 + max(max(u, w) for u, w, _ in edges)
    for u, w, lineno in edges:
        if u >= order or w >= order:
            raise EdgeListError(f"line {lineno}: vertex id >= declared order {order}")
    return make_graph(order, [(u, w) for u, w, _ in edges])


def emit_edge_list(g: Graph, seed: int | None = None) -> str:
    """Render a graph as an edge-list document; reparsing yields an equal graph."""
    lines = []
    if seed is not None:
        lines.append(f"# seed {seed}")
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def scan_seed_comment(text: str) -> int | None:
    """Recover the ``# seed N`` annotation written by the generator, if any."""
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "seed" and parts[1].isdecimal():
                return int(parts[1])
    return None


def gen_random(n: int, p: float, seed: int, loops: str = "allow") -> Graph:
    """G(n, p) digraph from a seeded MT19937 stream.

    Each ordered pair (u, w) is included independently with probability p,
    drawn in row-major order; ``loops="forbid"`` skips the diagonal without
    consuming randomness.  The same arguments always produce the same graph
    on every platform.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if loops not in ("allow", "forbid"):
        raise ValueError(f"loops must be 'allow' or 'forbid', got {loops!r}")
    rng = random.Random(seed)
    rows = []
    for u in range(n):
        bits = 0
        for w in range(n):
            if u == w and loops == "forbid":
                continue
            if rng.random() < p:
                bits |= 1 << w
        rows.append(bits)
    return Graph(n, tuple(rows))
