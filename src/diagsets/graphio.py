"""Edge-list documents and seeded random graph generation.

Edge-list grammar: an optional header line ``n <order>``, then one
``<u> <v>`` edge per line (0-based decimal ids).  ``#`` starts a comment,
blank lines are ignored.  Without a header the order is 1 + the largest
id, so edgeless graphs require the header.
"""

from __future__ import annotations

import random
import re

from .graph import Graph

# The characters at which str.splitlines ends a line ("\r\n" ends one too).
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")


class EdgeListError(ValueError):
    """Malformed edge-list document; the message carries the line number."""


def parse_edge_list(text: str) -> Graph:
    order: int | None = None
    # Adjacency rows, grown to the largest source id read: nothing is sized
    # by the declared order before the whole document has parsed.
    rows: list[int] = []
    out_of_range: int | None = None  # first line with an id >= the declared order
    for lineno, raw in enumerate(text.splitlines(), 1):
        a, _, b = raw.partition(" ")
        if not (a.isdecimal() and b.isdecimal()):
            # Anything but a bare "<u> <v>": comments, headers, blanks, odd spacing.
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "n":
                if order is not None:
                    raise EdgeListError(f"line {lineno}: duplicate 'n' header")
                if rows:
                    raise EdgeListError(f"line {lineno}: 'n' header must precede all edges")
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise EdgeListError(f"line {lineno}: malformed header, expected 'n <order>'")
                order = int(parts[1])
                if order < 1:
                    raise EdgeListError(f"line {lineno}: order must be at least 1")
                continue
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise EdgeListError(f"line {lineno}: expected '<u> <v>' with decimal ids")
            a, b = parts
        u, w = int(a), int(b)
        if order is not None and (u >= order or w >= order):
            # Reported after the loop, so that any format error comes first.
            if out_of_range is None:
                out_of_range = lineno
            continue
        if u >= len(rows):
            rows += [0] * (u + 1 - len(rows))
        rows[u] |= 1 << w
    if out_of_range is not None:
        raise EdgeListError(f"line {out_of_range}: vertex id >= declared order {order}")
    if order is None:
        if not rows:
            raise EdgeListError("empty document: an edgeless graph needs an 'n <order>' header")
        order = max(len(rows), max(row.bit_length() for row in rows))
    rows += [0] * (order - len(rows))
    return Graph(order, tuple(rows))


def emit_edge_list(g: Graph, seed: int | None = None) -> str:
    """Render a graph as an edge-list document; reparsing yields an equal graph.

    A ``seed`` is written as ``# seed N``, which reads back only if N >= 0.
    """
    lines = []
    if seed is not None:
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        lines.append(f"# seed {seed}")
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def scan_seed_comment(text: str) -> int | None:
    """Recover the ``# seed N`` annotation written by the generator, if any.

    That is the first line, as ``str.splitlines`` cuts them, whose first
    non-blank character is a ``#`` followed by ``seed N``.  Only the lines
    holding a ``#`` are visited.
    """
    pos = 0  # a line break, or 0: the lines before it are done
    while (i := text.find("#", pos)) != -1:
        start = max(text.rfind(c, pos, i) for c in _LINE_BREAKS) + 1
        end = _LINE_BREAK.search(text, i)
        pos = len(text) if end is None else end.start()
        if not text[start:i].strip():
            parts = text[i + 1 : pos].split()
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
