"""Shared hypothesis strategies: small digraphs, vertex sets, UP sets."""

from hypothesis import strategies as st

from diagsets.graph import Graph, VertexSet
from diagsets.upsets import UPSet


def graphs(min_order: int = 1, max_order: int = 8):
    """Arbitrary digraphs drawn uniformly from all 2^(n^2) of each order."""

    def build(order):
        cell = (1 << order) - 1
        return st.integers(0, (1 << (order * order)) - 1).map(
            lambda mask: Graph(order, tuple((mask >> (u * order)) & cell for u in range(order)))
        )

    return st.integers(min_order, max_order).flatmap(build)


def vertex_set_pairs(max_width: int = 16):
    """Two vertex sets over a shared width."""

    def build(width):
        masks = st.integers(0, (1 << width) - 1)
        return st.tuples(masks, masks).map(
            lambda bits: (VertexSet(width, bits[0]), VertexSet(width, bits[1]))
        )

    return st.integers(1, max_width).flatmap(build)


@st.composite
def upsets(draw, max_threshold: int = 6, max_period: int = 6):
    t = draw(st.integers(0, max_threshold))
    d = draw(st.integers(1, max_period))
    r_mask = draw(st.integers(0, (1 << d) - 1))
    f_mask = draw(st.integers(0, (1 << t) - 1)) if t else 0
    return UPSet(
        t,
        d,
        frozenset(i for i in range(d) if r_mask >> i & 1),
        frozenset(i for i in range(t) if f_mask >> i & 1),
    )


@st.composite
def raw_upset_parts(draw, max_threshold: int = 6, max_period: int = 6):
    """Uncanonicalized (t, d, R, F) quadruples."""
    t = draw(st.integers(0, max_threshold))
    d = draw(st.integers(1, max_period))
    r_mask = draw(st.integers(0, (1 << d) - 1))
    f_mask = draw(st.integers(0, (1 << t) - 1)) if t else 0
    residues = frozenset(i for i in range(d) if r_mask >> i & 1)
    exceptional = frozenset(i for i in range(t) if f_mask >> i & 1)
    return t, d, residues, exceptional


@st.composite
def periodic_parts(draw, max_threshold: int = 60, max_period: int = 60):
    """Raw (t, d, R, F) with room to canonicalize.

    R repeats with a random divisor of d, and F follows the periodic rule
    from a random cut up to t, so both the period and the threshold can
    shrink.  R is empty (a finite set) about one time in four.
    """
    d = draw(st.integers(1, max_period))
    p = draw(st.sampled_from([q for q in range(1, d + 1) if d % q == 0]))
    r_mask = 0 if draw(st.integers(0, 3)) == 0 else draw(st.integers(0, (1 << p) - 1))
    residues = frozenset(r for r in range(d) if r_mask >> (r % p) & 1)
    t = draw(st.integers(0, max_threshold))
    cut = draw(st.integers(0, t))
    f_mask = draw(st.integers(0, (1 << cut) - 1))
    exceptional = {m for m in range(cut) if f_mask >> m & 1}
    exceptional |= {m for m in range(cut, t) if m % d in residues}
    return t, d, residues, frozenset(exceptional)
