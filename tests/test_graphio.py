from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagsets import graphio
from diagsets.graph import make_graph
from diagsets.graphio import (
    EdgeListError,
    emit_edge_list,
    gen_random,
    parse_edge_list,
    scan_seed_comment,
)

from strategies import graphs

C3 = make_graph(3, [(0, 1), (1, 2), (2, 0)])


def reference_parse(text):
    """The two-pass line parser that ``parse_edge_list`` must agree with."""
    order = None
    edges = []
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


def reference_seed(text):
    """The whole-document seed scan that ``scan_seed_comment`` must agree with."""
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 2 and parts[0] == "seed" and parts[1].isdecimal():
                return int(parts[1])
    return None


def _outcome(parse, text):
    try:
        return parse(text)
    except EdgeListError as exc:
        return str(exc)


# Mostly ids 0..7, which run past the order of the headers below; one
# draw in six is odd ("\u0663" is the Arabic-Indic digit 3, "\u00b2" a superscript).
_ODD_IDS = ["007", "\u0663", "\u00b2", "-1", "x", "", "1.0", "0x1"]
_ids = st.integers(0, 47).map(lambda i: str(i % 8) if i < 40 else _ODD_IDS[i - 40])
_edges = st.tuples(_ids, _ids).map(" ".join)
_headers = st.sampled_from(["n 4", "n 6", " n 5 ", "n\t3", "n 0", "n", "n x", "n 3 4"])
_lines = st.one_of(
    _edges,
    _edges,
    _edges,
    st.tuples(_edges, st.sampled_from([" ", "\t", " # note", "#x"])).map("".join),
    st.tuples(_ids, st.sampled_from(["  ", "\t", " \t"]), _ids).map("".join),
    st.sampled_from(["", " ", "\t", "#", "# seed 7", "  # seed 12", "#seed 3", "# seed x"]),
    st.sampled_from(["0", "0 1 2", "a b", "0 1 # 2 3", "# 0 1", "0 1\x0c", "seed 9"]) | _headers,
)
_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"])


@st.composite
def edge_list_documents(draw):
    """Comments, headers in valid and invalid places, edges and malformed lines."""
    lines = draw(st.lists(_lines, max_size=2))
    lines += draw(st.lists(_headers, max_size=1))
    lines += draw(st.lists(_lines, max_size=8))
    seps = draw(st.lists(_breaks, min_size=len(lines), max_size=len(lines)))
    last = draw(st.sampled_from(["", "1 1"]))  # a last line without its break, or none
    return "".join(line + sep for line, sep in zip(lines, seps)) + last


# Arabic-Indic digits: decimal to str.isdecimal and int, but outside [0-9].
_ARABIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_CHANGES = [
    "none",
    "past order",
    "leading zero",
    "arabic",
    "duplicate",
    "shuffle",
    "no final break",
    "tab",
    "comment",
    "second header",
]


@st.composite
def emitted_documents(draw):
    """``emit_edge_list`` output of a random graph, changed in at most one way."""
    g = draw(graphs(max_order=12))
    text = emit_edge_list(g, seed=draw(st.none() | st.integers(0, 99)))
    head, header, body = text.partition(f"n {g.n}\n")
    lines = body.splitlines()
    change = draw(st.sampled_from(_CHANGES))
    i = draw(st.integers(0, len(lines)))  # where a line goes in, or the edge line changed
    if i < len(lines):
        ids = lines[i].split(" ")
        if change == "past order":
            ids[draw(st.integers(0, 1))] = str(g.n + draw(st.integers(0, 3)))
        elif change == "leading zero":
            ids[0] = "0" + ids[0]
        elif change == "arabic":
            ids[1] = ids[1].translate(_ARABIC)
        elif change == "duplicate":
            lines.insert(i, lines[i])
        lines[i] = ("\t" if change == "tab" else " ").join(ids)
    if change == "shuffle":
        lines = draw(st.permutations(lines))
    elif change == "comment":
        lines.insert(i, "# among the edges")
    elif change == "second header":
        lines.insert(i, f"n {draw(st.integers(0, 13))}")
    text = head + header + "".join(line + "\n" for line in lines)
    return text[:-1] if change == "no final break" else text


def test_parse_c3_with_header():
    assert parse_edge_list("n 3\n0 1\n1 2\n2 0\n") == C3


def test_parse_infers_order_without_header():
    assert parse_edge_list("0 0\n") == make_graph(1, [(0, 0)])


def test_parse_header_only_gives_edgeless_graph():
    g = parse_edge_list("n 2\n")
    assert g.n == 2
    assert g.edge_count() == 0


def test_parse_ignores_comments_and_blank_lines():
    text = "# a comment\n\nn 3\n0 1  # inline comment\n\n1 2\n2 0\n"
    assert parse_edge_list(text) == C3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("n 3\n0 one\n")
    with pytest.raises(EdgeListError, match="line 3"):
        parse_edge_list("n 2\n0 1\n0 2\n")
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("0 1\nn 3\n")
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("n 2\nn 2\n")
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list("n 0\n")


def test_parse_rejects_non_decimal_digits_with_the_line_number():
    # "²".isdigit() holds, but int("²") fails: the id must be decimal.
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("n 3\n0 \u00b2\n")


def test_parse_rejects_empty_document():
    with pytest.raises(EdgeListError):
        parse_edge_list("")
    with pytest.raises(EdgeListError):
        parse_edge_list("# only a comment\n")


@given(graphs(max_order=8))
def test_emit_then_parse_is_identity(g):
    assert parse_edge_list(emit_edge_list(g)) == g


@given(edge_list_documents())
@example("n 2\n0 5\nx y\n")  # an out-of-range line, then a malformed one
@example("n 2\nx y\n0 5\n")  # the other order
@example("0 5\n1 1\nn 9\n")  # a header after the edges
@example("n 3\r\n0 1 \r\n2\t0\r\n1 2")
def test_parse_agrees_with_the_reference_line_parser(text):
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse, text)


def test_parse_reports_format_errors_before_range_errors():
    for text in ("n 2\n0 5\nx y\n", "n 2\nx y\n0 5\n"):
        with pytest.raises(EdgeListError, match="expected '<u> <v>'"):
            parse_edge_list(text)
    with pytest.raises(EdgeListError, match="line 2: vertex id >= declared order 2"):
        parse_edge_list("n 2\n0 5\n1 1\n3 0\n")


@pytest.mark.parametrize("edges", [1, 20_000])
def test_parse_allocates_nothing_by_the_declared_order_before_the_end(edges):
    # A row list of 10^12 entries would not fit: the format error must come
    # first, also after the blocks of bare lines before it.
    body = "".join(f"{i % 1000} {i % 997}\n" for i in range(edges))
    with pytest.raises(EdgeListError, match=f"line {edges + 2}: expected '<u> <v>'"):
        parse_edge_list(f"n {10**12}\n{body}x\n")


@given(emitted_documents(), st.sampled_from([1, 7, 1 << 16]))
@settings(max_examples=200)
def test_parse_agrees_with_the_reference_on_emitted_documents(text, block_chars):
    # Blocks this small cut even a short document at many places.
    with mock.patch.object(graphio, "_BLOCK_CHARS", block_chars):
        assert _outcome(parse_edge_list, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize("line", ["x y", "3 20000", "3 4 # note", "3\t4", "3\x1c4", "n 5"])
def test_a_line_past_the_first_block_gets_the_reference_outcome(line):
    lines = [f"{i} {i % 50}" for i in range(20_000)]
    lines[15_000] = line
    text = "n 20000\n" + "".join(edge + "\n" for edge in lines)
    assert text.index(f"\n{line}\n") > graphio._BLOCK_CHARS
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize("block_chars", [7, 1 << 16])
def test_emitted_documents_take_the_block_path_and_others_the_line_loop(block_chars):
    g = gen_random(40, 0.3, 5)
    text = emit_edge_list(g, seed=5)
    lines = text.splitlines()
    lines.insert(len(lines) // 2, "# among the edges")
    commented = "\n".join(lines) + "\n"
    with mock.patch.object(graphio, "_BLOCK_CHARS", block_chars):
        assert graphio._parse_bare(text) == g
        assert graphio._parse_bare(commented) is None
        assert graphio._parse_bare(text[:-1]) is None  # no final line break
        assert parse_edge_list(commented) == g


@given(edge_list_documents())
@example("0 1\n # seed 5\n# seed 6")
@example("0 1 # seed 5\x1c # seed 6\u2028")
@example("a#\r\n# seed 4")
def test_seed_scan_agrees_with_the_reference_scan(text):
    assert scan_seed_comment(text) == reference_seed(text)


def test_seed_comment_round_trip():
    text = emit_edge_list(C3, seed=42)
    assert text.startswith("# seed 42\n")
    assert scan_seed_comment(text) == 42
    assert scan_seed_comment(emit_edge_list(C3)) is None
    assert parse_edge_list(text) == C3
    assert scan_seed_comment(emit_edge_list(C3, seed=0)) == 0


@pytest.mark.parametrize("seed", [True, False, 1.5, "3", -1])
def test_emit_rejects_a_seed_that_would_not_read_back(seed):
    with pytest.raises(ValueError, match="seed must be"):
        emit_edge_list(C3, seed=seed)
    # Random(-1) would draw the graph of seed 1, and Random(1.5) or Random("3") a graph of its own.
    with pytest.raises(ValueError, match="seed must be"):
        gen_random(6, 0.5, seed)


def test_gen_random_extremes():
    assert gen_random(5, 0.0, 1).edge_count() == 0
    full = gen_random(3, 1.0, 1)
    assert full.edge_count() == 9
    assert full.loops().to_list() == [0, 1, 2]


def test_gen_random_is_deterministic():
    a = gen_random(16, 0.25, 42, "forbid")
    b = gen_random(16, 0.25, 42, "forbid")
    assert a == b
    assert a.loops().to_list() == []
    assert gen_random(16, 0.25, 43, "forbid") != a


def test_gen_random_validates_arguments():
    with pytest.raises(ValueError):
        gen_random(0, 0.5, 1)
    with pytest.raises(ValueError):
        gen_random(3, 1.5, 1)
    with pytest.raises(ValueError):
        gen_random(3, 0.5, 1, loops="sometimes")
