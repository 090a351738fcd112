import pytest
from hypothesis import given

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


def test_seed_comment_round_trip():
    text = emit_edge_list(C3, seed=42)
    assert text.startswith("# seed 42\n")
    assert scan_seed_comment(text) == 42
    assert scan_seed_comment(emit_edge_list(C3)) is None
    assert parse_edge_list(text) == C3


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
