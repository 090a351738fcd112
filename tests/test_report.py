"""report_json: byte for byte what json.dumps(indent=2) writes."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from diagsets.diagonals import Evidence, Side, Witness
from diagsets.graph import make_graph
from diagsets.report import _witness_row, analyze_graph, report_json
from diagsets.upsets import parse_upset

# Any code point, surrogates included, with quotes, backslashes, control
# characters and non-ASCII drawn often.
_chars = st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\U0001f600"]
)
_strings = st.text(_chars, max_size=8)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # nan and both infinities included
    | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324])
    | _strings
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(_strings, inner, max_size=4),
    max_leaves=25,
)


@given(st.dictionaries(_strings, _values, max_size=5))
@settings(max_examples=100)
def test_report_json_is_json_dumps_indent_2(report):
    assert report_json(report) == json.dumps(report, indent=2) + "\n"


def test_report_json_writes_empty_and_nested_containers():
    report = {"a": [], "b": {}, "c": [[], {}, [1, -2, 10**30]], "d": {"e": [True, None, 0.5]}}
    assert report_json(report) == json.dumps(report, indent=2) + "\n"
    assert report_json({}) == "{}\n"


# A path into a 3-cycle, a looped vertex and a complete SCC on four vertices.
_EVERY_ROW_FORM = make_graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (5, 5)]
    + [(u, w) for u in range(6, 10) for w in range(6, 10) if u != w],
)


def test_report_json_writes_every_witness_row_form_as_json_dumps():
    report = analyze_graph(
        _EVERY_ROW_FORM,
        n_values=(1, 2, 10**9 + 7),
        s_sets=[parse_upset("up(t=0,d=2,r=0)"), parse_upset("finite(0,2)")],
        include_spectra=True,
    )
    rows = {entry["spec"]: entry["witnesses"] for entry in report["specs"]}
    every = [row for spec_rows in rows.values() for row in spec_rows]
    assert any(row["evidence"] and "walk" in row["evidence"] for row in every)
    assert any(row["evidence"] and "infinite_tail" in row["evidence"] for row in every)
    assert any(row["side"] == "DxMinusOut" for row in every)
    assert any(
        row["side"] == "OutMinusDx" and row["evidence"] is None for row in rows["Dn(1000000007)"]
    )
    assert report_json(report) == json.dumps(report, indent=2) + "\n"
    assert json.loads(report_json(report)) == report


# Evidence holds at least one vertex, as every witness the engine builds does.
_walks = st.lists(st.integers(0, 10**6), min_size=1, max_size=4).map(tuple)
_witnesses = st.builds(
    Witness,
    vertex=st.integers(0, 10**6),
    side=st.sampled_from(Side),
    against=st.integers(0, 10**6),
    evidence=st.none() | st.builds(Evidence, _walks, st.booleans()),
)


@given(st.lists(_witnesses, max_size=4), st.integers(0, 3))
def test_witness_rows_are_json_dumps_indent_2_at_any_depth(witnesses, depth):
    rows = [_witness_row(w) for w in witnesses]
    value = {"rows": rows}
    for _ in range(depth):
        value = {"nested": [value]}
    assert report_json(value) == json.dumps(value, indent=2) + "\n"
    literals = []
    for row, w in zip(rows, witnesses):
        assert report_json(row) == json.dumps(row, indent=2) + "\n"
        ev = w.evidence
        literal = {
            "v": w.against,
            "u": w.vertex,
            "side": w.side.value,
            "evidence": ev and {"infinite_tail" if ev.infinite_tail else "walk": list(ev.vertices)},
        }
        assert row == literal
        literals.append(literal)
    # Rows built as dict literals, not by _witness_row, are written the same way.
    value = {"rows": literals}
    for _ in range(depth):
        value = {"nested": [value]}
    assert report_json(value) == json.dumps(value, indent=2) + "\n"


def _edit_walk(row, edit):
    (walk,) = row["evidence"].values()
    edit(walk)


# Each edit leaves a row that the template must not write: json.dumps writes it as a dict.
_ROW_EDITS = {
    "a value of another type": lambda row: row.update(v="x"),
    "a fifth key": lambda row: row.update(note="edited"),
    "the keys in another order": lambda row: row.update(v=row.pop("v")),
    "a bool vertex": lambda row: row.update(u=True),
    "a side that is no string": lambda row: row.update(side=None),
    "evidence with a second key": lambda row: row["evidence"].update(more=[1]),
    "evidence that is no dict": lambda row: row.update(evidence=[1, 2]),
    "an empty walk": lambda row: _edit_walk(row, list.clear),
    "a bool in the walk": lambda row: _edit_walk(row, lambda walk: walk.append(False)),
    "a string in the walk": lambda row: _edit_walk(row, lambda walk: walk.append("x")),
    "a walk that is a tuple": lambda row: row["evidence"].update(walk=(5, 5)),
}


def test_report_json_writes_an_edited_witness_row_as_json_dumps():
    for name, edit in _ROW_EDITS.items():
        report = analyze_graph(_EVERY_ROW_FORM)
        d_rows = report["specs"][0]["witnesses"]
        assert d_rows[5]["evidence"] == {"walk": [5, 5]}  # the looped vertex 5
        edit(d_rows[5])
        text = report_json(report)
        assert text == json.dumps(report, indent=2) + "\n", name
        assert json.loads(text)["specs"][0]["witnesses"][5] == json.loads(json.dumps(d_rows[5]))
    report = analyze_graph(_EVERY_ROW_FORM)
    report["specs"][0]["witnesses"][0]["v"] = "x"
    assert '"v": "x"' in report_json(report)
