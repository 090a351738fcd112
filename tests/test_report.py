"""report_json: byte for byte what json.dumps(indent=2) writes."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from diagsets.report import report_json

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
