"""Property test: a tree printed with full parentheses parses back to the same tree."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from puremeasure.expressions import _BINARY, _UNARY, parse_expression  # noqa: E402

leaves = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False).map(lambda v: ("num", v)),  # the grammar has no signed literals
    st.integers(0, 4).map(lambda i: ("var", i)),
)
trees = st.recursive(leaves, lambda sub: st.one_of(
    sub.map(lambda a: ("neg", a)),
    st.tuples(st.sampled_from("+-*/^"), sub, sub),
    st.tuples(st.just("call"), st.sampled_from(sorted(_UNARY)), st.lists(sub, min_size=1, max_size=1)),
    st.tuples(st.just("call"), st.sampled_from(sorted(_BINARY)), st.lists(sub, min_size=2, max_size=2)),
), max_leaves=40)


def _print(node) -> str:
    tag = node[0]
    if tag == "num":
        return repr(node[1])
    if tag == "var":
        return f"x{node[1] + 1}"
    if tag == "neg":
        return f"(-{_print(node[1])})"
    if tag == "call":
        return f"{node[1]}({', '.join(_print(a) for a in node[2])})"
    return f"({_print(node[1])} {tag} {_print(node[2])})"


@settings(max_examples=300, deadline=None)
@given(trees)
def test_fully_parenthesized_trees_parse_back(tree):
    assert parse_expression(_print(tree)).ast == tree
