"""Property tests: a tree printed with full parentheses parses back to the same tree, and evaluates
to one float per point without raising, its singularities as inf or nan."""

import numpy as np
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


# zeros and signs in every coordinate, so constant and variable denominators, logs and roots hit 0 and below
POINTS = np.array([[0.0, -0.0, 1.0, -1.0, 0.5], [0.0, 2.0, 0.0, -3.0, 0.0], [-1.5, 0.0, 1e-300, 0.0, 1e300]])


@settings(max_examples=300, deadline=None)
@given(trees)
def test_every_tree_evaluates_to_one_float_per_point(tree):
    # a constant zero denominator (1/0, 0/0, 0^-1) once raised ZeroDivisionError
    values = parse_expression(_print(tree))(POINTS)
    assert values.shape == (len(POINTS),) and values.dtype == np.float64
