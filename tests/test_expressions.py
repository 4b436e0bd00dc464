import numpy as np
import pytest

from puremeasure.expressions import MAX_DEPTH, ExpressionError, parse_expression


def ev(text, pts):
    return parse_expression(text)(np.asarray(pts, dtype=float))


def test_arithmetic_and_precedence():
    pts = [[2.0, 3.0]]
    assert ev("x1 + x2 * 2", pts)[0] == 8.0
    assert ev("(x1 + x2) * 2", pts)[0] == 10.0
    assert ev("x1 - x2 - 1", pts)[0] == -2.0
    assert ev("x1 / 4", pts)[0] == 0.5
    assert ev("-x1^2", pts)[0] == -4.0  # unary minus binds below the power
    assert ev("2^-1", pts)[0] == 0.5
    assert ev("2^3^2", pts)[0] == 512.0  # right associative
    assert ev("2**3", pts)[0] == 8.0


def test_functions():
    pts = [[0.5, -1.0]]
    assert ev("sin(x1)", pts)[0] == pytest.approx(np.sin(0.5))
    assert ev("cos(x1)*exp(x2)", pts)[0] == pytest.approx(np.cos(0.5) * np.exp(-1.0))
    assert ev("sqrt(abs(x2))", pts)[0] == 1.0
    assert ev("sign(x2)", pts)[0] == -1.0
    assert ev("min(x1, x2)", pts)[0] == -1.0
    assert ev("max(x1, 0.75)", pts)[0] == 0.75
    assert ev("log(exp(x1))", pts)[0] == pytest.approx(0.5)


def test_step_semantics():
    vals = ev("step(x1)", [[-1.0], [0.0], [2.0]])
    assert list(vals) == [0.0, 0.0, 1.0]


def test_constants_broadcast():
    vals = ev("3.5", [[0.0], [1.0]])
    assert list(vals) == [3.5, 3.5]


def test_singularities_propagate_nonfinite():
    vals = ev("1/x1", [[0.0], [2.0]])
    assert np.isinf(vals[0]) and vals[1] == 0.5
    vals = ev("log(x1)", [[-1.0]])
    assert np.isnan(vals[0])
    vals = ev("sqrt(x1)", [[-4.0]])
    assert np.isnan(vals[0])


def test_arity_tracking_and_dimension_check():
    e = parse_expression("x3 + x1")
    assert e.arity == 3
    with pytest.raises(ExpressionError):
        e(np.zeros((4, 2)))


def test_parse_errors():
    deep = ["(" * 2000 + "x1" + ")" * 2000, "-" * 5000 + "x1", "+".join(["x1"] * 5000)]
    for bad in ["", "x0", "y + 1", "sin()", "min(x1)", "sin(x1", "1 +", "x1 @ 2", "foo(x1)", *deep]:
        with pytest.raises(ExpressionError):
            parse_expression(bad)(np.zeros((1, 3)))


NESTINGS = {  # text with n levels of one kind
    "call": lambda n: "sin(" * n + "x1" + ")" * n,
    "parentheses": lambda n: "(" * n + "x1" + ")" * n,
    "unary minus": lambda n: "-" * n + "x1",
    "power chain": lambda n: "^".join(["x1"] * (n + 1)),
    "sum chain": lambda n: "+".join(["x1"] * (n + 1)),
}


def _from_frames_deep(frames: int, fn):
    return fn() if frames == 0 else _from_frames_deep(frames - 1, fn)


@pytest.mark.parametrize("kind", NESTINGS)
@pytest.mark.parametrize("frames", [0, 500])
def test_max_depth_is_the_only_bound(kind, frames):
    text = NESTINGS[kind]
    _from_frames_deep(frames, lambda: parse_expression(text(MAX_DEPTH)))
    with pytest.raises(ExpressionError, match="nests too deeply"):
        _from_frames_deep(frames, lambda: parse_expression(text(MAX_DEPTH + 1)))


def test_levels_add_up_along_a_path():
    half = MAX_DEPTH // 2
    mixed = "(" * half + "-" * (half - 1) + "sin(x1)" + ")" * half
    assert parse_expression(mixed)([[0.5]])[0] == pytest.approx(np.sin(0.5) * (-1) ** (half - 1))
    siblings = NESTINGS["call"](MAX_DEPTH - 1) + " * " + NESTINGS["unary minus"](MAX_DEPTH - 1)
    parse_expression(siblings)  # siblings do not add up: each path has MAX_DEPTH levels
    for deeper in ("(" + mixed + ")", mixed.replace("sin(x1)", "sin(x1 + 1)"), mixed + "^2"):
        with pytest.raises(ExpressionError, match="nests too deeply"):
            parse_expression(deeper)


def test_odd_integer_powers_cancel_over_antithetic_pairs():
    from puremeasure.quadrature import AxisBox

    pairs = list(AxisBox((np.array([-1.0]), np.array([1.0]))).pairs(3, 0, 200_000))
    for text in ("x1^3", "x1^5", "x1^-3", "2*x1^7 - x1^3"):
        odd = parse_expression(text)
        assert all(np.array_equal(odd(b), -odd(a)) for a, b in pairs), text
    even = parse_expression("x1^4")
    assert all(np.array_equal(even(b), even(a)) for a, b in pairs)


def test_integer_powers_are_products():
    x = np.random.default_rng(4).uniform(-3.0, 3.0, (1000, 1))
    v = x[:, 0]
    # the square stays what np.power gives, so outputs that use ^2 keep their bits
    assert np.array_equal(ev("x1^2", x), v * v) and np.array_equal(ev("x1^2", x), np.power(v, 2.0))
    assert np.array_equal(ev("x1^3", x), v * v * v)
    assert np.array_equal(ev("x1^-2", x), 1.0 / (v * v))
    assert np.array_equal(ev("x1^0", x), np.ones(1000))
    assert np.array_equal(ev("abs(x1)^0.5", x), np.power(np.abs(v), 0.5))
    assert ev("0^-1", [[1.0]])[0] == np.inf
