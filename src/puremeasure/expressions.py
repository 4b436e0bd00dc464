"""Arithmetic expressions over point coordinates x1..xn.

Supports + - * / ^ (right associative), unary minus, numeric literals and
the functions sin cos exp log sqrt abs sign min max step, with
step(e) = 1 where e > 0 and 0 elsewhere.  A nonzero integer literal
exponent (x1^3, x1^-2) is evaluated by products, so an odd power is exactly
odd and cancels over antithetic pairs; other exponents use np.power.
Expressions evaluate pointwise on sample blocks of shape (N, n).  Every
node, constant or not, is a numpy function of its operands and follows
IEEE rules, so a singularity, even a constant one such as 1/0 or 0/0,
propagates as a non-finite value (inf or nan) which the quadrature layer
tallies.  An expression nests at most MAX_DEPTH levels, each operator,
call, unary minus, power and pair of parentheses counting one.  The parser
counts the levels as it builds the tree, one frame per level, so the bound
is exact, and a tree within it evaluates well inside Python's default
recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np


MAX_DEPTH = 200


class ExpressionError(ValueError):
    pass


_UNARY: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "step": lambda v: np.where(v > 0, 1.0, 0.0),
}
_BINARY: dict[str, Callable] = {"min": np.minimum, "max": np.maximum}

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"cannot read {rest[:12]!r} at position {pos}")
        if m.lastgroup == "op" and m.group("op") == "**":
            tokens.append(("op", "^"))
        else:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


_INFIX = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}  # binding powers
_NEG = 3  # unary minus binds below ^ and above * and /; so does ^'s right operand


class _Parser:
    """Top-down operator precedence (Pratt 1973).

    Each subtree comes back with its level count, and `depth` is the number
    of levels that enclose it, so a path of more than MAX_DEPTH levels is
    rejected where it is found, before the parser descends any further.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.max_var = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, op: str):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, found {val!r} in {self.text!r}")

    def parse(self):
        node, _ = self.expr(0, 0)
        kind, val = self.next()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {val!r} in {self.text!r}")
        return node

    def expr(self, power: int, depth: int) -> tuple[tuple, int]:
        """The expression whose infix operators bind more tightly than `power`, and its level count.

        One frame per level: calls parse their arguments here too.
        """
        _check_depth(depth)
        kind, val = self.next()
        if (kind, val) == ("op", "-"):
            operand, levels = self.expr(_NEG, depth + 1)
            node, levels = ("neg", operand), levels + 1
        elif (kind, val) == ("op", "("):
            node, levels = self.expr(0, depth + 1)
            self.expect(")")
            levels += 1
        elif kind == "num":
            node, levels = ("num", float(val)), 0
        elif kind == "name" and self.peek() == ("op", "("):
            if val not in _UNARY and val not in _BINARY:
                raise ExpressionError(f"unknown function {val!r}")
            self.next()
            args = [self.expr(0, depth + 1)]
            while self.peek() == ("op", ","):
                self.next()
                args.append(self.expr(0, depth + 1))
            self.expect(")")
            want = 1 if val in _UNARY else 2
            if len(args) != want:
                raise ExpressionError(f"{val} takes {want} argument(s), got {len(args)}")
            node, levels = ("call", val, [a for a, _ in args]), max(n for _, n in args) + 1
        elif kind == "name":
            m = re.fullmatch(r"x(\d+)", val)
            if m is None or int(m.group(1)) < 1:
                raise ExpressionError(f"unknown name {val!r}; variables are x1..xn")
            idx = int(m.group(1))
            self.max_var = max(self.max_var, idx)
            node, levels = ("var", idx - 1), 0
        else:
            raise ExpressionError(f"unexpected {val!r} in {self.text!r}")
        while True:
            kind, op = self.peek()
            if kind != "op" or _INFIX.get(op, 0) <= power:
                return node, levels
            self.next()
            right, right_levels = self.expr(_NEG if op == "^" else _INFIX[op], depth + 1)  # ^ is right associative
            node, levels = (op, node, right), max(levels, right_levels) + 1
            _check_depth(depth + levels)


def _check_depth(levels: int) -> None:
    if levels > MAX_DEPTH:
        raise ExpressionError(f"expression nests too deeply (at most {MAX_DEPTH} levels)")


_APPLY: dict[str, Callable] = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power, "neg": np.negative,
    **_UNARY, **_BINARY,
}


def _evaluate(node, pts: np.ndarray):
    """A node's values: a leaf's own, an integer-literal power's by products, else its function's of its operands'."""
    tag, *args = node
    if tag == "num":
        return args[0]
    if tag == "var":
        return pts[:, args[0]]
    if tag == "call":
        tag, args = args
    elif tag == "^" and (n := _integer_literal(args[1])):
        return _integer_power(_evaluate(args[0], pts), n)
    return _APPLY[tag](*[_evaluate(a, pts) for a in args])


def _integer_literal(node) -> int | None:
    """The value of a literal exponent such as 3 or -2 when it is an integer."""
    sign = 1
    if node[0] == "neg":
        sign, node = -1, node[1]
    if node[0] == "num" and node[1].is_integer():
        return sign * int(node[1])
    return None


def _integer_power(a, n: int):
    """a^n by repeated squaring, the reciprocal for n < 0.

    Every step is a product, so (-a)^n is exactly -(a^n) for odd n and a^n
    for even n, which np.power does not guarantee; a^2 is a * a, as in np.power.
    """
    result, square, k = None, a, abs(n)
    while k:
        if k & 1:
            result = square if result is None else result * square
        k >>= 1
        if k:
            square = square * square
    return np.divide(1.0, result) if n < 0 else result


@dataclass(frozen=True)
class Expression:
    """Parsed expression; call with a (N, n) sample block to get (N,) values."""

    source: str
    ast: tuple
    arity: int  # highest coordinate index used

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2:
            raise ExpressionError("expressions evaluate on (N, n) sample blocks")
        if pts.shape[1] < self.arity:
            raise ExpressionError(
                f"expression {self.source!r} uses x{self.arity} but points have dimension {pts.shape[1]}"
            )
        with np.errstate(all="ignore"):
            out = _evaluate(self.ast, pts)
        return np.broadcast_to(np.asarray(out, dtype=float), (len(pts),)).copy()


def parse_expression(text: str) -> Expression:
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a nonempty string")
    parser = _Parser(text)
    return Expression(text, parser.parse(), parser.max_var)
