"""Arithmetic expressions over point coordinates x1..xn.

Supports + - * / ^ (right associative), unary minus, numeric literals and
the functions sin cos exp log sqrt abs sign min max step, with
step(e) = 1 where e > 0 and 0 elsewhere.  A nonzero integer literal
exponent (x1^3, x1^-2) is evaluated by products, so an odd power is exactly
odd and cancels over antithetic pairs; other exponents use np.power.
Expressions evaluate pointwise on sample blocks of shape (N, n);
singularities propagate as non-finite values which the quadrature layer
tallies.  A tree nests at most MAX_DEPTH levels, each operator, call, unary
minus and power counting one, so that evaluating it cannot exhaust
Python's stack.
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
_BINARY: dict[str, Callable] = {
    "min": np.minimum,
    "max": np.maximum,
}

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


class _Parser:
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
        node = self.expr()
        kind, val = self.next()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {val!r} in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            return ("^", base, self.unary())  # right associative, exponent may be signed
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return ("num", float(val))
        if kind == "name":
            if self.peek() == ("op", "("):
                return self.call(val)
            m = re.fullmatch(r"x(\d+)", val)
            if m is None or int(m.group(1)) < 1:
                raise ExpressionError(f"unknown name {val!r}; variables are x1..xn")
            idx = int(m.group(1))
            self.max_var = max(self.max_var, idx)
            return ("var", idx - 1)
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected {val!r} in {self.text!r}")

    def call(self, name: str):
        if name not in _UNARY and name not in _BINARY:
            raise ExpressionError(f"unknown function {name!r}")
        self.expect("(")
        args = [self.expr()]
        while self.peek() == ("op", ","):
            self.next()
            args.append(self.expr())
        self.expect(")")
        want = 1 if name in _UNARY else 2
        if len(args) != want:
            raise ExpressionError(f"{name} takes {want} argument(s), got {len(args)}")
        return ("call", name, args)


def _evaluate(node, pts: np.ndarray):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return pts[:, node[1]]
    if tag == "neg":
        return -_evaluate(node[1], pts)
    if tag == "call":
        args = [_evaluate(a, pts) for a in node[2]]
        fn = _UNARY.get(node[1]) or _BINARY[node[1]]
        return fn(*args)
    a = _evaluate(node[1], pts)
    if tag == "^":
        n = _integer_literal(node[2])
        if n:
            return _integer_power(a, n)
    b = _evaluate(node[2], pts)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    if tag == "/":
        return a / b
    if tag == "^":
        return np.power(a, b)
    raise AssertionError(f"unhandled node {tag}")


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


def _depth(node) -> int:
    """The operator levels of a tree, counted level by level rather than by recursion."""
    depth, level = -1, [node]
    while level:
        depth += 1
        level = [c for n in level if n[0] not in ("num", "var") for c in (n[2] if n[0] == "call" else n[1:])]
    return depth


def parse_expression(text: str) -> Expression:
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a nonempty string")
    parser = _Parser(text)
    too_deep = ExpressionError(f"expression nests too deeply (at most {MAX_DEPTH} levels)")
    try:  # the parser recurses several frames per level, and once per parenthesis
        ast = parser.parse()
    except RecursionError:
        raise too_deep from None
    if _depth(ast) > MAX_DEPTH:
        raise too_deep
    return Expression(text, ast, parser.max_var)
