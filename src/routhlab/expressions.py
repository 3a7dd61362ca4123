"""A small expression language for Lagrangians and scalar coefficients.

Grammar (whitespace-insensitive, standard precedence):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | FUNC '(' expr ')' | VARIABLE | '(' expr ')'

Functions: sqrt, sin, cos, exp, log. Variables: x1..xn for positions,
v1..vn for velocities. Parsed expressions evaluate over plain floats or the
dual types, so one parse serves value evaluation and jet propagation alike.
A constant exponent follows :func:`routhlab.duals.power`; an exponent that
reads a variable is evaluated as ``exp(e * log(b))``, which needs b > 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import duals
from .errors import ArityError, ParseError

__all__ = ["Expression", "parse_expression"]

_FUNCTIONS = {
    "sqrt": duals.sqrt,
    "sin": duals.sin,
    "cos": duals.cos,
    "exp": duals.exp,
    "log": duals.log,
}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)"
)

_VAR_RE = re.compile(r"^([xv])([1-9][0-9]*)$")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        s = m.group()
        if kind == "ws":
            nl = s.count("\n")
            if nl:
                line += nl
                col = len(s) - s.rfind("\n")
            else:
                col += len(s)
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {s!r}", line, col)
        tokens.append(_Token(kind, s, line, col))
        col += len(s)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.max_x = 0
        self.max_v = 0
        self.n_vars = 0  # variable references parsed so far

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = _binop(tok.text, node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.unary()
                node = _binop(tok.text, node, rhs)
            else:
                return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            inner = self.unary()
            if tok.text == "-":
                return lambda xs, ys, f=inner: -f(xs, ys)
            return inner
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            before = self.n_vars
            exponent = self.unary()
            if self.n_vars == before:
                pw = duals.power
                return lambda xs, ys, b=base, e=exponent: pw(b(xs, ys), e(xs, ys))
            # a variable exponent takes the exp-log form on floats and duals
            # alike, so a position-only power rounds the same either way
            exp, log = duals.exp, duals.log
            return lambda xs, ys, b=base, e=exponent: exp(e(xs, ys) * log(b(xs, ys)))
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            c = float(tok.text)
            return lambda xs, ys, c=c: c
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                fn = _FUNCTIONS[tok.text]
                return lambda xs, ys, f=fn, a=arg: f(a(xs, ys))
            m = _VAR_RE.match(tok.text)
            if m:
                kind, idx = m.group(1), int(m.group(2)) - 1
                self.n_vars += 1
                if kind == "x":
                    self.max_x = max(self.max_x, idx + 1)
                    return lambda xs, ys, i=idx: xs[i]
                self.max_v = max(self.max_v, idx + 1)
                return lambda xs, ys, i=idx: ys[i]
            raise ParseError(f"unknown identifier {tok.text!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        what = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {what!r}", tok.line, tok.column)


def _binop(op: str, a, b):
    if op == "+":
        return lambda xs, ys: a(xs, ys) + b(xs, ys)
    if op == "-":
        return lambda xs, ys: a(xs, ys) - b(xs, ys)
    if op == "*":
        return lambda xs, ys: a(xs, ys) * b(xs, ys)
    return lambda xs, ys: a(xs, ys) / b(xs, ys)


@dataclass(frozen=True)
class Expression:
    """A compiled expression with its variable footprint."""

    source: str
    fn: object
    max_x: int
    max_v: int

    def __call__(self, xs, ys=()):
        return self.fn(xs, ys)


def parse_expression(text: str, dim: int | None = None, allow_velocity: bool = True) -> Expression:
    """Parse expression text; optionally enforce a declared dimension.

    With ``dim`` given, any variable index above it raises ArityError. With
    ``allow_velocity=False``, any v-variable raises ArityError (used for
    coefficients that must depend on position only).
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    parser = _Parser(_tokenize(text))
    fn = parser.parse()
    if dim is not None:
        if parser.max_x > dim or parser.max_v > dim:
            worst = max(parser.max_x, parser.max_v)
            raise ArityError(
                f"expression references index {worst} beyond declared dimension {dim}"
            )
    if not allow_velocity and parser.max_v > 0:
        raise ArityError("velocity variables are not allowed in this expression")
    return Expression(source=text, fn=fn, max_x=parser.max_x, max_v=parser.max_v)
