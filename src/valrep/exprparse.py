"""Parser for rational-function expressions like "-256*X^2+320-16/X^2".

Grammar (integers, X, + - * / ^ and parentheses):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' ['-'] INT)?
    atom     := INT | 'X' | '(' expr ')'

'^' binds tighter than unary minus, so -X^2 parses as -(X^2).  Exponents
are integers (negative allowed, giving Laurent-style input).  Syntax
errors carry the offending position; dividing by a zero polynomial is
reported as such.  An optional degree bound rejects a power whose degree
would exceed it before the power is built, so X^99999999 fails at once.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import RatFunc, X
from .poly import Poly


class ParseError(ValueError):
    """Syntax error with the 0-based position in the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Tokenizer:
    def __init__(self, text: str, max_degree: int | None = None):
        self.text = text
        self.pos = 0
        self.max_degree = max_degree

    def peek(self) -> tuple[str, str, int]:
        pos = self.pos
        text = self.text
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return ("end", "", pos)
        ch = text[pos]
        if ch.isdigit():
            end = pos
            while end < len(text) and text[end].isdigit():
                end += 1
            return ("int", text[pos:end], pos)
        if ch == "X":
            return ("X", ch, pos)
        if ch in "+-*/^()":
            return (ch, ch, pos)
        raise ParseError(f"unexpected character {ch!r}", pos)

    def take(self) -> tuple[str, str, int]:
        kind, value, pos = self.peek()
        self.pos = pos + len(value)
        return kind, value, pos


def parse_ratfunc(text: str, max_degree: int | None = None) -> RatFunc:
    """Parse an expression into canonical reduced form.

    With `max_degree`, a power base^k is rejected when |k| times the
    degree of the base exceeds it.
    """
    tok = _Tokenizer(text, max_degree)
    value = _expr(tok)
    kind, _, pos = tok.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return value


def _expr(tok: _Tokenizer) -> RatFunc:
    value = _term(tok)
    while True:
        kind, _, _ = tok.peek()
        if kind == "+":
            tok.take()
            value = value + _term(tok)
        elif kind == "-":
            tok.take()
            value = value - _term(tok)
        else:
            return value


def _term(tok: _Tokenizer) -> RatFunc:
    value = _unary(tok)
    while True:
        kind, _, _ = tok.peek()
        if kind == "*":
            tok.take()
            value = value * _unary(tok)
        elif kind == "/":
            _, _, pos = tok.take()
            divisor = _unary(tok)
            if divisor.is_zero():
                raise ParseError("division by the zero polynomial", pos)
            value = value / divisor
        else:
            return value


def _unary(tok: _Tokenizer) -> RatFunc:
    kind, _, _ = tok.peek()
    if kind == "-":
        tok.take()
        return -_unary(tok)
    return _power(tok)


def _power(tok: _Tokenizer) -> RatFunc:
    base = _atom(tok)
    kind, _, _ = tok.peek()
    if kind != "^":
        return base
    tok.take()
    kind, value, pos = tok.take()
    negative = False
    if kind == "-":
        negative = True
        kind, value, pos = tok.take()
    if kind != "int":
        raise ParseError("integer exponent expected", pos)
    exponent = -int(value) if negative else int(value)
    if exponent < 0 and base.is_zero():
        raise ParseError("negative power of zero", pos)
    degree = abs(exponent) * base.degree
    if tok.max_degree is not None and degree > tok.max_degree:
        raise ParseError(
            f"power of degree {degree} exceeds the degree bound {tok.max_degree}", pos
        )
    return base ** exponent


def _atom(tok: _Tokenizer) -> RatFunc:
    kind, value, pos = tok.take()
    if kind == "int":
        return RatFunc(Poly((Fraction(int(value)),)))
    if kind == "X":
        return X
    if kind == "(":
        inner = _expr(tok)
        kind, _, pos = tok.take()
        if kind != ")":
            raise ParseError("expected ')'", pos)
        return inner
    if kind == "end":
        raise ParseError("unexpected end of input", pos)
    raise ParseError(f"unexpected token {value!r}", pos)
