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
reported as such.  An optional degree bound B rejects, before it is
built, a power whose degree would exceed B, or whose |exponent| times
the base's coefficient height (the largest ceil(log2 |c|) over the
numerators and denominators of its coefficients in `monic_form`, the
displayed form with a monic denominator) would exceed
64 (B + 1) bits: X^99999999, 6^52172538 and ((6^512)^512)^512 fail at
once, while 0, 1 and -1 take any power.  Parentheses nest at most
MAX_DEPTH deep, and a run of unary minus signs is read in a loop, so
no input exhausts the interpreter's stack.
"""

from __future__ import annotations

from .fields import RatFunc, X, monic_form


MAX_DEPTH = 100  # deepest parenthesis nesting accepted


class ParseError(ValueError):
    """Syntax error with the 0-based position in the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_DIGITS = "0123456789"


class _Tokenizer:
    def __init__(self, text: str, max_degree: int | None = None):
        self.text = text
        self.pos = 0
        self.max_degree = max_degree
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        pos = self.pos
        text = self.text
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return ("end", "", pos)
        ch = text[pos]
        if ch in _DIGITS:
            end = pos
            while end < len(text) and text[end] in _DIGITS:
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
    degree of the base exceeds it, or when |k| times the base's
    coefficient height exceeds 64 (max_degree + 1) bits.
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
    negate = False
    while tok.peek()[0] == "-":
        tok.take()
        negate = not negate
    value = _power(tok)
    return -value if negate else value


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
    exponent = -_integer(value, pos) if negative else _integer(value, pos)
    if exponent < 0 and base.is_zero():
        raise ParseError("negative power of zero", pos)
    bound = tok.max_degree
    if bound is not None:
        degree = abs(exponent) * base.degree
        if degree > bound:
            raise ParseError(f"power of degree {degree} exceeds the degree bound {bound}", pos)
        bits = abs(exponent) * _height(base)
        if bits > 64 * (bound + 1):
            raise ParseError(
                f"power of {bits} coefficient bits exceeds {64 * (bound + 1)}"
                f" for the degree bound {bound}",
                pos,
            )
    return base ** exponent


def _height(f: RatFunc) -> int:
    """Largest ceil(log2 |c|) over the numerators and denominators of monic_form(f)."""
    num, den = monic_form(f)
    return max(
        (
            (abs(part) - 1).bit_length()
            for c in num.coeffs + den.coeffs
            for part in (c.numerator, c.denominator)
            if part
        ),
        default=0,
    )


def _integer(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer of {len(digits)} digits is too long", pos) from None


def _atom(tok: _Tokenizer) -> RatFunc:
    kind, value, pos = tok.take()
    if kind == "int":
        return RatFunc.coerce(_integer(value, pos))
    if kind == "X":
        return X
    if kind == "(":
        if tok.depth == MAX_DEPTH:
            raise ParseError(f"parentheses nest deeper than {MAX_DEPTH}", pos)
        tok.depth += 1
        inner = _expr(tok)
        tok.depth -= 1
        kind, _, pos = tok.take()
        if kind != ")":
            raise ParseError("expected ')'", pos)
        return inner
    if kind == "end":
        raise ParseError("unexpected end of input", pos)
    raise ParseError(f"unexpected token {value!r}", pos)
