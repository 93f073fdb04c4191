"""Expression parsing, round-trips and error positions."""

from fractions import Fraction

import pytest

from valrep.exprparse import ParseError, parse_ratfunc
from valrep.fields import ONE, RatFunc, X, format_ratfunc
from valrep.poly import Poly


def test_identity_case():
    f = parse_ratfunc("X")
    assert f == X
    assert f.num == Poly([Fraction(0), Fraction(1)]) and f.den == Poly([Fraction(1)])


def test_pants_trace_expression():
    f = parse_ratfunc("-256*X^2+320-16/X^2")
    assert f.num == Poly([Fraction(-16), 0, Fraction(320), 0, Fraction(-256)])
    assert f.den == Poly([0, 0, Fraction(1)])


def test_cancellation():
    f = parse_ratfunc("(X^2-1)/(X-1)")
    assert f == X + 1


def test_precedence_and_unary_minus():
    # ^ binds tighter than unary minus
    assert parse_ratfunc("-X^2") == -(X ** 2)
    assert parse_ratfunc("2+3*X") == 2 + 3 * X
    assert parse_ratfunc("3/2*X") == Fraction(3, 2) * X
    assert parse_ratfunc("1/X^2") == ONE / X ** 2
    assert parse_ratfunc("X^-2") == ONE / X ** 2
    assert parse_ratfunc("-(X+1)*(X-1)") == 1 - X ** 2


def test_format_parse_round_trip():
    import random

    rng = random.Random(3)
    for _ in range(100):
        num = Poly(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5)))
        den = Poly(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4)))
        if den.is_zero():
            continue
        f = RatFunc(num, den)
        assert parse_ratfunc(format_ratfunc(f)) == f


def test_idempotent_formatting():
    text = "-256*X^2+320-16/X^2"
    once = format_ratfunc(parse_ratfunc(text))
    assert format_ratfunc(parse_ratfunc(once)) == once


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_ratfunc("X + * 2")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_ratfunc("(X + 1")
    with pytest.raises(ParseError):
        parse_ratfunc("X^y")
    with pytest.raises(ParseError):
        parse_ratfunc("")


def test_division_by_zero_polynomial():
    with pytest.raises(ParseError) as err:
        parse_ratfunc("1/(X-X)")
    assert "zero polynomial" in str(err.value)


def test_degree_bound_on_powers():
    assert parse_ratfunc("X^4", max_degree=4) == X ** 4
    assert parse_ratfunc("(X^2+1)^-2", max_degree=4) == ONE / (X ** 2 + 1) ** 2
    for text, degree in (("X^5", 5), ("(X^2)^3", 6), ("(1/X^2)^-3", 6), ("X^99999999", 99999999)):
        with pytest.raises(ParseError, match=f"degree {degree} exceeds the degree bound 4"):
            parse_ratfunc(text, max_degree=4)
    assert parse_ratfunc("X^5") == X ** 5
