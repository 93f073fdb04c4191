"""Expression parsing, round-trips and error positions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def test_constant_powers_count_against_the_bound():
    # |k| * ceil(log2 |c|) bits against 64 * (B + 1): 6^52172538 would take minutes
    for text, bits in (("6^52172538", 156517614), ("(1/9)^-921307188", 3685228752),
                       ("((6^512)^512)^512", 677888)):
        with pytest.raises(ParseError, match=f"power of {bits} coefficient bits exceeds 32832"):
            parse_ratfunc(text, max_degree=512)
    assert parse_ratfunc("2^3", max_degree=0) == 8
    assert parse_ratfunc("(6^512)^2", max_degree=512) == RatFunc.coerce(6**1024)
    for text in ("1^99999999", "(-1)^99999999", "0^99999999", "(X-X+1)^-99999999"):
        assert parse_ratfunc(text, max_degree=0).is_constant()


def test_deep_nesting_is_a_parse_error():
    deep = "(" * 3000 + "X" + ")" * 3000
    with pytest.raises(ParseError) as err:
        parse_ratfunc(deep, 512)
    assert err.value.position == 100
    assert parse_ratfunc("(" * 100 + "X" + ")" * 100) == X
    assert parse_ratfunc("-" * 5000 + "X") == X
    assert parse_ratfunc("-" * 5001 + "X^2") == -(X**2)


def test_overlong_integers_and_foreign_digits_are_parse_errors():
    with pytest.raises(ParseError, match="integer of 5000 digits is too long"):
        parse_ratfunc("1" * 5000)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_ratfunc("X^\u00b2")


# the grammar's alphabet, plus a few whole numbers so that powers and their bounds occur
TOKENS = list("0123456789X+-*/^() ") + ["12", "99", "512", "513", "52172538"]


@settings(max_examples=400)
@given(st.one_of(st.lists(st.sampled_from(TOKENS), max_size=24).map("".join),
                 st.text(max_size=12)))
def test_parser_returns_a_value_or_a_parse_error(text):
    try:
        value = parse_ratfunc(text, 512)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert isinstance(value, RatFunc)


def test_coefficient_bits_are_measured_on_the_monic_form():
    # 3*2^127/(2^127*X+1) is stored as that Z[X] pair, of height 129 bits, but
    # displayed as (3)/(X+1/2^127), of height 127: the bound 64 (B + 1) = 128
    # reads the displayed form, on both sides of it
    accepted = parse_ratfunc("(3*2^127/(2^127*X+1))^1", max_degree=1)
    assert accepted.num == Poly((3 * 2**127,)) and accepted.den == Poly((1, 2**127))
    assert format_ratfunc(accepted) == f"(3)/(X+1/{2**127})"
    with pytest.raises(ParseError, match="power of 129 coefficient bits exceeds 128"):
        parse_ratfunc("(3*2^128*2/(2^128*2*X+1))^1", max_degree=1)
