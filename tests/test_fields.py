"""Field arithmetic, canonical forms and order axioms for Q(X)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valrep.fields import ONE, SPEC_HEADS, OrderSpec, RatFunc, X, format_ratfunc, monic_form
from valrep.poly import Poly, gcd
from valrep.valuation import Valuation

from helpers import four_way_sign, random_ratfunc

ALL_ORDERS = [
    OrderSpec.at_plus(0),
    OrderSpec.at_minus(0),
    OrderSpec.at_plus(Fraction(3, 2)),
    OrderSpec.at_minus(-2),
    OrderSpec.plus_infinity(),
    OrderSpec.minus_infinity(),
]


def test_canonical_form_reduces_and_is_monic():
    f = RatFunc(Poly([Fraction(-2), Fraction(0), Fraction(2)]), Poly([Fraction(-2), Fraction(2)]))
    # (2X^2 - 2)/(2X - 2) = X + 1
    assert f == X + 1
    assert f.den == Poly([Fraction(1)])


q_coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8))
q_polys = st.lists(q_coeffs, max_size=5).map(Poly)


@settings(max_examples=150)
@given(q_polys, q_polys.filter(bool), st.integers(-6, 6).filter(bool))
def test_canonical_form_is_a_coprime_integer_pair(num, den, k):
    f = RatFunc(num, den)
    assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs)
    assert f.den.leading() > 0
    assert gcd(f.num, f.den)[0] == Poly((1,))  # no common factor, constants included
    assert f.num * den == num * f.den  # the same element of Q(X)
    again = RatFunc(num * k, den * k)
    assert (again.num, again.den) == (f.num, f.den) and hash(again) == hash(f)
    if f.is_constant():
        assert hash(f) == hash(f.as_fraction()) and f == f.as_fraction()


@settings(max_examples=100)
@given(q_polys, q_polys.filter(bool))
def test_monic_form_matches_sympy_cancel(num, den):
    import sympy

    x = sympy.Symbol("X")

    def expr(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs)),
            sympy.Integer(0),
        )

    def poly(e):
        return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(e.all_coeffs()))

    top, bottom = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    top, bottom = sympy.Poly(top, x, domain="QQ"), sympy.Poly(bottom, x, domain="QQ")
    lead = bottom.LC()
    expected = poly(top.exquo_ground(lead)), poly(bottom.exquo_ground(lead))
    assert monic_form(RatFunc(num, den)) == expected


def test_zero_normalizes_den_to_one():
    f = RatFunc(Poly(), Poly([Fraction(3), Fraction(5)]))
    assert f.is_zero()
    assert f.den.degree == 0 and f.den.leading() == 1


def test_equality_and_hash_are_structural():
    f = (X + 1) * (X - 1) / (X - 1)
    g = X + 1
    assert f == g
    assert hash(f) == hash(g)


def test_field_axioms_on_random_samples():
    rng = random.Random(7)
    for _ in range(200):
        f, g, h = (random_ratfunc(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f + (-f) == 0
        if not f.is_zero():
            assert f * (ONE / f) == 1


def test_pow_and_inverse():
    f = (X + 2) / (X - 1)
    assert f ** 3 == f * f * f
    assert f ** -2 == ONE / (f * f)
    assert f ** 0 == 1


@settings(max_examples=150)
@given(q_polys, q_polys.filter(bool), st.integers(-3, 5))
def test_pow_matches_repeated_products(num, den, k):
    f = RatFunc(num, den)
    if k < 0 and f.is_zero():
        return
    expected = ONE
    for _ in range(abs(k)):
        expected = expected * f
    if k < 0:
        expected = ONE / expected
    power = f**k
    assert (power.num, power.den) == (expected.num, expected.den)


@pytest.mark.parametrize(
    "spec", ["aplus:1/0", "aminus:-3/0", 7, None, ["aplus:0"], "aplus", "plusinf:1", "adic:0"]
)
def test_order_spec_rejects_zero_denominators_and_non_strings(spec):
    with pytest.raises(ValueError):
        OrderSpec.from_spec_string(spec)


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_order_is_total_and_compatible(order):
    rng = random.Random(hash(order.spec_string()) & 0xFFFF)
    for _ in range(150):
        f, g = random_ratfunc(rng), random_ratfunc(rng)
        sf, sg = order.sign(f), order.sign(g)
        assert sf in (-1, 0, 1)
        assert (sf == 0) == f.is_zero()
        if sf > 0 and sg > 0:
            assert order.sign(f + g) > 0
            assert order.sign(f * g) > 0
        # squares are nonnegative
        assert order.sign(f * f) in (0, 1)
        # trichotomy for the comparison
        assert order.compare(f, g) == -order.compare(g, f)


small = st.integers(-5, 5)
anchors = st.builds(Fraction, small, st.integers(1, 3))
orders = st.one_of(
    anchors.map(OrderSpec.at_plus),
    anchors.map(OrderSpec.at_minus),
    st.just(OrderSpec.plus_infinity()),
    st.just(OrderSpec.minus_infinity()),
)


@st.composite
def elements(draw, order):
    """Elements of Q(X), often with a factor (X - a)^k at the order's anchor."""
    def poly():
        return Poly(draw(st.lists(st.builds(Fraction, small, st.integers(1, 3)), max_size=4)))

    num, den = poly(), poly()
    if den.is_zero():
        den = Poly((Fraction(1),))
    if order.a is not None:
        num = num * Poly((-order.a, Fraction(1))) ** draw(st.integers(0, 3))
        den = den * Poly((-order.a, Fraction(1))) ** draw(st.integers(0, 2))
    return RatFunc(num, den)


@settings(max_examples=150)
@given(st.data())
def test_ordered_field_axioms(data):
    order = data.draw(orders)
    x, y, z = (data.draw(elements(order)) for _ in range(3))
    sx, sy = order.sign(x), order.sign(y)
    # trichotomy: exactly one of x < 0, x = 0, x > 0
    assert sx in (-1, 0, 1) and (sx == 0) == x.is_zero()
    assert order.sign(-x) == -sx
    assert order.sign(x * y) == sx * sy
    if sx > 0 and sy > 0:
        assert order.sign(x + y) > 0
    assert order.compare(x, y) == -order.compare(y, x)
    if order.compare(x, y) <= 0 and order.compare(y, z) <= 0:
        assert order.compare(x, z) <= 0


@st.composite
def factored_elements(draw, order):
    """(X - a)^j p / ((X - a)^k q) at an anchor a; at infinity, deg p and deg q match or differ."""
    def poly(degree):
        lead = draw(st.builds(Fraction, small.filter(bool), st.integers(1, 3)))
        return Poly(draw(st.lists(q_coeffs, min_size=degree, max_size=degree)) + [lead])

    dn = draw(st.integers(0, 4))
    num, den = poly(dn), poly(draw(st.one_of(st.just(dn), st.integers(0, 4))))
    if order.a is not None:
        factor = Poly((-order.a, Fraction(1)))
        num = num * factor ** draw(st.integers(0, 3))
        den = den * factor ** draw(st.integers(0, 3))
    return RatFunc(num, den)


@settings(max_examples=300)
@given(st.data())
def test_one_sign_rule_matches_four_way_sign(data):
    order = data.draw(orders)
    f = data.draw(factored_elements(order))
    assert order.sign(f) == four_way_sign(order, f)
    assert order.sign(-f) == four_way_sign(order, -f)


SPEC_CONSTRUCTORS = {
    "aplus": OrderSpec.at_plus,
    "aminus": OrderSpec.at_minus,
    "plusinf": lambda _: OrderSpec.plus_infinity(),
    "minusinf": lambda _: OrderSpec.minus_infinity(),
    "adic": Valuation.adic,
    "atinf": lambda _: Valuation.at_infinity(),
}


@pytest.mark.parametrize("head", sorted(SPEC_HEADS))
def test_spec_heads_round_trip(head):
    anchored, side = SPEC_HEADS[head]
    for a in ("0", "-3/2", "7") if anchored else (None,):
        text = f"{head}:{a}" if anchored else head
        parsed = (Valuation if side == 0 else OrderSpec).from_spec_string(text)
        assert parsed == SPEC_CONSTRUCTORS[head](a and Fraction(a))
        assert parsed.spec_string() == str(parsed) == text


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_infinitely_large_witness(order):
    w = order.infinitely_large_element()
    for r in (0, 1, 10**6, 2**64, 2**64 + 12345):
        assert order.compare(w, RatFunc.coerce(r)) > 0


def test_one_over_x_minus_a_dominates_rationals():
    # 1/(X - a) at the order a_+ exceeds every rational constant
    order = OrderSpec.at_plus(Fraction(5, 3))
    f = ONE / (X - Fraction(5, 3))
    assert order.sign(f) == 1
    for r in (Fraction(10**30), Fraction(2**64), Fraction(-7, 3)):
        assert order.compare(f, RatFunc.coerce(r)) > 0


def test_sign_examples():
    assert OrderSpec.plus_infinity().sign(-X * X + 3) == -1
    assert OrderSpec.at_plus(0).sign(RatFunc.coerce(0)) == 0
    # X - X^2 = X(1 - X) is positive just right of 0
    assert OrderSpec.at_plus(0).compare(X, X * X) > 0
    assert OrderSpec.at_plus(0).compare(X, X) == 0
    # 1/X beats any constant just right of 0
    assert OrderSpec.at_plus(0).compare(ONE / X, RatFunc.coerce(10**100)) > 0


def test_sign_at_minus_flips_odd_multiplicities():
    order_p = OrderSpec.at_plus(2)
    order_m = OrderSpec.at_minus(2)
    f = X - 2
    assert order_p.sign(f) == 1
    assert order_m.sign(f) == -1
    assert order_m.sign(f * f) == 1


def test_minus_infinity_parity():
    order = OrderSpec.minus_infinity()
    assert order.sign(X) == -1
    assert order.sign(X * X) == 1
    assert order.sign(ONE / X) == -1


def test_format_canonical():
    f = -256 * X ** 2 + 320 - 16 / (X * X)
    assert format_ratfunc(f) == "(-256*X^4+320*X^2-16)/(X^2)"
    assert format_ratfunc(X) == "X"
    assert format_ratfunc(RatFunc.coerce(Fraction(-3, 2))) == "-3/2"
    assert str(ONE / (X + 1)) == "(1)/(X+1)"


def test_evaluate_exact():
    f = (X ** 2 - 1) / (X + 2)
    assert f.evaluate(Fraction(1, 2)) == Fraction(-3, 10)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(-2)


def test_sign_at_a_point_evaluates_no_cofactor_again(monkeypatch):
    # the Horner pass that ends the deflation has already evaluated the cofactor at a
    calls = []
    evaluate = Poly.evaluate
    monkeypatch.setattr(Poly, "evaluate", lambda self, t: calls.append(t) or evaluate(self, t))
    f = (X - 1) ** 2 * (X + 3) / ((X - 1) * (X - 2))
    assert OrderSpec.at_plus(1).sign(f) == -1
    assert OrderSpec.at_minus(1).sign(f) == 1
    assert calls == []
