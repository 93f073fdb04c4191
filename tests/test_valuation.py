"""Valuations, order compatibility and the Newton polygon."""

import random
from fractions import Fraction

import pytest

from valrep.exprparse import parse_ratfunc
from valrep.fields import ONE, OrderSpec, RatFunc, X
from valrep.poly import Poly
from valrep.valuation import (
    INFINITY,
    CompatibilityReport,
    Valuation,
    check_order_compatibility,
    newton_polygon,
)
from helpers import random_ratfunc


def test_nu_examples():
    assert Valuation.adic(0).of(ONE / X) == -1
    assert Valuation.at_infinity().of(X) == -1
    f = (X - 2) ** 3 * (X + 1)
    assert Valuation.adic(2).of(f) == 3
    assert Valuation.adic(0).of(RatFunc.coerce(0)) is INFINITY
    assert Valuation.adic(1).of(RatFunc.coerce(Fraction(7, 3))) == 0


def test_valuations_are_integers():
    # nu_a and nu_inf take values in Z on Q(X), read from the Z[X] pair
    f = (X - 2) ** 3 * (X + 1) / (X**2 + 1)
    for val in (Valuation.adic(0), Valuation.adic(2), Valuation.adic(Fraction(1, 2)),
                Valuation.at_infinity()):
        for g in (f, ONE / f, RatFunc.coerce(Fraction(7, 3)), f.num):
            assert type(val.of(g)) is int, (val, g)
    assert Valuation.adic(2).of(f) == 3
    assert Valuation.at_infinity().of(f) == -2


def test_nu_is_a_valuation():
    rng = random.Random(11)
    for val in (Valuation.adic(0), Valuation.adic(2), Valuation.at_infinity()):
        for _ in range(200):
            f, g = random_ratfunc(rng), random_ratfunc(rng)
            if f.is_zero() or g.is_zero():
                continue
            assert val.of(f * g) == val.of(f) + val.of(g)
            s = f + g
            if not s.is_zero():
                assert val.of(s) >= min(val.of(f), val.of(g))
                if val.of(f) != val.of(g):
                    assert val.of(s) == min(val.of(f), val.of(g))


def test_canonical_pairings_are_compatible():
    rng = random.Random(5)
    samples = [random_ratfunc(rng) for _ in range(130)] + [ONE / X, X, X ** 2, RatFunc.coerce(3)]
    for order in (OrderSpec.at_plus(0), OrderSpec.at_minus(0), OrderSpec.plus_infinity(), OrderSpec.minus_infinity()):
        val = Valuation(order.a)
        report = check_order_compatibility(order, val, samples)
        assert report.compatible, report.witness
        assert report.pairs_checked >= 1000


def test_mismatched_pairing_reports_witness():
    report = check_order_compatibility(OrderSpec.plus_infinity(), Valuation.adic(0), [ONE / X, X])
    assert not report.compatible
    assert report.witness is not None
    x, y = report.witness
    # at +inf, 0 < 1/X <= X, but nu_0(1/X) = -1 < 1 = nu_0(X)
    assert (x, y) == (ONE / X, X)


def test_constants_have_valuation_zero_and_are_compatible():
    report = check_order_compatibility(
        OrderSpec.at_plus(0), Valuation.adic(0), [RatFunc.coerce(2), RatFunc.coerce(Fraction(5, 7))]
    )
    assert report.compatible
    assert report.pairs_checked > 0


def poly_over_ratfunc(*coeffs) -> Poly:
    return Poly(RatFunc.coerce(c) if not isinstance(c, RatFunc) else c for c in coeffs)


def test_newton_polygon_split_example():
    # T^2 - (X + 1/X) T + 1 has roots X and 1/X
    p = poly_over_ratfunc(1, -(X + ONE / X), 1)
    result = newton_polygon(p, Valuation.adic(0))
    assert result.root_valuations == ((Fraction(-1), 1), (Fraction(1), 1))
    assert result.zero_roots == 0
    assert sum(m for _, m in result.root_valuations) + result.zero_roots == 2


def test_newton_polygon_unit_roots():
    # (T - 1)^4 expanded: all roots of valuation 0
    p = poly_over_ratfunc(1, -4, 6, -4, 1)
    result = newton_polygon(p, Valuation.adic(0))
    assert result.root_valuations == ((Fraction(0), 4),)


def test_newton_polygon_char_poly_of_diag():
    # char poly of diag(X, 1/X) at infinity: slopes {1, -1}
    p = poly_over_ratfunc(1, -(X + ONE / X), 1)
    result = newton_polygon(p, Valuation.at_infinity())
    assert result.expanded() == [Fraction(-1), Fraction(1)]


def test_newton_polygon_zero_roots_block():
    # T^2 * (T - X): two zero roots plus one of valuation 1
    p = poly_over_ratfunc(0, 0, -X, 1)
    result = newton_polygon(p, Valuation.adic(0))
    assert result.zero_roots == 2
    assert result.root_valuations == ((Fraction(1), 1),)
    assert sum(m for _, m in result.root_valuations) + result.zero_roots == 3


def test_newton_polygon_rejects_zero():
    with pytest.raises(ValueError):
        newton_polygon(Poly(), Valuation.adic(0))


def test_newton_polygon_slope_sum_identity():
    # slopes (with multiplicity) sum to nu(c_0) - nu(c_lead)
    rng = random.Random(23)
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = []
        for _ in range(deg + 1):
            c = random_ratfunc(rng, max_deg=2, coeff_bound=4)
            coeffs.append(c)
        if coeffs[0].is_zero() or coeffs[-1].is_zero():
            continue
        p = Poly(coeffs)
        val = Valuation.adic(0)
        result = newton_polygon(p, val)
        assert result.zero_roots == 0
        assert sum(result.expanded()) == val.of(coeffs[0]) - val.of(coeffs[-1])
        valuations = [v for v, _ in result.root_valuations]
        assert all(a < b for a, b in zip(valuations, valuations[1:])), valuations


def test_newton_polygon_numeric_oracle():
    """Specializing X to small t reproduces each slope from float root magnitudes.

    Exponent patterns are strictly convex with unit coefficients, keeping
    every lower-hull segment of extent one so the facet constants stay
    near 1 and the float oracle is well-conditioned.
    """
    import math

    rng = random.Random(41)
    val = Valuation.adic(0)
    for _ in range(30):
        deg = rng.randint(2, 6)
        # strictly convex exponents => strictly increasing hull slopes
        slopes = sorted(rng.sample(range(-4, 5), deg))
        exps = [0]
        for s in slopes:
            exps.append(exps[-1] + s)
        signs = [rng.choice((-1, 1)) for _ in exps]
        coeffs = [RatFunc.coerce(sg) * X ** e for sg, e in zip(signs, exps)]
        p = Poly(coeffs)
        expected = sorted(val.of(coeffs[i]) - val.of(coeffs[i + 1]) for i in range(deg))
        assert newton_polygon(p, val).expanded() == expected
        for k in (4, 6):
            t = Fraction(1, 10**k)
            float_coeffs = [c.evaluate(t) for c in coeffs]
            roots = _float_roots([float(c) for c in float_coeffs])
            measured = sorted(math.log(abs(r)) / math.log(float(t)) for r in roots)
            for got, want in zip(measured, expected):
                if want == 0:
                    assert abs(got) < 0.05
                else:
                    assert abs(got - want) <= 0.05 * abs(want)


def _float_roots(coeffs_low_first):
    import mpmath

    with mpmath.workdps(80):
        return mpmath.polyroots(list(reversed(coeffs_low_first)), maxsteps=200, extraprec=200)


@pytest.mark.parametrize(
    "spec", ["adic:1/0", "adic:-2/0", 5, None, {"adic": 0}, "adic", "atinf:0", "aplus:0"]
)
def test_valuation_spec_rejects_zero_denominators_and_non_strings(spec):
    with pytest.raises(ValueError):
        Valuation.from_spec_string(spec)
