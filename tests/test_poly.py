"""Property tests of the Z[X] gcd and exact quotient, Kronecker packing, Q[X] division and deflation.

gcd runs GCDHEU on Kronecker-packed integer values; `subresultant_gcd`
(helpers.py) is the subresultant PRS it replaces and `monic_euclid_gcd`
the plain monic Euclidean algorithm over Q.  `deflate_at` makes one
Horner pass per factor of (X - a); `two_pass_deflate` is the
evaluate-then-divide version it replaces.  `pack` and `unpack` split in
halves recursively; `digit_pack` and `digit_unpack` are the one-digit
loops they replace.
"""

from fractions import Fraction
from math import gcd as igcd

import pytest
from hypothesis import given, settings, strategies as st

from valrep import poly
from valrep.poly import Poly, exact_quotient, gcd, pack, unpack

from helpers import (
    digit_pack,
    digit_unpack,
    monic_euclid_gcd,
    q_monic,
    subresultant_gcd,
    two_pass_deflate,
)

ints = st.integers(-20, 20)
int_polys = st.lists(ints, max_size=5).map(Poly)
nonzero_int_polys = int_polys.filter(lambda p: not p.is_zero())
rational_polys = st.lists(
    st.builds(Fraction, ints, st.integers(1, 6)), max_size=5
).map(Poly)
polys = st.one_of(int_polys, rational_polys)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def positive(p):
    """p or -p, whichever has a positive leading coefficient."""
    return -p if p.coeffs and p.leading() < 0 else p


@given(polys, nonzero_polys)
def test_divmod_is_exact_euclidean_division(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert all(type(c) in (int, Fraction) for c in q.coeffs + r.coeffs)


@given(int_polys, int_polys)
def test_gcd_is_positive_and_divides_both(a, b):
    g, *cofactors = gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero() and all(c.is_zero() for c in cofactors)
        return
    assert g.leading() > 0
    assert all(type(c) is int for c in g.coeffs)
    assert cofactors == [exact_quotient(p, g) for p in (a, b)]
    assert cofactors[0] * g == a and cofactors[1] * g == b
    assert gcd(*cofactors)[0] == Poly((1,))


@given(int_polys, int_polys, int_polys)
def test_gcd_of_common_multiples(a, b, c):
    assert gcd(a * c, b * c)[0] == gcd(a, b)[0] * positive(c)


@settings(max_examples=200)
@given(nonzero_int_polys, nonzero_int_polys, int_polys)
def test_gcd_matches_subresultant_prs(a, b, c):
    if not c.is_zero():
        a, b = a * c, b * c
    content = igcd(igcd(*a.coeffs), igcd(*b.coeffs))
    g = gcd(a, b)[0]
    assert g == subresultant_gcd(a, b) * content
    assert q_monic(g) == monic_euclid_gcd(a, b)


@given(nonzero_int_polys, nonzero_int_polys)
def test_gcd_splits_off_the_content(p, q):
    cp, cq = igcd(*p.coeffs), igcd(*q.coeffs)
    pp, pq = exact_quotient(p, Poly((cp,))), exact_quotient(q, Poly((cq,)))
    assert gcd(p, q)[0] == gcd(pp, pq)[0] * igcd(cp, cq)
    assert gcd(p, p)[0] == positive(p)
    assert gcd(p, Poly((cq,)))[0] == Poly((igcd(cp, cq),))


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((-16, -10, -13, 20), (20, -15, 10, -18), (1,)),
        ((51, -267, 366, -72), (-255, -76, -172, -37, 20), (-17, 4)),
        ((180, -62, 50, 3), (0, -162, -189, 278, 16), (18, 1)),
    ],
)
def test_gcd_doubles_the_width_when_the_first_digits_miss(a, b, expected, monkeypatch):
    # at the first width the digits of igcd(f(2^b), g(2^b)) are not the gcd
    widths = []
    unpack = poly.unpack
    monkeypatch.setattr(poly, "unpack", lambda v, width: widths.append(width) or unpack(v, width))
    a, b = Poly(a), Poly(b)
    assert gcd(a, b)[0] == Poly(expected) == subresultant_gcd(a, b)
    assert len(widths) == 2 and widths[1] == 2 * widths[0]


ANCHORS = (0, 1, -2, Fraction(1), Fraction(-2), Fraction(1, 2))


@given(nonzero_polys, st.sampled_from(ANCHORS), st.integers(0, 5))
def test_deflate_matches_two_pass_deflation(g, a, k):
    p = g * Poly((-a, 1)) ** k if k else g
    fast = p.deflate_at(a)
    assert fast == two_pass_deflate(p, a)
    assert fast[0] >= k and fast[1] != 0


@given(nonzero_int_polys, nonzero_int_polys)
def test_exact_quotient_in_z(a, b):
    assert exact_quotient(a * b, b) == a
    g = gcd(a, b)[0]
    assert exact_quotient(a, g) * g == a
    if b.degree > 0:
        with pytest.raises(ValueError):
            exact_quotient(a * b + Poly((1,)), b)


@st.composite
def digit_runs(draw):
    """(coefficients, width): runs of zeros, digit edges and random digits, up to degree ~300."""
    width = draw(st.one_of(st.integers(2, 70), st.sampled_from((128, 200))))
    half = 1 << (width - 1)
    digit = st.one_of(
        st.sampled_from((-half, half - 1, -half + 1, 1, -1)),
        st.integers(-half, half - 1),
    )
    run = st.one_of(
        st.integers(0, 60).map(lambda k: [0] * k),
        st.lists(digit, max_size=40),
    )
    coeffs = [c for part in draw(st.lists(run, max_size=8)) for c in part]
    return coeffs, width


@settings(max_examples=300)
@given(digit_runs(), st.booleans())
def test_pack_and_unpack_match_the_digit_loops(case, negate):
    coeffs, width = case
    p = Poly(coeffs)
    if negate:  # negative leading digits
        p = -p
    v = pack(p, width)
    assert v == digit_pack(p, width)
    assert unpack(v, width) == digit_unpack(v, width)
    if all(-(1 << (width - 1)) <= c < 1 << (width - 1) for c in p.coeffs):
        assert unpack(v, width) == p


@given(st.lists(st.integers(-(2**300), 2**300), max_size=80), st.integers(2, 90))
def test_pack_matches_the_digit_loop_on_any_coefficients(coeffs, width):
    # coefficients wider than the digits carry between places
    p = Poly(coeffs)
    v = pack(p, width)
    assert v == digit_pack(p, width)
    assert unpack(v, width) == digit_unpack(v, width)


@pytest.mark.parametrize("width", [2, 3, 64])
@pytest.mark.parametrize("degree", [31, 32, 33, 64, 1000, 4097])
def test_pack_round_trip_at_large_degree(width, degree):
    half = 1 << (width - 1)
    for coeffs in (
        [(-1) ** i * (half - 1 - i % half) for i in range(degree + 1)],
        [-half] * degree + [-1],
        [half - 1] + [0] * (degree - 1) + [-half],
    ):
        p = Poly(coeffs)
        v = pack(p, width)
        assert v == digit_pack(p, width) and unpack(v, width) == p
