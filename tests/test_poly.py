"""Property tests of Poly division, gcd and deflation, over Q and over Z.

gcd runs a subresultant sequence on primitive integer coefficients for
Q and Z inputs; `monic_euclid_gcd` (helpers.py) is the plain monic
Euclidean algorithm it replaces.  `deflate_at` makes one Horner pass per
factor of (X - a); `two_pass_deflate` is the evaluate-then-divide
version it replaces.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from valrep.poly import Poly, exact_quotient, gcd, primitive_gcd, split_content

from helpers import monic_euclid_gcd, two_pass_deflate

ints = st.integers(-20, 20)
int_polys = st.lists(ints, max_size=5).map(Poly)
rational_polys = st.lists(
    st.builds(Fraction, ints, st.integers(1, 6)), max_size=5
).map(Poly)
polys = st.one_of(int_polys, rational_polys)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@given(polys, nonzero_polys)
def test_divmod_is_exact_euclidean_division(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert all(type(c) in (int, Fraction) for c in q.coeffs + r.coeffs)


@given(polys, polys)
def test_gcd_is_monic_and_divides_both(a, b):
    g = gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.leading() == 1
    assert all(type(c) in (int, Fraction) for c in g.coeffs)
    assert (a % g).is_zero() and (b % g).is_zero()


@given(polys, polys, polys)
def test_gcd_of_common_multiples(a, b, c):
    assert gcd(a * c, b * c) == gcd(a, b) * c.monic()


@given(polys, polys)
def test_subresultant_gcd_matches_monic_euclid(a, b):
    assert gcd(a, b) == monic_euclid_gcd(a, b)


ANCHORS = (0, 1, -2, Fraction(1), Fraction(-2), Fraction(1, 2))


@given(nonzero_polys, st.sampled_from(ANCHORS), st.integers(0, 5))
def test_deflate_matches_two_pass_deflation(g, a, k):
    p = g * Poly((-a, 1)) ** k if k else g
    fast = p.deflate_at(a)
    assert fast == two_pass_deflate(p, a)
    assert fast[0] >= k and fast[1] != 0


@given(nonzero_polys)
def test_split_content_gives_a_primitive_integer_part(p):
    content, q = split_content(p)
    assert q * content == Poly(map(Fraction, p.coeffs))
    assert all(type(c) is int for c in q.coeffs) and q.leading() > 0
    assert primitive_gcd(q, q) == q


@given(nonzero_polys, nonzero_polys)
def test_exact_quotient_in_z(a, b):
    a, b = split_content(a)[1], split_content(b)[1]
    assert exact_quotient(a * b, b) == a
    g = primitive_gcd(a, b)
    assert gcd(a, b) == g.monic() and exact_quotient(a, g) * g == a
    if b.degree > 0:
        with pytest.raises(ValueError):
            exact_quotient(a * b + Poly((1,)), b)
