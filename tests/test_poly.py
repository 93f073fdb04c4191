"""Property tests of Poly division and gcd, over Q and over Z.

gcd runs a subresultant sequence on primitive integer coefficients for
Q and Z inputs; `monic_euclid_gcd` (helpers.py) is the plain monic
Euclidean algorithm it replaces.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from valrep.poly import Poly, gcd

from helpers import monic_euclid_gcd

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
