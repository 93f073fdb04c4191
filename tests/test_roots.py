"""Z[X] roots of char polys in Z[X][T] against sympy's bivariate factorization.

`linear_eigenvalues` takes what char_poly(N) is for an invertible N: a
polynomial monic in T, of T-degree at least 1, with p(0) != 0.  It finds
the roots from one Kronecker evaluation X = 2^w and an l-adic integer
root finder; `sympy_linear_eigenvalues` (helpers.py) is the
factorization over Z[X, T] it replaces.  The roots must agree exactly,
multiplicities included, and every root sympy leaves out must lie in a
factor of T-degree above 1.
"""

import pytest
from hypothesis import given, settings, strategies as st

from valrep.fields import RatFunc
from valrep.poly import Poly, pack
from valrep.roots import _integer_roots, _root_width, linear_eigenvalues

from helpers import sympy_linear_eigenvalues

ONE = Poly((1,))
T = Poly((Poly(), ONE))


def const(c):
    """c (an integer or an integer Poly in X) as a polynomial of T-degree 0."""
    return Poly((c if isinstance(c, Poly) else Poly((c,)),))


def linear(b, a):
    """b T - a in Z[X][T]."""
    return Poly((-a, b))


def zx(bound, max_size=3):
    return st.lists(st.integers(-bound, bound), max_size=max_size).map(Poly)


nonzero_zx = zx(4, 2).filter(bool)
root_parts = st.one_of(zx(6), zx(2**100)).filter(bool)


@st.composite
def factors(draw):
    """(factor, T-degree): T - a with a != 0, or an irreducible quadratic or cubic.

    Every factor is monic with a nonzero constant term, so their products are too.
    """
    kind = draw(st.sampled_from(("linear", "linear", "quadratic", "cubic")))
    if kind == "linear":
        return linear(ONE, draw(root_parts)), 1
    shift = linear(ONE, draw(zx(6)))
    w = draw(nonzero_zx)
    if kind == "quadratic":
        # (T - a)^2 - X w^2 (X is no square in Q(X)), or T^2 + k, k > 0
        if draw(st.booleans()):
            return Poly((Poly((draw(st.integers(1, 9)),)), Poly(), ONE)), 2
        return shift**2 - const(Poly((0, 1)) * w * w), 2
    return shift**3 - const(Poly((0, 1)) * w * w * w), 3


@st.composite
def products(draw):
    """A product of one to four factors of total T-degree 1 to 6, with repeats."""
    p, degree = const(ONE), 0
    for factor, deg in draw(st.lists(factors(), min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 2))):
            if degree + deg <= 6:
                p, degree = p * factor, degree + deg
    return p


def as_oracle(p, roots):
    """linear_eigenvalues' answer in the form of `sympy_linear_eigenvalues`.

    The roots become Q(X) elements sorted by (str, multiplicity), and
    the roots left out make up the non-split degree.
    """
    qx = sorted(((RatFunc(a), m) for a, m in roots), key=lambda rm: (str(rm[0]), rm[1]))
    return qx, p.degree - sum(m for _, m in roots)


@settings(max_examples=150)
@given(products())
def test_linear_eigenvalues_match_the_sympy_factorization(p):
    assert p.degree >= 1 and p.leading() == 1 and p.coeffs[0]
    assert as_oracle(p, linear_eigenvalues(p)) == sympy_linear_eigenvalues(p)


@pytest.mark.parametrize("r", [3, 5, 7, 2**20 - 1, 2**20, 2**100, -(2**100), 2**100 + 1])
@pytest.mark.parametrize("cofactor", ["none", "T^2+1", "T^2-X"])
def test_root_at_the_mignotte_bound(r, cofactor):
    # with c = p(0) constant the root r = -c reaches Mignotte's bound
    # 2^deg c ||c||_2 = |c|, so a width one bit narrower cannot hold it
    p = linear(ONE, Poly((r,)))
    if cofactor == "T^2+1":
        p = p * Poly((ONE, Poly(), ONE))
    elif cofactor == "T^2-X":
        p = p * Poly((Poly((0, -1)), Poly(), ONE))
    roots = linear_eigenvalues(p)
    assert roots == [(Poly((r,)), 1)]
    assert as_oracle(p, roots) == sympy_linear_eigenvalues(p)


def test_non_monic_input_is_rejected():
    # 2 T - 2^100 and (X T - 1)^2 (3 T + X) have roots in Q(X) outside Z[X];
    # char_poly(N) is monic, so such input is refused, never answered
    p = linear(Poly((2,)), Poly((2**100,)))
    q = linear(Poly((0, 1)), ONE) ** 2 * linear(Poly((3,)), Poly((0, -1)))
    for bad in (p, q, -linear(ONE, ONE)):
        with pytest.raises(ValueError, match="monic"):
            linear_eigenvalues(bad)


def test_spurious_integer_roots_of_the_evaluation_are_dropped():
    # T^2 - m X - k is irreducible for m != 0, yet at X = 2^w its image
    # T^2 - m 2^w - k can have integer roots; they must not be reported
    spurious = 0
    for m in (1, 2, 3):
        for k in range(-40, 41):
            p = Poly((Poly((-k, -m)), Poly(), ONE))
            width = _root_width(p.coeffs[0])
            image = Poly(pack(c, width) for c in p.coeffs)
            spurious += bool(_integer_roots(image))
            assert linear_eigenvalues(p) == []
            assert sympy_linear_eigenvalues(p) == ([], 2)
    assert spurious > 0


def test_zero_roots_and_degree_zero():
    # T^3 (T - X) has the root 0, so it is no char poly of an invertible
    # matrix; constants have no roots to find; both are refused
    for bad in (T**3 * linear(ONE, Poly((0, 1))), T, const(ONE), const(Poly((0, 1))), Poly()):
        with pytest.raises(ValueError, match="positive degree with p\\(0\\) != 0"):
            linear_eigenvalues(bad)


@st.composite
def square_free_with_integer_roots(draw):
    """(s, roots): s = prod (T - r) (T^2 + k)^e, distinct r != 0, e in {0, 1}."""
    small = st.integers(-30, 30)
    roots = draw(st.sets(st.one_of(small, st.integers(-(2**70), 2**70)), max_size=5))
    roots.discard(0)
    s = Poly((1,))
    for r in roots:
        s = s * Poly((-r, 1))
    if draw(st.booleans()) or not roots:
        s = s * Poly((draw(st.integers(1, 50)), 0, 1))
    return s, sorted(roots)


@given(square_free_with_integer_roots())
def test_integer_roots_of_a_square_free_polynomial(case):
    s, roots = case
    assert sorted(_integer_roots(s)) == roots


def test_integer_roots_skip_primes_with_a_double_root():
    # 1 and 4 meet mod 3, 1 and 6 mod 5, 1 and 8 mod 7: the first usable prime is 11
    s = Poly((1,))
    for r in (1, 4, 6, 8):
        s = s * Poly((-r, 1))
    assert sorted(_integer_roots(s)) == [1, 4, 6, 8]

