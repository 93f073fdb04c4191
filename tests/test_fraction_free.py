"""Differential tests of the fraction-free fast paths against slower definitions.

Berkowitz char polys against Faddeev-LeVerrier, Kronecker-packed FracMatrix
products against schoolbook Poly-matrix products, and FracMatrix word
sweeps against sweeps by canonical Q(X) products (oracles in helpers.py).
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from valrep.fields import OrderSpec, RatFunc, X
from valrep.linalg import FracMatrix, Matrix, _pack, _packed_degree, _unpack
from valrep.pants import pants_rep
from valrep.poly import Poly
from valrep.representation import DegreeGuardExceeded, GroupPresentation, RepTable
from valrep.spectra import NORM_SUM, translation_length
from valrep.valuation import Valuation
from valrep.words import is_class_representative

from helpers import (
    faddeev_leverrier,
    poly_matrix_ball,
    poly_matrix_product,
    ratfunc_ball,
    ratfunc_translation_length,
)

R = RatFunc.coerce
SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

small_ints = st.integers(-4, 4)
rationals = st.builds(Fraction, small_ints, st.integers(1, 3))


@st.composite
def qx_entries(draw):
    """Constants, Laurent polynomials, or quotients by non-monomial denominators."""
    kind = draw(st.sampled_from(("constant", "laurent", "generic")))
    if kind == "constant":
        return R(draw(rationals))
    num = Poly(draw(st.lists(rationals, min_size=1, max_size=3)))
    if kind == "laurent":
        shift = draw(st.integers(0, 2))
        return RatFunc(num, Poly([Fraction(0)] * shift + [Fraction(1)]))
    den = Poly(draw(st.lists(rationals, min_size=2, max_size=3)))
    if den.is_zero():
        den = Poly((Fraction(1), Fraction(1)))
    return RatFunc(num, den)


def square_matrices(entries, max_size):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(Matrix)
    )


@SETTINGS
@given(square_matrices(rationals, 6))
def test_berkowitz_matches_faddeev_leverrier_over_q(m):
    assert m.char_poly() == faddeev_leverrier(m)


@settings(SETTINGS, max_examples=20)
@given(square_matrices(qx_entries(), 6))
def test_berkowitz_matches_faddeev_leverrier_over_qx(m):
    assert m.char_poly() == faddeev_leverrier(m)


@settings(SETTINGS, max_examples=40)
@given(square_matrices(qx_entries(), 4))
def test_fraction_free_roundtrip_and_char_poly(m):
    image = FracMatrix.from_matrix(m)
    assert image.to_matrix() == m
    assert all(type(c) is int for row in image.num.entries for p in row for c in p.coeffs)
    # char_poly(N/D)(T) = char_poly(N)(D T) / D^n
    def q(p):
        return Poly(map(Fraction, p.coeffs))

    top = q(image.den**m.rows)
    coeffs = image.num.char_poly().coeffs
    expected = [RatFunc(q(c * image.den**k), top) for k, c in enumerate(coeffs)]
    assert Poly(expected) == m.char_poly()


# -- Kronecker-packed entries ----------------------------------------------------

ONE = Poly((1,))
H64 = 2**63 - 1  # the largest |digit| at width 64
big_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100))
int_polys = st.lists(big_ints, max_size=4).map(Poly)  # zero entries, any leading sign


def packed_square(n, entries=int_polys):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(SETTINGS, max_examples=60)
@given(st.sampled_from((2, 4, 6)).flatmap(lambda n: st.tuples(*[packed_square(n)] * 3)))
def test_packed_product_matches_poly_matrix_product(abc):
    a, b, c = abc
    two = Poly((2,))
    product = FracMatrix.from_polys(a, ONE) @ FracMatrix.from_polys(b, two)
    expected = poly_matrix_product(a, b)
    assert product.num == Matrix(expected)
    assert product.den == two
    n = len(a)
    assert all(abs(c) <= product.bound for row in expected for p in row for c in p.coeffs)
    assert 2 * n * product.bound < 1 << product.width
    chained = product @ FracMatrix.from_polys(c, ONE)
    expected = poly_matrix_product(expected, c)
    assert chained.num == Matrix(expected)
    diagonal = sum((expected[i][i] for i in range(len(a))), Poly())
    rational = Poly(map(Fraction, diagonal.coeffs))
    assert chained.trace() == RatFunc(rational, Poly((Fraction(2),)))


def test_large_coefficients_double_the_width():
    a = [[Poly((2**100, -1)), Poly()], [Poly((-3,)), Poly((0, 0, -(2**100)))]]
    packed = FracMatrix.from_polys(a, ONE)
    assert packed.width == 128
    small = FracMatrix.from_polys([[ONE, Poly((0, -1))], [ONE, ONE]], ONE)
    assert small.width == 64
    for left, right in ((packed, packed), (small, packed), (packed, small)):
        product = left @ right
        assert product.num == Matrix(poly_matrix_product(left.num.entries, right.num.entries))
    assert (packed @ packed).width == 256 and (small @ packed).width == 128


def test_tight_bound_leaves_room_for_the_trace():
    # every entry of A @ A is 2c^2, the bound exactly; its trace 4c^2 needs
    # 2 * 2 * 2c^2 < 2^b, which fails at b = 64 for c = 3 * 2^29
    c = Poly((3 * 2**29,))
    a = FracMatrix.from_polys([[c, c], [c, c]], ONE)
    square = a @ a
    assert a.width == 64 and square.width == 128 and square.bound == 2 * c.coeffs[0] ** 2
    assert square.num == Matrix([[c * c * 2] * 2] * 2)
    assert square.trace() == R(4 * c.coeffs[0] ** 2)


@pytest.mark.parametrize("c,width", [(H64, 64), (H64 + 1, 128), (-H64 - 1, 128), (2**64, 128)])
def test_width_holds_every_coefficient(c, width):
    p = Poly((c, 1, -c))
    packed = FracMatrix.from_polys([[p]], ONE)
    assert packed.width == width
    assert packed.num == Matrix([[p]])


DIGIT_EDGES = [
    (1,), (-1,), (H64,), (-H64,),
    (-H64, -H64, 1), (H64, H64, -1),  # leading +-1 over lower digits of the other sign
    (-1, 1), (1, -1), (-5, 0, 0, 1), (5, 0, 0, -1),
    (H64, -H64, H64, -H64), (0, 0, H64), (0, -H64),
]


@pytest.mark.parametrize("coeffs", DIGIT_EDGES)
def test_pack_unpack_round_trip_at_digit_edges(coeffs):
    p = Poly(coeffs)
    v = _pack(p, 64)
    assert v == sum(c * 2 ** (64 * i) for i, c in enumerate(coeffs))
    assert _unpack(v, 64) == p
    assert _packed_degree(v, 64) == p.degree
    assert FracMatrix.from_polys([[p]], ONE).num == Matrix([[p]])


@st.composite
def balanced_polys(draw):
    width = draw(st.sampled_from((8, 16, 64)))
    limit = 2 ** (width - 1) - 1
    coeffs = draw(st.lists(st.integers(-limit, limit), max_size=6))
    return Poly(coeffs), width


@SETTINGS
@given(balanced_polys())
def test_bit_length_degree_is_poly_degree(case):
    p, width = case
    v = _pack(p, width)
    assert _packed_degree(v, width) == p.degree
    assert _unpack(v, width) == p


def test_degree_guard_takes_the_gcd_path_above_the_bound():
    # N/D with D = (X+1)^2: reduced entries X + 1, X/(X+1)^2, 1/(X+1)^2 and 1
    x1 = Poly((1, 1))
    image = FracMatrix.from_polys([[x1**3, Poly((0, 1))], [ONE, x1**2]], x1**2)
    assert max(p.degree for row in image.num.entries for p in row) == 3
    assert image.to_matrix().max_degree() == 2
    assert image.degree_over(2) is None  # (X+1)^3 / (X+1)^2 reduces to degree 1
    assert image.degree_over(1) == 2
    assert FracMatrix.from_polys([[x1**3]], ONE).degree_over(2) == 3
    assert FracMatrix.from_polys([[x1**3]], x1).degree_over(2) is None


# -- word sweeps ---------------------------------------------------------------


def unipotent(upper: bool, s):
    """[[I, S], [0, I]] or [[I, 0], [S, I]]; symplectic for a symmetric 2x2 S."""
    one, zero = R(1), R(0)
    eye = [[one, zero], [zero, one]]
    nil = [[zero, zero], [zero, zero]]
    if upper:
        return Matrix([eye[i] + s[i] for i in range(2)] + [nil[i] + eye[i] for i in range(2)])
    return Matrix([eye[i] + nil[i] for i in range(2)] + [s[i] + eye[i] for i in range(2)])


def generic_rep():
    """Two unipotent generators whose entries have denominators X^2+1 and X-1."""
    q = X**2 + 1
    s_a = [[(X + 2) / q, R(1) / (X - 1)], [R(1) / (X - 1), X / q]]
    s_b = [[(2 * X - 1) / (X - 1), R(3)], [R(3), R(1) / q]]
    return RepTable(
        GroupPresentation(("a", "b"), ()),
        {"a": unipotent(True, s_a), "b": unipotent(False, s_b)},
        OrderSpec.at_plus(1),
        Valuation.adic(1),
    )


CASES = [
    ("pants aplus:0", lambda: pants_rep(OrderSpec.at_plus(0)), 4),
    ("pants plusinf", lambda: pants_rep(OrderSpec.plus_infinity()), 4),
    ("generic adic:1", generic_rep, 3),
]


@pytest.mark.parametrize("name,make,radius", CASES, ids=[c[0] for c in CASES])
def test_fraction_free_sweep_matches_ratfunc_products(name, make, radius):
    rep = make()
    fast = list(rep.iter_ball(radius))
    slow = list(ratfunc_ball(rep, radius))
    assert [w for w, _ in fast] == [w for w, _ in slow]
    gens = rep.free_generators
    for (word, image), (_, matrix) in zip(fast, slow):
        assert image.to_matrix() == matrix, word
        if is_class_representative(word, gens):
            assert translation_length(image, rep.valuation, NORM_SUM) == (
                ratfunc_translation_length(matrix, rep.valuation)
            ), word


PACKED_CASES = [(name, make, 5) for name, make, _ in CASES]


@pytest.mark.parametrize("name,make,radius", PACKED_CASES, ids=[c[0] for c in PACKED_CASES])
def test_packed_sweep_matches_poly_matrix_products(name, make, radius):
    rep = make()
    fast = list(rep.iter_ball(radius))
    slow = list(poly_matrix_ball(rep, radius))
    assert [w for w, _ in fast] == [w for w, _ in slow]
    for (word, image), (_, (num, den)) in zip(fast, slow):
        assert image.num == Matrix(num) and image.den == den, word


def _guard_outcome(ball):
    try:
        for _ in ball:
            pass
    except DegreeGuardExceeded as err:
        return str(err.word), err.degree, err.bound
    return None


@pytest.mark.parametrize("name,make,radius", CASES[::2], ids=[c[0] for c in CASES[::2]])
def test_degree_guard_matches_ratfunc_products(name, make, radius):
    rep = make()
    outcomes = []
    for bound in range(1, 9):
        fast = _guard_outcome(rep.iter_ball(radius, degree_bound=bound))
        assert fast == _guard_outcome(ratfunc_ball(rep, radius, bound)), bound
        outcomes.append(fast)
    assert outcomes[0] is not None  # the guard does fire at the smallest bound


def test_degree_guard_ignores_unreduced_degree():
    # a = diag(X, 1, 1/X, 1) clears to N = diag(X^2, X, 1, X) over D = X,
    # so a^2 has unreduced degree 4 but reduced entries X^2, 1, X^-2, 1
    one, zero = R(1), R(0)
    diag = [X, one, one / X, one]
    a = Matrix([[diag[i] if i == j else zero for j in range(4)] for i in range(4)])
    rep = RepTable(
        GroupPresentation(("a",), ()), {"a": a}, OrderSpec.at_plus(0), Valuation.adic(0)
    )
    images = dict(rep.iter_ball(2, degree_bound=3))
    square = rep.image(next(w for w in images if len(w) == 2))
    assert max(p.degree for row in square.num.entries for p in row) == 4
    assert _guard_outcome(ratfunc_ball(rep, 2, 3)) is None
    fired = _guard_outcome(rep.iter_ball(2, degree_bound=1))
    assert fired is not None and fired == _guard_outcome(ratfunc_ball(rep, 2, 1))
