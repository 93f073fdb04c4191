"""Differential tests of the fraction-free fast paths against slower definitions.

Berkowitz char polys against Faddeev-LeVerrier, Kronecker-packed FracMatrix
products and char polys against schoolbook Poly-matrix products and
Berkowitz over Poly entries, the fraction-free building pseudodistance
against its Q(X) definition, FracMatrix word sweeps against sweeps by
canonical Q(X) products, the Z[X] clearing of Q(X) matrices against its
Q[X] version, and generator letters against the Q(X) inverse (oracles
in helpers.py).
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from valrep import linalg
from valrep.fields import OrderSpec, RatFunc, X
from valrep.linalg import FracMatrix, Matrix, _packed_degree
from valrep.pants import pants_rep
from valrep.poly import Poly, pack, unpack
from valrep.representation import (
    DegreeGuardExceeded,
    GroupPresentation,
    RepresentationError,
    RepTable,
)
from valrep.spectra import NORM_SPREAD, NORM_SUM, building_pseudodistance, translation_length
from valrep.symplectic import symplectic_inverse
from valrep.valuation import Valuation
from valrep.words import is_class_representative, parse_word

from helpers import (
    faddeev_leverrier,
    generic_rep,
    poly_matrix_ball,
    poly_matrix_product,
    qx_from_matrix,
    qx_pseudodistance,
    ratfunc_ball,
    ratfunc_spread_length,
    ratfunc_translation_length,
    unipotent,
    with_degree_bound,
)

R = RatFunc.coerce

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


@given(square_matrices(rationals, 6))
def test_berkowitz_matches_faddeev_leverrier_over_q(m):
    assert m.char_poly() == faddeev_leverrier(m)


@settings(max_examples=20)
@given(square_matrices(qx_entries(), 6))
def test_berkowitz_matches_faddeev_leverrier_over_qx(m):
    assert m.char_poly() == faddeev_leverrier(m)


@settings(max_examples=40)
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


# -- clearing denominators in Z[X] ------------------------------------------------

# X + 1/2 has rational content, X^2 - 1/4 shares its factor, X^2 + 1 is irreducible
DEN_FACTORS = (X + R(Fraction(1, 2)), X**2 - R(Fraction(1, 4)), X - 1, X**2 + 1, X)


@st.composite
def shared_denominator_matrices(draw):
    """1x1 up to 6x6 matrices whose entries reuse, repeat and combine a few denominators.

    An entry is zero, has the unit denominator, or has a product of up to
    three picks from DEN_FACTORS, times a rational; one row may be all zero.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = []
    for _ in range(rows * cols):
        kind = draw(st.sampled_from(("zero", "unit", "shared", "shared")))
        if kind == "zero":
            entries.append(R(0))
            continue
        num = RatFunc(Poly(draw(st.lists(rationals, min_size=1, max_size=3))))
        if kind == "shared":
            for factor in draw(st.lists(st.sampled_from(DEN_FACTORS), min_size=1, max_size=3)):
                num = num / factor
        entries.append(num * R(draw(rationals.filter(bool))))
    grid = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
    if draw(st.booleans()):
        grid[draw(st.integers(0, rows - 1))] = [R(0)] * cols
    return Matrix(grid)


def _non_unit_denominators(m):
    return {e.den for row in m.entries for e in row if e.den != Poly((1,))}


@given(shared_denominator_matrices())
def test_from_matrix_matches_qx_clearing(m):
    fast, slow = FracMatrix.from_matrix(m), qx_from_matrix(m)
    assert fast.to_matrix() == slow.to_matrix() == m
    assert fast.den.leading() > 0
    assert all(type(c) is int for c in fast.den.coeffs)
    for row, slow_row in zip(fast.num.entries, slow.num.entries):
        for n, slow_n in zip(row, slow_row):
            assert all(type(c) is int for c in n.coeffs)
            assert n * slow.den == slow_n * fast.den


@settings(max_examples=40)
@given(shared_denominator_matrices())
def test_from_matrix_divides_at_most_twice_per_denominator(m):
    calls = {"exact_quotient": 0, "gcd": 0}

    def counting(name):
        original = getattr(linalg, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return patch.object(linalg, name, wrapper)

    with counting("exact_quotient"), counting("gcd"):
        FracMatrix.from_matrix(m)
    distinct = len(_non_unit_denominators(m))
    assert calls["exact_quotient"] <= 2 * distinct
    assert calls["gcd"] <= distinct


def test_from_matrix_scales_each_numerator_by_its_own_content():
    # (1/2)/(X + 1/2) = 1/(2X + 1): the numerator must be divided by the
    # content 1/2 of its own denominator, beside entries with other contents
    m = Matrix([[R(Fraction(1, 2)) / (X + R(Fraction(1, 2))), R(1) / (X - R(Fraction(1, 3)))],
                [R(3), R(1) / (X**2 - R(Fraction(1, 4)))]])
    image = FracMatrix.from_matrix(m)
    assert image.to_matrix() == m
    # D = lcm(2X+1, 3X-1, 4X^2-1) = 12X^3-4X^2-3X+1, and 1/(2X+1) = (3X-1)(2X-1)/D
    assert image.den == Poly((1, -3, -4, 12))
    assert image.num[0, 0] == Poly((1, -5, 6))


# -- Kronecker-packed entries ----------------------------------------------------

ONE = Poly((1,))
H64 = 2**63 - 1  # the largest |digit| at width 64
big_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100))
int_polys = st.lists(big_ints, max_size=4).map(Poly)  # zero entries, any leading sign


def packed_square(n, entries=int_polys):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=60)
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


def test_rectangular_product_bounds_by_the_inner_dimension():
    # (2x4) @ (4x1) of constant entries c: both entries are 4c^2, a sum of 4 terms
    c = Poly((2**100,))
    product = FracMatrix.from_polys([[c] * 4] * 2, ONE) @ FracMatrix.from_polys([[c]] * 4, ONE)
    four = Poly((4 * 2**200,))
    assert product.num == Matrix([[four]] * 2) and product.bound >= 4 * 2**200


def test_tight_bound_leaves_room_for_the_trace():
    # every entry of A @ A is 2c^2, the bound exactly; its trace 4c^2 needs
    # 2 * 2 * 2c^2 < 2^b, which fails at b = 64 for c = 3 * 2^29
    c = Poly((3 * 2**29,))
    a = FracMatrix.from_polys([[c, c], [c, c]], ONE)
    square = a @ a
    assert a.width == 64 and square.width == 128 and square.bound == 2 * c.coeffs[0] ** 2
    assert square.num == Matrix([[c * c * 2] * 2] * 2)
    assert square.trace() == R(4 * c.coeffs[0] ** 2)


def test_long_power_widens_only_for_its_real_coefficients():
    # the a-priori bound of c1^k compounds with every product (about 20,000
    # bits at k = 4096), while the real coefficients stay under 64 bits
    rep = pants_rep(OrderSpec.at_plus(0))
    image = rep.image(parse_word("c1^4096"))
    assert image.width == 64
    power, square = Matrix.identity(4, R(1)), rep.images["c1"]
    for bit in bin(4096)[:1:-1]:
        if bit == "1":
            power = power @ square
        square = square @ square
    assert image.to_matrix() == power


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


@settings(max_examples=60)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(packed_square(n), min_size=1, max_size=3)))
def test_packed_char_poly_matches_poly_berkowitz(factors):
    # a product carries a-priori bounds, so its char poly may keep the
    # width or widen after measuring; a single matrix carries exact ones
    image = FracMatrix.from_polys(factors[0], ONE)
    for rows in factors[1:]:
        image = image @ FracMatrix.from_polys(rows, Poly((3,)))
    packed = image.char_poly()
    assert packed == image.num.char_poly()
    assert all(type(c) is int for p in packed.coeffs for c in p.coeffs)


@pytest.mark.parametrize("n", range(1, 7))
def test_packed_char_poly_of_zero_matrix(n):
    image = FracMatrix.from_polys([[Poly()] * n] * n, ONE)
    assert image.char_poly() == Poly([Poly()] * n + [ONE]) == image.num.char_poly()


def test_packed_char_poly_width_holds_the_k_factorial():
    # det [[c, -c], [c, c]] = 2c^2 = 2! M^2 needs width 128 at c = 5 * 2^29,
    # though C(2,2) L M^2 = c^2 alone would still fit in width 64
    c = 5 * 2**29
    image = FracMatrix.from_polys([[Poly((c,)), Poly((-c,))], [Poly((c,)), Poly((c,))]], ONE)
    assert image.width == 64 and 2 * c * c < 2**64 <= 4 * c * c
    assert image.char_poly() == Poly((Poly((2 * c * c,)), Poly((-2 * c,)), ONE))


@pytest.mark.parametrize("n", [2, 4])
def test_widening_unpacks_each_entry_once(n, monkeypatch):
    # a widened char poly unpacks the n^2 entries once, to measure and
    # repack them, and then its n + 1 coefficients; a widening product
    # unpacks the entries of both factors once
    calls = []
    monkeypatch.setattr(linalg, "unpack", lambda v, width: calls.append(width) or unpack(v, width))
    c = Poly((5 * 2**29,))
    image = FracMatrix.from_polys([[c] * n] * n, ONE)
    char_poly = image.char_poly()
    assert len(calls) == n * n + n + 1 and calls[-1] > image.width
    del calls[:]
    product = image @ image
    assert product.width > image.width and len(calls) == 2 * n * n
    monkeypatch.undo()
    assert char_poly == image.num.char_poly()
    assert product.num == image.num @ image.num


@pytest.mark.parametrize("coeffs", DIGIT_EDGES)
def test_pack_unpack_round_trip_at_digit_edges(coeffs):
    p = Poly(coeffs)
    v = pack(p, 64)
    assert v == sum(c * 2 ** (64 * i) for i, c in enumerate(coeffs))
    assert unpack(v, 64) == p
    assert _packed_degree(v, 64) == p.degree
    assert FracMatrix.from_polys([[p]], ONE).num == Matrix([[p]])


@st.composite
def balanced_polys(draw):
    width = draw(st.sampled_from((8, 16, 64)))
    limit = 2 ** (width - 1) - 1
    coeffs = draw(st.lists(st.integers(-limit, limit), max_size=6))
    return Poly(coeffs), width


@given(balanced_polys())
def test_bit_length_degree_is_poly_degree(case):
    p, width = case
    v = pack(p, width)
    assert _packed_degree(v, width) == p.degree
    assert unpack(v, width) == p


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


CASES = [
    ("pants aplus:0", lambda: pants_rep(OrderSpec.at_plus(0)), 4),
    ("pants plusinf", lambda: pants_rep(OrderSpec.plus_infinity()), 4),
    ("generic adic:1", generic_rep, 3),
]


@pytest.mark.parametrize("name,make,radius", CASES, ids=[c[0] for c in CASES])
def test_fraction_free_sweep_matches_ratfunc_products(name, make, radius):
    rep = make()
    fast = list(rep.iter_ball(radius))
    slow = list(ratfunc_ball(rep, radius, pruned=True))
    assert [w for w, _ in fast] == [w for w, _ in slow]
    for (word, image), (_, matrix) in zip(fast, slow):
        assert image.to_matrix() == matrix, word
        if is_class_representative(word, rep.letter_index):
            assert translation_length(image, rep.valuation, NORM_SUM) == (
                ratfunc_translation_length(matrix, rep.valuation)
            ), word


PACKED_CASES = [(name, make, 5) for name, make, _ in CASES]


@pytest.mark.parametrize("name,make,radius", PACKED_CASES, ids=[c[0] for c in PACKED_CASES])
def test_packed_sweep_matches_poly_matrix_products(name, make, radius):
    rep = make()
    fast = list(rep.iter_ball(radius))
    slow = list(poly_matrix_ball(rep, radius, pruned=True))
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
        fast = _guard_outcome(with_degree_bound(rep, bound).iter_ball(radius))
        assert fast == _guard_outcome(ratfunc_ball(rep, radius, bound, pruned=True)), bound
        outcomes.append(fast)
    assert outcomes[0] is not None  # the guard does fire at the smallest bound


def test_degree_guard_ignores_unreduced_degree():
    # a = diag(X, 1, 1/X, 1) clears to N = diag(X^2, X, 1, X) over D = X,
    # so a^2 has unreduced degree 4 but reduced entries X^2, 1, X^-2, 1
    one, zero = R(1), R(0)
    diag = [X, one, one / X, one]
    a = Matrix([[diag[i] if i == j else zero for j in range(4)] for i in range(4)])
    rep = RepTable(
        GroupPresentation(("a",), ()), {"a": a}, OrderSpec.at_plus(0), Valuation.adic(0),
        degree_bound=3,
    )
    images = dict(rep.iter_ball(2))
    square = rep.image(next(w for w in images if len(w) == 2))
    assert max(p.degree for row in square.num.entries for p in row) == 4
    assert _guard_outcome(ratfunc_ball(rep, 2, 3)) is None
    fired = _guard_outcome(with_degree_bound(rep, 1).iter_ball(2))
    assert fired is not None and fired == _guard_outcome(ratfunc_ball(rep, 2, 1, pruned=True))


# -- building pseudodistance ----------------------------------------------------

invertible_2x2 = st.lists(rationals, min_size=4, max_size=4).filter(
    lambda e: e[0] * e[3] != e[1] * e[2]
)


@st.composite
def generic_symplectic(draw):
    """A unipotent block with generic symmetric entries times a rational torus.

    Built like perfbench's generic-qx elements: the symmetric block has
    entries with non-monomial denominators, and the torus is
    diag(A, A^-T) for an invertible rational 2x2 A.
    """
    a, b, c = (draw(qx_entries()) for _ in range(3))
    block = unipotent(draw(st.booleans()), [[a, b], [b, c]])
    e = draw(invertible_2x2)
    a2 = Matrix([[R(e[0]), R(e[1])], [R(e[2]), R(e[3])]])
    inv_t = a2.inverse().transpose()
    zero = [R(0)] * 2
    torus = Matrix(
        [list(a2.entries[i]) + zero for i in range(2)]
        + [zero + list(inv_t.entries[i]) for i in range(2)]
    )
    return block @ torus


def scaled(g):
    """diag(2, 1, 1, 1) g: invertible, never symplectic."""
    return Matrix([[2 * e for e in g.entries[0]]] + list(g.entries[1:]))


PSEUDO_VALUATIONS = (Valuation.adic(0), Valuation.adic(1), Valuation.at_infinity())


@settings(max_examples=25)
@given(generic_symplectic(), generic_symplectic(), st.booleans())
def test_pseudodistance_matches_qx_definition(g1, g2, symplectic):
    if not symplectic:
        g1 = scaled(g1)
    assert (FracMatrix.from_matrix(g1).symplectic_inverse() is not None) == symplectic
    for val in PSEUDO_VALUATIONS:
        for norm in (NORM_SUM, NORM_SPREAD):
            assert building_pseudodistance(g1, g2, val, norm) == (
                qx_pseudodistance(g1, g2, val, norm)
            ), (val, norm)


invertible_qx = square_matrices(qx_entries(), 4).filter(lambda m: m.det() != 0)


@settings(max_examples=40)
@given(st.one_of(generic_symplectic(), generic_symplectic().map(scaled), invertible_qx))
def test_spread_length_matches_the_linear_slopes(g):
    # symplectic, scaled (never symplectic) and generic invertible Q(X)
    # matrices, whose root valuations need not pair up as v, -v
    for val in PSEUDO_VALUATIONS:
        assert translation_length(g, val, NORM_SPREAD) == ratfunc_spread_length(g, val), val


def test_pseudodistance_of_a_rectangular_g2():
    g1 = unipotent(True, [[X / (X + 1), R(1)], [R(1), R(2)]])
    g2 = Matrix([[R(1), R(0)], [R(0), X], [X, R(1) / (X - 1)], [R(0), R(1) / X]])
    for val in PSEUDO_VALUATIONS:
        for norm in (NORM_SUM, NORM_SPREAD):
            assert building_pseudodistance(g1, g2, val, norm) == (
                qx_pseudodistance(g1, g2, val, norm)
            )


@settings(max_examples=40)
@given(generic_symplectic())
def test_symplectic_inverse_is_the_inverse_exactly_when_symplectic(g):
    inverse = FracMatrix.from_matrix(g).symplectic_inverse()
    assert inverse is not None and inverse.to_matrix() == g.inverse()
    assert FracMatrix.from_matrix(scaled(g)).symplectic_inverse() is None


def test_symplectic_inverse_rejects_a_unit_diagonal_non_symplectic():
    # [[I, B], [0, I]] with B not symmetric: J^-1 t(g) J g = [[I, B - tB], [0, I]]
    # has the right diagonal, and only its off-diagonal block tells
    g = unipotent(True, [[R(1), X / (X + 2)], [R(0), R(1)]])
    assert FracMatrix.from_matrix(g).symplectic_inverse() is None
    sl2 = Matrix([[X / (X + 1), R(1)], [R(0), (X + 1) / X]])
    assert FracMatrix.from_matrix(sl2).symplectic_inverse().to_matrix() == sl2.inverse()
    odd = Matrix([[R(1)]])
    assert FracMatrix.from_matrix(odd).symplectic_inverse() is None


# -- generator letters ------------------------------------------------------------


def one_generator(image):
    return RepTable(
        GroupPresentation(("a",), ()), {"a": image}, OrderSpec.at_plus(1), Valuation.adic(1)
    )


@settings(max_examples=40)
@given(generic_symplectic())
def test_rep_letters_match_the_qx_inverse(g):
    rep = one_generator(g)
    assert rep.letters[("a", 1)].to_matrix() == g
    expected = FracMatrix.from_matrix(symplectic_inverse(g))
    inverse = rep.letters[("a", -1)]
    assert inverse.to_matrix() == expected.to_matrix()
    for row, expected_row in zip(inverse.num.entries, expected.num.entries):
        for n, expected_n in zip(row, expected_row):
            assert n * expected.den == expected_n * inverse.den


@settings(max_examples=20)
@given(generic_symplectic())
def test_rep_rejects_non_symplectic_images(g):
    # scaled(g) fails off the diagonal of the check; 2g only on the diagonal (4 D^2 I)
    for bad in (scaled(g), g.scale(R(2))):
        with pytest.raises(RepresentationError) as err:
            one_generator(bad)
        assert str(err.value) == "image of 'a' is not symplectic"


def test_rep_rejects_non_square_images():
    for rows in ([[R(1), R(0), R(0)], [R(0), R(1), R(0)]],
                 [[R(1), R(0)], [R(0), R(1)], [R(0), R(0)], [R(0), R(0)]]):
        with pytest.raises(RepresentationError) as err:
            one_generator(Matrix(rows))
        assert str(err.value) == "image of 'a' is not square"
