"""Differential tests of the fraction-free fast paths against slower definitions.

Berkowitz char polys against Faddeev-LeVerrier, and FracMatrix word sweeps
against sweeps by canonical Q(X) products (oracles in helpers.py).
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from valrep.fields import OrderSpec, RatFunc, X
from valrep.linalg import FracMatrix, Matrix
from valrep.pants import pants_rep
from valrep.poly import Poly
from valrep.representation import DegreeGuardExceeded, GroupPresentation, RepTable
from valrep.spectra import NORM_SUM, translation_length
from valrep.valuation import Valuation
from valrep.words import is_class_representative

from helpers import faddeev_leverrier, ratfunc_ball, ratfunc_translation_length

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
