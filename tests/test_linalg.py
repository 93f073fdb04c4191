"""Exact matrix algebra and characteristic polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valrep.fields import ONE, RatFunc, X
from valrep.linalg import Matrix, SingularMatrixError
from valrep.poly import Poly

from helpers import gaussian_det, random_ratfunc


def frac_matrix(rows):
    return Matrix([[Fraction(e) for e in row] for row in rows])


def test_matmul_and_transpose():
    a = frac_matrix([[1, 2], [3, 4]])
    b = frac_matrix([[0, 1], [1, 0]])
    assert a @ b == frac_matrix([[2, 1], [4, 3]])
    assert a.transpose() == frac_matrix([[1, 3], [2, 4]])


def test_det_inverse_random():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = frac_matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        d = a.det()
        if d == 0:
            with pytest.raises(SingularMatrixError):
                a.inverse()
            continue
        inv = a.inverse()
        assert a @ inv == Matrix.identity(n)
        assert inv @ a == Matrix.identity(n)


def test_det_multiplicative_over_ratfunc():
    rng = random.Random(29)
    for _ in range(20):
        a = Matrix([[random_ratfunc(rng, 1, 3) for _ in range(2)] for _ in range(2)])
        b = Matrix([[random_ratfunc(rng, 1, 3) for _ in range(2)] for _ in range(2)])
        assert (a @ b).det() == a.det() * b.det()


def test_rank_and_kernel():
    a = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert a.rank() == 2
    kernel = a.kernel_basis()
    assert len(kernel) == 1
    v = kernel[0]
    for row in a.entries:
        assert sum(c * x for c, x in zip(row, v)) == 0


def test_elimination_over_z_is_exact():
    # integer entries are eliminated over Q: Fractions, never floats
    inverse = Matrix([[1, 2], [3, 4]]).inverse()
    assert inverse == frac_matrix([[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])
    assert all(type(e) is Fraction for row in inverse.entries for e in row)
    reduced, pivots = Matrix([[2, 3], [4, 7]]).rref()
    assert pivots == [0, 1] and reduced == frac_matrix([[1, 0], [0, 1]])
    assert all(type(e) is Fraction for row in reduced.entries for e in row)
    kernel = Matrix([[2, 3, 5]]).kernel_basis()
    assert kernel == [(Fraction(-3, 2), 1, 0), (Fraction(-5, 2), 0, 1)]
    assert all(type(v[0]) is Fraction for v in kernel)
    big = 3**40
    assert Matrix([[1, big], [0, 1]]).inverse() == frac_matrix([[1, -big], [0, 1]])


def test_char_poly_identity():
    eye = Matrix.identity(3)
    # (T - 1)^3
    assert eye.char_poly() == Poly([Fraction(-1), Fraction(3), Fraction(-3), Fraction(1)])


def test_char_poly_diag_x():
    g = Matrix([[X, RatFunc.coerce(0)], [RatFunc.coerce(0), ONE / X]])
    p = g.char_poly()
    assert p.coeffs == (ONE, -(X + ONE / X), ONE)


def test_char_poly_matches_det_eval():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = frac_matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        p = a.char_poly()
        for t in (0, 1, -2, Fraction(1, 3)):
            ti = Matrix.identity(n).scale(Fraction(t)) - a
            assert p.evaluate(Fraction(t)) == ti.det()


def test_char_poly_constant_term_is_det_up_to_sign():
    rng = random.Random(37)
    a = frac_matrix([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
    p = a.char_poly()
    assert p.coefficient(0) == a.det()  # (-1)^4 det


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
qx_entries = st.builds(
    lambda num, den: RatFunc(Poly(num), Poly(den)),
    st.lists(rationals, min_size=1, max_size=3),
    st.lists(rationals, min_size=1, max_size=2).filter(lambda den: any(den)),
)


@st.composite
def det_matrices(draw, entries):
    """Square matrices of size 1-5; about half are made singular.

    A singular one has its last row replaced by a combination of the
    others (by zero when it is the only row).
    """
    n = draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        zero = rows[0][0] * 0
        last = [zero] * n
        for row in rows[:-1]:
            c = draw(entries)
            last = [a + c * b for a, b in zip(last, row)]
        rows[-1] = last
    return Matrix(rows)


@given(det_matrices(rationals))
def test_det_matches_gaussian_elimination_over_q(m):
    assert m.det() == gaussian_det(m)


@settings(max_examples=30, deadline=None)
@given(det_matrices(qx_entries))
def test_det_matches_gaussian_elimination_over_qx(m):
    assert m.det() == gaussian_det(m)
