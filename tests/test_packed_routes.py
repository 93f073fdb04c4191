"""The packed symplectic test, the rearranged inverse and cleared eigen-Lagrangians.

`is_symplectic` clears g to N/D over Z[X] and runs the packed D^2 I test
of `FracMatrix.symplectic_inverse`; `symplectic_inverse` is the signed
rearrangement `linalg.symplectic_rearrangement`; `attracting_lagrangian`
reads its polygon and its Q(X) eigenvalues from char_poly(N) over Z[X].
Each is checked against the definition it replaced (oracles in
helpers.py): t(g) J g == J, (-J) t(g) J, and the route through the
Berkowitz char poly of g over Q(X).
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from valrep.fields import ONE, RatFunc, X
from valrep.framing import SlopeTieError, attracting_lagrangian, repelling_lagrangian
from valrep.linalg import Matrix
from valrep.roots import NonSplitError
from valrep.symplectic import is_symplectic, symplectic_inverse
from valrep.valuation import Valuation

from helpers import (
    gram_is_symplectic,
    gram_symplectic_inverse,
    qx_attracting_lagrangian,
)
from test_pairing import qx_entries, rational_sp, rationals, symmetric, unipotent

R = RatFunc.coerce
ADIC0 = Valuation.adic(0)
VALUATIONS = [ADIC0, ADIC0, Valuation.adic(-1), Valuation.at_infinity()]


def qx_sp(n):
    """A rational Sp(2n) element times a unipotent block over Q(X)."""
    return st.tuples(rational_sp(n), symmetric(n, qx_entries), st.booleans()).map(
        lambda a: (a[0] @ unipotent(a[1], a[2])).map(R)
    )


@st.composite
def perturbed(draw, matrices, deltas):
    """A drawn matrix, or a copy with one entry moved by a nonzero delta."""
    g = draw(matrices)
    if draw(st.booleans()):
        return g
    i, j = draw(st.integers(0, g.rows - 1)), draw(st.integers(0, g.cols - 1))
    delta = draw(deltas.filter(lambda d: d != 0))
    rows = [list(row) for row in g.entries]
    rows[i][j] = rows[i][j] + delta
    return Matrix(rows)


def check_symplectic_routes(g):
    symplectic = gram_is_symplectic(g)
    event("symplectic" if symplectic else "not symplectic")
    assert is_symplectic(g) == symplectic
    inverse = symplectic_inverse(g)
    assert inverse == gram_symplectic_inverse(g)
    if symplectic:
        assert g @ inverse == Matrix.identity(g.rows, g.one())


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_symplectic_routes_match_gram_definition_over_q(n, data):
    check_symplectic_routes(data.draw(perturbed(rational_sp(n), rationals)))


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=50)
@given(data=st.data())
def test_symplectic_routes_match_gram_definition_over_qx(n, data):
    g = data.draw(perturbed(qx_sp(n), qx_entries))
    if data.draw(st.booleans()):
        g = g @ data.draw(qx_sp(n))
    check_symplectic_routes(g)


@pytest.mark.parametrize(
    "g",
    [Matrix.identity(3), Matrix.zero(2, 4), Matrix.identity(1)],
    ids=["3x3", "2x4", "1x1"],
)
def test_odd_or_non_square_matrices_are_rejected(g):
    for check in (is_symplectic, gram_is_symplectic):
        with pytest.raises(ValueError, match="even size"):
            check(g)
    with pytest.raises(ValueError):
        symplectic_inverse(g)


# -- eigen-Lagrangians ---------------------------------------------------------


def block_diagonal(a):
    """[[A, 0], [0, A^-T]], symplectic for invertible A."""
    n = a.rows
    z = R(0)
    inv_t = a.inverse().transpose()
    return Matrix(
        [list(a.entries[i]) + [z] * n for i in range(n)]
        + [[z] * n + list(inv_t.entries[i]) for i in range(n)]
    )


def diag(entries):
    z = R(0)
    size = len(entries)
    return Matrix([[entries[i] if i == j else z for j in range(size)] for i in range(size)])


SCALARS = st.sampled_from((X, X / 2, 3 * X, X**2, X * (X + 1), X**3 + X**2))
NONSQUARES = st.sampled_from((Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)))


@st.composite
def hyperbolic_bases(draw, n, kind):
    """Symplectic d whose spectrum at adic:0 splits, ties, does not split or is not semisimple."""
    if kind == "split":
        return block_diagonal(diag(draw(st.lists(SCALARS, min_size=n, max_size=n))))
    if kind == "slope tie":
        return block_diagonal(diag([X] + [R(1)] * (n - 1))) if n > 1 else diag([R(1), R(1)])
    c = draw(NONSQUARES)
    if kind == "nonsplit" and n == 1:
        # T^2 - (c/X) T + 1: discriminant (c^2 - 4 X^2) / X^2 is no square in Q(X)
        return Matrix([[R(c) / X, R(-1)], [R(1), R(0)]])
    if kind == "nonsplit":
        # A^2 = c / X^2: the dominant eigenvalues are +-sqrt(c) / X
        return block_diagonal(Matrix([[R(0), ONE / X], [R(c) / X, R(0)]]))
    # "jordan block": the dominant eigenvalue 1/X has a one-dimensional eigenspace
    if n == 1:
        return Matrix([[ONE / X, R(c)], [R(0), X]])
    return block_diagonal(Matrix([[ONE / X, R(c)], [R(0), ONE / X]]))


def outcome(fn, g, val):
    try:
        return fn(g, val)
    except ValueError as err:
        return type(err), str(err)


KINDS = ("split", "slope tie", "nonsplit", "jordan block")
EXPECTED_AT_ADIC0 = {"slope tie": SlopeTieError, "nonsplit": NonSplitError}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_eigen_lagrangians_match_the_qx_char_poly_route(n, kind, data):
    d = data.draw(hyperbolic_bases(n, kind))
    h = data.draw(rational_sp(n)).map(R)
    g = h @ d @ symplectic_inverse(h)
    val = data.draw(st.sampled_from(VALUATIONS))
    got = outcome(attracting_lagrangian, g, val)
    assert got == outcome(qx_attracting_lagrangian, g, val)
    inverse = gram_symplectic_inverse(g)
    assert outcome(repelling_lagrangian, g, val) == outcome(qx_attracting_lagrangian, inverse, val)
    event(got[0].__name__ if isinstance(got, tuple) else "Lagrangian")
    if val == ADIC0 and kind in EXPECTED_AT_ADIC0:
        assert isinstance(got, tuple) and got[0] is EXPECTED_AT_ADIC0[kind]
    if val == ADIC0 and kind == "jordan block" and n == 2:
        assert got[0] is NonSplitError and "geometric multiplicity" in got[1]
