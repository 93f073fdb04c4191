"""Jordan vectors, translation lengths and the orbit pseudodistance."""

import random
from fractions import Fraction

import pytest

from valrep.fields import ONE, RatFunc, X
from valrep.linalg import Matrix
from valrep.spectra import (
    NORM_SPREAD,
    NORM_SUM,
    NonSymplecticSpectrumError,
    building_pseudodistance,
    jordan_valuation,
    translation_length,
)
from valrep.valuation import Valuation

from test_symplectic import random_symplectic


def diag(*entries):
    entries = [RatFunc.coerce(e) if not isinstance(e, RatFunc) else e for e in entries]
    zero = RatFunc.coerce(0)
    return Matrix(
        [[entries[i] if i == j else zero for j in range(len(entries))] for i in range(len(entries))]
    )


def ratfunc_matrix(g: Matrix) -> Matrix:
    return g.map(lambda e: RatFunc.coerce(e))


ADIC0 = Valuation.adic(0)
ATINF = Valuation.at_infinity()


def test_jordan_diag_x():
    g = diag(X, ONE / X)
    assert jordan_valuation(g, ADIC0) == (Fraction(1),)
    assert translation_length(g, ADIC0, NORM_SUM) == 1


def test_jordan_sp4_diag():
    g = diag(X ** 2, X, ONE / X, ONE / X ** 2)
    assert jordan_valuation(g, ATINF) == (Fraction(2), Fraction(1))
    assert translation_length(g, ATINF, NORM_SUM) == 3
    assert translation_length(g, ATINF, NORM_SPREAD) == 4


def test_unipotent_has_zero_length():
    g = ratfunc_matrix(Matrix([[Fraction(1), Fraction(5)], [Fraction(0), Fraction(1)]]))
    assert translation_length(g, ADIC0) == 0
    assert jordan_valuation(g, ADIC0) == (Fraction(0),)


def test_non_symplectic_spectrum_flagged():
    g = diag(X, X)
    with pytest.raises(NonSymplecticSpectrumError):
        jordan_valuation(g, ADIC0)
    with pytest.raises(NonSymplecticSpectrumError):
        translation_length(g, ADIC0, NORM_SUM)
    # the spread reads the whole multiset {1, 1}, with no symmetry needed
    assert translation_length(g, ADIC0, NORM_SPREAD) == 0
    assert translation_length(diag(X, ONE), ADIC0, NORM_SPREAD) == 1
    with pytest.raises(ValueError, match="symplectic matrices have even size"):
        jordan_valuation(diag(X, ONE, ONE / X), ADIC0)


def test_length_is_class_function_and_power_homogeneous():
    rng = random.Random(43)
    base = diag(X ** 2, X, ONE / X, ONE / X ** 2)
    for _ in range(10):
        h = ratfunc_matrix(random_symplectic(rng, 2))
        conj = h @ base @ h.inverse()
        assert translation_length(conj, ADIC0) == translation_length(base, ADIC0)
    power = base
    for k in range(2, 5):
        power = power @ base
        assert translation_length(power, ADIC0) == k * translation_length(base, ADIC0)


def test_pseudodistance_basepoint_transvection():
    # d(x0, g x0) equals the translation length for a transvection whose
    # axis passes through the basepoint
    g1 = diag(1, 1)
    g2 = diag(X, ONE / X)
    assert building_pseudodistance(g1, g2, ADIC0, NORM_SUM) == 1
    assert building_pseudodistance(g1, g2, ADIC0, NORM_SUM) == translation_length(g2, ADIC0)
    assert building_pseudodistance(g1, g1, ADIC0) == 0


def test_pseudodistance_spread_norm():
    g1 = diag(1, 1)
    g2 = diag(X, ONE / X)
    assert building_pseudodistance(g1, g2, ADIC0, NORM_SPREAD) == 2


def random_symplectic_ratfunc(rng, n=2):
    """Symplectic over Q(X) with entries of degree <= 3."""
    from valrep.symplectic import is_symplectic

    def sym_block():
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                c = Fraction(rng.randint(-2, 2))
                d = Fraction(rng.randint(-1, 1))
                entries[i][j] = RatFunc.coerce(c) + RatFunc.coerce(d) * X
                entries[j][i] = entries[i][j]
        return Matrix(entries)

    eye = Matrix.identity(n, RatFunc.coerce(1))
    zero = Matrix.zero(n, n, RatFunc.coerce(0))
    s, t = sym_block(), sym_block()
    upper = Matrix([list(eye.entries[i]) + list(s.entries[i]) for i in range(n)]
                   + [list(zero.entries[i]) + list(eye.entries[i]) for i in range(n)])
    lower = Matrix([list(eye.entries[i]) + list(zero.entries[i]) for i in range(n)]
                   + [list(t.entries[i]) + list(eye.entries[i]) for i in range(n)])
    g = upper @ lower
    assert is_symplectic(g)
    assert g.max_degree() <= 3
    return g


def test_pseudodistance_axioms_random():
    rng = random.Random(47)
    for _ in range(15):
        a, b, c = (random_symplectic_ratfunc(rng) for _ in range(3))
        for norm in (NORM_SUM, NORM_SPREAD):
            dab = building_pseudodistance(a, b, ADIC0, norm)
            dba = building_pseudodistance(b, a, ADIC0, norm)
            dac = building_pseudodistance(a, c, ADIC0, norm)
            dbc = building_pseudodistance(b, c, ADIC0, norm)
            assert dab == dba
            assert dab >= 0
            assert dac <= dab + dbc
            k = random_symplectic_ratfunc(rng)
            assert building_pseudodistance(k @ a, k @ b, ADIC0, norm) == dab
