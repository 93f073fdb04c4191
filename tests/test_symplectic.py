"""Lagrangians, the Maslov cocycle and the Lagrangian crossratio."""

import random
from fractions import Fraction

import pytest

from valrep.fields import ONE, OrderSpec, RatFunc, X
from valrep.linalg import Matrix
from valrep.symplectic import (
    IsotropyError,
    Lagrangian,
    TransversalityError,
    crossratio,
    is_symplectic,
    maslov,
    maslov_with_radical,
    symplectic_inverse,
    symplectic_pairing,
)


def frac_matrix(rows):
    return Matrix([[Fraction(e) for e in row] for row in rows])


def random_symplectic(rng, n, coeff_bound=3):
    """Product of unipotent upper/lower blocks and a torus element."""
    g = Matrix.identity(2 * n)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("upper", "lower", "torus"))
        if kind == "torus":
            a = frac_matrix(
                [[rng.randint(-coeff_bound, coeff_bound) for _ in range(n)] for _ in range(n)]
            )
            while a.det() == 0:
                a = frac_matrix(
                    [[rng.randint(-coeff_bound, coeff_bound) for _ in range(n)] for _ in range(n)]
                )
            inv_t = a.inverse().transpose()
            rows = []
            for i in range(n):
                rows.append(list(a.entries[i]) + [Fraction(0)] * n)
            for i in range(n):
                rows.append([Fraction(0)] * n + list(inv_t.entries[i]))
            factor = Matrix(rows)
        else:
            s = [[Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    s[i][j] = s[j][i]
            sm = Matrix(s)
            eye = Matrix.identity(n)
            zero = Matrix.zero(n, n)
            if kind == "upper":
                blocks = [list(eye.entries[i]) + list(sm.entries[i]) for i in range(n)]
                blocks += [list(zero.entries[i]) + list(eye.entries[i]) for i in range(n)]
            else:
                blocks = [list(eye.entries[i]) + list(zero.entries[i]) for i in range(n)]
                blocks += [list(sm.entries[i]) + list(eye.entries[i]) for i in range(n)]
            factor = Matrix(blocks)
        g = g @ factor
    return g


def random_lagrangian(rng, n):
    return Lagrangian.horizontal(n).apply(random_symplectic(rng, n))


def test_standard_form_pairing():
    u = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    v = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    assert symplectic_pairing(u, v) == 1
    assert symplectic_pairing(v, u) == -1
    assert symplectic_pairing(u, u) == 0


def test_is_symplectic_identity_and_counterexample():
    assert is_symplectic(Matrix.identity(4))
    assert not is_symplectic(frac_matrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_random_symplectic_generator_is_symplectic():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(10):
            g = random_symplectic(rng, n)
            assert is_symplectic(g)
            assert g @ symplectic_inverse(g) == Matrix.identity(2 * n)


def test_lagrangian_canonical_form_idempotent():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for _ in range(10):
            l = random_lagrangian(rng, n)
            again = Lagrangian.span(l.basis)
            assert again == l
            assert hash(again) == hash(l)


def test_horizontal_vertical_and_errors():
    h = Lagrangian.horizontal(2)
    v = Lagrangian.vertical(2)
    assert h.transverse(v)
    assert not h.transverse(h)
    # non-isotropic input: e1 and f1 pair to 1
    bad = frac_matrix([[1, 0], [0, 0], [0, 1], [0, 0]])
    with pytest.raises(IsotropyError):
        Lagrangian.span(bad)
    # rank-deficient input
    with pytest.raises(ValueError):
        Lagrangian.span(frac_matrix([[1, 2], [0, 0], [0, 0], [0, 0]]))


def test_graph_needs_symmetric():
    with pytest.raises(IsotropyError):
        Lagrangian.graph(frac_matrix([[0, 1], [2, 0]]))
    g = Lagrangian.graph(frac_matrix([[1, 2], [2, 5]]))
    assert g.transverse(Lagrangian.vertical(2))


def test_span_of_integer_vectors_is_exact():
    basis = Lagrangian.span(Matrix([[2], [3]])).basis
    assert basis == frac_matrix([[1], [Fraction(3, 2)]])
    assert all(type(e) is Fraction for row in basis.entries for e in row)
    assert Lagrangian.span(Matrix([[2], [3]])) == Lagrangian.line(Fraction(3, 2))


def test_maslov_standard_triple_is_plus_one():
    l1 = Lagrangian.line(0)
    l2 = Lagrangian.line(1)
    l3 = Lagrangian.line(None)
    assert maslov(l1, l2, l3) == 1
    assert maslov(l1, l2, l3) == l1.n  # maximal


def test_maslov_degenerate_and_bounds():
    l = Lagrangian.line(0)
    lp = Lagrangian.line(1)
    assert maslov(l, l, lp) == 0
    tau, radical = maslov_with_radical(l, l, lp)
    assert tau == 0 and radical > 0


def test_maslov_properties_random():
    rng = random.Random(11)
    for n in (1, 2):
        for _ in range(40):
            l1, l2, l3, l4 = (random_lagrangian(rng, n) for _ in range(4))
            t = maslov(l1, l2, l3)
            assert abs(t) <= n
            # alternating under swaps
            assert maslov(l2, l1, l3) == -t
            assert maslov(l1, l3, l2) == -t
            # Sp-invariance
            g = random_symplectic(rng, n)
            assert maslov(l1.apply(g), l2.apply(g), l3.apply(g)) == t
            # cocycle identity
            assert (
                maslov(l2, l3, l4) - maslov(l1, l3, l4) + maslov(l1, l2, l4) - maslov(l1, l2, l3)
                == 0
            )


def test_maslov_over_ratfunc_needs_order():
    l1 = Lagrangian.line(RatFunc.coerce(0) * X)
    l2 = Lagrangian.line(X)
    l3 = Lagrangian.line(None)
    order = OrderSpec.at_plus(0)
    assert maslov(l1, l2, l3, order) == 1


def test_crossratio_identity_case():
    rng = random.Random(13)
    l1, l2, l4 = (random_lagrangian(rng, 2) for _ in range(3))
    while not (l1.transverse(l2) and l1.transverse(l4)):
        l4 = random_lagrangian(rng, 2)
    assert crossratio(l1, l2, l1, l4) == 1


def test_crossratio_classical_oracle_lines():
    # four lines of slopes 0, inf, 1, m: the projection-determinant equals
    # the classical crossratio ((t2-t3)(t1-t4)) / ((t2-t1)(t3-t4))
    def classical(t1, t2, t3, t4):
        return ((t2 - t3) * (t1 - t4)) / ((t2 - t1) * (t3 - t4))

    for m in (Fraction(3), Fraction(-2), Fraction(5, 7)):
        l1, l3, l4 = Lagrangian.line(0), Lagrangian.line(1), Lagrangian.line(m)
        l2 = Lagrangian.line(None)
        got = crossratio(l1, l2, l3, l4)
        # t2 = infinity: the classical formula degenerates to (t1-t4)/(t3-t4)
        assert got == (Fraction(0) - m) / (Fraction(1) - m) == m / (m - 1)
    # all four finite: compare against the formula directly
    t = [Fraction(v) for v in (0, 2, 5, 7)]
    lines = [Lagrangian.line(v) for v in t]
    assert crossratio(*lines) == classical(*t)


def test_crossratio_symplectic_invariance():
    rng = random.Random(17)
    for n in (1, 2):
        for _ in range(15):
            ls = [random_lagrangian(rng, n) for _ in range(4)]
            if not (ls[0].transverse(ls[1]) and ls[2].transverse(ls[3])):
                continue
            value = crossratio(*ls)
            g = random_symplectic(rng, n)
            assert crossratio(*(l.apply(g) for l in ls)) == value


def test_crossratio_multiplicative_in_composed_convention():
    # CRt(a,b,c,d) := crossratio(b,a,c,d) satisfies
    # CRt(l1,l2,l3,l5) * CRt(l1,l3,l4,l5) = CRt(l1,l2,l4,l5)
    def crt(a, b, c, d):
        return crossratio(b, a, c, d)

    rng = random.Random(19)
    hits = 0
    for n in (1, 2):
        while hits < 10:
            ls = [random_lagrangian(rng, n) for _ in range(5)]
            l1, l2, l3, l4, l5 = ls
            pairs = [(l2, l1), (l3, l5), (l3, l1), (l4, l5), (l2, l4)]
            if not all(a.transverse(b) for a, b in pairs):
                continue
            lhs = crt(l1, l2, l3, l5) * crt(l1, l3, l4, l5)
            rhs = crt(l1, l2, l4, l5)
            assert lhs == rhs
            hits += 1
        hits = 0


def test_crossratio_transversality_errors():
    l1 = Lagrangian.line(0)
    with pytest.raises(TransversalityError):
        crossratio(l1, l1, Lagrangian.line(1), Lagrangian.line(None))
