"""Eigen-Lagrangians, framing tables and maximality verification."""

import random
import sys
from collections import Counter

import pytest

from valrep.fields import ONE, OrderSpec, RatFunc, X
from valrep.framing import (
    FramingTable,
    SlopeTieError,
    attracting_lagrangian,
    repelling_lagrangian,
    verify_maximal_framing,
)
from valrep.linalg import FracMatrix, Matrix
from valrep.pants import pants_rep
from valrep.poly import Poly
from valrep.representation import GroupPresentation, RepTable
from valrep.roots import NonSplitError, linear_eigenvalues
from valrep.symplectic import Lagrangian, symplectic_inverse
from valrep.valuation import Valuation
from valrep.words import Word, parse_word

from test_symplectic import random_symplectic

ADIC0 = Valuation.adic(0)
R = RatFunc.coerce


def diag(*entries):
    entries = [R(e) if not isinstance(e, RatFunc) else e for e in entries]
    z = R(0)
    return Matrix(
        [[entries[i] if i == j else z for j in range(len(entries))] for i in range(len(entries))]
    )


def ratfunc_matrix(g):
    return g.map(R)


def test_linear_eigenvalues_of_split_poly():
    # the roots mu of char_poly(N) over Z[X] are the eigenvalues lambda = mu / D
    image = FracMatrix.from_matrix(diag(X, 2 * X, ONE / X, ONE / (2 * X)))
    roots = linear_eigenvalues(image.char_poly())
    assert len(roots) == 4 and all(m == 1 for _, m in roots)
    got = {str(RatFunc(mu, image.den)) for mu, _ in roots}
    assert got == {"X", "2*X", "(1)/(X)", "(1/2)/(X)"}


def test_linear_eigenvalues_reports_nonsplit():
    # T^2 - X, over Z[X], has no roots in Q(X)
    p = Poly([Poly((0, -1)), Poly(), Poly((1,))])
    assert linear_eigenvalues(p) == []


def test_attracting_lagrangian_diag_cases():
    # at Adic(0), X is infinitesimal: the large eigenvalues are the 1/X
    # powers, so the dominant eigenspaces are the vertical coordinates
    g2 = diag(X, ONE / X)
    assert attracting_lagrangian(g2, ADIC0) == Lagrangian.vertical(1, R(1))
    g4 = diag(X ** 2, X, ONE / X, ONE / X ** 2)
    assert attracting_lagrangian(g4, ADIC0) == Lagrangian.vertical(2, R(1))
    # at infinity the roles flip: X-powers dominate
    assert attracting_lagrangian(g4, Valuation.at_infinity()) == Lagrangian.horizontal(2, R(1))


def test_attracting_lagrangian_conjugated():
    rng = random.Random(7)
    base = diag(X, 2 * X, ONE / X, ONE / (2 * X))
    # dominant block is span(e3, e4) at Adic(0) (valuations -1 strictly below +1)
    for _ in range(5):
        h = ratfunc_matrix(random_symplectic(rng, 2))
        g = h @ base @ symplectic_inverse(h)
        expected = Lagrangian.vertical(2, R(1)).apply(h)
        assert attracting_lagrangian(g, ADIC0) == expected
        assert repelling_lagrangian(g, ADIC0) == Lagrangian.horizontal(2, R(1)).apply(h)


def test_attracting_lagrangian_slope_tie():
    g = diag(X, R(1), R(1), ONE / X)
    with pytest.raises(SlopeTieError):
        attracting_lagrangian(g, ADIC0)


def test_attracting_lagrangian_rejects_a_singular_matrix():
    # the shared root-valuation reader raises SingularMatrixError, a
    # ZeroDivisionError; attracting_lagrangian reports a plain ValueError
    with pytest.raises(ValueError, match="^matrix is singular$") as err:
        attracting_lagrangian(diag(X, R(0), R(1), ONE / X), ADIC0)
    assert not isinstance(err.value, ZeroDivisionError)


def test_attracting_lagrangian_nonsplit():
    # rotation-like block has irrational eigenvalue structure over Q(X)
    one, z = R(1), R(0)
    s = Matrix([[z, one], [-one, z]])  # e1 -> -e2, e2 -> e1 in a 2x2 corner
    g = Matrix(
        [
            [z, one * 2, z, z],
            [-one / 2, z, z, z],
            [z, z, z, one * 2],
            [z, z, -one / 2, z],
        ]
    )
    # eigenvalues are +-i up to scale: nothing splits
    with pytest.raises((NonSplitError, SlopeTieError)):
        attracting_lagrangian(g, ADIC0)


def line_framing(slopes):
    labels = tuple(str(s) for s in slopes)
    images = {str(s): Lagrangian.line(s) for s in slopes}
    return FramingTable(labels, images)


def test_verify_maximal_framing_standard_lines():
    pres = GroupPresentation(("a",), ())
    rep = RepTable(pres, {"a": diag(X, ONE / X)}, OrderSpec.at_plus(0), ADIC0)
    framing = line_framing([R(0), X, R(1), None])  # 0 < X < 1 < inf just right of 0
    report = verify_maximal_framing(rep, framing)
    assert report.ok, report.violation
    assert report.triples_checked == 4


def test_verify_maximal_framing_detects_violation():
    pres = GroupPresentation(("a",), ())
    rep = RepTable(pres, {"a": diag(X, ONE / X)}, OrderSpec.at_plus(0), ADIC0)
    # wrong cyclic order: reversing two labels breaks maximality
    framing = line_framing([R(1), X, R(0), None])
    report = verify_maximal_framing(rep, framing)
    assert not report.ok
    assert "index" in report.violation


def test_framing_equivariance_check():
    pres = GroupPresentation(("a",), ())
    g = diag(X, ONE / X)
    rep = RepTable(pres, {"a": g}, OrderSpec.at_plus(0), ADIC0)
    word = parse_word("a")
    # diag(X, 1/X) sends line(t) to line(t / X^2): the orbit marches from
    # the repelling line(0) toward the attracting vertical line
    t = R(1)
    images = {
        "minus": Lagrangian.horizontal(1, R(1)),
        "x1": Lagrangian.line(t),
        "gx1": Lagrangian.line(t / X ** 2),
        "plus": Lagrangian.vertical(1, R(1)),
    }
    framing = FramingTable(
        ("minus", "x1", "gx1", "plus"),
        images,
        {word: {"plus": "plus", "minus": "minus", "x1": "gx1"}},
    )
    report = verify_maximal_framing(rep, framing)
    assert report.ok, report.violation
    assert report.equivariance_checked == 3
    # breaking the action is caught
    bad = FramingTable(
        ("minus", "x1", "gx1", "plus"),
        images,
        {word: {"x1": "minus"}},
    )
    report = verify_maximal_framing(rep, bad)
    assert not report.ok


def test_framing_rejects_symmetries_on_unknown_labels():
    images = {"m": Lagrangian.horizontal(1, R(1)), "p": Lagrangian.vertical(1, R(1))}
    for action in ({"x": "m"}, {"m": "x"}):
        with pytest.raises(ValueError, match="unknown labels \\['x'\\]"):
            FramingTable(("m", "p"), images, {parse_word("a"): action})


def test_failing_triple_computes_its_maslov_index_once(monkeypatch):
    from valrep import framing as framing_module, symplectic

    calls = []

    def counting(*args, original=symplectic.maslov):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(symplectic, "maslov", counting)
    monkeypatch.setattr(framing_module, "maslov", counting)
    pres = GroupPresentation(("a",), ())
    rep = RepTable(pres, {"a": diag(X, ONE / X)}, OrderSpec.at_plus(0), ADIC0)
    report = verify_maximal_framing(rep, line_framing([R(0), None, R(1)]))
    assert not report.ok and report.triples_checked == 1
    assert report.violation == "triple ('0', 'None', '1') has index -1 != 1"
    assert len(calls) == 1


def test_gcd_callers_divide_by_no_gcd_again(monkeypatch):
    """On a framings-shaped catalogue the only exact quotients are gcd's own and lcm cofactors.

    `poly.gcd` returns its cofactors, so `RatFunc` arithmetic never
    divides by a gcd it was just given, and `FracMatrix.from_matrix`
    divides only for its cofactors D / den.
    """
    from valrep import currents, fields, linalg, poly

    callers = Counter()

    def counting(a, b, original=poly.exact_quotient):
        frame = sys._getframe(1)
        callers[frame.f_globals["__name__"], frame.f_code.co_name] += 1
        return original(a, b)

    for module in (poly, fields, linalg):
        if hasattr(module, "exact_quotient"):
            monkeypatch.setattr(module, "exact_quotient", counting)
    rng = random.Random(11)
    base = diag(X, 2 * X, ONE / X, ONE / (2 * X))
    pres = GroupPresentation(("a",), ())
    word = parse_word("a")
    for k in (1, 2, 3):
        h = ratfunc_matrix(random_symplectic(rng, 2))
        g = h @ base @ symplectic_inverse(h)
        rep = RepTable(pres, {"a": g}, OrderSpec.at_plus(0), ADIC0)
        x = Lagrangian.graph(Matrix.identity(2, R(1)).scale(R(k))).apply(h)
        framing = FramingTable(
            ("minus", "x", "gx", "plus"),
            {"minus": repelling_lagrangian(g, ADIC0), "x": x, "gx": x.apply(g),
             "plus": attracting_lagrangian(g, ADIC0)},
            {word: {"minus": "minus", "plus": "plus", "x": "gx"}},
        )
        verify_maximal_framing(rep, framing)
        lines = line_framing([R(k) + R(j) * X for j in range(5)])
        currents.crossratio_axiom_check(currents.FramingCrossratio(lines, ADIC0), [lines.labels])
    own = callers.pop(("valrep.poly", "gcd"), 0)
    assert all(
        module == "valrep.linalg" and name in ("from_matrix", "<dictcomp>")
        for module, name in callers
    ), callers
    assert own > 0


def test_defective_eigenvalue_error_names_the_first_by_str():
    # two dominant 2 x 2 Jordan blocks, at 2/X and at 1/X: "(1)/(X)" sorts first
    z = R(0)
    a = Matrix(
        [
            [2 / X, R(1), z, z],
            [z, 2 / X, z, z],
            [z, z, ONE / X, R(1)],
            [z, z, z, ONE / X],
        ]
    )
    inv_t = a.inverse().transpose()
    g = Matrix(
        [list(row) + [z] * 4 for row in a.entries] + [[z] * 4 + list(row) for row in inv_t.entries]
    )
    message = r"^eigenvalue \(1\)/\(X\) has geometric multiplicity 1 < 2$"
    with pytest.raises(NonSplitError, match=message):
        attracting_lagrangian(g, ADIC0)
