"""Periods, crossratio axioms, rectangle bounds and multicurve certificates."""

import random
from fractions import Fraction

import pytest

from valrep.currents import (
    AxiomReport,
    DichotomyReport,
    DiscretenessUnknown,
    FramingCrossratio,
    MulticurveCertified,
    OrientationError,
    TableCrossratio,
    certify_period_values,
    crossratio_axiom_check,
    lamination_dichotomy_check,
    multicurve_certificate_ball,
    period,
    period_via_length,
    rectangle_bounds,
    systole_sweep,
)
from valrep.fields import ONE, OrderSpec, RatFunc, X
from valrep.framing import FramingTable
from valrep.linalg import Matrix
from valrep.pants import boundary_words, pants_rep
from valrep.representation import GroupPresentation, RepTable
from valrep.symplectic import Lagrangian, TransversalityError, symplectic_inverse
from valrep.valuation import Valuation
from valrep.words import Word, is_power_of_class, parse_word

from helpers import ball_multicurve_certificate
from test_symplectic import random_symplectic

R = RatFunc.coerce
ADIC0 = Valuation.adic(0)
ORDER0 = OrderSpec.at_plus(0)


def diag(*entries):
    entries = [R(e) if not isinstance(e, RatFunc) else e for e in entries]
    z = R(0)
    return Matrix(
        [[entries[i] if i == j else z for j in range(len(entries))] for i in range(len(entries))]
    )


def line_framing(slopes, symmetries=None):
    labels = tuple(str(s) for s in slopes)
    images = {str(s): Lagrangian.line(s) for s in slopes}
    return FramingTable(labels, images, symmetries)


def graph_circle_framing(ts, conjugator=None, extra=None):
    """Graphs of t * I inside Sp(4); None stands for the vertical Lagrangian."""

    def lag(t):
        if t is None:
            l = Lagrangian.vertical(2, R(1))
        else:
            eye = Matrix.identity(2, R(1))
            l = Lagrangian.graph(eye.scale(R(t) if not isinstance(t, RatFunc) else t))
        return l.apply(conjugator) if conjugator is not None else l

    labels = tuple(str(t) for t in ts)
    images = {str(t): lag(t) for t in ts}
    if extra:
        for name, l in extra.items():
            labels = labels + (name,)
            images[name] = l
    return FramingTable(labels, images)


def test_crossratio_value_n1():
    framing = line_framing([R(0), X, R(1), None])
    quad = ("0", str(X), "1", "None")
    cr = FramingCrossratio(framing, ADIC0)
    assert cr.value(quad) == Fraction(1, 2)
    with pytest.raises(OrientationError):
        cr.value(("0", "None", "1", str(X)))


def test_crossratio_value_coincident_middle_images_is_zero():
    # two labels sharing an image: the projection composition is the
    # identity on the common Lagrangian, so the value vanishes
    framing = FramingTable(
        ("a", "b", "b2", "c"),
        {
            "a": Lagrangian.line(R(0)),
            "b": Lagrangian.line(R(1)),
            "b2": Lagrangian.line(R(1)),
            "c": Lagrangian.line(None),
        },
    )
    assert FramingCrossratio(framing, ADIC0).value(("a", "b", "b2", "c")) == 0


def test_period_diag_model_n1():
    g = diag(X, ONE / X)
    pres = GroupPresentation(("a",), ())
    rep = RepTable(pres, {"a": g}, ORDER0, ADIC0)
    word = parse_word("a")
    framing = FramingTable(
        ("minus", "x", "gx", "plus"),
        {
            "minus": Lagrangian.horizontal(1, R(1)),
            "x": Lagrangian.line(R(1)),
            "gx": Lagrangian.line(ONE / X ** 2),
            "plus": Lagrangian.vertical(1, R(1)),
        },
        {word: {"minus": "minus", "plus": "plus", "x": "gx"}},
    )
    report = period(rep, framing, word, "x")
    assert report.method == "framing"
    assert report.period == 1
    via_length = period_via_length(rep, word)
    assert via_length.period == 1
    assert via_length.method == "translation_length"


def test_period_sp4_mixed_diagonal_matches_length():
    # block-diagonal (D, D^-1) with D = diag(X^2, X): translation length 3
    g = diag(X ** 2, X, ONE / X ** 2, ONE / X)
    pres = GroupPresentation(("a",), ())
    rep = RepTable(pres, {"a": g}, ORDER0, ADIC0)
    word = parse_word("a")
    dinv2 = diag(ONE / X ** 4, ONE / X ** 2)  # D^-1 S D^-1 for S = I

    def graph_of(m):
        return Lagrangian.graph(m)

    framing = FramingTable(
        ("minus", "x", "gx", "plus"),
        {
            "minus": Lagrangian.horizontal(2, R(1)),
            "x": graph_of(Matrix.identity(2, R(1))),
            "gx": graph_of(dinv2),
            "plus": Lagrangian.vertical(2, R(1)),
        },
        {word: {"minus": "minus", "plus": "plus", "x": "gx"}},
    )
    from valrep.framing import verify_maximal_framing

    assert verify_maximal_framing(rep, framing).ok
    report = period(rep, framing, word, "x")
    assert report.period == 3
    assert period_via_length(rep, word).period == 3


def test_period_independent_of_auxiliary_point():
    g = diag(X, X, ONE / X, ONE / X)
    pres = GroupPresentation(("a",), ())
    rep = RepTable(pres, {"a": g}, ORDER0, ADIC0)
    word = parse_word("a")
    eye = Matrix.identity(2, R(1))
    values = []
    for t in (R(1), R(2), R(5)):
        framing = FramingTable(
            ("minus", "x", "gx", "plus"),
            {
                "minus": Lagrangian.horizontal(2, R(1)),
                "x": Lagrangian.graph(eye.scale(t)),
                "gx": Lagrangian.graph(eye.scale(t / X ** 2)),
                "plus": Lagrangian.vertical(2, R(1)),
            },
            {word: {"minus": "minus", "plus": "plus", "x": "gx"}},
        )
        values.append(period(rep, framing, word, "x").period)
    assert values == [2, 2, 2]
    assert period_via_length(rep, word).period == 2


def test_identity_word_has_zero_period():
    rep = pants_rep(ORDER0)
    assert period_via_length(rep, Word()).period == 0
    assert period_via_length(rep, parse_word("c1")).period == 0  # boundary, unipotent


def test_axiom_check_on_line_configurations():
    rng = random.Random(101)
    framingless_failures = 0
    for _ in range(60):
        # five increasing slopes just right of 0: mix constants and X-terms
        slopes = sorted(
            {
                R(rng.randint(0, 4)) + R(rng.randint(0, 3)) * X
                for _ in range(8)
            },
            key=lambda s: (ORDER0.sign(s), str(s)),
        )
        slopes = _order_sorted(slopes)
        if len(slopes) < 5:
            continue
        slopes = slopes[:5]
        framing = line_framing(slopes)
        cr = FramingCrossratio(framing, ADIC0)
        labels = tuple(str(s) for s in slopes)
        report = crossratio_axiom_check(cr, [labels])
        assert report.ok, report.violation
        framingless_failures += 0
    assert framingless_failures == 0


def _order_sorted(values):
    out = list(values)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if ORDER0.compare(out[i], out[j]) > 0:
                out[i], out[j] = out[j], out[i]
    deduped = []
    for v in out:
        if not deduped or deduped[-1] != v:
            deduped.append(v)
    return deduped


def test_axiom_check_on_graph_circles_sp4():
    rng = random.Random(103)
    for _ in range(10):
        ts = _order_sorted([R(rng.randint(0, 5)) + R(rng.randint(0, 2)) * X for _ in range(7)])
        if len(ts) < 5:
            continue
        ts = ts[:5]
        conj = None
        if rng.random() < 0.5:
            conj = random_symplectic(rng, 2).map(R)
        framing = graph_circle_framing(ts, conjugator=conj)
        cr = FramingCrossratio(framing, ADIC0)
        report = crossratio_axiom_check(cr, [framing.labels])
        assert report.ok, report.violation


def test_axiom_check_reports_table_violation():
    labels = ("1", "2", "3", "4", "5")
    quads = [("1", "2", "4", "5"), ("1", "2", "3", "5"), ("1", "3", "4", "5")]
    table = {}
    for q in quads:
        table[q] = Fraction(1)
        table[(q[2], q[3], q[0], q[1])] = Fraction(1)
    cr = TableCrossratio(labels, table)
    report = crossratio_axiom_check(cr, [labels])
    assert not report.ok
    assert "additivity" in report.violation


def test_rectangle_bounds_collapse_and_monotonicity():
    framing = line_framing([R(0), X, R(1), R(2), R(3), None])
    cr = FramingCrossratio(framing, ADIC0)
    corners = (str(X), "1", "2", "0")  # (a, b, c, d) positively oriented
    empty = rectangle_bounds(cr, corners, [])
    assert empty.lower == 0 and empty.upper == cr.value(corners)
    collapsed = rectangle_bounds(cr, corners, [corners])
    assert collapsed.lower == collapsed.upper
    # a strictly nested sample never exceeds the corner value
    nested = rectangle_bounds(cr, corners, [(str(X), "1", "2", "0")])
    assert nested.lower <= nested.upper


def test_rectangle_bounds_rejects_non_nested():
    framing = line_framing([R(0), X, R(1), R(2), R(3), None])
    cr = FramingCrossratio(framing, ADIC0)
    corners = (str(X), "1", "2", "0")
    with pytest.raises(ValueError):
        rectangle_bounds(cr, corners, [("3", "1", "2", "0")])


def test_certify_period_values():
    w = parse_word("c1")
    assert isinstance(certify_period_values([(w, Fraction(0)), (w, Fraction(2))], 4), MulticurveCertified)
    verdict = certify_period_values([(w, Fraction(1, 3))], 2)
    assert isinstance(verdict, DiscretenessUnknown)
    half = certify_period_values([(w, Fraction(3, 2)), (w, Fraction(1))], 4)
    assert isinstance(half, MulticurveCertified) and half.k == 2


def test_multicurve_certificate_pants_short():
    rep = pants_rep(ORDER0)
    verdict = multicurve_certificate_ball(rep, 2, k_max=8)
    assert isinstance(verdict, MulticurveCertified)
    count = len(verdict.periods)
    assert count == 4 + 12


@pytest.mark.parametrize("spec", ["aplus:0", "plusinf"])
def test_multicurve_certificate_matches_the_full_ball(spec):
    rep = pants_rep(OrderSpec.from_spec_string(spec))
    for max_len in range(1, 7):
        fast = multicurve_certificate_ball(rep, max_len)
        slow = ball_multicurve_certificate(rep, max_len)
        assert fast == slow, max_len  # the same kind, k and periods


@pytest.mark.parametrize("k_max", [0, -1])
def test_multicurve_certificate_needs_a_positive_k_max(k_max):
    # K is the least positive integer with every period in (1/K)Z, so a
    # k_max below 1 could only ever answer discreteness_unknown
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        multicurve_certificate_ball(pants_rep(ORDER0), 2, k_max=k_max)


def test_systole_sweep_pants():
    rep = pants_rep(ORDER0)
    report = systole_sweep(rep, 3, boundary_words())
    assert report.value is not None and report.value > 0
    assert report.classes_swept > 0
    # the sweep keys each boundary word once; it skips exactly the classes
    # is_power_of_class matches, and c3, outside the free generators, matches none
    bases = [*boundary_words(), parse_word("c3")]
    kept = [
        w
        for w, _ in rep.class_representatives(3)
        if not any(is_power_of_class(w, b, rep.letter_index) for b in bases)
    ]
    assert systole_sweep(rep, 3, bases).classes_swept == len(kept) == report.classes_swept
    # at a = 1 every word is integral: the sweep floor is 0
    flat = systole_sweep(pants_rep(OrderSpec.at_plus(1)), 2, boundary_words())
    assert flat.value == 0
    with pytest.raises(ValueError):
        systole_sweep(rep, 0, boundary_words())


def test_lamination_dichotomy():
    # 1/X is a legitimate crossratio value >= 1 at the order 0+
    values = [ONE / X, R(2), R(1), ONE / X ** 3, (X + 1) / X]
    report = lamination_dichotomy_check(values, ORDER0, ADIC0)
    assert report.ok and report.checked == 5
    # X < 1 just right of 0: precondition violation is reported, not raised
    bad = lamination_dichotomy_check([X], ORDER0, ADIC0)
    assert not bad.ok
    assert "below 1" in bad.violations[0][1]


def test_period_conjugation_invariance_both_methods():
    rng = random.Random(909)
    pres = GroupPresentation(("a",), ())
    for _ in range(5):
        h = random_symplectic(rng, 1).map(R)
        g = diag(X, ONE / X)
        conj = h @ g @ symplectic_inverse(h)
        rep_g = RepTable(pres, {"a": g}, ORDER0, ADIC0)
        rep_conj = RepTable(pres, {"a": conj}, ORDER0, ADIC0)
        w = parse_word("a")
        assert period_via_length(rep_g, w).period == period_via_length(rep_conj, w).period
        # framing method: transport the framing by the conjugator
        word = w
        base_images = {
            "minus": Lagrangian.horizontal(1, R(1)),
            "x": Lagrangian.line(R(1)),
            "gx": Lagrangian.line(ONE / X ** 2),
            "plus": Lagrangian.vertical(1, R(1)),
        }
        action = {word: {"minus": "minus", "plus": "plus", "x": "gx"}}
        framing = FramingTable(("minus", "x", "gx", "plus"), base_images, action)
        moved = FramingTable(
            ("minus", "x", "gx", "plus"),
            {k: l.apply(h) for k, l in base_images.items()},
            action,
        )
        assert (
            period(rep_g, framing, word, "x").period
            == period(rep_conj, moved, word, "x").period
        )


def test_rectangle_lower_bound_monotone_in_samples():
    framing = line_framing([R(0), X, 2 * X, R(1), Fraction(3, 2) * ONE, R(2), None])
    cr = FramingCrossratio(framing, ADIC0)
    corners = (str(2 * X), "1", "2", "0")
    inner = (str(X), "3/2", "2", "0")
    small = rectangle_bounds(cr, corners, [inner])
    bigger = rectangle_bounds(cr, corners, [inner, corners])
    assert bigger.lower >= small.lower
    assert bigger.upper == small.upper


def test_multicurve_certificate_stable_under_multiples():
    rep = pants_rep(ORDER0)
    outcome = multicurve_certificate_ball(rep, 2, k_max=8)
    assert isinstance(outcome, MulticurveCertified)
    for multiple in (2, 3):
        k = outcome.k * multiple
        for _, value in outcome.periods:
            assert (k * value).denominator == 1


def degenerate_framing():
    """Lines of slopes 0, 1, 0, 2, 3: labels a and c share their image."""
    images = {l: Lagrangian.line(s) for l, s in zip("abcde", (0, 1, 0, 2, 3))}
    return FramingTable(tuple("abcde"), images)


def test_non_transverse_numerator_pair_is_undefined():
    # in (a, b, c, d) the numerator pair (q1, q3) = (a, c) is not transverse,
    # while both denominator pairs (a, b) and (d, c) are
    cr = FramingCrossratio(degenerate_framing(), ADIC0)
    assert cr.evaluate(("a", "b", "c", "d")) is None
    with pytest.raises(TransversalityError):
        cr.value(("a", "b", "c", "d"))
    assert cr.evaluate(("a", "b", "d", "e")) is not None
    with pytest.raises(OrientationError):
        cr.value(("b", "a", "d", "e"))


def test_axiom_check_skips_non_transverse_quadruples():
    # (a, b, c, e) has the pair (a, c): the additivity triple is skipped,
    # and only (a, b, d, e) with its flip (d, e, a, b) is checked
    cr = FramingCrossratio(degenerate_framing(), ADIC0)
    assert crossratio_axiom_check(cr, [tuple("abcde")]) == AxiomReport(True, 1, 0)
