"""RepTable validation, traces, sweeps and closed-point verdicts."""

import random
from fractions import Fraction

import pytest

from valrep.exprparse import parse_ratfunc
from valrep.fields import ONE, OrderSpec, RatFunc, X, format_ratfunc
from valrep.linalg import FracMatrix, Matrix
from valrep.pants import boundary_words, pants_presentation, pants_rep
from valrep.representation import (
    ClosedPoint,
    DegreeGuardExceeded,
    GroupPresentation,
    NotClosedIntegral,
    RepresentationError,
    RepTable,
    UnknownVerdict,
    closed_point_verdict,
    integrality_certificate,
    sweep_translation_lengths,
)
from valrep.valuation import INFINITY, Valuation
from valrep.words import Word, is_class_representative, parse_word

from helpers import frac_ball, generic_rep, with_degree_bound

ORDER0 = OrderSpec.at_plus(0)
ADIC0 = Valuation.adic(0)


def diag_rep(entries):
    z = RatFunc.coerce(0)
    entries = [RatFunc.coerce(e) if not isinstance(e, RatFunc) else e for e in entries]
    mat = Matrix(
        [[entries[i] if i == j else z for j in range(len(entries))] for i in range(len(entries))]
    )
    pres = GroupPresentation(("a",), ())
    return RepTable(pres, {"a": mat}, ORDER0, ADIC0)


def test_pants_rep_validates():
    rep = pants_rep(ORDER0)
    assert rep.n == 2
    identity = Matrix.identity(rep.size, ONE)
    assert rep.evaluate(parse_word("c3 c2 c1")) == identity
    assert rep.evaluate(Word()) == identity


def test_trivial_rep_is_integral():
    pres = GroupPresentation(("a",), ())
    rep = RepTable(pres, {"a": Matrix.identity(4, RatFunc.coerce(1))}, ORDER0, ADIC0)
    verdict = closed_point_verdict(rep, radius=2)
    assert isinstance(verdict, NotClosedIntegral)
    assert all(v >= 0 for v in verdict.generator_valuations.values())


def test_reptable_rejects_non_symplectic():
    pres = GroupPresentation(("a",), ())
    bad = Matrix.identity(4, RatFunc.coerce(1)).scale(RatFunc.coerce(2))
    with pytest.raises(RepresentationError):
        RepTable(pres, {"a": bad}, ORDER0, ADIC0)


def test_reptable_rejects_bad_relator():
    pres = GroupPresentation(("a",), (parse_word("a a"),))
    g = diag_rep([X, RatFunc.coerce(1), 1 / X, RatFunc.coerce(1)]).images["a"]
    with pytest.raises(RepresentationError):
        RepTable(pres, {"a": g}, ORDER0, ADIC0)


def test_image_names_a_generator_outside_the_presentation():
    rep = pants_rep(ORDER0)
    for use in (rep.image, rep.trace, rep.evaluate):
        with pytest.raises(RepresentationError, match="unknown generator 'c9'"):
            use(parse_word("c1 c9^-1"))


def test_trace_is_class_function():
    rep = pants_rep(ORDER0)
    rng = random.Random(3)
    from valrep.words import words_of_length

    pool = list(words_of_length(("c1", "c2"), 2)) + list(words_of_length(("c1", "c2"), 3))
    conjugators = list(words_of_length(("c1", "c2"), 1)) + list(words_of_length(("c1", "c2"), 2))
    trace_cache = {}
    for _ in range(1000):
        w = rng.choice(pool)
        h = rng.choice(conjugators)
        if w not in trace_cache:
            trace_cache[w] = rep.trace(w)
        assert rep.trace(h * w * h.inverse()) == trace_cache[w]


def test_trace_valuation_sample():
    rep = pants_rep(ORDER0)
    sample = {word: rep.valuation.of(image.trace()) for word, image in rep.iter_ball(2)}
    assert rep.valuation.of(rep.trace(Word())) == 0  # trace 4, valuation 0
    assert sample[parse_word("c1")] == 0  # unipotent, trace 4
    assert sample[parse_word("c1 c2^-1")] == 0  # hyperbolic, but trace is constant 20
    # the square of c1^-2 c2^-1 has trace with a genuine pole at 0
    w = parse_word("c1^-2 c2^-1") ** 2
    assert rep.valuation.of(rep.trace(w)) == -2
    at_inf = pants_rep(OrderSpec.plus_infinity())
    assert at_inf.valuation.of(at_inf.trace(parse_word("c1^-2 c2^-1"))) == -2


def test_closed_point_verdicts_match_order_families():
    # just right of 0 and at infinity: closed, with an explicit witness;
    # at a = 1 (both sides): the representation is integral, not closed
    for spec in ("aplus:0", "plusinf"):
        order = OrderSpec.from_spec_string(spec)
        verdict = closed_point_verdict(pants_rep(order), radius=4)
        assert isinstance(verdict, ClosedPoint)
        assert verdict.length > 0
        assert verdict.witness == parse_word("c1 c2^-1")
    for spec in ("aplus:1", "aminus:1"):
        order = OrderSpec.from_spec_string(spec)
        verdict = closed_point_verdict(pants_rep(order), radius=2)
        assert isinstance(verdict, NotClosedIntegral)


def test_closed_verdict_monotone_in_radius():
    rep = pants_rep(ORDER0)
    v2 = closed_point_verdict(rep, radius=2)
    v5 = closed_point_verdict(rep, radius=5)
    assert isinstance(v2, ClosedPoint) and isinstance(v5, ClosedPoint)
    assert v2.witness == v5.witness and v2.length == v5.length


def test_unknown_verdict_when_radius_too_small():
    # make a rep with no short hyperbolic word by using a single unipotent
    pres = GroupPresentation(("a",), ())
    one, z = RatFunc.coerce(1), RatFunc.coerce(0)
    g = Matrix([[one, 1 / X], [z, one]])
    rep = RepTable(pres, {"a": g}, ORDER0, ADIC0)
    verdict = closed_point_verdict(rep, radius=3)
    # unipotent with a pole: not integral, but every word has length 0
    assert isinstance(verdict, UnknownVerdict)
    assert verdict.radius_searched == 3


def test_integrality_soundness_sweep():
    # NotClosedIntegral implies no positive-length word in a wide sweep
    rep = pants_rep(OrderSpec.at_plus(1))
    assert integrality_certificate(rep) is not None
    lengths = sweep_translation_lengths(rep, radius=6)
    assert lengths and all(value == 0 for _, value in lengths)


def test_word_ball_size_is_bounded_per_level(monkeypatch):
    # the pants ball over c1, c2 holds 4, 16, 52, 160 words through lengths 1 to 4;
    # the limit counts the full ball, although the sweep builds only its pruned tree
    from valrep import representation

    rep = pants_rep(ORDER0)
    assert closed_point_verdict(rep, radius=30).kind == "closed"  # its witness is short
    monkeypatch.setattr(representation, "MAX_BALL_WORDS", 52)
    assert len(list(frac_ball(rep, 3))) == 52
    tree = [w for w, _ in frac_ball(rep, 3, pruned=True)]
    assert [w for w, _ in rep.iter_ball(3)] == tree
    built = []
    with pytest.raises(ValueError, match="radius 30 exceeds 52 words: length 4 brings it to 160"):
        built.extend(w for w, _ in rep.iter_ball(30))
    assert built == tree
    assert closed_point_verdict(rep, radius=30).kind == "closed"


def test_degree_guard_fires():
    rep = pants_rep(ORDER0, degree_bound=2)
    with pytest.raises(DegreeGuardExceeded):
        list(rep.iter_ball(4))


def three_generator_rep(free_generators=None):
    """Free Sp(2, Q(X)) images: two unipotents and a torus element."""
    one, zero = RatFunc.coerce(1), RatFunc.coerce(0)
    images = {
        "a": Matrix([[one, X], [zero, one]]),
        "b": Matrix([[one, zero], [X - 1, one]]),
        "c": Matrix([[X, zero], [zero, one / X]]),
    }
    return RepTable(GroupPresentation(("a", "b", "c"), ()), images, ORDER0, ADIC0, free_generators)


@pytest.mark.parametrize(
    "free_generators,message",
    [((), "free_generators is empty"), (("a", "c", "a"), "free generator 'a' is listed twice"),
     (("a", "d"), "unknown free generator 'd'")],
)
def test_free_generators_are_validated(free_generators, message):
    with pytest.raises(RepresentationError, match=message):
        three_generator_rep(free_generators)
    assert three_generator_rep().free_generators == ("a", "b", "c")
    assert pants_rep(ORDER0).free_generators == ("c1", "c2")


def _sweep(ball):
    """The (letters, image) sequence, or the word, degree and bound where the guard fired."""
    out = []
    try:
        for word, image in ball:
            out.append((word.letters, image.packed, image.den, image.width))
    except DegreeGuardExceeded as err:
        out.append((str(err.word), err.degree, err.bound))
    return out


@pytest.mark.parametrize(
    "make",
    [lambda: pants_rep(ORDER0), three_generator_rep, lambda: three_generator_rep(("c", "a"))],
    ids=["pants c1 c2", "a b c", "c a"],
)
def test_iter_ball_matches_word_built_sweep(make):
    rep = make()
    fast = _sweep(rep.iter_ball(6))
    assert fast == _sweep(frac_ball(rep, 6, pruned=True))
    letters = 2 * len(rep.free_generators)
    full = len(list(frac_ball(rep, 6)))
    assert full == sum(letters * (letters - 1) ** k for k in range(6))
    assert len(fast) < full // 4
    for bound in (1, 2, 4):
        fired = _sweep(with_degree_bound(rep, bound).iter_ball(6))
        assert fired == _sweep(frac_ball(rep, 6, degree_bound=bound, pruned=True)), bound
        if bound == 1:
            assert isinstance(fired[-1][0], str)  # the guard fired, naming a word


CLASS_SWEEPS = [
    ("pants aplus:0", lambda: pants_rep(ORDER0), 6),
    ("pants plusinf", lambda: pants_rep(OrderSpec.plus_infinity()), 6),
    ("pants aplus:1", lambda: pants_rep(OrderSpec.at_plus(1)), 6),
    ("generic adic:1", generic_rep, 4),
    ("a b c", three_generator_rep, 4),
]


@pytest.mark.parametrize("name,make,radius", CLASS_SWEEPS, ids=[c[0] for c in CLASS_SWEEPS])
def test_class_representatives_match_the_filtered_full_ball(name, make, radius):
    rep = make()
    for r in range(1, radius + 1):
        fast = list(rep.class_representatives(r))
        slow = [(w, im) for w, im in frac_ball(rep, r) if is_class_representative(w, rep.letter_index)]
        assert [w for w, _ in fast] == [w for w, _ in slow], r
        for (word, image), (_, expected) in zip(fast, slow):
            assert image.to_matrix() == expected.to_matrix(), word


def test_class_sweep_builds_only_representative_prefixes(monkeypatch):
    # pinned: the radius-6 class sweep over c1, c2 builds 207 of the 1,456 ball products
    rep = pants_rep(ORDER0)
    products = []
    matmul = FracMatrix.__matmul__
    monkeypatch.setattr(FracMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    assert len(list(rep.class_representatives(6))) == 117
    assert len(products) == 207
    products.clear()
    assert len(list(rep.iter_ball(6))) == 207
    assert len(products) == 207
    products.clear()
    assert len(list(frac_ball(rep, 6))) == 1456
    assert len(products) == 1456


def test_degree_guard_under_the_class_sweep():
    # each bound gives the unbounded class list, or names the first word of the
    # pruned tree whose image has a reduced entry of degree above the bound
    rep = pants_rep(ORDER0)
    tree = list(rep.iter_ball(6))
    classes = [w for w, _ in rep.class_representatives(6)]
    fired = []
    for bound in range(1, 9):
        try:
            assert [w for w, _ in with_degree_bound(rep, bound).class_representatives(6)] == classes
        except DegreeGuardExceeded as err:
            degrees = [image.degree_over(bound) for _, image in tree]
            first = next(i for i, d in enumerate(degrees) if d is not None)
            assert (err.word, err.degree, err.bound) == (tree[first][0], degrees[first], bound)
            fired.append(bound)
    assert fired == [1, 2, 3, 4, 5]  # both outcomes occur
