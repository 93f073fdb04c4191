"""Valuation crossratios, n x n Maslov forms and char-poly signatures.

Each fast path is checked against the definition it replaced (oracles in
helpers.py): `FramingCrossratio` against -nu of the Q(X) quotient
`symplectic.crossratio`, `crossratio_axiom_check` against the same check
run through `defined` and `value`, `maslov` against the signature of the
3n x 3n Gram matrix, and `signature` against elimination that updates
whole rows and columns.  Without an order, `signature` answers exactly
when every char-poly coefficient is a rational constant.  `line`, `graph`,
`horizontal` and `vertical` build their echelon rows without `span`; each
must equal the span of its own basis, entry type included, and pair as the
transposed bases do.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import event, given, settings, strategies as st

from valrep.currents import (
    FramingCrossratio,
    OrientationError,
    TableCrossratio,
    crossratio_axiom_check,
)
from valrep.fields import OrderSpec, RatFunc
from valrep.framing import FramingTable
from valrep.linalg import Matrix
from valrep.poly import Poly
from valrep.symplectic import (
    Lagrangian,
    TransversalityError,
    maslov,
    maslov_with_radical,
    pairing_matrix,
    signature,
)
from valrep.valuation import Valuation

from helpers import (
    QuotientCrossratio,
    defined_value_axiom_check,
    gram_maslov,
    gram_signature,
    rank_transverse,
    transposing_pairing_matrix,
)
from test_pairing import (
    entry_types,
    lagrangians,
    rational_sp,
    rationals,
    sharing_pairs,
    symmetric,
)

R = RatFunc.coerce
LABELS = tuple("abcde")
VALUATIONS = [Valuation.adic(0), Valuation.adic(1), Valuation.at_infinity()]
ORDERS = [
    OrderSpec.at_plus(0),
    OrderSpec.at_minus(1),
    OrderSpec.plus_infinity(),
    OrderSpec.minus_infinity(),
]

qx_entries = st.builds(
    lambda num, s: RatFunc(Poly(map(Fraction, num)), Poly([Fraction(1), Fraction(s)])),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1)),
    st.sampled_from((0, 0, 1, -1)),
)


@st.composite
def qx_sharing_pair(draw, n):
    """Graphs of S and S + R over Q(X), R a sum of fewer than n rank-one c w w^T.

    R v = 0 for some v != 0, so the two share a vector; for n = 1 they coincide.
    """
    s = draw(symmetric(n, qx_entries))
    r = Matrix.zero(n, n, R(0))
    for _ in range(draw(st.integers(0, n - 1))):
        c = draw(qx_entries)
        w = draw(st.lists(rationals, min_size=n, max_size=n))
        r = r + Matrix([[c * a * b for b in w] for a in w])
    return Lagrangian.graph(s), Lagrangian.graph(s + r)


def qx_lagrangians(n):
    return st.one_of(
        symmetric(n, qx_entries).map(Lagrangian.graph), st.just(Lagrangian.vertical(n, R(1)))
    )


@st.composite
def framings(draw, n):
    """Five labels over a pool with a vector-sharing pair, so images repeat or meet."""
    pool = list(draw(qx_sharing_pair(n)))
    pool += draw(st.lists(qx_lagrangians(n), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=5, max_size=5))
    images = [pool[i] for i in picks]
    if draw(st.booleans()):
        g = draw(rational_sp(n)).map(R)
        images = [l.apply(g) for l in images]
    return FramingTable(LABELS, dict(zip(LABELS, images)))


def outcome(fn, quad):
    try:
        return fn(quad)
    except (OrientationError, TransversalityError) as err:
        return type(err)


# the positively oriented quadruples: each 4-subset in cyclic order, rotated
ORIENTED = [c[i:] + c[:i] for c in combinations(LABELS, 4) for i in range(4)]


@pytest.mark.parametrize("valuation", VALUATIONS, ids=str)
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=30)
@given(data=st.data())
def test_framing_crossratio_matches_quotient_oracle(n, valuation, data):
    framing = data.draw(framings(n))
    fast = FramingCrossratio(framing, valuation)
    slow = QuotientCrossratio(framing, valuation)
    oriented = data.draw(st.lists(st.sampled_from(ORIENTED), min_size=1, max_size=8, unique=True))
    others = data.draw(st.lists(st.permutations(LABELS).map(lambda p: tuple(p[:4])), max_size=2))
    for quad in oriented + others:
        defined = slow.defined(quad)
        event("defined" if defined else "undefined")
        assert (fast.evaluate(quad) is not None) == defined, quad
        want = outcome(slow.value, quad)
        assert outcome(fast.value, quad) == want, quad
        assert fast.evaluate(quad) == (want if defined else None), quad


@pytest.mark.parametrize("valuation", VALUATIONS, ids=str)
@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=30)
@given(data=st.data())
def test_axiom_check_matches_defined_value_check(n, valuation, data):
    framing = data.draw(framings(n))
    quint = st.one_of(st.just(LABELS), st.permutations(LABELS).map(tuple))
    quints = data.draw(st.lists(quint, min_size=1, max_size=3))
    got = crossratio_axiom_check(FramingCrossratio(framing, valuation), quints)
    assert got == defined_value_axiom_check(QuotientCrossratio(framing, valuation), quints)
    # both identities hold exactly on nu of determinants, so a framing never violates them
    assert got.ok


@settings(max_examples=40)
@given(data=st.data())
def test_axiom_check_reports_table_violations_as_before(data):
    # the values of a framing, maximal or not, with one entry moved
    framing = data.draw(framings(2))
    cr, dets = FramingCrossratio(framing, Valuation.adic(0)), {}
    values = {quad: cr.evaluate(quad, dets) for quad in permutations(LABELS, 4)}
    table = {quad: v for quad, v in values.items() if v is not None}
    if table and data.draw(st.booleans()):
        quad = data.draw(st.sampled_from(sorted(table)))
        table[quad] += data.draw(st.sampled_from((Fraction(1), Fraction(-1, 2))))
    tabled = TableCrossratio(LABELS, table)
    got = crossratio_axiom_check(tabled, [LABELS])
    event("violation" if got.violation else "no violation")
    assert got == defined_value_axiom_check(tabled, [LABELS])


def test_axiom_check_computes_each_pair_once_per_call(monkeypatch):
    # five lines in general position: the three additivity quadruples and
    # their flips meet six unordered label pairs
    framing = FramingTable(LABELS, {l: Lagrangian.line(t) for l, t in zip(LABELS, range(5))})
    cr = FramingCrossratio(framing, Valuation.adic(0))
    calls = []
    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: calls.append(1) or det(self))
    report = crossratio_axiom_check(cr, [LABELS])
    assert report.ok and (report.symmetry_checked, report.additivity_checked) == (3, 1)
    assert len(calls) == 6
    crossratio_axiom_check(cr, [LABELS])
    assert len(calls) == 12  # nothing is kept between calls
    cr.value(("a", "b", "d", "e"))
    assert len(calls) == 16


# -- Maslov indices ------------------------------------------------------------


@st.composite
def common_vector_triples(draw, n):
    """Three Lagrangians through one common vector: no pair is transverse.

    Graphs of S + c_i u u^T with u orthogonal to v all contain (v, S v).
    """
    s = draw(symmetric(n, rationals))
    v = draw(st.lists(rationals, min_size=n, max_size=n).filter(any))
    u = [Fraction(0)] * n
    if n > 1:
        u[0], u[1] = v[1], -v[0]
    g = draw(rational_sp(n))
    out = []
    for _ in range(3):
        c = draw(rationals)
        out.append(Lagrangian.graph(s + Matrix([[c * a * b for b in u] for a in u])).apply(g))
    return out


TRIPLE_KINDS = ("general", "l1 meets l3", "no pair transverse")


@st.composite
def maslov_triples(draw, n, kind=None):
    kind = kind or draw(st.sampled_from(TRIPLE_KINDS))
    if kind == "general":
        return draw(st.lists(lagrangians(n), min_size=3, max_size=3))
    if kind == "l1 meets l3":
        a, b = draw(sharing_pairs(n))
        return [a, draw(lagrangians(n)), b]
    return draw(common_vector_triples(n))


def maslov_path(l1, l2, l3):
    if rank_transverse(l1, l3):
        return "l1 transverse l3"
    if rank_transverse(l1, l2) or rank_transverse(l2, l3):
        return "rotated"
    return "Gram fallback"


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_maslov_matches_gram_signature(n, data):
    l1, l2, l3 = data.draw(maslov_triples(n))
    event(maslov_path(l1, l2, l3))
    index, radical = gram_maslov(l1, l2, l3)
    assert maslov(l1, l2, l3) == index
    assert maslov_with_radical(l1, l2, l3) == (index, radical)


@pytest.mark.parametrize("order", ORDERS, ids=str)
@settings(max_examples=40)
@given(triple=framings(2).map(lambda f: [f.image(l) for l in "abc"]))
def test_maslov_matches_gram_signature_over_qx(order, triple):
    event(maslov_path(*triple))
    assert maslov_with_radical(*triple, order) == gram_maslov(*triple, order)


def check_cocycle_and_antisymmetry(l1, l2, l3, l4, order=None):
    """Kashiwara's cocycle identity on l1..l4; tau changes by sign(s) under a permutation s.

    The identity tau(2,3,4) - tau(1,3,4) + tau(1,2,4) - tau(1,2,3) = 0
    holds for every quadruple of Lagrangians, transverse or not.
    """

    def tau(*triple):
        return maslov(*triple, order)

    assert tau(l2, l3, l4) - tau(l1, l3, l4) + tau(l1, l2, l4) - tau(l1, l2, l3) == 0
    index = tau(l1, l2, l3)
    for perm in permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        triple = [(l1, l2, l3)[i] for i in perm]
        assert tau(*triple) == (-1) ** inversions * index, perm


@pytest.mark.parametrize("kind", TRIPLE_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=40)
@given(data=st.data())
def test_maslov_cocycle_and_antisymmetry_over_q(n, kind, data):
    l1, l2, l3 = data.draw(maslov_triples(n, kind))
    path = maslov_path(l1, l2, l3)
    event(path)
    if kind == "l1 meets l3":
        assert path != "l1 transverse l3"
    if kind == "no pair transverse":
        assert path == "Gram fallback"
    l4 = data.draw(st.one_of(lagrangians(n), st.sampled_from((l1, l2, l3))))
    check_cocycle_and_antisymmetry(l1, l2, l3, l4)


@pytest.mark.parametrize("order", ORDERS, ids=str)
@settings(max_examples=25)
@given(images=framings(2).map(lambda f: [f.image(l) for l in "abcd"]))
def test_maslov_cocycle_and_antisymmetry_over_qx(order, images):
    event(maslov_path(*images[:3]))
    check_cocycle_and_antisymmetry(*images, order)


def test_maslov_rotation_keeps_a_nonzero_index():
    # l1 and l3 share e1, so the triple is rotated to (l2, l3, l1); the
    # index is odd in the order of the triple, so a rotation must not be
    # replaced by a transposition
    def span(*cols):
        return Lagrangian.span(Matrix([[Fraction(c) for c in row] for row in zip(*cols)]))

    l1 = span((1, 0, 0, 0), (0, 1, 0, 0))
    l2 = span((1, 0, 1, 0), (0, 1, 0, 1))
    l3 = span((1, 0, 0, 0), (0, 0, 0, 1))
    assert maslov_path(l1, l2, l3) == "rotated"
    index, radical = gram_maslov(l1, l2, l3)
    assert index != 0
    assert maslov(l1, l2, l3) == index and maslov(l2, l1, l3) == -index
    assert maslov_with_radical(l1, l2, l3) == (index, radical)
    assert maslov_path(l1, l1, l1) == "Gram fallback"
    assert maslov_with_radical(l1, l1, l1) == gram_maslov(l1, l1, l1) == (0, 6)


# -- signatures ----------------------------------------------------------------


@st.composite
def symmetric_matrices(draw, entries):
    """Symmetric n x n matrices (n <= 6); some with zero diagonal, some of low rank."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("full", "zero diagonal", "low rank")))
    if kind == "low rank":
        m = Matrix.zero(n, n, draw(entries) * 0)
        for _ in range(draw(st.integers(0, n - 1))):
            c = draw(entries)
            w = draw(st.lists(rationals, min_size=n, max_size=n))
            m = m + Matrix([[c * a * b for b in w] for a in w])
        return m
    m = draw(symmetric(n, entries))
    if kind == "zero diagonal":
        zero = m.zero_entry()
        rows = enumerate(m.entries)
        m = Matrix([[zero if i == j else e for j, e in enumerate(row)] for i, row in rows])
    return m


@given(symmetric_matrices(rationals))
def test_signature_matches_full_update_over_q(m):
    event("degenerate" if gram_signature(m)[2] else "nondegenerate")
    assert signature(m) == gram_signature(m)


@pytest.mark.parametrize("order", ORDERS, ids=str)
@settings(max_examples=25)
@given(m=symmetric_matrices(qx_entries))
def test_signature_matches_full_update_over_qx(order, m):
    assert signature(m, order) == gram_signature(m, order)


def order_free_cases():
    """(matrix, its signature): one whose pivots are rational constants and
    one whose char-poly coefficients are, a rotation O^T diag(1, 2) O."""
    x = R(Poly((0, 1)))
    pivots_constant = Matrix([[R(1), x], [x, x * x + 1]])
    a, b = (1 - x * x) / (1 + x * x), 2 * x / (1 + x * x)
    rotation = Matrix([[a, -b], [b, a]])
    coefficients_constant = rotation.transpose() @ Matrix([[R(1), R(0)], [R(0), R(2)]]) @ rotation
    return pivots_constant, coefficients_constant


def test_order_free_signature_needs_constant_char_poly_coefficients():
    pivots_constant, coefficients_constant = order_free_cases()
    with pytest.raises(ValueError, match="needs an OrderSpec"):
        signature(pivots_constant)
    assert signature(coefficients_constant) == (2, 0, 0)
    for order in ORDERS:
        assert signature(pivots_constant, order) == gram_signature(pivots_constant, order)
        assert signature(coefficients_constant, order) == (2, 0, 0)


# -- echelon rows built directly ----------------------------------------------

# integer input is read over Q, as `span` reads it
ENTRY_KINDS = {
    "Z": (st.integers(-3, 3), 1),
    "Q": (rationals, Fraction(1)),
    "Q(X)": (qx_entries, R(1)),
}


def direct_forms(n, entries, one, data):
    """line, graph, horizontal and vertical, which build their rows without `span`."""
    forms = [
        Lagrangian.graph(data.draw(symmetric(n, entries))),
        Lagrangian.horizontal(n, one),
        Lagrangian.vertical(n, one),
    ]
    if n == 1:
        forms += [Lagrangian.line(data.draw(entries)), Lagrangian.line(None)]
    return forms


@pytest.mark.parametrize("kind", sorted(ENTRY_KINDS))
@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=30)
@given(data=st.data())
def test_direct_forms_are_their_own_span(n, kind, data):
    entries, one = ENTRY_KINDS[kind]
    forms = direct_forms(n, entries, one, data)
    for l in forms:
        again = Lagrangian.span(l.basis)
        assert again.rows.entries == l.rows.entries
        assert entry_types(again.rows) == entry_types(l.rows)
        assert hash(again) == hash(l)
    for a, b in combinations(forms, 2):
        omega, expected = pairing_matrix(a, b), transposing_pairing_matrix(a, b)
        assert omega.entries == expected.entries
        assert entry_types(omega) == entry_types(expected)
