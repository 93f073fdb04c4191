"""Pairing-determinant crossratio and transversality against their definitions.

`symplectic.crossratio` and `Lagrangian.transverse` work with the n x n
pairing matrices Omega(a, b); the oracles in helpers.py build the 2n x 2n
projections and take ranks, as the definitions read.  `pairing_matrix`
pairs the echelon rows of two Lagrangians; its oracle pairs the columns of
their 2n x n bases.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from valrep.fields import RatFunc
from valrep.linalg import Matrix
from valrep.poly import Poly
from valrep.symplectic import (
    Lagrangian,
    TransversalityError,
    crossratio,
    pairing_matrix,
)

from helpers import projection_crossratio, rank_transverse, transposing_pairing_matrix

R = RatFunc.coerce

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


def symmetric(n, entries):
    """Symmetric n x n matrices, drawn by their upper triangle."""

    def build(xs):
        it = iter(xs)
        s = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = next(it)
        return Matrix(s)

    size = n * (n + 1) // 2
    return st.lists(entries, min_size=size, max_size=size).map(build)


def entry_types(m):
    return [type(e) for row in m.entries for e in row]


def unipotent(t, upper):
    """[[I, T], [0, I]] (upper) or [[I, 0], [T, I]], symplectic for symmetric T."""
    n = t.rows
    one, zero = Fraction(1), Fraction(0)
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    nil = [[zero] * n for _ in range(n)]
    top = [eye[i] + (list(t.entries[i]) if upper else nil[i]) for i in range(n)]
    bottom = [(nil[i] if upper else list(t.entries[i])) + eye[i] for i in range(n)]
    return Matrix(top + bottom)


def rational_sp(n):
    """Products [[I, T], [0, I]] . [[I, 0], [T', I]] with rational symmetric T, T'."""
    return st.tuples(symmetric(n, rationals), symmetric(n, rationals)).map(
        lambda ts: unipotent(ts[0], True) @ unipotent(ts[1], False)
    )


def lagrangians(n):
    """Graphs of rational symmetric matrices moved by a rational Sp(2n) element."""
    return st.tuples(symmetric(n, rationals), rational_sp(n)).map(
        lambda sg: Lagrangian.graph(sg[0]).apply(sg[1])
    )


@st.composite
def sharing_pairs(draw, n):
    """(l, l') with a common nonzero vector.

    l and l' are the graphs of S and S + R, with R a sum of fewer than n
    rank-one matrices c w w^T (so R v = 0 for some v != 0), both moved by
    one symplectic map; for n = 1, R = 0 and l' = l.
    """
    s = draw(symmetric(n, rationals))
    r = Matrix.zero(n, n)
    for _ in range(draw(st.integers(0, n - 1))):
        c = draw(rationals)
        w = draw(st.lists(rationals, min_size=n, max_size=n))
        r = r + Matrix([[c * a * b for b in w] for a in w])
    g = draw(rational_sp(n))
    return Lagrangian.graph(s).apply(g), Lagrangian.graph(s + r).apply(g)


@st.composite
def quadruples(draw, n, members):
    """Four Lagrangians from a small pool that holds one sharing pair.

    Repeated and vector-sharing members make some slots non-transverse.
    """
    pool = list(draw(sharing_pairs(n))) + draw(st.lists(members, min_size=2, max_size=3))
    index = st.integers(0, len(pool) - 1)
    return [pool[draw(index)] for _ in range(4)]


def outcome(fn, quad):
    try:
        return fn(*quad)
    except TransversalityError:
        return TransversalityError


def check_against_oracle(quad):
    got = outcome(crossratio, quad)
    want = outcome(projection_crossratio, quad)
    event("not transverse" if want is TransversalityError else "transverse")
    if want is TransversalityError:
        assert got is TransversalityError
    else:
        assert got is not TransversalityError and got == want


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_crossratio_matches_projection_oracle_over_q(n, data):
    check_against_oracle(data.draw(quadruples(n, lagrangians(n))))


qx_entries = st.builds(
    lambda a, b, s: RatFunc(Poly([Fraction(a), Fraction(b)]), Poly([Fraction(1), Fraction(s)])),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(0, 1),
)


@st.composite
def qx_graph_quadruples(draw):
    """Graphs of symmetric 2 x 2 matrices over Q(X) (entries (a + bX)/(1 + sX)).

    The vertical Lagrangian may stand in for a graph, and the whole
    quadruple may be moved by one rational Sp(4) element.
    """
    vertical = Lagrangian.vertical(2, R(1))
    members = st.one_of(
        symmetric(2, qx_entries).map(Lagrangian.graph), st.just(vertical)
    )
    quad = draw(st.lists(members, min_size=4, max_size=4))
    if draw(st.booleans()):
        quad[draw(st.integers(0, 3))] = quad[draw(st.integers(0, 3))]
    if draw(st.booleans()):
        g = draw(rational_sp(2))
        quad = [l.apply(g) for l in quad]
    return quad


@settings(max_examples=40)
@given(qx_graph_quadruples())
def test_crossratio_matches_projection_oracle_over_qx(quad):
    check_against_oracle(quad)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_transverse_matches_rank_oracle(n, data):
    a, b = data.draw(lagrangians(n)), data.draw(lagrangians(n))
    assert a.transverse(b) == rank_transverse(a, b) == b.transverse(a)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_vector_sharing_pairs_are_not_transverse(n, data):
    a, b = data.draw(sharing_pairs(n))
    assert not rank_transverse(a, b)
    assert not a.transverse(b) and not b.transverse(a)
    others = data.draw(st.tuples(lagrangians(n), lagrangians(n)))
    for quad in ((a, b, *others), (*others, a, b), (b, a, *others)):
        with pytest.raises(TransversalityError):
            crossratio(*quad)
        with pytest.raises(TransversalityError):
            projection_crossratio(*quad)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_pairing_matrix_entries_and_antisymmetry(n, data):
    a, b = data.draw(lagrangians(n)), data.draw(lagrangians(n))
    omega = pairing_matrix(a, b)
    expected = transposing_pairing_matrix(a, b)
    assert omega.entries == expected.entries
    assert entry_types(omega) == entry_types(expected)
    assert pairing_matrix(b, a) == -omega.transpose()
    assert pairing_matrix(a, a) == Matrix.zero(n, n)


def test_pairing_matrix_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        pairing_matrix(Lagrangian.horizontal(1), Lagrangian.horizontal(2))


# The README's crossratio example; its report was taken from the projection
# implementation and must not change by a byte (timing_ms aside).
README_CROSSRATIO = json.dumps(
    {
        "lagrangians": [
            [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]],
            [["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]],
            [["1", "0"], ["0", "1"], ["1", "0"], ["0", "X"]],
            [["1", "0"], ["0", "1"], ["X", "1"], ["1", "2"]],
        ]
    }
)
README_REPORT = """{
  "schema": "valrep.report/1",
  "command": "crossratio",
  "result": {
    "crossratio": "(-2*X+1)/(X^2-3*X+3)"
  },
}
"""
NOT_TRANSVERSE_REPORT = """{
  "schema": "valrep.report/1",
  "error": {
    "code": "input",
    "message": "projection needs transverse Lagrangians"
  }
}
"""


def run_crossratio(payload):
    return subprocess.run(
        [sys.executable, "-m", "valrep.cli", "crossratio", "--json", payload],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_crossratio_report_is_byte_identical():
    proc = run_crossratio(README_CROSSRATIO)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines(keepends=True)
    assert lines[-2].startswith('  "timing_ms": ')
    assert "".join(lines[:-2] + lines[-1:]) == README_REPORT


def test_cli_crossratio_not_transverse_report_is_byte_identical():
    payload = json.loads(README_CROSSRATIO)
    payload["lagrangians"][1] = payload["lagrangians"][0]
    proc = run_crossratio(json.dumps(payload))
    assert proc.returncode == 2
    assert proc.stdout == NOT_TRANSVERSE_REPORT
