"""Shared random generators for the test suite (seeded, deterministic)."""

from fractions import Fraction

from valrep.fields import RatFunc
from valrep.poly import Poly


def random_ratfunc(rng, max_deg=3, coeff_bound=6):
    def poly():
        return Poly(
            Fraction(rng.randint(-coeff_bound, coeff_bound))
            for _ in range(rng.randint(1, max_deg + 1))
        )

    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return RatFunc(num, den)


# -- slow oracles for the fast paths ------------------------------------------


def faddeev_leverrier(m):
    """Monic char poly by the Faddeev-LeVerrier recursion (divides by k).

    M_1 = I, c_{n-1} = -tr(A); M_k = A M_{k-1} + c_{n-k+1} I,
    c_{n-k} = -tr(A M_k)/k.  Only valid over a field of characteristic 0.
    """
    from valrep.linalg import Matrix

    n = m.rows
    one = m.one()
    coeffs = [one * 0] * (n + 1)
    coeffs[n] = one
    acc = Matrix.identity(n, one)
    for k in range(1, n + 1):
        am = m @ acc
        c = am.trace() * Fraction(-1, k)
        coeffs[n - k] = c
        if k < n:
            acc = am + Matrix.identity(n, one).scale(c)
    return Poly(coeffs)


def ratfunc_ball(rep, radius, degree_bound=None):
    """(word, matrix) over the freely reduced ball by canonical Q(X) products.

    Length-lex order over the free generators (g before g^-1, generators
    in their listed order); the degree guard reads the reduced entries.
    """
    from valrep.representation import DegreeGuardExceeded
    from valrep.symplectic import symplectic_inverse
    from valrep.words import Word

    gens = rep.free_generators
    letters = {}
    for name in gens:
        letters[(name, 1)] = rep.images[name]
        letters[(name, -1)] = symplectic_inverse(rep.images[name])
    rank = {letter: i for i, letter in enumerate((g, e) for g in gens for e in (1, -1))}
    level = {Word(): rep.identity_matrix()}
    for _ in range(radius):
        nxt = {}
        for word, matrix in level.items():
            for letter in letters:
                if word.letters and word.letters[-1] == (letter[0], -letter[1]):
                    continue
                product = matrix @ letters[letter]
                extended = Word(word.letters + (letter,))
                if degree_bound is not None:
                    deg = product.max_degree()
                    if deg > degree_bound:
                        raise DegreeGuardExceeded(extended, deg, degree_bound)
                nxt[extended] = product
        for word in sorted(nxt, key=lambda w: [rank[l] for l in w.letters]):
            yield word, nxt[word]
        level = nxt


def ratfunc_translation_length(matrix, valuation):
    """Siegel-sum translation length from the Q(X) char poly (Faddeev-LeVerrier)."""
    from valrep.valuation import newton_polygon

    values = newton_polygon(faddeev_leverrier(matrix), valuation).expanded()
    slopes = sorted((-v for v in values), reverse=True)
    return sum(slopes[: matrix.rows // 2], Fraction(0))


def rank_transverse(l1, l2):
    """l1 transverse l2 by the rank of the 2n x 2n matrix of both bases."""
    return l1.basis.hstack(l2.basis).rank() == 2 * l1.n


def projection_crossratio(l1, l2, l3, l4):
    """det of p_{l1}^{par l2} . p_{l3}^{par l4} restricted to l1, by definition.

    Builds both 2n x 2n projections and reads the restriction in the basis
    of l1; transversality is tested by rank.
    """
    from valrep.symplectic import TransversalityError, projection_matrix

    if not (rank_transverse(l1, l2) and rank_transverse(l3, l4)):
        raise TransversalityError("projection needs transverse Lagrangians")
    image = projection_matrix(l1, l2) @ projection_matrix(l3, l4) @ l1.basis
    return _coordinates_in(l1.basis, image).det()


def _coordinates_in(basis, vectors):
    """Coordinates of `vectors` (columns, inside span(basis)) in `basis`."""
    _, pivots = basis.transpose().rref()
    square = basis.submatrix(pivots, range(basis.cols))
    rhs = vectors.submatrix(pivots, range(vectors.cols))
    return square.inverse() @ rhs
