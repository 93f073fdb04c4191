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


def _oracle_ball(rep, radius, identity, letters, product, guard=None):
    """(word, image) over the freely reduced ball, products shared level by level.

    Length-lex order over the free generators (g before g^-1, generators
    in their listed order); `letters` maps (name, +-1) to its image and
    `guard(word, image)` sees every product.
    """
    from valrep.words import Word

    gens = rep.free_generators
    rank = {letter: i for i, letter in enumerate((g, e) for g in gens for e in (1, -1))}
    level = {Word(): identity}
    for _ in range(radius):
        nxt = {}
        for word, image in level.items():
            for letter in rank:
                if word.letters and word.letters[-1] == (letter[0], -letter[1]):
                    continue
                extended = Word(word.letters + (letter,))
                nxt[extended] = product(image, letters[letter])
                if guard is not None:
                    guard(extended, nxt[extended])
        for word in sorted(nxt, key=lambda w: [rank[l] for l in w.letters]):
            yield word, nxt[word]
        level = nxt


def ratfunc_ball(rep, radius, degree_bound=None):
    """(word, matrix) over the freely reduced ball by canonical Q(X) products.

    The degree guard reads the reduced entries.
    """
    from valrep.representation import DegreeGuardExceeded
    from valrep.symplectic import symplectic_inverse

    letters = {}
    for name in rep.free_generators:
        letters[(name, 1)] = rep.images[name]
        letters[(name, -1)] = symplectic_inverse(rep.images[name])

    def guard(word, matrix):
        deg = matrix.max_degree()
        if degree_bound is not None and deg > degree_bound:
            raise DegreeGuardExceeded(word, deg, degree_bound)

    return _oracle_ball(rep, radius, rep.identity_matrix(), letters, lambda a, b: a @ b, guard)


def poly_matrix_product(a, b):
    """Schoolbook product of two square matrices (row lists) of integer Polys."""
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Poly()) for j in range(n)]
        for i in range(n)
    ]


def poly_matrix_ball(rep, radius):
    """(word, (N rows, D)) over the freely reduced ball by Poly-matrix products.

    Starts from the cleared generator images N/D and multiplies N's
    entrywise with `poly_matrix_product` and D's as Polys.
    """
    letters = {letter: (image.num.entries, image.den) for letter, image in rep.letters.items()}
    n = rep.size
    identity = ([[Poly((int(i == j),)) for j in range(n)] for i in range(n)], Poly((1,)))

    def product(x, y):
        return poly_matrix_product(x[0], y[0]), x[1] * y[1]

    return _oracle_ball(rep, radius, identity, letters, product)


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


def rotation_conjugacy_key(word, generators):
    """conjugacy_key by definition: least index tuple over the rotation Words.

    Cyclic reduction, then every rotation of the core and of its inverse,
    each built as a freely reduced Word.
    """
    from valrep.words import letter_alphabet

    core = word.cyclic_reduction()
    index = {letter: i for i, letter in enumerate(letter_alphabet(generators))}
    candidates = []
    for w in core.rotations():
        candidates.append(tuple(index[l] for l in w.letters))
    for w in core.inverse().rotations():
        candidates.append(tuple(index[l] for l in w.letters))
    return min(candidates) if candidates else ()


def rotation_is_class_representative(word, generators, key=None):
    """is_class_representative by definition: cyclically reduced and equal to its key.

    `key`, when given, is the word's rotation_conjugacy_key, already computed.
    """
    from valrep.words import letter_alphabet

    if not word.is_cyclically_reduced():
        return False
    if key is None:
        key = rotation_conjugacy_key(word, generators)
    index = {letter: i for i, letter in enumerate(letter_alphabet(generators))}
    return tuple(index[l] for l in word.letters) == key
