"""Shared random generators for the test suite (seeded, deterministic)."""

from fractions import Fraction
from functools import lru_cache

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


def digit_pack(p, width):
    """p(2^width), one coefficient per shift (the digit loop `pack` splits)."""
    v = 0
    for c in reversed(p.coeffs):
        v = (v << width) + c
    return v


def digit_unpack(v, width):
    """The balanced base-2^width digits of v, one digit per step."""
    mask, half, out = (1 << width) - 1, 1 << (width - 1), []
    while v:
        digit = v & mask
        if digit >= half:
            digit -= 1 << width
        out.append(digit)
        v = (v - digit) >> width
    return Poly(out)


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


def q_monic(p):
    """p divided by its leading coefficient, over Q."""
    return Poly(Fraction(c) / p.leading() for c in p.coeffs) if p.coeffs else p


def q_exact_div(a, b):
    """a / b over Q, for b dividing a."""
    q, r = a.divmod(b)
    assert r.is_zero(), "inexact polynomial division"
    return q


def monic_euclid_gcd(a, b):
    """Monic gcd by the plain Euclidean algorithm over Q (Fraction coefficients)."""
    a = Poly(map(Fraction, a.coeffs))
    b = Poly(map(Fraction, b.coeffs))
    while not b.is_zero():
        a, b = b, q_monic(a.divmod(b)[1])
    return q_monic(a)


def subresultant_gcd(a, b):
    """gcd of the primitive parts of nonzero integer Polys, by the subresultant PRS.

    The result is primitive with a positive leading coefficient.
    Coefficient lists run highest degree first here.
    """
    from math import gcd as igcd

    def primitive(cs):
        content = igcd(*cs)
        return [c // content for c in cs]

    def prem(f, g):
        """lc(g)^(deg f - deg g + 1) * f mod g."""
        lg, r, e = g[0], list(f), len(f) - len(g) + 1
        while r and len(r) >= len(g):
            lf = r[0]
            r = [lg * c for c in r]
            for j, gc in enumerate(g):
                r[j] -= lf * gc
            k = 0
            while k < len(r) and r[k] == 0:
                k += 1
            r = r[k:]
            e -= 1
        return [c * lg**e for c in r] if e > 0 else r

    f, g = (primitive(list(reversed(p.coeffs))) for p in (a, b))
    if len(f) < len(g):
        f, g = g, f
    gpart, h = 1, 1
    while True:
        d = len(f) - len(g)
        r = prem(f, g)
        if not r:
            out = primitive(g)
            return Poly(reversed(out if out[0] > 0 else [-c for c in out]))
        if len(r) == 1:
            return Poly((1,))
        divisor = gpart * h**d
        f, g = g, [c // divisor for c in r]
        gpart = f[0]
        if d > 0:
            h = gpart**d // h ** (d - 1) if d > 1 else gpart


def representative_prefix(rep):
    """The test `RepTable.iter_ball` prunes by, as a predicate on words."""
    from valrep.words import is_representative_prefix

    index = rep.letter_index
    return lambda word: is_representative_prefix(tuple(index[l] for l in word.letters))


def _oracle_ball(rep, radius, identity, letters, product, guard=None, pruned=False):
    """(word, image) over the freely reduced ball, products shared level by level.

    Each extension is built as a freely reduced Word.  Length-lex order
    over the free generators (g before g^-1, generators in their listed
    order); `letters` maps (name, +-1) to its image and `guard(word,
    image)` sees every product.  With `pruned`, the full ball is still
    built, but only its words that pass `representative_prefix` are
    guarded and yielded: the filtered ball that `RepTable.iter_ball`
    must match.
    """
    from valrep.words import Word

    keep = representative_prefix(rep) if pruned else (lambda word: True)
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
                if guard is not None and keep(extended):
                    guard(extended, nxt[extended])
        for word in sorted(nxt, key=lambda w: [rank[l] for l in w.letters]):
            if keep(word):
                yield word, nxt[word]
        level = nxt


def ratfunc_ball(rep, radius, degree_bound=None, pruned=False):
    """(word, matrix) over the freely reduced ball by canonical Q(X) products.

    The degree guard reads the reduced entries; `pruned` filters the ball
    as `_oracle_ball` does.
    """
    from valrep.fields import ONE
    from valrep.linalg import Matrix
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

    identity = Matrix.identity(rep.size, ONE)
    return _oracle_ball(rep, radius, identity, letters, lambda a, b: a @ b, guard, pruned)


def poly_matrix_product(a, b):
    """Schoolbook product of two square matrices (row lists) of integer Polys."""
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Poly()) for j in range(n)]
        for i in range(n)
    ]


def poly_matrix_ball(rep, radius, pruned=False):
    """(word, (N rows, D)) over the freely reduced ball by Poly-matrix products.

    Starts from the cleared generator images N/D and multiplies N's
    entrywise with `poly_matrix_product` and D's as Polys; `pruned`
    filters the ball as `_oracle_ball` does.
    """
    letters = {letter: (image.num.entries, image.den) for letter, image in rep.letters.items()}
    n = rep.size
    identity = ([[Poly((int(i == j),)) for j in range(n)] for i in range(n)], Poly((1,)))

    def product(x, y):
        return poly_matrix_product(x[0], y[0]), x[1] * y[1]

    return _oracle_ball(rep, radius, identity, letters, product, pruned=pruned)


def ratfunc_translation_length(matrix, valuation):
    """Siegel-sum translation length from the Q(X) char poly (Faddeev-LeVerrier)."""
    from valrep.valuation import newton_polygon

    values = newton_polygon(faddeev_leverrier(matrix), valuation).expanded()
    slopes = sorted((-v for v in values), reverse=True)
    return sum(slopes[: matrix.rows // 2], Fraction(0))


def ratfunc_spread_length(matrix, valuation):
    """Spread translation length from the Q(X) char poly (Faddeev-LeVerrier).

    The linear Jordan vector is every -nu(eigenvalue), nonincreasing,
    with no symplectic check; the spread is its first entry minus its
    last.
    """
    from valrep.valuation import newton_polygon

    values = newton_polygon(faddeev_leverrier(matrix), valuation).expanded()
    slopes = sorted((-v for v in values), reverse=True)
    return slopes[0] - slopes[-1]


@lru_cache(maxsize=4)
def _qx_cartan_char_poly(g1, g2):
    h = g1.inverse() @ g2
    return (h.transpose() @ h).char_poly()


def qx_pseudodistance(g1, g2, valuation, norm):
    """building_pseudodistance by its definition over Q(X).

    h = g1^-1 g2 by elimination and m = t(h) h by canonical Q(X) products;
    the root valuations come from the Berkowitz char poly of m over Q(X),
    kept for the last few (g1, g2) so that each valuation and norm reuses it.
    """
    from valrep.spectra import NORM_SUM
    from valrep.valuation import newton_polygon

    values = newton_polygon(_qx_cartan_char_poly(g1, g2), valuation).expanded()
    if norm == NORM_SUM:
        return sum((max(-v / 2, Fraction(0)) for v in values), Fraction(0))
    return Fraction(max(values) - min(values), 2)


def transposing_pairing_matrix(a, b):
    """Omega(a, b) from the columns of both 2n x n bases, each transposed back to vectors."""
    from valrep.linalg import Matrix
    from valrep.symplectic import symplectic_pairing

    b_cols = b.basis.transpose().entries
    return Matrix([symplectic_pairing(u, v) for v in b_cols] for u in a.basis.transpose().entries)


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
    from valrep.linalg import Matrix

    _, pivots = basis.transpose().rref()
    square = Matrix(basis.entries[i] for i in pivots)
    rhs = Matrix(vectors.entries[i] for i in pivots)
    return square.inverse() @ rhs


def cyclic_core(word):
    """The cyclic reduction of word: matching first and last letters peeled off."""
    from valrep.words import Word

    letters = word.letters
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return Word(letters)


def word_rotations(word):
    """Every rotation of word, each built as a freely reduced Word; the identity has one."""
    from valrep.words import Word

    n = len(word.letters)
    return [Word(word.letters[i:] + word.letters[:i]) for i in range(max(n, 1))]


def rotation_conjugacy_key(word, generators):
    """conjugacy_key by definition: least index tuple over the rotation Words.

    Cyclic reduction, then every rotation of the core and of its inverse,
    each built as a freely reduced Word.
    """
    from valrep.words import letter_alphabet

    core = cyclic_core(word)
    index = {letter: i for i, letter in enumerate(letter_alphabet(generators))}
    candidates = [
        tuple(index[l] for l in w.letters)
        for w in word_rotations(core) + word_rotations(core.inverse())
    ]
    return min(candidates) if candidates else ()


def rotation_is_class_representative(word, generators, key=None):
    """is_class_representative by definition: cyclically reduced and equal to its key.

    `key`, when given, is the word's rotation_conjugacy_key, already computed.
    """
    from valrep.words import letter_alphabet

    if cyclic_core(word) != word:
        return False
    if key is None:
        key = rotation_conjugacy_key(word, generators)
    index = {letter: i for i, letter in enumerate(letter_alphabet(generators))}
    return tuple(index[l] for l in word.letters) == key


def rotation_is_power_of_class(word, base, generators):
    """is_power_of_class by definition, on rotation Words.

    Is the cyclic core of word the k-th power of some rotation of the
    base's core, or of such a rotation's inverse?  An empty base matches
    only a word whose core is empty, and a base naming a letter outside
    `generators` matches nothing.
    """
    if any(name not in generators for name, _ in base.letters):
        return False
    core, base_core = cyclic_core(word), cyclic_core(base)
    if not base_core.letters:
        return not core.letters
    if not core.letters or len(core) % len(base_core):
        return False
    k = len(core) // len(base_core)
    return any(core == rot**k or core == rot.inverse() ** k for rot in word_rotations(base_core))


def gaussian_det(m):
    """det by Gaussian elimination over a field, with row swaps."""
    rows = [list(row) for row in m.entries]
    n = m.rows
    det = m.one()
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return m.zero_entry()
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = m.one() / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def four_way_sign(order, f):
    """OrderSpec.sign as four cases, one per order: a_+, a_-, +inf and -inf.

    a_+: f = (X-a)^k g with g(a) != 0 has the sign of g(a); a_-: times
    (-1)^k.  +inf: the sign of the leading coefficients' ratio; -inf:
    times (-1)^(deg num - deg den).
    """
    kind = {(True, 1): "a_plus", (True, -1): "a_minus", (False, 1): "plus_inf",
            (False, -1): "minus_inf"}[order.a is not None, order.side]
    f = RatFunc.coerce(f)
    if f.is_zero():
        return 0

    def sign(c):
        return (c > 0) - (c < 0)

    if kind in ("a_plus", "a_minus"):
        k_num, g_num = f.num.deflate_at(order.a)
        k_den, g_den = f.den.deflate_at(order.a)
        s = sign(g_num) * sign(g_den)
        if kind == "a_minus" and (k_num - k_den) % 2:
            s = -s
        return s
    s = sign(f.num.leading()) * sign(f.den.leading())
    if kind == "minus_inf" and (f.num.degree - f.den.degree) % 2:
        s = -s
    return s


def gram_signature(sym, order=None):
    """(positives, negatives, zeros) by congruence, updating whole rows and columns.

    Each pivot step subtracts a multiple of the pivot row from every later
    row and then the same multiple of the pivot column from every column
    of every row.  When the whole remaining diagonal vanishes, a row and
    column addition turns a nonzero off-diagonal entry into a nonzero
    diagonal one (char 0).
    """
    from valrep.fields import element_sign

    if sym != sym.transpose():
        raise ValueError("signature needs a symmetric matrix")
    m = [list(row) for row in sym.entries]
    size = sym.rows
    pos = neg = zero = 0
    i = 0

    def sym_swap(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    def sym_add(dst, src):
        m[dst] = [x + y for x, y in zip(m[dst], m[src])]
        for row in m:
            row[dst] = row[dst] + row[src]

    while i < size:
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, size) if m[k][k] != 0), None)
            if j is not None:
                sym_swap(i, j)
            else:
                pair = next(
                    ((a, b) for a in range(i, size) for b in range(a + 1, size) if m[a][b] != 0),
                    None,
                )
                if pair is None:
                    zero += size - i
                    break
                a, b = pair
                sym_add(a, b)
                if a != i:
                    sym_swap(i, a)
        pivot = m[i][i]
        for k in range(i + 1, size):
            if m[k][i] != 0:
                f = m[k][i] / pivot
                m[k] = [x - f * y for x, y in zip(m[k], m[i])]
                for row in m:
                    row[k] = row[k] - f * row[i]
        if element_sign(pivot, order) > 0:
            pos += 1
        else:
            neg += 1
        i += 1
    return pos, neg, zero


def gram_maslov(l1, l2, l3, order=None):
    """(index, radical dimension) from the 3n x 3n Gram matrix of the Maslov form."""
    from valrep.symplectic import maslov_gram

    pos, neg, zero = gram_signature(maslov_gram(l1, l2, l3), order)
    return pos - neg, zero


class QuotientCrossratio:
    """The framing crossratio -nu(CR(phi(q2), phi(q1), phi(q3), phi(q4)))/2 as defined.

    CR is the Q(X) quotient `symplectic.crossratio`; transversality is
    tested by rank.  A quadruple is defined when it is positively oriented
    and all four pairs entering CR are transverse (a transverse numerator
    pair keeps CR != 0, so its valuation is finite).
    """

    def __init__(self, framing, valuation):
        self.framing = framing
        self.valuation = valuation

    def defined(self, quad):
        if not self.framing.is_positively_oriented(quad):
            return False
        q1, q2, q3, q4 = (self.framing.image(q) for q in quad)
        pairs = ((q2, q1), (q3, q4), (q1, q3), (q4, q2))
        return all(rank_transverse(a, b) for a, b in pairs)

    def evaluate(self, quad):
        return self.value(quad) if self.defined(quad) else None

    def value(self, quad):
        from valrep.currents import OrientationError
        from valrep.symplectic import TransversalityError, crossratio

        if not self.framing.is_positively_oriented(quad):
            raise OrientationError(f"quadruple {quad} is not positively oriented")
        q1, q2, q3, q4 = (self.framing.image(q) for q in quad)
        cr = crossratio(q2, q1, q3, q4)
        if cr == 0:
            raise TransversalityError("a numerator pair is not transverse")
        return Fraction(-self.valuation.of(cr), 2)


def defined_value_axiom_check(cr, quintuples):
    """crossratio_axiom_check through `cr.evaluate` and `cr.value`, quadruple by quadruple.

    No determinant table is shared, and each value is read again through `cr.value`.
    """
    from valrep.currents import AxiomReport

    sym = add = 0
    for quint in quintuples:
        x1, x2, x3, x4, x5 = quint
        quads = [(x1, x2, x4, x5), (x1, x2, x3, x5), (x1, x3, x4, x5)]
        values = []
        for quad in quads:
            if cr.evaluate(quad) is None:
                values = None
                break
            value = cr.value(quad)
            flipped = (quad[2], quad[3], quad[0], quad[1])
            if cr.evaluate(flipped) is not None:
                sym += 1
                if cr.value(flipped) != value:
                    return AxiomReport(False, sym, add, f"symmetry fails on {quad}")
            values.append(value)
        if values is None:
            continue
        add += 1
        if values[0] != values[1] + values[2]:
            return AxiomReport(
                False, sym, add, f"additivity fails on {tuple(quint)}: {values}"
            )
    return AxiomReport(True, sym, add)


def unipotent(upper: bool, s):
    """[[I, S], [0, I]] or [[I, 0], [S, I]]; symplectic for a symmetric 2x2 S."""
    from valrep.linalg import Matrix

    one, zero = RatFunc.coerce(1), RatFunc.coerce(0)
    eye = [[one, zero], [zero, one]]
    nil = [[zero, zero], [zero, zero]]
    if upper:
        return Matrix([eye[i] + s[i] for i in range(2)] + [nil[i] + eye[i] for i in range(2)])
    return Matrix([eye[i] + nil[i] for i in range(2)] + [s[i] + eye[i] for i in range(2)])


def generic_rep():
    """Two unipotent generators whose entries have denominators X^2+1 and X-1."""
    from valrep.fields import X, OrderSpec
    from valrep.representation import GroupPresentation, RepTable
    from valrep.valuation import Valuation

    one = RatFunc.coerce(1)
    q = X**2 + 1
    s_a = [[(X + 2) / q, one / (X - 1)], [one / (X - 1), X / q]]
    s_b = [[(2 * X - 1) / (X - 1), one * 3], [one * 3, one / q]]
    return RepTable(
        GroupPresentation(("a", "b"), ()),
        {"a": unipotent(True, s_a), "b": unipotent(False, s_b)},
        OrderSpec.at_plus(1),
        Valuation.adic(1),
    )


def ball_multicurve_certificate(rep, max_len, k_max=16):
    """multicurve_certificate_ball from the image of every word of the full ball.

    Each class's period is read from the first word of the class that
    `frac_ball` meets, and reused for its later members.
    """
    from valrep.currents import certify_period_values
    from valrep.spectra import NORM_SUM, translation_length
    from valrep.words import conjugacy_key

    class_periods = {}
    periods = []
    for word, image in frac_ball(rep, max_len):
        key = conjugacy_key(word, rep.letter_index)
        if key not in class_periods:
            class_periods[key] = translation_length(image, rep.valuation, NORM_SUM)
        periods.append((word, class_periods[key]))
    return certify_period_values(periods, k_max)


def with_degree_bound(rep, bound):
    """rep's free generators and their images, as a free-group RepTable guarded at bound.

    The relators are dropped, so that a tiny bound fires in a sweep rather
    than in the relator check of the constructor.
    """
    from valrep.representation import GroupPresentation, RepTable

    gens = rep.free_generators
    return RepTable(
        GroupPresentation(gens, ()),
        {g: rep.images[g] for g in gens},
        rep.order,
        rep.valuation,
        degree_bound=bound,
    )


def frac_ball(rep, radius, degree_bound=None, pruned=False):
    """(word, FracMatrix) over the freely reduced ball, by `_oracle_ball`.

    The degree guard raises DegreeGuardExceeded at the first guarded
    product whose reduced entries outgrow the bound, as
    `RepTable.iter_ball` does; `pruned` filters the ball as
    `_oracle_ball` does.
    """
    from valrep.linalg import FracMatrix
    from valrep.representation import DegreeGuardExceeded

    def guard(word, image):
        deg = None if degree_bound is None else image.degree_over(degree_bound)
        if deg is not None:
            raise DegreeGuardExceeded(word, deg, degree_bound)

    identity = FracMatrix.identity(rep.size)
    return _oracle_ball(rep, radius, identity, rep.letters, lambda a, b: a @ b, guard, pruned)


def qx_from_matrix(m):
    """FracMatrix.from_matrix by Q[X] arithmetic, one entry at a time.

    D is the monic lcm of the entry denominators, grown by a monic Euclid
    gcd and a Q[X] division per non-constant denominator; each numerator
    is num * (D / den), and one integer scale clears every coefficient.
    """
    from math import lcm

    from valrep.linalg import FracMatrix

    entries = [[RatFunc.coerce(e) for e in row] for row in m.entries]
    den = Poly((Fraction(1),))
    for row in entries:
        for f in row:
            if f.den.degree > 0:
                den = q_monic(den * q_exact_div(f.den, monic_euclid_gcd(den, f.den)))
    nums = [[f.num * q_exact_div(den, f.den) for f in row] for row in entries]
    scale = 1
    for p in [den] + [p for row in nums for p in row]:
        for c in p.coeffs:
            scale = lcm(scale, c.denominator)

    def integral(p):
        return Poly((c * scale).numerator for c in p.coeffs)

    return FracMatrix.from_polys([[integral(p) for p in row] for row in nums], integral(den))


def two_pass_deflate(p, a):
    """Poly.deflate_at by an evaluate pass, then a synthetic-division pass, per factor.

    Returns (k, g(a)) for p = (X - a)^k g, evaluating the deflated g again.
    """
    if a == 0:
        k = next(i for i, c in enumerate(p.coeffs) if c != 0)
        return k, Poly(p.coeffs[k:]).evaluate(a)
    k = 0
    while p.evaluate(a) == 0:
        out, acc = [], p.coeffs[-1] * 0
        for c in reversed(p.coeffs):
            acc = acc * a + c
            out.append(acc)
        out.pop()  # the remainder, already known to vanish
        p = Poly(reversed(out))
        k += 1
    return k, p.evaluate(a)


def standard_gram(n, one=Fraction(1)):
    """J = [[0, I], [-I, 0]], the Gram matrix of the standard form on K^(2n)."""
    from valrep.linalg import Matrix

    zero = one * 0
    size = 2 * n
    return Matrix(
        [one if j == i + n else -one if i == j + n else zero for j in range(size)]
        for i in range(size)
    )


def gram_is_symplectic(g):
    """is_symplectic by definition: t(g) J g == J, with products over the entry field."""
    if not g.is_square or g.rows % 2:
        raise ValueError("symplectic matrices have even size")
    j = standard_gram(g.rows // 2, g.one())
    return g.transpose() @ j @ g == j


def gram_symplectic_inverse(g):
    """symplectic_inverse by definition: (-J) t(g) J, by two matrix products."""
    j = standard_gram(g.rows // 2, g.one())
    return (-j) @ g.transpose() @ j


def qx_linear_eigenvalues(p):
    """Q(X) roots of p in Q(X)[T]: clear its denominators by their lcm, factor over Q.

    Returns (roots, nonsplit_degree) with roots sorted by (str, multiplicity).
    """
    import sympy

    t_sym, x_sym = sympy.symbols("T X")
    coeffs = [RatFunc.coerce(c) for c in p.coeffs]
    den = Poly((Fraction(1),))
    for c in coeffs:
        den = den * q_exact_div(c.den, monic_euclid_gcd(den, c.den))
    expr = sympy.Integer(0)
    for i, c in enumerate(coeffs):
        for j, q in enumerate((c.num * q_exact_div(den, c.den)).coeffs):
            if q:
                expr += sympy.Rational(q.numerator, q.denominator) * x_sym**j * t_sym**i
    _, factors = sympy.factor_list(sympy.Poly(expr, t_sym, x_sym))
    roots, nonsplit = [], 0
    for factor, mult in factors:
        fpoly = sympy.Poly(factor, t_sym)
        if fpoly.degree() > 1:
            nonsplit += fpoly.degree() * mult
        elif fpoly.degree() == 1:
            a1, a0 = (sympy.Poly(sympy.expand(c), x_sym) for c in fpoly.all_coeffs())

            def ratfunc(q):
                return RatFunc(Poly(Fraction(c.p, c.q) for c in reversed(q.all_coeffs())))

            roots.append((-ratfunc(a0) / ratfunc(a1), mult))
    roots.sort(key=lambda rm: (str(rm[0]), rm[1]))
    return roots, nonsplit


def sympy_linear_eigenvalues(p):
    """linear_eigenvalues by sympy's factorization of p in Z[X, T].

    The factors a1 T + a0 that are linear in T give the roots -a0/a1;
    factors of higher T-degree count towards the non-split degree.
    """
    import sympy

    t_sym, x_sym = sympy.symbols("T X")
    if p.is_zero():
        raise ValueError("zero polynomial")
    terms = {
        (i, j): c for i, cx in enumerate(p.coeffs) for j, c in enumerate(cx.coeffs) if c
    }
    _, factors = sympy.factor_list(sympy.Poly.from_dict(terms, t_sym, x_sym))
    roots, nonsplit = [], 0
    for factor, mult in factors:
        fpoly = sympy.Poly(factor, t_sym)
        if fpoly.degree() > 1:
            nonsplit += fpoly.degree() * mult
        elif fpoly.degree() == 1:
            a1, a0 = (
                Poly(int(c) for c in reversed(sympy.Poly(sympy.expand(e), x_sym).all_coeffs()))
                for e in fpoly.all_coeffs()
            )
            roots.append((RatFunc(-a0, a1), mult))
    roots.sort(key=lambda rm: (str(rm[0]), rm[1]))
    return roots, nonsplit


def qx_attracting_lagrangian(g, val):
    """attracting_lagrangian from the Berkowitz char poly of g over Q(X).

    The polygon and the Q(X) roots are read from the same Q(X)[T]
    polynomial; errors are raised with the messages of the packed route.
    """
    from valrep.framing import SlopeTieError
    from valrep.linalg import Matrix
    from valrep.roots import NonSplitError
    from valrep.symplectic import Lagrangian
    from valrep.valuation import newton_polygon

    if g.rows % 2:
        raise ValueError("attracting Lagrangians need a 2n x 2n matrix")
    n = g.rows // 2
    p = g.char_poly()
    roots, _ = qx_linear_eigenvalues(p)
    all_vals = newton_polygon(p, val).expanded()
    if len(all_vals) != 2 * n:
        raise ValueError("matrix is singular")
    gap_low, gap_high = all_vals[n - 1], all_vals[n]
    if gap_low == gap_high:
        raise SlopeTieError(
            f"no strict valuation gap: values {gap_low} and {gap_high} tie at position n"
        )
    dominant = [(root, mult) for root, mult in roots if val.of(root) <= gap_low]
    covered = sum(m for _, m in dominant)
    if covered != n:
        raise NonSplitError(f"dominant block covers {covered} of {n} eigenvalues in Q(X)")
    columns = []
    eye = Matrix.identity(g.rows, g.one())
    for root, mult in dominant:
        kernel = (g - eye.scale(root)).kernel_basis()
        if len(kernel) != mult:
            raise NonSplitError(
                f"eigenvalue {root} has geometric multiplicity {len(kernel)} < {mult}"
            )
        columns.extend(kernel)
    return Lagrangian.span(Matrix(columns).transpose())
