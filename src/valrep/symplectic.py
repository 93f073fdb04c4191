"""Symplectic linear algebra over an exact ordered field.

K^{2n} carries the standard symplectic form <(x1,y1),(x2,y2)> = x1.y2 -
x2.y1, i.e. the Gram matrix J = [[0, I], [-I, 0]].  Lagrangians are
n-dimensional isotropic subspaces, stored as the reduced row echelon form
of a spanning set, so that equality is structural.

For g = [[A, B], [C, E]] in n x n blocks, J^-1 t(g) J is the signed
rearrangement [[tE, -tB], [-tC, tA]] (`linalg.symplectic_rearrangement`);
g is symplectic exactly when that is its inverse.  `is_symplectic` tests
this on g cleared to N/D over Z[X], by one packed product equal to D^2 I
(`FracMatrix.symplectic_inverse`), and `symplectic_inverse` only
rearranges; neither multiplies by J.

Write Omega(a, b) for the n x n matrix of pairings <a_i, b_j> between the
basis vectors (echelon rows) of two Lagrangians.  l1 is transverse to l2
exactly when det Omega(l1, l2) != 0: a vector of l1 pairing to zero with
all of l2 lies in l2, since l2 is Lagrangian.

The Maslov index of a triple of Lagrangians is the signature of the
quadratic form (x1,x2,x3) -> <x1,x2> + <x2,x3> + <x3,x1>.  When l1 is
transverse to l3 it is the signature of the n x n symmetric form

    Q = Omega(l2, l3) . Omega(l1, l3)^-1 . Omega(l1, l2)

(derivation at `maslov`); otherwise a cyclic rotation of the triple with a
transverse first and last member is used, and only a triple with no
transverse pair takes the signature of the 3n x 3n Gram matrix
`maslov_gram`.  A signature is read off the division-free Berkowitz char
poly by Descartes' rule of signs (`signature`), so the n x n inverse is
the only division on this path.  Sign decisions over Q(X) are delegated
to an OrderSpec; without one, every char-poly coefficient must be a
rational constant, and the answer then holds in every order.  The
orientation convention is fixed so that the n = 1 triple span(1,0),
span(1,1), span(0,1) has index +1.

The crossratio of a quadruple (l1 transverse l2, l3 transverse l4) is
defined as det(p_{l1}^{par l2} . p_{l3}^{par l4} restricted to l1), with
p_{l1}^{par l2} = `projection_matrix(l1, l2)`; the determinant does not
depend on the basis chosen for l1.  It is computed by the identity

    CR(l1, l2, l3, l4) = det Omega(l2, l3) . det Omega(l4, l1)
                         / (det Omega(l2, l1) . det Omega(l4, l3)),

which needs only four n x n determinants.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import ONE, OrderSpec, RatFunc, element_sign
from .linalg import FracMatrix, Matrix, SingularMatrixError, symplectic_rearrangement


class IsotropyError(ValueError):
    pass


class TransversalityError(ValueError):
    pass


def symplectic_pairing(u, v):
    """<u, v> for coordinate vectors of length 2n."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError("vectors must share an even length")
    n = len(u) // 2
    acc = u[0] * v[n] - u[n] * v[0]
    for i in range(1, n):
        acc = acc + u[i] * v[n + i] - u[n + i] * v[i]
    return acc


def is_symplectic(g: Matrix) -> bool:
    """Exact test of t(g) J g = J, by the packed test of `FracMatrix.symplectic_inverse`."""
    if not g.is_square or g.rows % 2:
        raise ValueError("symplectic matrices have even size")
    return FracMatrix.from_matrix(g).symplectic_inverse() is not None


def symplectic_inverse(g: Matrix) -> Matrix:
    """g^{-1} = J^{-1} t(g) J for symplectic g, a signed rearrangement of its entries."""
    return Matrix(symplectic_rearrangement(g.entries))


class Lagrangian:
    """An n-dimensional isotropic subspace of K^{2n} in canonical form.

    `rows` is the n x 2n reduced row echelon form of a spanning set, which
    makes the representative unique per subspace; `basis` is its 2n x n
    transpose, whose columns span the subspace.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows: Matrix, _canonical: bool = False):
        if not _canonical:
            raise TypeError("use Lagrangian.span() to construct")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", rows.rows)

    def __setattr__(self, name, value):
        raise AttributeError("Lagrangian is immutable")

    @property
    def basis(self) -> Matrix:
        return self.rows.transpose()

    @classmethod
    def span(cls, vectors: Matrix) -> "Lagrangian":
        """Canonicalize the column span; validates rank and isotropy."""
        if vectors.rows % 2 or vectors.cols != vectors.rows // 2:
            raise ValueError(f"expected a 2n x n matrix, got {vectors.rows}x{vectors.cols}")
        n = vectors.cols
        reduced, pivots = vectors.transpose().rref()
        if len(pivots) != n:
            raise ValueError("vectors do not span an n-dimensional subspace")
        rows = reduced.entries
        for i in range(n):
            for j in range(i + 1, n):
                if symplectic_pairing(rows[i], rows[j]) != 0:
                    raise IsotropyError("subspace is not isotropic")
        return cls(reduced, _canonical=True)

    # [I | 0], [0 | I], [I | S] and [1 | s] are already in reduced row echelon form

    @classmethod
    def horizontal(cls, n: int, one=Fraction(1)) -> "Lagrangian":
        return cls(_over_q(Matrix(Matrix.identity(2 * n, one).entries[:n])), _canonical=True)

    @classmethod
    def vertical(cls, n: int, one=Fraction(1)) -> "Lagrangian":
        return cls(_over_q(Matrix(Matrix.identity(2 * n, one).entries[n:])), _canonical=True)

    @classmethod
    def graph(cls, s: Matrix) -> "Lagrangian":
        """The graph {(v, Sv)} of a symmetric n x n matrix S; symmetry makes it isotropic."""
        if s != s.transpose():
            raise IsotropyError("graph Lagrangians need a symmetric matrix")
        eye = Matrix.identity(s.rows, s.one())
        return cls(_over_q(eye.hstack(s)), _canonical=True)

    @classmethod
    def line(cls, slope) -> "Lagrangian":
        """n = 1 convenience: span(1, slope); None means the vertical line."""
        if slope is None:
            return cls.vertical(1)
        if isinstance(slope, RatFunc):
            return cls(Matrix([[ONE, slope]]), _canonical=True)
        return cls(Matrix([[Fraction(1), Fraction(slope)]]), _canonical=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, Lagrangian) and self.rows == other.rows

    def __hash__(self):
        return hash(("Lagrangian", self.rows))

    def __repr__(self):
        return f"Lagrangian({self.basis!r})"

    def apply(self, g: Matrix) -> "Lagrangian":
        """The image subspace g . self, canonicalized."""
        return Lagrangian.span(g @ self.basis)

    def transverse(self, other: "Lagrangian") -> bool:
        return pairing_matrix(self, other).det() != 0


def _over_q(rows: Matrix) -> Matrix:
    """rows with integer entries read as rationals, as `Matrix.rref` reads them in `span`."""
    if any(type(e) is int for row in rows.entries for e in row):
        return rows.scale(Fraction(1))
    return rows


def pairing_matrix(a: Lagrangian, b: Lagrangian) -> Matrix:
    """Omega(a, b): the n x n matrix of pairings <a_i, b_j> of basis vectors (rows)."""
    if a.n != b.n:
        raise ValueError("Lagrangians live in different dimensions")
    return Matrix([symplectic_pairing(u, v) for v in b.rows.entries] for u in a.rows.entries)


def signature(sym: Matrix, order: OrderSpec | None = None) -> tuple[int, int, int]:
    """(positives, negatives, zeros) of a symmetric matrix, by Descartes' rule of signs.

    The counts are read off p = `sym.char_poly()` (Berkowitz, no division):
    zeros is the power of T dividing p, positives the number of sign
    changes among the nonzero coefficients of p, and negatives the same
    count for p(-T).  This is exact.  A symmetric matrix over an ordered
    field K is orthogonally diagonalizable over the real closure R of
    (K, order), so p has all its roots in R, and for a polynomial with only
    real roots Descartes' rule counts the positive and negative roots
    with multiplicity.  The diagonalization is a congruence, so by
    Sylvester's law of inertia these counts are the signature over R, and
    hence over K.

    Each coefficient is signed once by `element_sign`.  Without an order
    only rational constants can be signed, so a non-constant Q(X)
    coefficient raises ValueError; an answer given then holds in every
    order of Q(X).
    """
    if sym != sym.transpose():
        raise ValueError("signature needs a symmetric matrix")
    signs = [element_sign(c, order) for c in sym.char_poly().coeffs]
    alternated = [-s if i % 2 else s for i, s in enumerate(signs)]
    zeros = next(i for i, s in enumerate(signs) if s)
    return _sign_changes(signs), _sign_changes(alternated), zeros


def _sign_changes(signs: list[int]) -> int:
    """Sign changes along a sequence of -1, 0, +1, ignoring the zeros."""
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def maslov_gram(l1: Lagrangian, l2: Lagrangian, l3: Lagrangian) -> Matrix:
    """Gram matrix (up to a harmless global factor 2) of the Maslov form."""
    n = l1.n
    zero = l1.rows.zero_entry()
    m12 = pairing_matrix(l1, l2).entries
    m23 = pairing_matrix(l2, l3).entries
    m13 = pairing_matrix(l1, l3).entries
    rows = []
    for i in range(n):
        rows.append([zero] * n + list(m12[i]) + [-c for c in m13[i]])
    for j in range(n):
        rows.append([m12[i][j] for i in range(n)] + [zero] * n + list(m23[j]))
    for k in range(n):
        rows.append(
            [-m13[i][k] for i in range(n)]
            + [m23[j][k] for j in range(n)]
            + [zero] * n
        )
    return Matrix(rows)


def maslov(
    l1: Lagrangian, l2: Lagrangian, l3: Lagrangian, order: OrderSpec | None = None
) -> int:
    """Signature of the Maslov quadratic form on l1 x l2 x l3; in [-n, n].

    With A = Omega(l1, l2), B = Omega(l2, l3) and C = Omega(l1, l3), the
    form's Gram matrix (`maslov_gram`) is

        G = [[0, A, -C], [A^T, 0, B], [-C^T, B^T, 0]].

    When l1 is transverse to l3, C is invertible, and so is the block
    M = [[0, -C], [-C^T, 0]] of G on l1 x l3, with inverse
    [[0, -C^-T], [-C^-1, 0]].  M has signature 0: with P = diag(I, -C^-1),
    P^T M P = [[0, I], [I, 0]].  Completing the square against M leaves
    the Schur complement on l2,

        0 - [A^T, B] M^-1 [A; B^T] = B C^-1 A + (B C^-1 A)^T = 2Q,

    with Q = B C^-1 A.  Q is symmetric: write each basis vector y_j of l2
    as u_j + w_j with u_j in l1 and w_j in l3; then Q_jl = <u_j, w_l>, and
    0 = <y_j, y_l> = <u_j, w_l> - <u_l, w_j>, since l2 is isotropic and
    <u_j, u_l> = <w_j, w_l> = 0.  So G is congruent to diag(M, 2Q), and by
    Sylvester's law of inertia the index is sgn Q, with the radical of Q.

    The form is unchanged by a cyclic rotation of the triple, so when l1
    is not transverse to l3 a rotation whose first and last members are
    transverse gives the same index (and radical).  Only when no pair is
    transverse is the signature of the 3n x 3n Gram matrix taken.
    """
    return maslov_with_radical(l1, l2, l3, order)[0]


def maslov_with_radical(
    l1: Lagrangian, l2: Lagrangian, l3: Lagrangian, order: OrderSpec | None = None
) -> tuple[int, int]:
    """(signature, radical dimension) of the Maslov form; see `maslov`."""
    for a, b, c in ((l1, l2, l3), (l2, l3, l1), (l3, l1, l2)):
        try:
            inv = pairing_matrix(a, c).inverse()
        except SingularMatrixError:
            continue
        form = pairing_matrix(b, c) @ inv @ pairing_matrix(a, b)
        break
    else:
        form = maslov_gram(l1, l2, l3)
    pos, neg, zeros = signature(form, order)
    return pos - neg, zeros


def projection_matrix(onto: Lagrangian, parallel: Lagrangian) -> Matrix:
    """The 2n x 2n projection onto `onto` parallel to `parallel`."""
    if not onto.transverse(parallel):
        raise TransversalityError("projection needs transverse Lagrangians")
    n = onto.n
    combined = onto.basis.hstack(parallel.basis)
    inv = combined.inverse()
    one = combined.one()
    zero = combined.zero_entry()
    selector = Matrix(
        [[one if i == j and i < n else zero for j in range(2 * n)] for i in range(2 * n)]
    )
    return combined @ selector @ inv


def crossratio(l1: Lagrangian, l2: Lagrangian, l3: Lagrangian, l4: Lagrangian):
    """det of p_{l1}^{par l2} . p_{l3}^{par l4} restricted to l1.

    Needs l1 transverse l2 and l3 transverse l4.  Computed from four
    pairing determinants (see the module docstring); the two in the
    denominator vanish exactly when a transversality fails.
    """
    d21 = pairing_matrix(l2, l1).det()
    d43 = pairing_matrix(l4, l3).det()
    if d21 == 0 or d43 == 0:
        raise TransversalityError("projection needs transverse Lagrangians")
    return pairing_matrix(l2, l3).det() * pairing_matrix(l4, l1).det() / (d21 * d43)
