"""Exact dense matrices over Q, Q(X) and Z[X], and fraction-free Q(X) matrices.

Entries are duck-typed ring elements; products and characteristic
polynomials and determinants need only +, -, * and comparison with 0,
and elimination (rref, inverse) also needs /.  Elimination is ordinary
division-based Gaussian elimination over a field; integer entries are
eliminated over Q.  Characteristic polynomials come from Berkowitz's
division-free recursion, one algorithm for every entry ring here (it
sums with the builtin `sum`, as each ring accepts the int 0); a
determinant is the char poly's constant term up to sign, and
`symplectic.signature` reads a signature off the char poly's
coefficient signs.

A `FracMatrix` holds a matrix over Q(X) as N/D: N with integer-polynomial
entries, D one integer polynomial.  A Q(X) matrix is cleared in Z[X]:
D is the Z[X] lcm of its distinct entry denominators (each entry is
already a Z[X] pair), with one cofactor per distinct denominator.
Multiplying two of them multiplies the N and the D and needs no gcd,
which is what word sweeps do most.  Each entry of N is Kronecker-packed
(Harvey 2009) into one Python int, its value at X = 2^b, so a product
of N's is n^3 big-int products and sums with no Poly built.  The digits
are balanced (every |coefficient| below 2^(b-1)), which makes an
entry's degree exact from its bit length alone: a leading digit at
position k puts |N_ij(2^b)| strictly between 2^(kb-1) and
2^((k+1)b-1), so deg N_ij = bit_length // b.

char_poly(N) runs the same Berkowitz recursion on the packed ints,
repacked at a width b' wide enough for every coefficient: the T^(n-k)
coefficient is +-e_k(N), bounded by B = max_k C(n,k) k! L^(k-1) M^k
(L a bound on the coefficient count, M on |coefficient|), and b' is the
least doubling of b with 2B < 2^b'.  Evaluation at 2^b' is a ring map,
so no intermediate value needs a bound.  A product's bounds come from
its factors' bounds and so compound along a chain of products: a char
poly always reads M and L from the unpacked entries, and a product
reads them again before it widens, so the width follows those.  A
symplectic N/D is inverted with no arithmetic: J^-1 t(N) J / D is a
signed rearrangement of the packed entries (`symplectic_rearrangement`,
which works on any grid of entries), confirmed by one packed product
equal to D^2 I.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from operator import mul
from typing import Callable, Iterable, Sequence

from .fields import RatFunc
from .poly import Poly, exact_quotient, gcd, pack, unpack


class SingularMatrixError(ZeroDivisionError):
    pass


class Matrix:
    """Immutable row-major matrix with exact ring entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int, one=Fraction(1)) -> "Matrix":
        zero = one * 0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int, zero=Fraction(0)) -> "Matrix":
        return cls([[zero] * cols for _ in range(rows)])

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(("Matrix", self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"Matrix[{body}]"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def one(self):
        """A multiplicative unit of the entry ring, derived from an entry."""
        for row in self.entries:
            for e in row:
                if e != 0:
                    return e**0
        return Fraction(1)

    def zero_entry(self):
        return self.entries[0][0] * 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)
        )

    def __neg__(self) -> "Matrix":
        return Matrix([-a for a in row] for row in self.entries)

    def scale(self, c) -> "Matrix":
        return Matrix([c * a for a in row] for row in self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bt = other.transpose().entries
        out = []
        for row in self.entries:
            out_row = []
            for col in bt:
                acc = row[0] * col[0]
                for a, b in zip(row[1:], col[1:]):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return Matrix(out)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries))

    def trace(self):
        self._require_square()
        acc = self.entries[0][0]
        for i in range(1, self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("hstack needs equal row counts")
        return Matrix(ra + rb for ra, rb in zip(self.entries, other.entries))

    def max_degree(self) -> int:
        """Largest RatFunc degree among entries; 0 for plain rationals."""
        deg = 0
        for row in self.entries:
            for e in row:
                d = getattr(e, "degree", 0)
                if isinstance(d, int) and d > deg:
                    deg = d
        return deg

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the pivot column indices."""
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = Fraction(1) / m[r][c]  # a rational unit: integer entries divide over Q
            m[r] = [inv * e for e in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        """(-1)^n times the constant term of the division-free char poly."""
        c = self.char_poly().coefficient(0)
        return -c if self.rows % 2 else c

    def inverse(self) -> "Matrix":
        self._require_square()
        n = self.rows
        aug = self.hstack(Matrix.identity(n, self.one()))
        reduced, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is not invertible")
        return Matrix(row[n:] for row in reduced.entries)

    def kernel_basis(self) -> list[tuple]:
        """Basis vectors (as tuples) of the right null space."""
        reduced, pivots = self.rref()
        one = self.one()
        zero = self.zero_entry()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -reduced.entries[r][fc]
            basis.append(tuple(v))
        return basis

    def char_poly(self) -> Poly:
        """Monic characteristic polynomial det(T*I - A), lowest degree first.

        Berkowitz's division-free recursion (Berkowitz 1984), so the same
        code runs over Q, Q(X) and Z[X].  Split a trailing principal block
        as [[a, R], [C, M]]; its polynomial is the lower-triangular
        Toeplitz product of (1, -a, -RC, -RMC, ..., -RM^(k-1)C) with the
        polynomial of M (k = size of M).  Vectors run highest degree first
        and leave their leading 1 implicit; it is returned as the int 1.
        """
        self._require_square()
        n = self.rows
        e = self.entries
        p = [-e[n - 1][n - 1]]
        for r in range(n - 2, -1, -1):
            tail = range(r + 1, n)
            row = [e[r][j] for j in tail]
            v = [e[i][r] for i in tail]
            q = [-e[r][r]]
            for step in range(len(row)):
                if step:
                    v = [sum(map(mul, e[i][r + 1 :], v)) for i in tail]
                q.append(-sum(map(mul, row, v)))
            p = [
                sum(
                    [q[t]]
                    + ([p[t]] if t < len(p) else [])
                    + [q[t - j] * p[j - 1] for j in range(1, t + 1)]
                )
                for t in range(len(q))
            ]
        return Poly([*reversed(p), 1])

    # -- helpers ----------------------------------------------------------

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def _require_square(self):
        if not self.is_square:
            raise ValueError("square matrix required")

    def map(self, fn: Callable) -> "Matrix":
        return Matrix([fn(e) for e in row] for row in self.entries)


def symplectic_rearrangement(g: Sequence[Sequence]) -> list[list]:
    """J^-1 t(g) J for a 2n x 2n grid of entries g, with J = [[0, I], [-I, 0]].

    For g = [[A, B], [C, E]] in n x n blocks this is [[tE, -tB], [-tC, tA]],
    the inverse of g when g is symplectic.  Only negation is needed.
    """
    size = len(g)
    if size % 2 or any(len(row) != size for row in g):
        raise ValueError("symplectic matrices have even size")
    n = size // 2
    top = [
        [g[j + n][i + n] for j in range(n)] + [-g[j][i + n] for j in range(n)] for i in range(n)
    ]
    bottom = [[-g[j + n][i] for j in range(n)] + [g[j][i] for j in range(n)] for i in range(n)]
    return top + bottom


class FracMatrix:
    """A matrix over Q(X) kept as N/D, fraction-free and Kronecker-packed.

    N has integer-polynomial entries and D is one nonzero integer Poly.
    Each entry N_ij is stored as the Python int N_ij(2^b) (Kronecker
    substitution, Harvey 2009): its coefficients are the balanced base-2^b
    digits of that int, each of absolute value below 2^(b-1).  Beside the
    packed entries the matrix keeps the width b, a bound M on every
    |coefficient| and a bound L on every coefficient count.  The width is
    the least of 64, 128, 256, ... with 2nM < 2^b (n rows), so that a sum
    of n entries (a diagonal, for the trace) still has balanced digits.
    Word images are square; a building pseudodistance may multiply
    rectangular ones, whose product bounds M by the inner dimension.

    Nothing is reduced: a product is (N1 @ N2) / (D1 * D2), computed as n^3
    int products and sums with no Poly built, and canonical RatFunc
    entries are built only by `to_matrix()` and `trace()`.  `num` unpacks
    N on demand; `char_poly()` unpacks N to measure its bounds.
    """

    __slots__ = ("packed", "den", "width", "bound", "length")

    def __init__(self, packed: tuple, den: Poly, width: int, bound: int, length: int):
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name, value):
        raise AttributeError("FracMatrix is immutable")

    @classmethod
    def from_polys(cls, rows: Sequence[Sequence[Poly]], den: Poly) -> "FracMatrix":
        """Pack a matrix N of integer Polys over the denominator D."""
        bound, length = _measure([p for row in rows for p in row])
        width = _width(len(rows) * bound, PACK_WIDTH)
        packed = tuple(tuple(pack(p, width) for p in row) for row in rows)
        return cls(packed, den, width, bound, length)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "FracMatrix":
        """Clear every entry denominator of m (entries in Q(X) or Q), in Z[X].

        Every entry is a coprime Z[X] pair num/den.  D is the Z[X] lcm of
        the distinct dens, grown by one gcd g per den (D gains the gcd's
        cofactor den / g), and each den gets one cofactor D / den, so an
        entry num/den is num (D / den) over D.  D's leading coefficient is
        positive, as every den's is.
        """
        entries = [[RatFunc.coerce(e) for e in row] for row in m.entries]
        dens = dict.fromkeys(f.den for row in entries for f in row if f.den != _ONE_Z)
        den = _ONE_Z
        for d in dens:
            g, _, d_over_g = gcd(den, d)
            if g != d:
                den = den * d_over_g
        cofactors = {d: _ONE_Z if d == den else exact_quotient(den, d) for d in dens}
        cofactors[_ONE_Z] = den
        return cls.from_polys([[f.num * cofactors[f.den] for f in row] for row in entries], den)

    @classmethod
    def identity(cls, n: int) -> "FracMatrix":
        packed = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls(packed, _ONE_Z, _width(n, PACK_WIDTH), 1, 1)

    @property
    def rows(self) -> int:
        return len(self.packed)

    @property
    def num(self) -> Matrix:
        """N as a Matrix of integer Polys, unpacked."""
        return Matrix([unpack(v, self.width) for v in row] for row in self.packed)

    def __matmul__(self, other: "FracMatrix") -> "FracMatrix":
        a, b = self, other
        bound, width = _product_bound(a, b)
        if width > min(a.width, b.width):  # a factor is repacked: measure both first
            a, b = _remeasured((a, b), lambda a, b: _product_bound(a, b)[1])
            bound, width = _product_bound(a, b)
        cols = tuple(zip(*b.packed))
        packed = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a.packed)
        return FracMatrix(packed, a.den * b.den, width, bound, a.length + b.length - 1)

    def transpose(self) -> "FracMatrix":
        return FracMatrix(
            tuple(zip(*self.packed)), self.den, self.width, self.bound, self.length
        )

    def symplectic_inverse(self) -> "FracMatrix | None":
        """(N/D)^-1 as J^-1 t(N) J / D if N/D is symplectic, else None.

        That numerator is `symplectic_rearrangement` of the packed
        entries, over the same D.  It is the inverse exactly when its
        product with N, over D^2, is the identity.
        """
        size = len(self.packed)
        if size % 2 or any(len(row) != size for row in self.packed):
            return None
        packed = tuple(map(tuple, symplectic_rearrangement(self.packed)))
        inverse = FracMatrix(packed, self.den, self.width, self.bound, self.length)
        return inverse if (inverse @ self).identity_sign() == 1 else None

    def identity_sign(self) -> int:
        """s if N/D = s I with s = 1 or -1, else 0.

        Off the diagonal the packed entries must be zeros; on it, each
        unpacked entry must equal s D.
        """
        packed = self.packed
        if any(v for i, row in enumerate(packed) for j, v in enumerate(row) if i != j):
            return 0
        diagonal = {unpack(row[i], self.width) for i, row in enumerate(packed)}
        return 1 if diagonal == {self.den} else -1 if diagonal == {-self.den} else 0

    def char_poly(self) -> Poly:
        """char_poly(N) over Z[X], by Berkowitz on the packed ints N(2^b').

        The T^(n-k) coefficient is (-1)^k e_k(N): C(n,k) principal minors
        of k! products of k entries, each product with coefficients at
        most L^(k-1) M^k.  M and L are measured on the unpacked entries,
        and b' is the least doubling of the width with 2B < 2^b',
        B = max_k C(n,k) k! L^(k-1) M^k; the entries are repacked only if
        b' is wider.
        """
        n = len(self.packed)
        (m,) = _remeasured((self,), lambda m: _width(
            max(perm(n, k) * m.length ** (k - 1) * m.bound**k for k in range(1, n + 1)), m.width
        ))
        return Poly(unpack(c, m.width) for c in Matrix(m.packed).char_poly().coeffs)

    def to_matrix(self) -> Matrix:
        """The canonical matrix over Q(X)."""
        return Matrix([RatFunc(p, self.den) for p in row] for row in self.num.entries)

    def trace(self) -> RatFunc:
        diagonal = sum(row[i] for i, row in enumerate(self.packed))
        return RatFunc(unpack(diagonal, self.width), self.den)

    def degree_over(self, bound: int) -> int | None:
        """Largest degree of a reduced entry N_ij/D if it exceeds bound, else None.

        The degree of a reduced entry is max(deg num, deg den, 0), as in
        RatFunc.degree.  Reduction never raises a degree, so an entry
        needs its gcd only when max(deg N_ij, deg D) already exceeds the
        bound.  deg N_ij is read from the packed int alone: a nonzero v
        with balanced digits and leading digit at position k has
        2^(kb-1) < |v| < 2^((k+1)b-1), so k = bit_length(|v|) // b.
        """
        dd = self.den.degree
        if max(self.length - 1, dd) <= bound:
            return None
        width = self.width
        worst = None
        for row in self.packed:
            for v in row:
                dn = _packed_degree(v, width)
                if max(dn, dd) <= bound:
                    continue
                if not v:
                    deg = 0
                else:
                    g = gcd(unpack(v, width), self.den)[0].degree
                    deg = max(dn - g, dd - g, 0)
                if deg > bound and (worst is None or deg > worst):
                    worst = deg
        return worst


PACK_WIDTH = 64  # the starting Kronecker width b, in bits
_ONE_Z = Poly((1,))


def _measure(polys: list[Poly]) -> tuple[int, int]:
    """The largest |coefficient| and the largest coefficient count (at least 1) of polys."""
    coeffs = [p.coeffs for p in polys]
    return max(max(map(abs, cs), default=0) for cs in coeffs), max(1, max(map(len, coeffs)))


def _remeasured(ms: tuple[FracMatrix, ...], width_of: Callable[..., int]) -> list[FracMatrix]:
    """ms with measured bounds and lengths at width width_of(*those), each entry unpacked once."""
    polys = [[[unpack(v, m.width) for v in row] for row in m.packed] for m in ms]
    ms = [FracMatrix(m.packed, m.den, m.width, *_measure(sum(p, []))) for m, p in zip(ms, polys)]
    width = width_of(*ms)
    return [
        m if m.width == width else FracMatrix(
            tuple(tuple(pack(e, width) for e in row) for row in p), m.den, width, m.bound, m.length
        )
        for m, p in zip(ms, polys)
    ]


def _product_bound(a: FracMatrix, b: FracMatrix) -> tuple[int, int]:
    """A bound M on every |coefficient| of a @ b, and the width of a @ b for M."""
    bound = len(b.packed) * min(a.length, b.length) * a.bound * b.bound
    return bound, _width(len(a.packed) * bound, max(a.width, b.width))


def _width(bound: int, width: int) -> int:
    """The least width * 2^k whose balanced digits hold |coefficients| <= bound."""
    while 2 * bound >= 1 << width:
        width *= 2
    return width


def _packed_degree(v: int, width: int) -> int:
    """deg p for v = p(2^width) with balanced digits; -1 for v = 0."""
    return abs(v).bit_length() // width if v else -1
