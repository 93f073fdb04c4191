"""Exact dense matrices over Q, Q(X) and Z[X], and fraction-free Q(X) matrices.

Entries are duck-typed ring elements; products and characteristic
polynomials need only +, -, * and comparison with 0, and elimination
(rref, det, inverse) also needs /.  Elimination is ordinary
division-based Gaussian elimination over a field.  Characteristic
polynomials come from Berkowitz's division-free recursion, one algorithm
for every entry ring here.

A `FracMatrix` holds a matrix over Q(X) as N/D: N with integer-polynomial
entries, D one integer polynomial.  Multiplying two of them multiplies
the N and the D and needs no gcd, which is what word sweeps do most.
Each entry of N is Kronecker-packed (Harvey 2009) into one Python int,
its value at X = 2^b, so a product of N's is n^3 big-int products and
sums with no Poly built.  The digits are balanced (every |coefficient|
below 2^(b-1)), which makes an entry's degree exact from its bit length
alone: a leading digit at position k puts |N_ij(2^b)| strictly between
2^(kb-1) and 2^((k+1)b-1), so deg N_ij = bit_length // b.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .fields import RatFunc
from .poly import Poly, gcd


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

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.__matmul__(other)
        return self.scale(other)

    __rmul__ = scale

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries))

    def trace(self):
        self._require_square()
        acc = self.entries[0][0]
        for i in range(1, self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("hstack needs equal row counts")
        return Matrix(ra + rb for ra, rb in zip(self.entries, other.entries))

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "Matrix":
        return Matrix(
            [self.entries[i][j] for j in col_indices] for i in row_indices
        )

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
            inv = self.one() / m[r][c]
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
        self._require_square()
        m = [list(row) for row in self.entries]
        n = self.rows
        det = self.one()
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
            if pivot_row is None:
                return self.zero_entry()
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = -det
            det = det * m[c][c]
            inv = self.one() / m[c][c]
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

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
        and leave their leading 1 implicit.
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
                    v = [_dot(e[i][r + 1 :], v) for i in tail]
                q.append(-_dot(row, v))
            p = [
                _sum(
                    [q[t]]
                    + ([p[t]] if t < len(p) else [])
                    + [q[t - j] * p[j - 1] for j in range(1, t + 1)]
                )
                for t in range(len(q))
            ]
        return Poly([*reversed(p), self.one()])

    # -- helpers ----------------------------------------------------------

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def _require_square(self):
        if not self.is_square:
            raise ValueError("square matrix required")

    def map(self, fn: Callable) -> "Matrix":
        return Matrix([fn(e) for e in row] for row in self.entries)


def _dot(xs: Sequence, ys: Sequence):
    return _sum([x * y for x, y in zip(xs, ys)])


def _sum(terms: Sequence):
    """Sum of a nonempty sequence, without needing a zero of the ring."""
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


class FracMatrix:
    """A square matrix over Q(X) kept as N/D, fraction-free and Kronecker-packed.

    N has integer-polynomial entries and D is one nonzero integer Poly.
    Each entry N_ij is stored as the Python int N_ij(2^b) (Kronecker
    substitution, Harvey 2009): its coefficients are the balanced base-2^b
    digits of that int, each of absolute value below 2^(b-1).  Beside the
    packed entries the matrix keeps the width b, a bound M on every
    |coefficient| and a bound L on every coefficient count.  The width is
    the least of 64, 128, 256, ... with 2nM < 2^b, so that a sum of n
    entries (a diagonal, for the trace) still has balanced digits.

    Nothing is reduced: a product is (N1 @ N2) / (D1 * D2), computed as n^3
    int products and sums with no Poly built, and canonical RatFunc
    entries are built only by `to_matrix()` and `trace()`.  `num` unpacks
    N on demand.
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
        """Pack a square matrix N of integer Polys over the denominator D."""
        polys = [p for row in rows for p in row]
        bound = max((abs(c) for p in polys for c in p.coeffs), default=0)
        length = max(1, max(len(p.coeffs) for p in polys))
        width = _width(len(rows) * bound, PACK_WIDTH)
        packed = tuple(tuple(_pack(p, width) for p in row) for row in rows)
        return cls(packed, den, width, bound, length)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "FracMatrix":
        """Clear every entry denominator of m (entries in Q(X) or Q)."""
        entries = [[RatFunc.coerce(e) for e in row] for row in m.entries]
        den = Poly((Fraction(1),))
        for row in entries:
            for f in row:
                if f.den.degree > 0:
                    den = den * f.den.exact_div(gcd(den, f.den))
        nums = [[f.num * den.exact_div(f.den) for f in row] for row in entries]
        scale = 1
        for p in [den] + [p for row in nums for p in row]:
            for c in p.coeffs:
                scale = lcm(scale, c.denominator)
        return cls.from_polys(
            [[_integral(p, scale) for p in row] for row in nums], _integral(den, scale)
        )

    @classmethod
    def identity(cls, n: int) -> "FracMatrix":
        packed = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls(packed, Poly((1,)), _width(n, PACK_WIDTH), 1, 1)

    @property
    def rows(self) -> int:
        return len(self.packed)

    @property
    def num(self) -> Matrix:
        """N as a Matrix of integer Polys, unpacked."""
        return Matrix([_unpack(v, self.width) for v in row] for row in self.packed)

    def __matmul__(self, other: "FracMatrix") -> "FracMatrix":
        n = len(self.packed)
        bound = n * min(self.length, other.length) * self.bound * other.bound
        width = _width(n * bound, max(self.width, other.width))
        left, right = self._at_width(width).packed, other._at_width(width).packed
        cols = tuple(zip(*right))
        packed = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in left)
        return FracMatrix(
            packed, self.den * other.den, width, bound, self.length + other.length - 1
        )

    def _at_width(self, width: int) -> "FracMatrix":
        """The same matrix repacked at a larger width."""
        if width == self.width:
            return self
        packed = tuple(
            tuple(_pack(_unpack(v, self.width), width) for v in row) for row in self.packed
        )
        return FracMatrix(packed, self.den, width, self.bound, self.length)

    def to_matrix(self) -> Matrix:
        """The canonical matrix over Q(X)."""
        den = _rational(self.den)
        return Matrix([RatFunc(_rational(p), den) for p in row] for row in self.num.entries)

    def trace(self) -> RatFunc:
        diagonal = sum(row[i] for i, row in enumerate(self.packed))
        return RatFunc(_rational(_unpack(diagonal, self.width)), _rational(self.den))

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
                    g = gcd(_unpack(v, width), self.den).degree
                    deg = max(dn - g, dd - g, 0)
                if deg > bound and (worst is None or deg > worst):
                    worst = deg
        return worst


PACK_WIDTH = 64  # the starting Kronecker width b, in bits


def _width(bound: int, width: int) -> int:
    """The least width * 2^k whose balanced digits hold |coefficients| <= bound."""
    while 2 * bound >= 1 << width:
        width *= 2
    return width


def _pack(p: Poly, width: int) -> int:
    """p(2^width), for integer coefficients below 2^(width-1) in absolute value."""
    v = 0
    for c in reversed(p.coeffs):
        v = (v << width) + c
    return v


def _unpack(v: int, width: int) -> Poly:
    """The integer Poly whose balanced base-2^width digits make up v."""
    mask, half, out = (1 << width) - 1, 1 << (width - 1), []
    for _ in range(_packed_degree(v, width) + 1):
        digit = v & mask
        if digit >= half:
            digit -= 1 << width
        out.append(digit)
        v = (v - digit) >> width
    return Poly(out)


def _packed_degree(v: int, width: int) -> int:
    """deg p for v = p(2^width) with balanced digits; -1 for v = 0."""
    return abs(v).bit_length() // width if v else -1


def _integral(p: Poly, scale: int) -> Poly:
    return Poly((c * scale).numerator for c in p.coeffs)


def _rational(p: Poly) -> Poly:
    return Poly(Fraction(c) for c in p.coeffs)
