"""Dense univariate polynomials over an exact ring, and the Z[X] routines.

A polynomial is stored as a tuple of coefficients, lowest degree first,
with a nonzero last entry; the empty tuple is the zero polynomial.  The
coefficient ring is duck-typed: anything supporting +, -, * and
comparison with 0 works, which in this package means `int` (Z[X]: the
numerators and denominators of Q(X) elements and of fraction-free
matrices) and `Poly` itself (characteristic polynomials in T over Z[X]).

Ring operations (+, -, *) work over any of these.  The routines at the
end stay in Z[X]: `gcd` (content gcd times a heuristic gcd of primitive
parts, returned with both exact cofactors), `exact_quotient`, and
Kronecker packing (Harvey 2009), the map p -> p(2^b) onto Python ints
that fraction-free matrices, `gcd` and the root finder of `roots` run
on.  `divmod` is Euclidean division over Q, and `deflate_at` evaluates
at a rational point; nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd
from typing import Iterable


class Poly:
    """Immutable dense polynomial; `coeffs[i]` multiplies the i-th power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.coeffs[0] * 0 if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if not self.coeffs:
            return other == 0
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [a[0] * 0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return Poly(other * c for c in self.coeffs)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            if not self.coeffs:
                raise ValueError("0**0 for polynomials")
            return Poly((self.leading() ** 0,))
        base, out = self, None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly((other,))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division over Q; raises ZeroDivisionError on zero divisor."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(), self
        rem = list(self.coeffs)
        lead = Fraction(other.leading())
        dq = self.degree - other.degree
        quo = [self.coeffs[0] * 0] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[other.degree + i]
            if c == 0:
                continue
            q = c / lead
            quo[i] = q
            for j, oc in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - q * oc
        return Poly(quo), Poly(rem[: other.degree])

    def evaluate(self, t):
        """Horner evaluation at a field element."""
        if not self.coeffs:
            return t * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t + c
        return acc

    def deflate_at(self, a) -> tuple:
        """Write self = (X - a)^k * g with g(a) != 0; returns (k, g(a)).

        Each factor of (X - a) costs one Horner pass, whose partial sums
        are the quotient by (X - a) and whose last sum is the remainder.
        The first pass with a nonzero remainder has evaluated g at a.
        """
        if self.is_zero():
            raise ValueError("cannot deflate the zero polynomial")
        if a == 0:
            k = next(i for i, c in enumerate(self.coeffs) if c != 0)
            return k, self.coeffs[k]
        if isinstance(a, Fraction) and a.denominator == 1:
            a = a.numerator  # keeps integer coefficients in int arithmetic
        k, coeffs = 0, self.coeffs
        while True:
            acc, partial = coeffs[-1] * 0, []
            for c in reversed(coeffs):
                acc = acc * a + c
                partial.append(acc)
            if acc != 0:
                return k, acc
            partial.pop()
            coeffs = tuple(reversed(partial))
            k += 1


def gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(h, a / h, b / h): the gcd h in Z[X] of integer polynomials, with
    positive leading coefficient, and its two exact cofactors.

    h is the gcd of the contents times the gcd of the primitive parts
    f and g, found by GCDHEU (Char, Geddes & Gonnet 1989) on their
    Kronecker-packed values at X = 2^b: the primitive part of the balanced
    digits of igcd(f(2^b), g(2^b)) is the gcd once it divides f and g
    exactly, and those two exact quotients are the cofactors; otherwise
    b doubles.  b starts at bitlen(max |coefficient|) + 2, so that
    2^b > 2 min(|f|, |g|) + 2 (|f| the largest |coefficient| of f), as the
    theorem needs.  The loop ends: igcd(f(2^b), g(2^b)) = c G(2^b) with G
    the gcd and c dividing Res(f/G, g/G), so once 2^b outgrows c G the
    digits are c G's coefficients.  gcd(0, 0) is (0, 0, 0).
    """
    if not a.coeffs or not b.coeffs:
        p = a if a.coeffs else b
        if not p.coeffs:
            return p, p, p
        sign = 1 if p.coeffs[-1] > 0 else -1
        unit = Poly((sign,))
        return p * sign, unit if a.coeffs else a, unit if b.coeffs else b
    ca, cb = igcd(*a.coeffs), igcd(*b.coeffs)
    content = igcd(ca, cb)
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return Poly((content,)), _divide(a, content), _divide(b, content)
    f, g = _divide(a, ca), _divide(b, cb)
    width = max(map(abs, f.coeffs + g.coeffs)).bit_length() + 2
    while True:
        h = unpack(igcd(pack(f, width), pack(g, width)), width)
        h_content = igcd(*h.coeffs) if h.coeffs[-1] > 0 else -igcd(*h.coeffs)
        h = _divide(h, h_content)
        if h.degree == 0:
            return Poly((content,)), _divide(a, content), _divide(b, content)
        try:  # h is primitive, so it divides a and b exactly when it divides f and g
            aq, bq = exact_quotient(a, h), exact_quotient(b, h)
        except ValueError:
            width *= 2
            continue
        return h * content, _divide(aq, content), _divide(bq, content)


def _divide(p: Poly, k: int) -> Poly:
    """p / k for an integer k dividing every coefficient of p."""
    return p if k == 1 else Poly(c // k for c in p.coeffs)


def exact_quotient(a: Poly, b: Poly) -> Poly:
    """a / b for integer polynomials where b divides a in Z[X].

    Every step is an exact integer division; a remainder raises
    ValueError.
    """
    lead, db = b.coeffs[-1], len(b.coeffs) - 1
    rem = list(a.coeffs)
    quo = [0] * max(len(rem) - db, 0)
    for i in reversed(range(len(quo))):
        q, r = divmod(rem[i + db], lead)
        if r:
            raise ValueError("inexact polynomial division")
        quo[i] = q
        if q:
            for j, c in enumerate(b.coeffs):
                rem[i + j] -= q * c
    if any(rem[:db]):
        raise ValueError("inexact polynomial division")
    return Poly(quo)


# -- Kronecker packing -----------------------------------------------------

_DIGIT_LOOP = 32  # pieces of at most this many digits are packed and unpacked digit by digit


def pack(p: Poly, width: int) -> int:
    """p(2^width) for an integer Poly p.

    The coefficient list is split in halves recursively, so the big-int
    work is O(log n) passes over the result rather than one per digit.
    """
    return _pack(p.coeffs, width)


def _pack(coeffs: tuple, width: int) -> int:
    if len(coeffs) <= _DIGIT_LOOP:
        v = 0
        for c in reversed(coeffs):
            v = (v << width) + c
        return v
    k = len(coeffs) // 2
    return _pack(coeffs[:k], width) + (_pack(coeffs[k:], width) << (k * width))


def unpack(v: int, width: int) -> Poly:
    """The integer Poly whose coefficients are the balanced base-2^width digits of v.

    Each digit lies in [-2^(width-1), 2^(width-1)), so `unpack` inverts
    `pack` on every p whose |coefficients| are below 2^(width-1).  The
    width must be at least 2.  With n = bitlen(|v|) // width + 1, so that
    |v| < 2^(width n - 1), the n lowest digits leave a rest of 0 or +-1,
    which is the last digit.
    """
    digits: list[int] = []
    rest = _balanced_digits(v, width, v.bit_length() // width + 1, digits)
    if rest:
        digits.append(rest)
    return Poly(digits)


def _balanced_digits(v: int, width: int, n: int, out: list) -> int:
    """Append the n lowest balanced digits of v to out; return the rest of v.

    The rest r satisfies v = sum d_i 2^(i width) + r 2^(n width).  Above
    the digit loop, the low half is v's plain residue mod 2^(k width);
    its own rest (0 or 1) is the carry of its balanced digits into the
    high half.
    """
    if n <= _DIGIT_LOOP:
        mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
        for _ in range(n):
            digit = v & mask
            if digit >= half:
                digit -= full
            out.append(digit)
            v = (v - digit) >> width
        return v
    k = n // 2
    shift = k * width
    carry = _balanced_digits(v & ((1 << shift) - 1), width, k, out)
    return _balanced_digits((v >> shift) + carry, width, n - k, out)
