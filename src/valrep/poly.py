"""Dense univariate polynomials over an exact ring.

A polynomial is stored as a tuple of coefficients, lowest degree first,
with a nonzero last entry; the empty tuple is the zero polynomial.  The
coefficient ring is duck-typed: anything supporting +, -, * and
comparison with 0 works, which in this package means `fractions.Fraction`
(polynomials in X over Q), `int` (the Z[X] numerators and denominators of
fraction-free Q(X) matrices) and `Poly` itself (characteristic
polynomials in T over Z[X]).

Ring operations (+, -, *) work over any of these.  Division and
multiplicity counting need a field (an int divisor acts as a Fraction,
so Z[X] divides in Q[X]); gcd takes Q[X] and Z[X] polynomials only, and
the integer routines at the end stay in Z[X].  Nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


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

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

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
        return Fraction(0) if not self.coeffs else self.coeffs[0] * 0

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
        # `type` rather than isinstance: Fraction is an ABC, slow to test ints against
        if type(a[0]) is Fraction and type(b[0]) is Fraction:
            return _mul_rational(a, b)
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
            return Poly.constant(self.leading() ** 0)
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
        """Exact field divmod; raises ZeroDivisionError on zero divisor."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(), self
        rem = list(self.coeffs)
        lead = _field(other.leading())
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

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(self._coerce(other))[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        lead = _field(lead)
        return Poly(c / lead for c in self.coeffs)

    def evaluate(self, t):
        """Horner evaluation at a field element."""
        if not self.coeffs:
            return t * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t + c
        return acc

    def multiplicity_at(self, a) -> int:
        """Order of vanishing at X = a, by repeated synthetic division."""
        return self.deflate_at(a)[0]

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


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q of polynomials with int or Fraction coefficients.

    The computation runs on primitive integer coefficients with a
    subresultant pseudo-remainder sequence, which avoids the Fraction
    blow-up of naive Euclid.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    g = _int_poly_gcd(_primitive_int(a), _primitive_int(b))
    return Poly(Fraction(c, g[0]) for c in reversed(g))


def split_content(p: Poly) -> tuple[Fraction, Poly]:
    """(c, q) with p = c * q, q a primitive Z[X] polynomial with positive leading coefficient."""
    q = _primitive_int(p)
    if q[0] < 0:
        q = [-c for c in q]
    return Fraction(p.leading()) / q[0], Poly(reversed(q))


def primitive_gcd(a: Poly, b: Poly) -> Poly:
    """gcd in Z[X] of primitive integer polynomials, with positive leading coefficient."""
    return Poly(reversed(_int_poly_gcd(list(reversed(a.coeffs)), list(reversed(b.coeffs)))))


def exact_quotient(a: Poly, b: Poly) -> Poly:
    """a / b in Z[X] for integer polynomials where b divides a over Z.

    By Gauss's lemma that is so whenever b is primitive and divides a over
    Q.  Every step is an exact integer division; a remainder raises
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


def _field(c):
    """c, as a Fraction if it is an int, so that dividing by it stays exact."""
    return Fraction(c) if type(c) is int else c


def _mul_rational(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    """Convolution over a pair of common denominators, in integer arithmetic."""
    from math import lcm

    da = 1
    for c in a:
        da = lcm(da, c.denominator)
    db = 1
    for c in b:
        db = lcm(db, c.denominator)
    ia = [c.numerator * (da // c.denominator) for c in a]
    ib = [c.numerator * (db // c.denominator) for c in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(ia):
        if ca:
            for j, cb in enumerate(ib):
                out[i + j] += ca * cb
    den = da * db
    return Poly(Fraction(n, den) for n in out)


def _primitive_int(p: Poly) -> list[int]:
    """Primitive integer coefficients, highest degree first."""
    from math import gcd as igcd, lcm

    den = 1
    for c in p.coeffs:
        if isinstance(c, Fraction):
            den = lcm(den, c.denominator)
    nums = [int(c * den) if isinstance(c, Fraction) else c * den for c in p.coeffs]
    content = 0
    for c in nums:
        content = igcd(content, c)
    return [c // content for c in reversed(nums)]


def _int_poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Subresultant PRS gcd of primitive integer polynomials (highest first)."""
    from math import gcd as igcd

    if len(f) < len(g):
        f, g = g, f
    gpart, h = 1, 1
    while True:
        d = len(f) - len(g)
        r = _prem(f, g)
        if not r:
            out = _primitive_part(g)
            return out if out[0] > 0 else [-c for c in out]
        if len(r) == 1:
            return [1]
        divisor = gpart * h**d
        f, g = g, [c // divisor for c in r]
        gpart = f[0]
        if d > 0:
            h = gpart**d // h ** (d - 1) if d > 1 else gpart


def _prem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g (highest first)."""
    lg = g[0]
    r = list(f)
    e = len(f) - len(g) + 1
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
    if e > 0:
        m = lg**e
        r = [c * m for c in r]
    return r


def _primitive_part(g: list[int]) -> list[int]:
    from math import gcd as igcd

    content = 0
    for c in g:
        content = igcd(content, c)
    return [c // content for c in g]
