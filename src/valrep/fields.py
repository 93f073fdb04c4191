"""The ordered field Q(X): exact rational functions and their non-Archimedean orders.

A `RatFunc` is a fraction num/den of integer polynomials, coprime in
Z[X] (constant common factors included) and with a positive leading
coefficient of den.  This form is unique, so equality and hashing are
structural, and every operation on it is Z[X] arithmetic with the one
`poly.gcd`.  The constructor also takes rational coefficients and clears
them once; Q[X] appears again only in `monic_form`, the display form
with a monic denominator that `format_ratfunc` prints.

The four non-Archimedean orders on Q(X) are anchored at a rational point
a (from below or above) or at one of the two infinities.  Signs under an
order are decided by exact deflation: factor out the largest power of
(X - a) and evaluate the cofactor at a; no numeric evaluation is ever
involved.

Under any of these orders Q(X) is non-Archimedean: at the order a_+ the
element 1/(X - a) is larger than every rational constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from .poly import Poly, gcd

Rationalish = Union[int, Fraction]

_ZERO = Poly()
_ONE = Poly((1,))


class RatFunc:
    """Element of Q(X) as num/den in Z[X]: coprime, with lc(den) > 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = _ONE if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(X)")
        if num.is_zero():
            object.__setattr__(self, "num", _ZERO)
            object.__setattr__(self, "den", _ONE)
            return
        coeffs = num.coeffs + den.coeffs
        if any(type(c) is not int for c in coeffs):  # rational coefficients: clear them once
            scale = lcm(*(c.denominator for c in coeffs))
            num = Poly((c * scale).numerator for c in num.coeffs)
            den = Poly((c * scale).numerator for c in den.coeffs)
        _, num, den = gcd(num, den)
        if den.coeffs[-1] < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- coercion and structure ----------------------------------------

    @staticmethod
    def coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, int):
            return _raw(Poly((int(value),)), _ONE)
        if isinstance(value, Fraction):
            return _raw(Poly((value.numerator,)), Poly((value.denominator,)))
        if isinstance(value, Poly):
            return RatFunc(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Q(X)")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return Fraction(self.num.coefficient(0), self.den.coeffs[0])

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den.coeffs == (1,) and self.num == other
        if isinstance(other, Fraction):
            return self.den.coeffs == (other.denominator,) and self.num == other.numerator
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.as_fraction())
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    # -- field arithmetic -----------------------------------------------

    def __neg__(self) -> "RatFunc":
        return _raw(-self.num, self.den)

    def __add__(self, other) -> "RatFunc":
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        d1, d2 = self.den, other.den
        if d1.coeffs == d2.coeffs == (1,):
            t = self.num + other.num
            return ZERO if t.is_zero() else _raw(t, _ONE)
        # classical coprime-part bookkeeping keeps outputs reduced without
        # a full gcd of the cross products (Z[X] is a UFD)
        g, d1r, d2r = gcd(d1, d2)
        if g == _ONE:
            return _raw(self.num * d2 + other.num * d1, d1 * d2)
        t = self.num * d2r + other.num * d1r
        if t.is_zero():
            return ZERO
        _, t, g = gcd(t, g)
        return _raw(t, d1r * d2r * g)

    __radd__ = __add__

    def __sub__(self, other):
        other = RatFunc.coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return RatFunc.coerce(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        try:
            other = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        n1, d2 = _cross_reduce(self.num, other.den)
        n2, d1 = _cross_reduce(other.num, self.den)
        return _raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(X)")
        num, den = other.den, other.num
        if den.coeffs[-1] < 0:
            num, den = -num, -den
        return self * _raw(num, den)

    def __rtruediv__(self, other) -> "RatFunc":
        return RatFunc.coerce(other) / self

    def __pow__(self, k: int) -> "RatFunc":
        if k == 0:
            return ONE
        if k < 0:
            return (ONE / self) ** (-k)
        return _raw(self.num**k, self.den**k)  # powers of a coprime pair stay coprime

    # -- evaluation and size ---------------------------------------------

    def evaluate(self, t: Rationalish) -> Fraction:
        """Exact value at X = t; raises ZeroDivisionError at a pole."""
        t = Fraction(t)
        d = self.den.evaluate(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at X = {t}")
        n = self.num.evaluate(t)
        return Fraction(n) / d

    @property
    def degree(self) -> int:
        """Max of numerator and denominator degree (0 for the zero element)."""
        return max(self.num.degree, self.den.degree, 0)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({format_ratfunc(self)!r})"


def _raw(num: Poly, den: Poly) -> "RatFunc":
    """Construct without normalizing; callers guarantee the canonical form."""
    f = object.__new__(RatFunc)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _cross_reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if den.coeffs == (1,):
        return num, den
    _, num, den = gcd(num, den)
    return num, den


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    raise TypeError(f"cannot build a polynomial from {type(value).__name__}")


X = _raw(Poly((0, 1)), _ONE)
ZERO = _raw(_ZERO, _ONE)
ONE = _raw(_ONE, _ONE)


# -- canonical display --------------------------------------------------


def monic_form(f: RatFunc) -> tuple[Poly, Poly]:
    """(num, den) of f over Q with den monic: the form reports print and the parser measures."""
    lead = f.den.coeffs[-1]
    if lead == 1:
        return f.num, f.den
    num, den = (Poly(Fraction(c, lead) for c in p.coeffs) for p in (f.num, f.den))
    return num, den


def format_poly(p: Poly) -> str:
    """Canonical form, highest degree first, e.g. "-256*X^4+320*X^2-16"."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coefficient(i)
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = _format_coeff(mag)
        else:
            xpow = "X" if i == 1 else f"X^{i}"
            body = xpow if mag == 1 else f"{_format_coeff(mag)}*{xpow}"
        parts.append(sign + body)
    return "".join(parts)


def _format_coeff(c: Rationalish) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_ratfunc(f: RatFunc) -> str:
    """Canonical display "p(X)/q(X)" of the monic form, with explicit parentheses."""
    num, den = monic_form(f)
    if den == _ONE:
        return format_poly(num)
    return f"({format_poly(num)})/({format_poly(den)})"


# -- orders ----------------------------------------------------------------


@dataclass(frozen=True)
class OrderSpec:
    """One of the four non-Archimedean orders on Q(X).

    kind is "a_plus" or "a_minus" (anchored just above/below the rational
    point `a`) or "plus_inf" / "minus_inf".  Anchors are restricted to
    rational points.
    """

    kind: str
    a: Fraction | None = None

    _KINDS = ("a_plus", "a_minus", "plus_inf", "minus_inf")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind in ("a_plus", "a_minus"):
            if self.a is None:
                raise ValueError(f"order {self.kind} needs a rational anchor")
            object.__setattr__(self, "a", Fraction(self.a))
        elif self.a is not None:
            raise ValueError(f"order {self.kind} takes no anchor")

    @classmethod
    def at_plus(cls, a) -> "OrderSpec":
        return cls("a_plus", Fraction(a))

    @classmethod
    def at_minus(cls, a) -> "OrderSpec":
        return cls("a_minus", Fraction(a))

    @classmethod
    def plus_infinity(cls) -> "OrderSpec":
        return cls("plus_inf")

    @classmethod
    def minus_infinity(cls) -> "OrderSpec":
        return cls("minus_inf")

    # -- sign determination ------------------------------------------------

    def sign(self, f) -> int:
        """Sign of f in (Q(X), self): -1, 0 or +1.

        At a_+ write f = (X-a)^k * g with g(a) != 0; the sign is the sign
        of g(a).  At a_- an extra (-1)^k enters.  At +inf only the leading
        coefficients matter; at -inf an extra parity factor (-1)^(deg num
        - deg den) enters.
        """
        f = RatFunc.coerce(f)
        if f.is_zero():
            return 0
        if self.kind in ("a_plus", "a_minus"):
            k_num, g_num = f.num.deflate_at(self.a)
            k_den, g_den = f.den.deflate_at(self.a)
            s = _sign_q(g_num) * _sign_q(g_den)
            if self.kind == "a_minus" and (k_num - k_den) % 2:
                s = -s
            return s
        s = _sign_q(f.num.leading()) * _sign_q(f.den.leading())
        if self.kind == "minus_inf" and (f.num.degree - f.den.degree) % 2:
            s = -s
        return s

    def compare(self, f, g) -> int:
        """Total-order comparison: -1 if f < g, 0 if f = g, +1 if f > g."""
        return self.sign(RatFunc.coerce(f) - RatFunc.coerce(g))

    def infinitely_large_element(self) -> RatFunc:
        """A canonical element exceeding every rational constant in this order."""
        if self.kind == "a_plus":
            return ONE / (X - self.a)
        if self.kind == "a_minus":
            return ONE / (RatFunc.coerce(self.a) - X)
        if self.kind == "plus_inf":
            return X
        return -X

    # -- identification ------------------------------------------------------

    def spec_string(self) -> str:
        if self.kind == "a_plus":
            return f"aplus:{self.a}"
        if self.kind == "a_minus":
            return f"aminus:{self.a}"
        return "plusinf" if self.kind == "plus_inf" else "minusinf"

    @classmethod
    def from_spec_string(cls, text: str) -> "OrderSpec":
        head, a = split_spec(text)
        if head == "aplus" and a is not None:
            return cls.at_plus(a)
        if head == "aminus" and a is not None:
            return cls.at_minus(a)
        if head == "plusinf" and a is None:
            return cls.plus_infinity()
        if head == "minusinf" and a is None:
            return cls.minus_infinity()
        raise ValueError(f"unknown order spec {text!r}")

    def __str__(self) -> str:
        return self.spec_string()


def split_spec(text: str) -> tuple[str, Fraction | None]:
    """("aplus", 1/2) from "aplus:1/2", ("plusinf", None) from "plusinf"; ValueError otherwise."""
    if not isinstance(text, str):
        raise ValueError(f"a spec is a string, not {type(text).__name__}")
    head, _, anchor = text.partition(":")
    try:
        return head, Fraction(anchor) if anchor else None
    except ZeroDivisionError:
        raise ValueError(f"spec anchor {anchor!r} has a zero denominator")


def _sign_q(c: Fraction) -> int:
    return (c > 0) - (c < 0)


def element_sign(x, order: OrderSpec | None = None) -> int:
    """Sign of a field element: Fractions compare to 0, RatFuncs need an order."""
    if isinstance(x, RatFunc):
        if x.is_zero():
            return 0
        if order is None:
            if x.is_constant():
                return _sign_q(x.as_fraction())
            raise ValueError("sign of a non-constant element of Q(X) needs an OrderSpec")
        return order.sign(x)
    return (x > 0) - (x < 0)
