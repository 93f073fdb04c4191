"""The ordered field Q(X): exact rational functions and their non-Archimedean orders.

A `RatFunc` is a fraction num/den of integer polynomials, coprime in
Z[X] (constant common factors included) and with a positive leading
coefficient of den.  This form is unique, so equality and hashing are
structural, and every operation on it is Z[X] arithmetic with the one
`poly.gcd`.  The constructor also takes rational coefficients and clears
them once; Q[X] appears again only in `monic_form`, the display form
with a monic denominator that `format_ratfunc` prints.

The four non-Archimedean orders on Q(X) are an anchor and a side: a
rational point a or infinity, approached from above (side +1) or below
(side -1).  One sign rule covers all four: write f = (X - a)^k g with
g(a) != 0, or read k = deg num - deg den and the leading coefficients at
infinity; the sign is that of g(a) (of the leading ratio), times (-1)^k
on side -1.  The deflation is exact; no numeric evaluation is ever
involved.  `SPEC_HEADS` is the one table of spec heads ("aplus:A",
"plusinf", ... and the valuation heads "adic:A", "atinf"), read both ways.

Under any of these orders Q(X) is non-Archimedean: side / (X - a), or
side X at infinity, is larger than every rational constant.
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
    """One of the four non-Archimedean orders on Q(X): an anchor and a side.

    The anchor `a` is a rational point, or None for infinity; `side` is +1
    for the order just above the anchor (at +inf when a is None) and -1
    for the one just below it (at -inf).  The side -1 order is the side +1
    order pulled back along X -> 2a - X, or X -> -X at infinity.
    """

    a: Fraction | None
    side: int

    def __post_init__(self):
        if self.side not in (1, -1):
            raise ValueError(f"an order's side is +1 or -1, not {self.side!r}")
        if self.a is not None:
            object.__setattr__(self, "a", Fraction(self.a))

    @classmethod
    def at_plus(cls, a) -> "OrderSpec":
        return cls(Fraction(a), 1)

    @classmethod
    def at_minus(cls, a) -> "OrderSpec":
        return cls(Fraction(a), -1)

    @classmethod
    def plus_infinity(cls) -> "OrderSpec":
        return cls(None, 1)

    @classmethod
    def minus_infinity(cls) -> "OrderSpec":
        return cls(None, -1)

    # -- sign determination ------------------------------------------------

    def sign(self, f) -> int:
        """Sign of f in (Q(X), self): -1, 0 or +1.

        Above an anchor a, write f = (X-a)^k * g with g(a) != 0; the sign
        is the sign of g(a).  At +inf it is the sign of the leading
        coefficients' ratio, with k = deg num - deg den.  The side -1
        order, a pullback by a reflection that sends X - a to -(X - a)
        (or X to -X), multiplies that sign by (-1)^k.
        """
        f = RatFunc.coerce(f)
        if f.is_zero():
            return 0
        if self.a is None:
            k = f.num.degree - f.den.degree
            s = _sign_q(f.num.leading()) * _sign_q(f.den.leading())
        else:
            k_num, g_num = f.num.deflate_at(self.a)
            k_den, g_den = f.den.deflate_at(self.a)
            k = k_num - k_den
            s = _sign_q(g_num) * _sign_q(g_den)
        return -s if self.side < 0 and k % 2 else s

    def compare(self, f, g) -> int:
        """Total-order comparison: -1 if f < g, 0 if f = g, +1 if f > g."""
        return self.sign(RatFunc.coerce(f) - RatFunc.coerce(g))

    def infinitely_large_element(self) -> RatFunc:
        """A canonical element exceeding every rational constant: side X, or side / (X - a)."""
        if self.a is None:
            return self.side * X
        return self.side / (X - self.a)

    # -- identification ------------------------------------------------------

    def spec_string(self) -> str:
        return format_spec(self.a, self.side)

    @classmethod
    def from_spec_string(cls, text: str) -> "OrderSpec":
        return cls(*read_spec(text, "order"))

    def __str__(self) -> str:
        return self.spec_string()


# spec head -> (takes an anchor, side); side 0 names the valuation at the anchor
SPEC_HEADS = {
    "aplus": (True, 1),
    "aminus": (True, -1),
    "plusinf": (False, 1),
    "minusinf": (False, -1),
    "adic": (True, 0),
    "atinf": (False, 0),
}
_HEAD_OF = {entry: head for head, entry in SPEC_HEADS.items()}


def read_spec(text: str, noun: str) -> tuple[Fraction | None, int]:
    """(anchor, side) of an order spec, or (anchor, 0) of a valuation spec (`noun`)."""
    head, a = split_spec(text)
    anchored, side = SPEC_HEADS.get(head, (None, None))
    if anchored != (a is not None) or (side == 0) != (noun == "valuation"):
        raise ValueError(f"unknown {noun} spec {text!r}")
    return a, side


def format_spec(a: Fraction | None, side: int) -> str:
    """"aplus:1/2" for (1/2, +1), "atinf" for (None, 0): the inverse of `read_spec`."""
    head = _HEAD_OF[a is not None, side]
    return head if a is None else f"{head}:{a}"


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
