"""Order-compatible valuations on Q(X) and the Newton polygon engine.

A valuation is an anchor, as an order is an anchor and a side: the
(X-a)-adic valuation nu_a (pole/zero order at a rational point a) or, for
the anchor None, the valuation at infinity with nu(X) = -1.  Both orders
at an anchor are compatible with the valuation there.  Valuations take
integer values on Q(X), with a single INFINITY sentinel for the zero
element; Newton polygon slopes, and so root valuations and periods, are
Fractions.

The Newton polygon of a polynomial over the valued field recovers the
multiset of valuations of its roots without extracting any root: each
lower-hull segment of slope s and horizontal extent m contributes m roots
of valuation -s.  Zero roots (vanishing low-order coefficients) are
reported separately as a block of valuation INFINITY.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .fields import OrderSpec, RatFunc, format_spec, read_spec
from .poly import Poly


class _Infinity:
    """Valuation of 0; larger than every finite value, absorbing under +."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("valrep.INFINITY")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _Infinity()

Value = int | _Infinity


@dataclass(frozen=True)
class Valuation:
    """Discrete valuation on Q(X) at an anchor: (X-a)-adic, or at infinity (a = None).

    Every order is compatible with the valuation at its anchor,
    `Valuation(order.a)`.
    """

    a: Fraction | None

    def __post_init__(self):
        if self.a is not None:
            object.__setattr__(self, "a", Fraction(self.a))

    @classmethod
    def adic(cls, a) -> "Valuation":
        return cls(Fraction(a))

    @classmethod
    def at_infinity(cls) -> "Valuation":
        return cls(None)

    def of(self, f) -> Value:
        """nu(f); INFINITY exactly for f = 0.  A Poly is read in Q[X] or Z[X]."""
        if isinstance(f, Poly):
            return self._of_poly(f)
        f = RatFunc.coerce(f)
        if f.is_zero():
            return INFINITY
        return self._of_poly(f.num) - self._of_poly(f.den)

    def _of_poly(self, p: Poly) -> Value:
        if p.is_zero():
            return INFINITY
        return -p.degree if self.a is None else p.deflate_at(self.a)[0]

    def spec_string(self) -> str:
        return format_spec(self.a, 0)

    @classmethod
    def from_spec_string(cls, text: str) -> "Valuation":
        return cls(read_spec(text, "valuation")[0])

    def __str__(self) -> str:
        return self.spec_string()


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of checking 0 < x <= y  =>  nu(x) >= nu(y) on sample pairs."""

    compatible: bool
    pairs_checked: int
    witness: tuple[RatFunc, RatFunc] | None = None

    def __bool__(self) -> bool:
        return self.compatible


def check_order_compatibility(
    order: OrderSpec, val: Valuation, samples: Sequence[RatFunc]
) -> CompatibilityReport:
    """Verify order-compatibility of a valuation on all ordered sample pairs.

    For every pair with 0 < x <= y in the order, nu(x) >= nu(y) must hold.
    The first violating pair is reported rather than raised.
    """
    samples = [RatFunc.coerce(s) for s in samples]
    checked = 0
    for x in samples:
        if order.sign(x) <= 0:
            continue
        for y in samples:
            if order.sign(y) <= 0 or order.compare(x, y) > 0:
                continue
            checked += 1
            if not val.of(x) >= val.of(y):
                return CompatibilityReport(False, checked, (x, y))
    return CompatibilityReport(True, checked)


@dataclass(frozen=True)
class NewtonPolygonResult:
    """Root valuations of a polynomial over (Q(X), nu).

    `root_valuations` lists (valuation, multiplicity) pairs in
    nondecreasing valuation order; `zero_roots` counts roots equal to 0
    (valuation INFINITY), coming from vanishing low-order coefficients.
    The multiplicities and `zero_roots` sum to the degree of the input.
    """

    root_valuations: tuple[tuple[Fraction, int], ...]
    zero_roots: int = 0

    def expanded(self) -> list[Fraction]:
        """Finite root valuations with multiplicity, nondecreasing."""
        out: list[Fraction] = []
        for v, m in self.root_valuations:
            out.extend([v] * m)
        return out


def newton_polygon(p: Poly, val: Valuation) -> NewtonPolygonResult:
    """Root-valuation multiset of p (coefficients in Q(X) or Z[X]) via the lower hull.

    Points (i, nu(c_i)) are taken over the nonzero coefficients; the lower
    convex hull's segment of slope s over horizontal extent m yields m
    roots of valuation -s.  A vanishing block of low-order coefficients
    contributes that many zero roots.
    """
    if p.is_zero():
        raise ValueError("Newton polygon of the zero polynomial")
    points = [(i, val.of(c)) for i, c in enumerate(p.coeffs) if c != 0]
    zero_roots = points[0][0]
    if len(points) == 1:
        return NewtonPolygonResult((), zero_roots)
    hull = _lower_hull(points)
    # the hull drops collinear points, so its slopes strictly increase and
    # the root valuations -slope, read right to left, strictly increase
    pairs = [
        (-Fraction(v1 - v0, i1 - i0), i1 - i0) for (i0, v0), (i1, v1) in zip(hull, hull[1:])
    ]
    return NewtonPolygonResult(tuple(reversed(pairs)), zero_roots)


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2 and _turns_right_or_straight(hull[-2], hull[-1], pt):
            hull.pop()
        hull.append(pt)
    return hull


def _turns_right_or_straight(a, b, c) -> bool:
    # middle point b lies on or above the chord a->c; collinear points merge
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) <= 0
