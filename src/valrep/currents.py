"""Positive crossratios, periods, rectangle bounds and multicurve certificates.

Boundary data is combinatorial: labels in a declared positive cyclic
order, Lagrangian images, and listed group actions.  A crossratio value
on a positively oriented quadruple (q1, q2, q3, q4) is

    [q1, q2, q3, q4] = -nu( CR(phi(q2), phi(q1), phi(q3), phi(q4)) ) / 2,

with CR the Lagrangian crossratio of `symplectic.crossratio` (defined by
projections, computed from n x n pairing determinants).  The argument
transposition and the factor 1/2 are the one normalization for which,
exactly and not just asymptotically:

  * flip symmetry [q1,q2,q3,q4] = [q3,q4,q1,q2] and the additivity
    cocycle [x1,x2,x4,x5] = [x1,x2,x3,x5] + [x1,x3,x4,x5] are field
    identities,
  * values on positively oriented quadruples are nonnegative,
  * the period [g-, x, gx, g+] of a hyperbolic element equals its
    translation length (in the diagonal model the raw determinant is the
    squared product of the dominant eigenvalues, independent of x).

Only the valuation of CR is needed, and nu(fg) = nu(f) + nu(g) for both
supported valuations, so with d(a, b) = nu det Omega(phi(a), phi(b)),

    nu CR(phi(q2), phi(q1), phi(q3), phi(q4))
        = d(q1, q3) + d(q4, q2) - d(q1, q2) - d(q4, q3),

and no quotient over Q(X) is formed.  Since det Omega(b, a) =
(-1)^n det Omega(a, b), d depends only on the unordered pair of labels,
and each label occurs once above and once below the line, so basis
scalings cancel.  A quadruple is evaluable when all four determinants
are nonzero.

Periods are computed by default through translation lengths (total, no
framing needed); framing-based periods cross-validate them.  Multicurve
certificates report the least K with all sampled periods in (1/K)Z.
Word images, of single words and class sweeps alike, come from the
RepTable, so its degree guard (`RepTable.degree_bound`) bounds every
image that is built.  A class sweep yields each representative's key
too, and the multicurve listing walks the ball with no images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Hashable, Sequence

from .fields import OrderSpec, RatFunc
from .framing import FramingTable
from .representation import RepTable
from .spectra import translation_length
from .symplectic import TransversalityError, pairing_matrix
from .valuation import INFINITY, Valuation, Value
from .words import Word, ball_levels, conjugacy_key, is_key_power

Label = Hashable


class OrientationError(ValueError):
    pass


class FramingCrossratio:
    """Positive crossratio realized by -nu(CR(phi(...)))/2 over a framing."""

    def __init__(self, framing: FramingTable, valuation: Valuation):
        self.framing = framing
        self.valuation = valuation

    @property
    def labels(self) -> tuple[Label, ...]:
        return self.framing.labels

    def value(self, quad: Sequence[Label]) -> Fraction:
        if not self.framing.is_positively_oriented(quad):
            raise OrientationError(f"quadruple {quad} is not positively oriented")
        value = self.evaluate(quad)
        if value is None:
            raise TransversalityError(f"quadruple {tuple(quad)} has a non-transverse pair")
        return value

    def evaluate(self, quad: Sequence[Label], dets: dict | None = None) -> Fraction | None:
        """The value on quad, or None where it is not defined.

        `dets` maps each unordered label pair (a frozenset) to nu det Omega
        of its images; pass one dict to share the determinants between
        the quadruples of one computation.
        """
        if not self.framing.is_positively_oriented(quad):
            return None
        if dets is None:
            dets = {}
        q1, q2, q3, q4 = quad
        top = self._nu_det(q1, q3, dets) + self._nu_det(q4, q2, dets)
        bottom = self._nu_det(q1, q2, dets) + self._nu_det(q4, q3, dets)
        if top is INFINITY or bottom is INFINITY:
            return None
        return Fraction(bottom - top, 2)

    def _nu_det(self, a: Label, b: Label, dets: dict) -> Value:
        key = frozenset((a, b))
        nu = dets.get(key)
        if nu is None:
            image = self.framing.image
            nu = dets[key] = self.valuation.of(pairing_matrix(image(a), image(b)).det())
        return nu


class TableCrossratio:
    """Finite crossratio given by an explicit table on label quadruples."""

    def __init__(self, labels: Sequence[Label], table: dict[tuple, Fraction]):
        self.labels = tuple(labels)
        self.table = {tuple(k): Fraction(v) for k, v in table.items()}

    def value(self, quad: Sequence[Label]) -> Fraction:
        return self.table[tuple(quad)]

    def evaluate(self, quad: Sequence[Label], dets: dict | None = None) -> Fraction | None:
        """The tabled value, or None; a table needs no determinants."""
        return self.table.get(tuple(quad))


@dataclass(frozen=True)
class PeriodReport:
    word: Word
    period: Fraction
    method: str  # "framing" or "translation_length"

    def __post_init__(self):
        if self.period < 0:
            raise ValueError(f"negative period for {self.word}")


def period_via_length(rep: RepTable, word: Word) -> PeriodReport:
    value = translation_length(rep.image(word), rep.valuation)
    return PeriodReport(word, value, "translation_length")


def period(rep: RepTable, framing: FramingTable, word: Word, x: Label) -> PeriodReport:
    """Framing period [g-, x, gx, g+] of the element given by `word`.

    The label gx comes from the framing's listed action of `word`, and
    the two labels it fixes serve as g-, g+.  Whichever assignment makes
    (g-, x, gx, g+) positively oriented is used (the value is invariant
    under reversing the quadruple).
    """
    action = framing.symmetries.get(word) if framing.symmetries else None
    if action is None:
        raise KeyError(f"framing lists no action for {word}")
    gx = action[x]
    if gx == x:
        raise ValueError(f"auxiliary label {x!r} is fixed by {word}")
    fixed = [l for l in framing.labels if action.get(l) == l]
    if len(fixed) != 2:
        raise ValueError(f"need exactly two fixed labels, found {fixed}")
    minus, plus = fixed
    cr = FramingCrossratio(framing, rep.valuation)
    for quad in ((minus, x, gx, plus), (plus, x, gx, minus)):
        if framing.is_positively_oriented(quad):
            return PeriodReport(word, cr.value(quad), "framing")
    raise OrientationError(f"no positively oriented arrangement of ({minus}, {x}, {gx}, {plus})")


@dataclass(frozen=True)
class RectangleBounds:
    lower: Fraction
    upper: Fraction
    lower_witness: tuple | None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("rectangle bounds crossed")


def rectangle_bounds(
    cr, corners: Sequence[Label], samples: Sequence[Sequence[Label]]
) -> RectangleBounds:
    """Sandwich the measure of the open rectangle ]d,a[ x ]b,c[.

    `corners` is the positively oriented quadruple (a, b, c, d).  The
    closed-corner value bounds the measure above; each nested inner
    quadruple bounds it below, and the reported lower bound is the best
    sampled one.  Samples must be nested: [d',a'] inside ]d,a[ and
    [b',c'] inside ]b,c[.
    """
    a, b, c, d = corners
    upper = cr.value(corners)
    lower = Fraction(0)
    witness = None
    positions = {l: i for i, l in enumerate(cr.labels)}
    size = len(cr.labels)

    def ccw(i, j):
        return (positions[j] - positions[i]) % size

    for sample in samples:
        a2, b2, c2, d2 = sample
        # closed intervals [d',a'] and [b',c'] inside the corner intervals;
        # endpoints may coincide with corners (the sandwich then collapses)
        ok = (
            ccw(d, d2) <= ccw(d, a2) <= ccw(d, a)
            and ccw(b, b2) <= ccw(b, c2) <= ccw(b, c)
        )
        if not ok:
            raise ValueError(f"sample {sample} is not nested in the rectangle")
        value = cr.value(tuple(sample))
        if value > lower:
            lower, witness = value, tuple(sample)
    if lower > upper:
        raise ValueError("sampled lower bound exceeds the corner value")
    return RectangleBounds(lower, upper, witness)


@dataclass(frozen=True)
class MulticurveCertified:
    k: int
    periods: tuple[tuple[Word, Fraction], ...]

    kind = "multicurve_certified"


@dataclass(frozen=True)
class DiscretenessUnknown:
    k_max: int
    periods: tuple[tuple[Word, Fraction], ...]

    kind = "discreteness_unknown"


Classification = MulticurveCertified | DiscretenessUnknown


def certify_period_values(
    periods: Sequence[tuple[Word, Fraction]], k_max: int
) -> Classification:
    """Least K <= k_max with every period in (1/K)Z, if any."""
    k = 1
    for _, value in periods:
        k = lcm(k, value.denominator)
    if k <= k_max:
        return MulticurveCertified(k, tuple(periods))
    return DiscretenessUnknown(k_max, tuple(periods))


def multicurve_certificate_ball(
    rep: RepTable, max_len: int, k_max: int = 16
) -> Classification:
    """Certificate over every freely reduced word up to max_len.

    Periods are conjugation- and inversion-invariant, so each class is
    computed once, from the image of its representative, under the
    representative's key (its class's conjugacy key).  Only the class
    sweep builds images; the same walk, `words.ball_levels`, then lists
    the ball without any, and each word's conjugacy key finds its period.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    class_periods = {
        key: translation_length(image, rep.valuation)
        for _, key, image in rep.class_representatives(max_len)
    }
    periods = [
        (word, class_periods[conjugacy_key(key)])
        for level in ball_levels(rep.free_generators, max_len)
        for word, key in level
    ]
    return certify_period_values(periods, k_max)


@dataclass(frozen=True)
class SystoleReport:
    """Minimum translation length over the swept non-peripheral classes.

    A minimum over a swept subset bounds the true systole from above;
    this is a certificate only for the swept words.
    """

    value: Fraction | None
    witness: Word | None
    classes_swept: int


def systole_sweep(
    rep: RepTable,
    radius: int,
    boundary_words: Sequence[Word] = (),
) -> SystoleReport:
    """Least translation length over the class representatives up to radius.

    Classes of powers of a boundary word or its inverse are skipped.  The
    boundary words are keyed once; each representative's key, its class's
    conjugacy key, comes from the sweep.  The sweep stops at length 0.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    index = rep.letter_index
    # as in is_power_of_class, a base outside index matches nothing
    inside = [b for b in boundary_words if set(b.letters) <= index.keys()]
    bases = [conjugacy_key(tuple(index[letter] for letter in b.letters)) for b in inside]
    best = None
    witness = None
    swept = 0
    for word, key, image in rep.class_representatives(radius):
        if any(is_key_power(key, base) for base in bases):
            continue
        swept += 1
        value = translation_length(image, rep.valuation)
        if best is None or value < best:
            best, witness = value, word
            if best == 0:
                break
    return SystoleReport(best, witness, swept)


@dataclass(frozen=True)
class DichotomyReport:
    ok: bool
    checked: int
    violations: tuple[tuple[RatFunc, str], ...]

    def __bool__(self):
        return self.ok


def lamination_dichotomy_check(
    values: Sequence[RatFunc], order: OrderSpec, valuation: Valuation
) -> DichotomyReport:
    """For crossratio values x >= 1: nu(x) = 0 or nu(x/(x-1)) = 0.

    x = 1 lands in the first branch (nu(1) = 0).  Inputs below 1 in the
    order are reported as precondition violations.
    """
    violations = []
    checked = 0
    one = RatFunc.coerce(1)
    for x in values:
        checked += 1
        if order.compare(x, one) < 0:
            violations.append((x, "input below 1 in the order"))
            continue
        if valuation.of(x) == 0:
            continue
        if x == one:
            continue
        if valuation.of(x / (x - one)) == 0:
            continue
        violations.append((x, "both branches have nonzero valuation"))
    return DichotomyReport(not violations, checked, tuple(violations))


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    symmetry_checked: int
    additivity_checked: int
    violation: str | None = None

    def __bool__(self):
        return self.ok


def crossratio_axiom_check(cr, quintuples: Sequence[Sequence[Label]]) -> AxiomReport:
    """Flip symmetry and the additivity cocycle on evaluable tuples.

    Each positively oriented 5-tuple (x1..x5) contributes the three
    quadruples of the additivity identity
    [x1,x2,x4,x5] = [x1,x2,x3,x5] + [x1,x3,x4,x5], and each evaluable
    quadruple is checked for [q1,q2,q3,q4] = [q3,q4,q1,q2].  Each
    quadruple is evaluated once, through `cr.evaluate`, and the pairing
    determinants are shared through one table that lives for this call.
    """
    dets = {}
    sym = add = 0
    for quint in quintuples:
        x1, x2, x3, x4, x5 = quint
        quads = [(x1, x2, x4, x5), (x1, x2, x3, x5), (x1, x3, x4, x5)]
        values = []
        for quad in quads:
            value = cr.evaluate(quad, dets)
            if value is None:
                values = None
                break
            flipped = cr.evaluate((quad[2], quad[3], quad[0], quad[1]), dets)
            if flipped is not None:
                sym += 1
                if flipped != value:
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
