"""Group presentations and exact symplectic representations over (Q(X), ord, nu).

A RepTable couples a presentation with generator images; construction
fails loudly unless every image is symplectic and every relator evaluates
to plus or minus the identity.  Word sweeps share prefix products level
by level and deduplicate by conjugacy class (translation length is a
class function, invariant under inversion), which keeps the reported
first witness equal to the length-lexicographic first one.

Word images are fraction-free: each generator and inverse is cleared
once to a FracMatrix N/D (N over Z[X], D in Z[X]), and a product is
(N1 @ N2) / (D1 * D2), with no gcd.  Each entry of N is packed into one
Python int, its value at X = 2^b with balanced base-2^b digits, so N1 @ N2
is a product of int matrices.  Canonical Q(X) matrices are built only
where a caller asks for one (`evaluate`, `trace`).  The degree guard
measures the largest degree of a *reduced* entry, as if each entry were
canonical; since reduction never raises a degree, an entry needs its gcd
only when max(deg N_ij, deg D) exceeds the bound, and deg N_ij is read
exactly from the packed int's bit length (see `linalg.FracMatrix`).

Closed-point verdicts follow the two sound routes: an integrality
certificate (all generator entries in the valuation ring forces every
word's Newton polygon onto the axis, so no word moves the basepoint) or
an explicit word of positive translation length.  A failed sweep alone is
only ever reported as Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .fields import OrderSpec, RatFunc
from .linalg import FracMatrix, Matrix
from .spectra import NORM_SUM, translation_length
from .symplectic import SymplecticForm, is_symplectic, symplectic_inverse
from .valuation import Valuation, Value
from .words import Word, is_class_representative, word_ball, words_of_length


class RepresentationError(ValueError):
    pass


class DegreeGuardExceeded(RuntimeError):
    """An intermediate entry outgrew the configured degree bound."""

    def __init__(self, word: Word, degree: int, bound: int):
        super().__init__(
            f"entry degree {degree} exceeds bound {bound} at word {word}"
        )
        self.word = word
        self.degree = degree
        self.bound = bound


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise RepresentationError("duplicate generator names")
        for rel in self.relators:
            if not rel.letters:
                raise RepresentationError("empty relator")
            for g, _ in rel.letters:
                if g not in self.generators:
                    raise RepresentationError(f"relator uses unknown generator {g!r}")


class RepTable:
    """Validated representation: generator -> Sp(2n, Q(X)) matrix."""

    def __init__(
        self,
        presentation: GroupPresentation,
        images: dict[str, Matrix],
        order: OrderSpec,
        valuation: Valuation,
        free_generators: Sequence[str] | None = None,
    ):
        if set(images) != set(presentation.generators):
            raise RepresentationError("images must cover exactly the generators")
        sizes = {m.rows for m in images.values()}
        if len(sizes) != 1:
            raise RepresentationError("generator images differ in size")
        size = sizes.pop()
        if size % 2:
            raise RepresentationError("matrices must have even size 2n")
        self.n = size // 2
        for name, m in images.items():
            if not is_symplectic(m, SymplecticForm(self.n)):
                raise RepresentationError(f"image of {name!r} is not symplectic")
        self.presentation = presentation
        self.images = dict(images)
        self.letters = {}
        for name, m in images.items():
            self.letters[(name, 1)] = FracMatrix.from_matrix(m)
            self.letters[(name, -1)] = FracMatrix.from_matrix(symplectic_inverse(m))
        self.order = order
        self.valuation = valuation
        self.free_generators = tuple(free_generators or presentation.generators)
        for g in self.free_generators:
            if g not in presentation.generators:
                raise RepresentationError(f"unknown free generator {g!r}")
        eye = Matrix.identity(size, self._one())
        for rel in presentation.relators:
            value = self.evaluate(rel)
            if value != eye and value != eye.scale(RatFunc.coerce(-1)):
                raise RepresentationError(f"relator {rel} does not evaluate to +-identity")

    def _one(self) -> RatFunc:
        return next(iter(self.images.values())).one()

    @property
    def size(self) -> int:
        return 2 * self.n

    def identity_matrix(self) -> Matrix:
        return Matrix.identity(self.size, self._one())

    def image(self, word: Word) -> FracMatrix:
        """The fraction-free image of a word."""
        out = FracMatrix.identity(self.size)
        for letter in word.letters:
            out = out @ self.letters[letter]
        return out

    def evaluate(self, word: Word) -> Matrix:
        return self.image(word).to_matrix()

    def trace(self, word: Word) -> RatFunc:
        return self.image(word).trace()

    # -- word sweeps -----------------------------------------------------

    def iter_ball(
        self,
        radius: int,
        generators: Sequence[str] | None = None,
        degree_bound: int | None = None,
        include_identity: bool = False,
    ) -> Iterator[tuple[Word, FracMatrix]]:
        """(word, image) over the freely reduced ball, length-lex order.

        Images are fraction-free FracMatrix products, shared along
        prefixes level by level.  The degree guard aborts the sweep with
        DegreeGuardExceeded when any intermediate entry, reduced, outgrows
        the bound.
        """
        gens = tuple(generators or self.free_generators)
        identity = FracMatrix.identity(self.size)
        if include_identity:
            yield Word(), identity
        level: dict[Word, FracMatrix] = {Word(): identity}
        for _ in range(radius):
            nxt: dict[Word, FracMatrix] = {}
            for word, image in level.items():
                for name in gens:
                    for exp in (1, -1):
                        if word.letters and word.letters[-1] == (name, -exp):
                            continue
                        extended = Word(word.letters + ((name, exp),))
                        if len(extended) != len(word) + 1:
                            continue
                        product = image @ self.letters[(name, exp)]
                        if degree_bound is not None:
                            deg = product.degree_over(degree_bound)
                            if deg is not None:
                                raise DegreeGuardExceeded(extended, deg, degree_bound)
                        nxt[extended] = product
            for word in sorted(nxt, key=lambda w: _lex_key(w, gens)):
                yield word, nxt[word]
            level = nxt

    def trace_valuation_sample(
        self, max_len: int, generators: Sequence[str] | None = None
    ) -> list[tuple[Word, Value]]:
        """nu(trace) for every freely reduced word up to max_len."""
        out = []
        for word, image in self.iter_ball(max_len, generators, include_identity=True):
            out.append((word, self.valuation.of(image.trace())))
        return out


def _lex_key(word: Word, gens: Sequence[str]) -> tuple:
    index = {}
    for i, g in enumerate(gens):
        index[(g, 1)] = 2 * i
        index[(g, -1)] = 2 * i + 1
    return tuple(index[l] for l in word.letters)


# -- closed-point verdicts ---------------------------------------------------


@dataclass(frozen=True)
class ClosedPoint:
    witness: Word
    length: Fraction

    kind = "closed"


@dataclass(frozen=True)
class NotClosedIntegral:
    generator_valuations: dict[str, Fraction]

    kind = "not_closed_integral"


@dataclass(frozen=True)
class UnknownVerdict:
    radius_searched: int

    kind = "unknown"


Verdict = ClosedPoint | NotClosedIntegral | UnknownVerdict


def integrality_certificate(rep: RepTable) -> dict[str, Fraction] | None:
    """Min entry valuation per generator if all are >= 0, else None.

    Entries in the valuation ring are closed under products, and a
    symplectic matrix over the ring has its inverse there too (det = 1),
    so every word image then stays integral: its characteristic
    polynomial has all Newton points at height >= 0 with the two ends at
    height 0, forcing every root valuation to 0 and every translation
    length to vanish.
    """
    cert: dict[str, Fraction] = {}
    for name, m in rep.images.items():
        worst = None
        for row in m.entries:
            for e in row:
                if e.is_zero():
                    continue
                v = rep.valuation.of(e)
                if worst is None or v < worst:
                    worst = v
        worst = Fraction(0) if worst is None else worst
        if worst < 0:
            return None
        cert[name] = worst
    return cert


def closed_point_verdict(
    rep: RepTable,
    radius: int = 6,
    degree_bound: int | None = 512,
) -> Verdict:
    """Certified closed-point test, per the two sound routes.

    NotClosedIntegral and Closed verdicts are certificates; Unknown only
    records the searched radius (a full certificate of non-closedness by
    sweep alone would need the ball of radius 2^(2n) - 1).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    cert = integrality_certificate(rep)
    if cert is not None:
        return NotClosedIntegral(cert)
    for word, image in _class_representatives(rep, radius, degree_bound):
        length = translation_length(image, rep.valuation, NORM_SUM)
        if length > 0:
            return ClosedPoint(word, length)
    return UnknownVerdict(radius)


def _class_representatives(
    rep: RepTable, radius: int, degree_bound: int | None
) -> Iterator[tuple[Word, FracMatrix]]:
    gens = rep.free_generators
    for word, image in rep.iter_ball(radius, degree_bound=degree_bound):
        if is_class_representative(word, gens):
            yield word, image


def sweep_translation_lengths(
    rep: RepTable,
    radius: int,
    degree_bound: int | None = 512,
) -> list[tuple[Word, Fraction]]:
    """Translation length per conjugacy-class representative up to radius."""
    return [
        (w, translation_length(image, rep.valuation, NORM_SUM))
        for w, image in _class_representatives(rep, radius, degree_bound)
    ]
