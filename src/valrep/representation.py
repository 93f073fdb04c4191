"""Group presentations and exact symplectic representations over (Q(X), ord, nu).

A RepTable couples a presentation with generator images; construction
fails loudly unless every image is symplectic and every relator evaluates
to plus or minus the identity.  Class sweeps visit one word per
conjugacy class (translation length is a class function, invariant
under inversion), its length-lexicographic first one, which keeps the
reported first witness equal to the length-lexicographic first one.
The one word sweep (`iter_ball`) builds images on the ball's one walk,
`words.ball_levels`, shares prefix products level by level, multiplies
only prefixes of such representatives (`words.is_representative_prefix`)
and yields each word's key beside it, so no caller re-keys a word.

Word images are fraction-free: each generator is cleared once to a
FracMatrix N/D (N over Z[X], D in Z[X]).  Its inverse letter is the
signed rearrangement J^-1 t(N) J over the same D, and the one packed
product of the two, which must be exactly D^2 I, is also the test that
the generator is symplectic (`FracMatrix.symplectic_inverse`).  A
product is (N1 @ N2) / (D1 * D2), with no gcd.  Each entry of N is
packed into one Python int, its value at X = 2^b with balanced base-2^b
digits, so N1 @ N2 is a product of int matrices.  Canonical Q(X) matrices are built only
where a caller asks for one (`evaluate`, `trace`).  The degree guard
measures the largest degree of a *reduced* entry, as if each entry were
canonical; since reduction never raises a degree, an entry needs its gcd
only when max(deg N_ij, deg D) exceeds the bound, and deg N_ij is read
exactly from the packed int's bit length (see `linalg.FracMatrix`).  The
RepTable owns the bound (`degree_bound`, 512 by default), and one
product step applies it to every word image that is built, whether
`image` builds it letter by letter or a sweep shares its prefix; a
sweep builds no image outside its pruned tree, so the guard never sees
one.

Closed-point verdicts follow the two sound routes: an integrality
certificate (all generator entries in the valuation ring forces every
word's Newton polygon onto the axis, so no word moves the basepoint) or
an explicit word of positive translation length.  A failed sweep alone is
only ever reported as Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .fields import OrderSpec, RatFunc
from .linalg import FracMatrix, Matrix
from .spectra import translation_length
from .valuation import Valuation
from .words import (
    Key, Word, ball_levels, is_class_representative, is_representative_prefix, letter_index,
)


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
    """Validated representation: generator -> Sp(2n, Q(X)) matrix.

    Every word image, the relators' included, is built under the degree
    guard: a product with a reduced entry of degree above `degree_bound`
    raises DegreeGuardExceeded naming the word it is the image of.
    """

    def __init__(
        self,
        presentation: GroupPresentation,
        images: dict[str, Matrix],
        order: OrderSpec,
        valuation: Valuation,
        free_generators: Sequence[str] | None = None,
        degree_bound: int = 512,
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
        self.degree_bound = degree_bound
        self.letters = {}
        for name, m in images.items():
            if not m.is_square:
                raise RepresentationError(f"image of {name!r} is not square")
            image = FracMatrix.from_matrix(m)
            inverse = image.symplectic_inverse()
            if inverse is None:
                raise RepresentationError(f"image of {name!r} is not symplectic")
            self.letters[(name, 1)] = image
            self.letters[(name, -1)] = inverse
        self.presentation = presentation
        self.images = dict(images)
        self.order = order
        self.valuation = valuation
        if free_generators is None:
            free_generators = presentation.generators
        if not free_generators:
            raise RepresentationError("free_generators is empty")
        for i, g in enumerate(free_generators):
            if g not in presentation.generators:
                raise RepresentationError(f"unknown free generator {g!r}")
            if g in free_generators[:i]:
                raise RepresentationError(f"free generator {g!r} is listed twice")
        self.free_generators = tuple(free_generators)
        self.letter_index = letter_index(self.free_generators)
        for rel in presentation.relators:
            if not self.image(rel).identity_sign():
                raise RepresentationError(f"relator {rel} does not evaluate to +-identity")

    @property
    def size(self) -> int:
        return 2 * self.n

    def image(self, word: Word) -> FracMatrix:
        """The fraction-free image of a word, under the degree guard."""
        out = FracMatrix.identity(self.size)
        for i, letter in enumerate(word.letters):
            if letter not in self.letters:
                raise RepresentationError(f"word {word} uses unknown generator {letter[0]!r}")
            out = self._times(out, letter, lambda: Word.from_reduced(word.letters[: i + 1]))
        return out

    def _times(self, image: FracMatrix, letter, prefix) -> FracMatrix:
        """image times the letter's image, under the degree guard.

        `prefix` is called only when the guard fires, to build the word
        whose image the product is, which DegreeGuardExceeded names.
        """
        product = image @ self.letters[letter]
        deg = product.degree_over(self.degree_bound)
        if deg is not None:
            raise DegreeGuardExceeded(prefix(), deg, self.degree_bound)
        return product

    def evaluate(self, word: Word) -> Matrix:
        return self.image(word).to_matrix()

    def trace(self, word: Word) -> RatFunc:
        return self.image(word).trace()

    # -- word sweeps -----------------------------------------------------

    def iter_ball(self, radius: int) -> Iterator[tuple[Word, Key, FracMatrix]]:
        """(word, key, image) over the prefixes of class representatives, length-lex order.

        The image layer on the walk `words.ball_levels`, which lists the
        words of length 1 to radius over the free generators, each with
        its index key, and drops every child whose key fails
        `is_representative_prefix`; so the sweep multiplies only prefixes
        of class representatives.  Images are fraction-free FracMatrix
        products, each its parent's image times its last letter's.  All
        of a level's images are built under the degree guard, which
        raises DegreeGuardExceeded when an entry of a product, reduced,
        outgrows the bound, before any word of that level is yielded.
        The walk's MAX_BALL_WORDS limit raises ValueError before a level
        is built.
        """
        images = {(): FracMatrix.identity(self.size)}
        for level in ball_levels(self.free_generators, radius, is_representative_prefix):
            images = {
                key: self._times(images[key[:-1]], word.letters[-1], lambda: word)
                for word, key in level
            }
            yield from ((word, key, images[key]) for word, key in level)

    def class_representatives(self, radius: int) -> Iterator[tuple[Word, Key, FracMatrix]]:
        """(word, key, image) for the length-lex first word of each class in the ball.

        Classes are conjugacy classes up to inversion, as translation
        lengths and periods are invariant under both.  The representatives
        are the words of `iter_ball` whose key `is_class_representative`
        accepts, so the degree guard sees only the products of their
        prefixes.  A representative's key is its class's conjugacy key.
        """
        for word, key, image in self.iter_ball(radius):
            if is_class_representative(key):
                yield word, key, image


# -- closed-point verdicts ---------------------------------------------------


@dataclass(frozen=True)
class ClosedPoint:
    witness: Word
    length: Fraction

    kind = "closed"


@dataclass(frozen=True)
class NotClosedIntegral:
    generator_valuations: dict[str, int]

    kind = "not_closed_integral"


@dataclass(frozen=True)
class UnknownVerdict:
    radius_searched: int

    kind = "unknown"


Verdict = ClosedPoint | NotClosedIntegral | UnknownVerdict


def integrality_certificate(rep: RepTable) -> dict[str, int] | None:
    """Min entry valuation per generator if all are >= 0, else None.

    Entries in the valuation ring are closed under products, and a
    symplectic matrix over the ring has its inverse there too (det = 1),
    so every word image then stays integral: its characteristic
    polynomial has all Newton points at height >= 0 with the two ends at
    height 0, forcing every root valuation to 0 and every translation
    length to vanish.  Each generator is read from its cleared image
    N/D in `rep.letters`, as min nu(N_ij) - nu(D) over nonzero N_ij.
    """
    val = rep.valuation
    cert: dict[str, int] = {}
    for (name, sign), image in rep.letters.items():
        if sign == 1:
            den = val.of(image.den)
            entries = (val.of(e) for row in image.num.entries for e in row if e)
            cert[name] = min(entries, default=den) - den
            if cert[name] < 0:
                return None
    return cert


def closed_point_verdict(
    rep: RepTable,
    radius: int = 6,
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
    for word, _, image in rep.class_representatives(radius):
        length = translation_length(image, rep.valuation)
        if length > 0:
            return ClosedPoint(word, length)
    return UnknownVerdict(radius)


def sweep_translation_lengths(rep: RepTable, radius: int) -> list[tuple[Word, Fraction]]:
    """Translation length per conjugacy-class representative up to radius."""
    return [
        (w, translation_length(image, rep.valuation))
        for w, _, image in rep.class_representatives(radius)
    ]
