"""Translation lengths, Jordan projections and building pseudodistances.

One reader feeds them all: `root_valuations` lists nu(lambda) over the
eigenvalues lambda of g, with multiplicity and nondecreasing, read off the
Newton polygon of char_poly(g) without extracting any root.  A word image
arrives fraction-free, as a FracMatrix N/D; the list comes from
char_poly(N) over Z[X] and nu(D), so no canonical Q(X) element is built
on the way.  char_poly(N) is Berkowitz's recursion on the
Kronecker-packed ints N(2^b'), at a width b' measured to hold every
coefficient of char_poly(N) (see linalg).

For symplectic g the eigenvalues pair as lambda, 1/lambda, so the list is
its own negated reversal; the Jordan projection, the sorted vector of
-nu(lambda) in the Weyl chamber, is the list's first half, negated.  Two
norms turn the list into a length: the Siegel-model sum of the Jordan
vector ("sum"), and the projective spread, last minus first, which needs
no symmetry ("spread").  The orbit-point pseudodistance between g1 and g2
halves the list of t(h) h with h = g1^{-1} g2, since Cartan values are
square roots of the eigenvalues of t(h) h.  h and t(h) h are packed
FracMatrix products.  For symplectic g1 the inverse is J^-1 t(g1) J, a
signed rearrangement of the cleared g1 over its own denominator; any
other g1 is inverted by elimination over Q(X) and then cleared.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import FracMatrix, Matrix, SingularMatrixError
from .poly import Poly
from .valuation import Valuation, newton_polygon

NORM_SUM = "sum"
NORM_SPREAD = "spread"
_NORMS = (NORM_SUM, NORM_SPREAD)


class NonSymplecticSpectrumError(ValueError):
    """Char-poly valuations failed the lambda <-> 1/lambda symmetry."""


def root_valuations(g: Matrix | FracMatrix, val: Valuation) -> list[Fraction]:
    """nu(lambda) over the eigenvalues of an invertible g, with multiplicity, nondecreasing.

    g is a FracMatrix N/D, or a Matrix over Q(X) that is first cleared to
    one.  Only char_poly(N) is computed, over Z[X].
    """
    image = g if isinstance(g, FracMatrix) else FracMatrix.from_matrix(g)
    return quotient_root_valuations(image.char_poly(), image.den, val)


def quotient_root_valuations(char_poly: Poly, den: Poly, val: Valuation) -> list[Fraction]:
    """The root valuations of N/D, from char_poly(N) over Z[X] and D.

    With a_k the T^k coefficient of char_poly(N) and m its degree,
    char_poly(N/D) has T^k coefficient c_k = a_k / D^(m-k), so
    nu(c_k) = nu(a_k) - (m-k) nu(D).  That change of the Newton points is
    affine in k: it moves every root valuation by -nu(D), as the
    eigenvalues of N/D are those of N divided by D.  A zero root raises
    SingularMatrixError.
    """
    polygon = newton_polygon(char_poly, val)
    if polygon.zero_roots:
        raise SingularMatrixError("matrix is singular; Jordan data undefined")
    shift = val.of(den)
    return [v - shift for v in polygon.expanded()]


def jordan_vector(values: list[Fraction]) -> tuple[Fraction, ...]:
    """The Jordan projection read from a root-valuation list: its first half, negated.

    The list must be its own negated reversal (n entries are returned for
    a 2n x 2n input), which makes the result nonincreasing and
    nonnegative.
    """
    if len(values) % 2:
        raise ValueError("symplectic matrices have even size")
    if values != [-v for v in reversed(values)]:
        raise NonSymplecticSpectrumError(
            "eigenvalue valuations are not symmetric under negation"
        )
    return tuple(-v for v in values[: len(values) // 2])


def jordan_valuation(g: Matrix | FracMatrix, val: Valuation) -> tuple[Fraction, ...]:
    """Jordan projection as -nu(eigenvalue) values, sorted nonincreasing."""
    return jordan_vector(root_valuations(g, val))


def translation_length(
    g: Matrix | FracMatrix, val: Valuation, norm: str = NORM_SUM
) -> Fraction:
    """Length of g on the building: sum of the Jordan vector, or spread of the root valuations."""
    _check_norm(norm)
    if norm == NORM_SUM:
        return sum(jordan_valuation(g, val), Fraction(0))
    values = root_valuations(g, val)
    return values[-1] - values[0]


def building_pseudodistance(
    g1: Matrix, g2: Matrix, val: Valuation, norm: str = NORM_SUM
) -> Fraction:
    """Pseudodistance between the orbit points of g1 and g2.

    With h = g1^{-1} g2 and m = t(h) h, the Cartan values of h have
    valuations equal to half the root valuations of char_poly(m); the
    "sum" norm adds -v/2 over the negative values v of that (symmetric)
    list, the "spread" norm takes half the spread.  Both products are
    fraction-free: h = g1^{-1} g2 over D1 D2 and m over (D1 D2)^2.
    """
    _check_norm(norm)
    inverse = FracMatrix.from_matrix(g1).symplectic_inverse()
    if inverse is None:
        inverse = FracMatrix.from_matrix(g1.inverse())
    if g1.cols != g2.rows:
        raise ValueError(f"shape mismatch {g1.rows}x{g1.cols} @ {g2.rows}x{g2.cols}")
    h = inverse @ FracMatrix.from_matrix(g2)
    values = root_valuations(h.transpose() @ h, val)
    if norm == NORM_SUM:
        return sum((-v for v in values if v < 0), Fraction(0)) / 2
    return Fraction(values[-1] - values[0], 2)


def _check_norm(norm: str):
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
