"""Translation lengths, Jordan projections and building pseudodistances.

Everything here goes through characteristic polynomials and Newton
polygons: the Jordan projection of g over (Q(X), nu) is the sorted vector
of -nu(eigenvalue) values, read off the polygon of char_poly(g) without
extracting any root.  For symplectic g the valuation multiset is
symmetric under negation (eigenvalues pair as lambda, 1/lambda) and the
Jordan vector is its nonnegative half.  A word image arrives
fraction-free, as a FracMatrix N/D; the polygon comes from char_poly(N)
over Z[X] and nu(D), so no canonical Q(X) element is built on the way.
char_poly(N) is Berkowitz's recursion on the Kronecker-packed ints
N(2^b'), at a width b' measured to hold every coefficient of
char_poly(N) (see linalg).

Two norms turn the valuation multiset into a length: the Siegel-model
sum of the Jordan vector ("sum"), and the projective spread, max - min
over the whole multiset, which needs no symmetry ("spread").  The
orbit-point pseudodistance between g1 and g2 halves the polygon data of
t(h) h with h = g1^{-1} g2, since Cartan values are square roots of the
eigenvalues of t(h) h.  h and t(h) h are packed FracMatrix products.
For symplectic g1 the inverse is J^-1 t(g1) J, a signed rearrangement of
the cleared g1 over its own denominator; any other g1 is inverted by
elimination over Q(X) and then cleared.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import FracMatrix, Matrix, SingularMatrixError
from .poly import Poly
from .valuation import NewtonPolygonResult, Valuation, newton_polygon

NORM_SUM = "sum"
NORM_SPREAD = "spread"
_NORMS = (NORM_SUM, NORM_SPREAD)


class NonSymplecticSpectrumError(ValueError):
    """Char-poly valuations failed the lambda <-> 1/lambda symmetry."""


def char_poly_polygon(g: Matrix | FracMatrix, val: Valuation) -> NewtonPolygonResult:
    """Newton polygon of char_poly(g) over (Q(X), nu), read fraction-free.

    g is a FracMatrix N/D, or a Matrix over Q(X) that is first cleared to
    one.  Only char_poly(N) is computed, over Z[X].
    """
    image = g if isinstance(g, FracMatrix) else FracMatrix.from_matrix(g)
    return quotient_polygon(image.char_poly(), image.den, val)


def quotient_polygon(char_poly: Poly, den: Poly, val: Valuation) -> NewtonPolygonResult:
    """Newton polygon of char_poly(N/D), from char_poly(N) over Z[X] and D.

    With a_k the T^k coefficient of char_poly(N) and m its degree,
    char_poly(N/D) has T^k coefficient c_k = a_k / D^(m-k), so
    nu(c_k) = nu(a_k) - (m-k) nu(D).  That change of the Newton points is
    affine in k: it moves every root valuation by -nu(D), as the
    eigenvalues of N/D are those of N divided by D.
    """
    polygon = newton_polygon(char_poly, val)
    shift = val.of(den)
    return NewtonPolygonResult(
        tuple((v - shift, m) for v, m in polygon.root_valuations), polygon.zero_roots
    )


def root_valuations(polygon: NewtonPolygonResult) -> list[Fraction]:
    """nu(lambda) for all eigenvalues, nondecreasing, from an invertible matrix's polygon."""
    if polygon.zero_roots:
        raise SingularMatrixError("matrix is singular; Jordan data undefined")
    return polygon.expanded()


def jordan_valuation(g: Matrix | FracMatrix, val: Valuation) -> tuple[Fraction, ...]:
    """Jordan projection as -nu(eigenvalue) values, sorted nonincreasing.

    The +/- symmetry of the valuation multiset is checked, and its
    nonnegative half is returned (n entries for a 2n x 2n input).
    """
    return jordan_from_polygon(char_poly_polygon(g, val), g.rows)


def jordan_from_polygon(polygon: NewtonPolygonResult, size: int) -> tuple[Fraction, ...]:
    """The Jordan projection of a size x size matrix with this char-poly polygon."""
    values = root_valuations(polygon)
    if size % 2:
        raise ValueError("symplectic matrices have even size")
    if sorted(values) != sorted(-v for v in values):
        raise NonSymplecticSpectrumError(
            "eigenvalue valuations are not symmetric under negation"
        )
    return tuple(sorted((-v for v in values), reverse=True)[: size // 2])


def translation_length(
    g: Matrix | FracMatrix, val: Valuation, norm: str = NORM_SUM
) -> Fraction:
    """Length of g on the building: sum of the Jordan vector, or max - min of all nu(eigenvalue)."""
    _check_norm(norm)
    if norm == NORM_SUM:
        return sum(jordan_valuation(g, val), Fraction(0))
    values = root_valuations(char_poly_polygon(g, val))
    return max(values) - min(values)


def building_pseudodistance(
    g1: Matrix, g2: Matrix, val: Valuation, norm: str = NORM_SUM
) -> Fraction:
    """Pseudodistance between the orbit points of g1 and g2.

    With h = g1^{-1} g2 and m = t(h) h, the Cartan values of h have
    valuations equal to half the root valuations of char_poly(m); the
    "sum" norm aggregates max(-v/2, 0) over the whole (symmetric)
    multiset, the "spread" norm takes half the spread.  Both products are
    fraction-free: h = g1^{-1} g2 over D1 D2 and m over (D1 D2)^2.
    """
    _check_norm(norm)
    inverse = FracMatrix.from_matrix(g1).symplectic_inverse()
    if inverse is None:
        inverse = FracMatrix.from_matrix(g1.inverse())
    if g1.cols != g2.rows:
        raise ValueError(f"shape mismatch {g1.rows}x{g1.cols} @ {g2.rows}x{g2.cols}")
    h = inverse @ FracMatrix.from_matrix(g2)
    values = root_valuations(char_poly_polygon(h.transpose() @ h, val))
    if norm == NORM_SUM:
        half = Fraction(1, 2)
        return sum((max(-v * half, Fraction(0)) for v in values), Fraction(0))
    return Fraction(max(values) - min(values), 2)


def _check_norm(norm: str):
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")
