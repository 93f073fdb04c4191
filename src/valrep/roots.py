"""Exact eigenvalue extraction over Q(X) via bivariate factorization.

A matrix over Q(X) is cleared to N/D over Z[X] (`FracMatrix`), and its
eigenvalues are those of N divided by D.  char_poly(N) lies in Z[X][T],
that is in Z[X, T], so sympy's exact factorization over the integers
exposes the factors a1 T + a0 that are linear in T, with a0, a1 in Z[X];
their roots -a0/a1 are the eigenvalues of N lying in Q(X), built as
Z[X] pairs with no rational coefficient.  Factors of higher T-degree are
reported as a non-split remainder, never approximated.
"""

from __future__ import annotations

from .fields import RatFunc
from .poly import Poly


class NonSplitError(ValueError):
    """The required eigenvalues do not all lie in Q(X)."""


def linear_eigenvalues(p: Poly) -> tuple[list[tuple[RatFunc, int]], int]:
    """Roots of p in Z[X][T] (coefficients integer Polys in X) that lie in Q(X).

    Returns (roots, nonsplit_degree): `roots` pairs each Q(X) root with
    its multiplicity, sorted deterministically; `nonsplit_degree` counts
    the remaining roots living in proper extensions.
    """
    import sympy

    _T, _X = sympy.symbols("T X")
    if p.is_zero():
        raise ValueError("zero polynomial")
    terms = {
        (i, j): c for i, cx in enumerate(p.coeffs) for j, c in enumerate(cx.coeffs) if c
    }
    _, factors = sympy.factor_list(sympy.Poly.from_dict(terms, _T, _X))
    roots: list[tuple[RatFunc, int]] = []
    nonsplit = 0
    for factor, mult in factors:
        fpoly = sympy.Poly(factor, _T)
        deg_t = fpoly.degree()
        if deg_t == 0:
            continue
        if deg_t > 1:
            nonsplit += deg_t * mult
            continue
        a1, a0 = (_integer_poly(c, _X) for c in fpoly.all_coeffs())
        roots.append((RatFunc(-a0, a1), mult))
    roots.sort(key=lambda rm: (str(rm[0]), rm[1]))
    return roots, nonsplit


def _integer_poly(expr, x_symbol) -> Poly:
    """The Z[X] polynomial of a sympy expression with integer coefficients."""
    import sympy

    coeffs = sympy.Poly(sympy.expand(expr), x_symbol).all_coeffs()
    return Poly(int(c) for c in reversed(coeffs))
