"""Exact eigenvalue extraction over Q(X) with integer arithmetic only.

A matrix over Q(X) is cleared to N/D over Z[X] (`FracMatrix`), and its
eigenvalues are those of N divided by D.  char_poly(N) is monic in
Z[X][T], and Z[X] is integrally closed, so each of its roots in Q(X)
lies in Z[X] and divides its constant coefficient, nonzero for an
invertible N.  One Kronecker evaluation X = 2^w, wide enough for every
such divisor (Mignotte's bound), turns these roots into integer roots
of a polynomial in Z[T]; an l-adic root finder (Hensel lifting) finds
those, and each candidate is read back into Z[X] and confirmed exactly
there.  Roots outside Q(X) are left out, never approximated.
"""

from __future__ import annotations

from .poly import Poly, gcd, pack, unpack


class NonSplitError(ValueError):
    """The required eigenvalues do not all lie in Q(X)."""


def linear_eigenvalues(p: Poly) -> list[tuple[Poly, int]]:
    """The roots of p in Z[X] with their multiplicities, unsorted.

    p is monic in T over Z[X], of T-degree >= 1 and with c = p(0) != 0, as
    char_poly(N) is for an invertible N; any other p raises ValueError.
    Each root a in Q(X) lies in Z[X] and divides c, so Mignotte's bound
    gives |a_j| <= 2^deg c ||c||_2 < 2^(w-1) for `_root_width`'s w.
    Completeness: evaluation at X = 2^w is a ring map, so a(2^w) is an
    integer root of f = p(2^w, T) and of its square-free part s, which
    `_integer_roots` finds all of (every root of s mod a prime l at which
    all of them are simple has a unique Hensel lift), and `unpack` reads
    a back.  Soundness: each candidate's multiplicity is counted exactly
    in Z[X] by deflating p at it, and a candidate of multiplicity 0 is
    dropped.
    """
    if p.degree < 1 or p.leading() != 1 or not p.coeffs[0]:
        raise ValueError("expected a monic polynomial of positive degree with p(0) != 0")
    width = _root_width(p.coeffs[0])
    f = Poly(pack(c, width) for c in p.coeffs)
    _, squarefree, _ = gcd(f, _derivative(f))
    roots = []
    for r in _integer_roots(squarefree):
        a = unpack(r, width)
        mult, _ = p.deflate_at(a)
        if mult:
            roots.append((a, mult))
    return roots


def _root_width(c: Poly) -> int:
    """The least w with 2^(w-1) > 2^deg c ||c||_2, i.e. 4^(w-1-deg c) > ||c||_2^2.

    Every divisor of c in Z[X] has coefficients of at most 2^deg c ||c||_2
    (Mignotte; von zur Gathen & Gerhard, Modern Computer Algebra, 6.33),
    so its balanced base-2^w digits are its coefficients.
    """
    norm2 = sum(x * x for x in c.coeffs)
    return c.degree + 1 + (norm2.bit_length() + 1) // 2


def _integer_roots(s: Poly) -> list[int]:
    """The integer roots of a monic square-free s in Z[T] with s(0) != 0.

    l is the first odd prime at which every root of s mod l is simple
    (s' != 0 mod l there); one exists because the discriminant of s is
    nonzero, and s stays monic mod l.  Each root mod l is found by trial
    and Hensel-lifted to the unique root mod l^e with l^e > 2|s(0)|.  An
    integer root r divides s(0), so |r| <= |s(0)| and r is the symmetric
    residue of the lift from its own residue mod l; a lift is kept only
    if s vanishes at it.
    """
    ds = _derivative(s)
    ell = 3
    while True:
        residues = [t for t in range(ell) if s.evaluate(t) % ell == 0]
        if all(ds.evaluate(t) % ell for t in residues):
            break
        ell = _next_prime(ell)
    bound = 2 * abs(s.coeffs[0])
    out = []
    for r in residues:
        q = ell
        while q <= bound:
            q *= q
            r = (r - s.evaluate(r) * pow(ds.evaluate(r), -1, q)) % q
        if 2 * r > q:
            r -= q
        if s.evaluate(r) == 0:
            out.append(r)
    return out


def _derivative(p: Poly) -> Poly:
    return Poly(i * c for i, c in enumerate(p.coeffs) if i)


def _next_prime(n: int) -> int:
    n += 2
    while any(n % d == 0 for d in range(3, int(n**0.5) + 1, 2)):
        n += 2
    return n
