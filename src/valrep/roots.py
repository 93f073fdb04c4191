"""Exact eigenvalue extraction over Q(X) with integer arithmetic only.

A matrix over Q(X) is cleared to N/D over Z[X] (`FracMatrix`), and its
eigenvalues are those of N divided by D.  char_poly(N) is monic in
Z[X][T], and Z[X] is integrally closed, so each of its roots in Q(X)
lies in Z[X] and divides its lowest nonzero coefficient.  One Kronecker
evaluation X = 2^w, wide enough for every such divisor (Mignotte's
bound), turns these roots into integer roots of a polynomial in Z[T];
an l-adic root finder (Hensel lifting) finds those, and each candidate
is read back into Z[X] and confirmed exactly there.  Roots outside
Q(X) are reported as a non-split count, never approximated.
"""

from __future__ import annotations

from .fields import ZERO, RatFunc
from .poly import Poly, gcd, pack, unpack


class NonSplitError(ValueError):
    """The required eigenvalues do not all lie in Q(X)."""


def linear_eigenvalues(p: Poly) -> tuple[list[tuple[RatFunc, int]], int]:
    """Roots of p in Z[X][T] (coefficients integer Polys in X) that lie in Q(X).

    Returns (roots, nonsplit_degree): `roots` pairs each Q(X) root with
    its multiplicity, sorted by (str, multiplicity); `nonsplit_degree`
    counts the remaining roots, which live in proper extensions.

    With m = deg_T p and lc its leading coefficient, p~_i = p_i lc^(m-1-i)
    defines the monic p~(T) = lc^(m-1) p(T / lc), whose roots are lc times
    those of p; being integral over Z[X], they lie in Z[X].  After the
    root 0 (the power of T dividing p~) is split off, every root a divides
    c = p~(0) != 0, so Mignotte's bound gives |a_j| <= 2^deg c ||c||_2 <
    2^(w-1) for the width w of `_root_width`.  Completeness: evaluation at
    X = 2^w is a ring map, so a(2^w) is an integer root of f = p~(2^w, T)
    and of its square-free part s, and `unpack` reads a back from it.
    `_integer_roots` finds every integer root of s: it lifts every root
    of s mod a prime l at which all of them are simple, and at a simple
    root the Hensel lift is unique.  Soundness: each candidate's
    multiplicity is counted exactly in Z[X], by deflating p~ at it (the
    number of successive T-derivatives of p~ vanishing there), and a
    candidate of multiplicity 0 is dropped.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    m = p.degree
    lc = p.leading()
    monic = Poly([c * lc ** (m - 1 - i) for i, c in enumerate(p.coeffs[:-1])] + [Poly((1,))])
    zeros = next(i for i, c in enumerate(monic.coeffs) if c)
    reduced = Poly(monic.coeffs[zeros:])
    roots = [(ZERO, zeros)] if zeros else []
    if reduced.degree > 0:
        width = _root_width(reduced.coeffs[0])
        f = Poly(pack(c, width) for c in reduced.coeffs)
        _, squarefree, _ = gcd(f, _derivative(f))
        for r in _integer_roots(squarefree):
            a = unpack(r, width)
            mult, _ = reduced.deflate_at(a)
            if mult:
                roots.append((RatFunc(a, lc), mult))
    roots.sort(key=lambda rm: (str(rm[0]), rm[1]))
    return roots, m - sum(mult for _, mult in roots)


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
