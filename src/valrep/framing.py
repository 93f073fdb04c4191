"""Framings: cyclically ordered boundary labels with Lagrangian images.

A FramingTable is the finite, checkable shadow of a boundary map: a tuple
of abstract labels in positive cyclic order, a Lagrangian image per
label, and an optional group action on labels.  Maximality means every
positively oriented triple of labels maps to a Maslov-maximal triple;
equivariance is checked on the listed symmetries only.

Attracting Lagrangians of hyperbolic elements are computed exactly: g is
cleared to N/D over Z[X] (`FracMatrix`), char_poly(N) is computed once,
and its Newton polygon gives the valuations.  char_poly(N) is monic over
Z[X], which is integrally closed, so its roots in Q(X) lie in Z[X];
`roots.linear_eigenvalues` finds them with integer arithmetic alone, and
divided by D they are the eigenvalues of g in Q(X).  The n
valuation-dominant eigenvalues are collected (requiring a strict slope
gap to the rest), and the span of their eigenspaces is verified to be
Lagrangian.  Non-split dominant spectrum is reported, never approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

from .fields import RatFunc
from .linalg import FracMatrix, Matrix
from .representation import RepTable
from .roots import NonSplitError, linear_eigenvalues
from .spectra import quotient_polygon
from .symplectic import Lagrangian, maslov, symplectic_inverse
from .valuation import Valuation
from .words import Word

Label = Hashable


class SlopeTieError(ValueError):
    """No strict valuation gap between dominant and remaining eigenvalues."""


@dataclass(frozen=True)
class FramingTable:
    """Labels in positive cyclic order, their Lagrangians, listed symmetries.

    `symmetries` maps a group word to its action on labels (a dict); the
    action must preserve the cyclic order.
    """

    labels: tuple[Label, ...]
    images: dict[Label, Lagrangian]
    symmetries: dict[Word, dict[Label, Label]] | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("framing labels repeat")
        missing = [l for l in self.labels if l not in self.images]
        if missing:
            raise ValueError(f"labels without images: {missing}")
        for word, action in (self.symmetries or {}).items():
            unknown = {l: 0 for pair in action.items() for l in pair if l not in self.labels}
            if unknown:
                raise ValueError(f"symmetry {word} moves unknown labels {list(unknown)}")

    def image(self, label: Label) -> Lagrangian:
        return self.images[label]

    def position(self, label: Label) -> int:
        return self.labels.index(label)

    def is_positively_oriented(self, tup: Sequence[Label]) -> bool:
        """True when the labels appear in the table's cyclic order."""
        positions = [self.position(l) for l in tup]
        if len(set(positions)) != len(positions):
            return False
        rotation = positions.index(min(positions))
        rotated = positions[rotation:] + positions[:rotation]
        return all(a < b for a, b in zip(rotated, rotated[1:]))

    def oriented_triples(self) -> Iterator[tuple[Label, Label, Label]]:
        n = len(self.labels)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    yield (self.labels[i], self.labels[j], self.labels[k])


@dataclass(frozen=True)
class FramingReport:
    ok: bool
    triples_checked: int
    equivariance_checked: int
    violation: str | None = None

    def __bool__(self):
        return self.ok


def verify_maximal_framing(rep: RepTable, framing: FramingTable) -> FramingReport:
    """Check maximality on all positive triples and listed equivariance."""
    triples = 0
    for a, b, c in framing.oriented_triples():
        triples += 1
        la = framing.image(a)
        tau = maslov(la, framing.image(b), framing.image(c), rep.order)
        if tau != la.n:
            return FramingReport(
                False, triples, 0, f"triple {(a, b, c)} has index {tau} != {rep.n}"
            )
    checked = 0
    for word, action in (framing.symmetries or {}).items():
        g = rep.evaluate(word)
        for label, target in action.items():
            checked += 1
            if framing.image(label).apply(g) != framing.image(target):
                return FramingReport(
                    False,
                    triples,
                    checked,
                    f"equivariance fails: {word} . {label!r} != {target!r}",
                )
    return FramingReport(True, triples, checked)


def attracting_lagrangian(g: Matrix, val: Valuation) -> Lagrangian:
    """Span of the eigenspaces of the n valuation-dominant eigenvalues.

    g is cleared once to N/D over Z[X] and char_poly(N) is computed once:
    the Newton polygon comes from it and nu(D), and the eigenvalues in
    Q(X) are its roots in Z[X] (`linear_eigenvalues`), divided by D.  Preconditions checked: the
    dominant block splits over Q(X), there is a strict valuation gap below
    the remaining spectrum, and the block is diagonalizable (eigenspace
    dimensions match multiplicities).  The resulting span is validated as
    a Lagrangian by construction of Lagrangian.span.
    """
    if g.rows % 2:
        raise ValueError("attracting Lagrangians need a 2n x 2n matrix")
    n = g.rows // 2
    image = FracMatrix.from_matrix(g)
    char_poly = image.char_poly()
    all_vals = quotient_polygon(char_poly, image.den, val).expanded()
    if len(all_vals) != 2 * n:
        raise ValueError("matrix is singular")
    gap_low, gap_high = all_vals[n - 1], all_vals[n]
    if gap_low == gap_high:
        raise SlopeTieError(
            f"no strict valuation gap: values {gap_low} and {gap_high} tie at position n"
        )
    roots = [(RatFunc(a, image.den), m) for a, m in linear_eigenvalues(char_poly)]
    eigenvalues = sorted(roots, key=lambda rm: (str(rm[0]), rm[1]))
    dominant = [(root, mult) for root, mult in eigenvalues if val.of(root) <= gap_low]
    covered = sum(m for _, m in dominant)
    if covered != n:
        raise NonSplitError(
            f"dominant block covers {covered} of {n} eigenvalues in Q(X)"
        )
    columns: list[tuple] = []
    eye = Matrix.identity(g.rows, g.one())
    for root, mult in dominant:
        kernel = (g - eye.scale(root)).kernel_basis()
        if len(kernel) != mult:
            raise NonSplitError(
                f"eigenvalue {root} has geometric multiplicity {len(kernel)} < {mult}"
            )
        columns.extend(kernel)
    basis = Matrix(columns).transpose()
    return Lagrangian.span(basis)


def repelling_lagrangian(g: Matrix, val: Valuation) -> Lagrangian:
    return attracting_lagrangian(symplectic_inverse(g), val)
