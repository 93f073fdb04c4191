"""The pair-of-pants demo representation into Sp(4, Q(X)).

The fundamental group <c1, c2, c3 : c3 c2 c1> maps c1 and c2 to two
explicit unipotent matrices with entries in Q[X, 1/X]; c3 is forced to
(c2 c1)^{-1} by the relator.  Construction validates symplecticity and
the relator exactly.
"""

from __future__ import annotations

from .exprparse import parse_ratfunc
from .fields import OrderSpec
from .linalg import Matrix
from .representation import GroupPresentation, RepTable
from .symplectic import symplectic_inverse
from .valuation import Valuation
from .words import Word, parse_word

C1_ENTRIES = [
    ["1", "4*X", "0", "0"],
    ["0", "1", "0", "0"],
    ["2", "4*X", "1", "0"],
    ["-4*X", "2", "-4*X", "1"],
]

C2_ENTRIES = [
    ["1", "1/X", "-2", "-1/X"],
    ["0", "1", "1/X", "-2"],
    ["0", "0", "1", "0"],
    ["0", "0", "-1/X", "1"],
]


def matrix_from_strings(rows: list[list[str]]) -> Matrix:
    return Matrix([[parse_ratfunc(e) for e in row] for row in rows])


def pants_presentation() -> GroupPresentation:
    return GroupPresentation(("c1", "c2", "c3"), (parse_word("c3 c2 c1"),))


def pants_rep(
    order: OrderSpec, valuation: Valuation | None = None, degree_bound: int = 512
) -> RepTable:
    """The demo representation, with c3 := (c2 c1)^{-1}, under the given degree guard."""
    c1 = matrix_from_strings(C1_ENTRIES)
    c2 = matrix_from_strings(C2_ENTRIES)
    c3 = symplectic_inverse(c2 @ c1)
    return RepTable(
        pants_presentation(),
        {"c1": c1, "c2": c2, "c3": c3},
        order,
        valuation or Valuation(order.a),
        free_generators=("c1", "c2"),
        degree_bound=degree_bound,
    )


def boundary_words() -> list[Word]:
    """The three peripheral classes, in terms of the free generators c1, c2."""
    return [parse_word("c1"), parse_word("c2"), parse_word("c2 c1")]
