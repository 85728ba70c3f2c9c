"""Support tables and convolution operator matrices.

For a measure whose support ``g_0 = e, g_1, …, g_n`` is closed under
multiplication, the support is a finite subgroup and all convolution
arithmetic restricted to it becomes index bookkeeping:

* :class:`SupportTable` stores the index multiplication table
  ``mult[j][k] = index(g_j g_k)``; its rows are the left-translation
  permutations and its columns the right-translation permutations.
* :func:`left_operator` turns a weight vector ``alpha`` into the matrix ``L``
  with ``L[j][l] = alpha[index(g_j g_l^{-1})]``, so that
  ``weights(mu * nu) = L @ weights(nu)``.
* :func:`right_operator` builds ``R`` with ``R[j][k] = alpha[index(g_k^{-1} g_j)]``,
  so that ``weights(nu * mu) = R @ weights(nu)``.

Row ``j`` of either matrix describes the output weight at atom ``g_j``;
column index runs over the input atoms.  Both matrices are doubly stochastic:
every row and column is a permutation of ``alpha``.

:func:`build_support_table` computes only a few columns of the table with
group products and fills the rest by index arithmetic.  It picks generators
greedily, each the least index not yet reached, and computes for each
generator ``s_t`` the right-multiplication column ``col_t[j] = index(g_j s_t)``:
``n`` products a generator.  A breadth-first search from ``e`` by right
products with the generators reaches every other atom as ``g_k = g_p s_t``
with ``p`` reached before ``k``, and then ``mult[j][k] = col_t[mult[j][p]]``
for every ``j``.

Proof of the closure test.  Suppose every column product lies in the support
``K``.  The reached set is the monoid the generators generate, and it lies
in ``K``; every atom is reached, because each atom not yet reached is made a
generator (``e s = s``).  Induct along the search order: ``g_j g_0 = g_j`` is
in ``K``, and if ``g_j g_p`` is in ``K`` then, by associativity,
``g_j g_k = (g_j g_p) s_t`` is an entry of ``col_t`` and so in ``K``.  Hence
``K`` is closed and the fill is its table.  Conversely an escaping column
product is a product of two atoms that lies outside ``K``; the row-major
scan then names the first such product.  A finite monoid inside a group is a subgroup
(the inverse of ``s`` is a power of ``s``), so each new generator at least
doubles the order of the reached subgroup and at most ``log2(n)`` are picked.

:func:`~convreg.regularity.decide_regular` builds the table of every
normalized support it decides: building it is the verdict's closure test,
the product :class:`~convreg.errors.NotClosed` names is the witness, and a
regular verdict's certificate is re-validated on it, after a check that
every row and every column of ``mult`` is a permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapExceeded, DimensionMismatch, IdentityMissing, NotClosed
from .groups import DEFAULT_CLOSURE_CAP, GroupElement
from .linalg import RationalMatrix

__all__ = [
    "SupportTable",
    "build_support_table",
    "OperatorMatrix",
    "left_operator",
    "right_operator",
]


@dataclass(frozen=True)
class SupportTable:
    """Closed support with its index multiplication table.

    ``elements[0]`` is the identity; ``mult[j][k] = index(g_j g_k)``;
    ``inv_index[k]`` is the index of ``g_k^{-1}``.
    """

    elements: tuple[GroupElement, ...]
    mult: tuple[tuple[int, ...], ...]
    inv_index: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def build_support_table(elements: Sequence[GroupElement]) -> SupportTable:
    """Index the multiplication of a closed support containing the identity.

    Raises CapExceeded, before any product, when there are more than
    ``DEFAULT_CLOSURE_CAP`` elements; IdentityMissing when no atom is the
    identity; and NotClosed, naming the first product in row-major order that
    escapes the support, when the support is not closed.  The identity is
    moved to index 0 if it is not already first.
    """
    elems = list(elements)
    if len(elems) > DEFAULT_CLOSURE_CAP:
        raise CapExceeded(
            f"support of {len(elems)} atoms exceeds the table budget of {DEFAULT_CLOSURE_CAP}"
        )
    if not elems:
        raise IdentityMissing("empty support")
    e = elems[0].group.identity()
    if e not in elems:
        raise IdentityMissing("support does not contain the identity")
    elems.insert(0, elems.pop(elems.index(e)))
    index: dict[GroupElement, int] = {}
    rep = [index.setdefault(el, i) for i, el in enumerate(elems)]
    columns = _columns_from_generators(elems, index, rep)
    if columns is None:
        # Some product escapes, so the row-major scan finds a first one; it
        # skips row and column 0, whose products with e cannot escape.
        rest = elems[1:]
        gj, gk = next((gj, gk) for gj in rest for gk in rest if gj * gk not in index)
        raise NotClosed(f"{gj} * {gk} = {gj * gk} escapes the support")
    mult = tuple(zip(*columns))
    # A finite closed set containing e is a subgroup, so every row holds e.
    return SupportTable(tuple(elems), mult, tuple(row.index(0) for row in mult))


def _columns_from_generators(
    elems: list[GroupElement], index: dict[GroupElement, int], rep: list[int]
) -> list[list[int]] | None:
    """Columns ``k -> [index(g_j g_k) for j]`` of the table, or None if not closed.

    ``rep[i]`` is the first index of the element at ``i`` (repeated elements
    share their first occurrence's index and column).
    """
    n = len(elems)
    gen_columns: list[list[int]] = []
    columns: list[list[int] | None] = [None] * n
    columns[0] = rep
    order = [0]
    for g in range(n):
        if columns[rep[g]] is not None:
            continue
        s = elems[g]
        column = [index.get(x * s) for x in elems]
        if None in column:
            return None
        gen_columns.append(column)
        for p in order:  # also visits the atoms appended below
            for col in gen_columns:
                k = col[p]
                if columns[k] is None:  # g_k = g_p s, so mult[j][k] = col[mult[j][p]]
                    columns[k] = list(map(col.__getitem__, columns[p]))
                    order.append(k)
    return [columns[r] for r in rep]


@dataclass(frozen=True)
class OperatorMatrix:
    """A one-sided convolution operator: a stochastic matrix plus its side."""

    matrix: RationalMatrix
    side: str  # "left" or "right"


def _check_alpha(alpha: Sequence[Fraction], table: SupportTable) -> list[Fraction]:
    alpha = [Fraction(v) for v in alpha]
    if len(alpha) != table.size:
        raise DimensionMismatch(
            f"weight vector has length {len(alpha)}, support has {table.size} atoms"
        )
    if any(v < 0 for v in alpha):
        raise ValueError("weights must be nonnegative")
    if sum(alpha) != 1:
        raise ValueError(f"weights must sum to 1, got {sum(alpha)}")
    return alpha


def left_operator(alpha: Sequence[Fraction], table: SupportTable) -> OperatorMatrix:
    """Matrix of ``nu -> mu * nu`` on the support, ``mu`` having weights ``alpha``."""
    alpha = _check_alpha(alpha, table)
    n = table.size
    rows = [
        tuple(alpha[table.mult[j][table.inv_index[l]]] for l in range(n))
        for j in range(n)
    ]
    return OperatorMatrix(RationalMatrix(tuple(rows)), "left")


def right_operator(alpha: Sequence[Fraction], table: SupportTable) -> OperatorMatrix:
    """Matrix of ``nu -> nu * mu`` on the support, ``mu`` having weights ``alpha``."""
    alpha = _check_alpha(alpha, table)
    n = table.size
    rows = [
        tuple(alpha[table.mult[table.inv_index[k]][j]] for k in range(n))
        for j in range(n)
    ]
    return OperatorMatrix(RationalMatrix(tuple(rows)), "right")
