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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, IdentityMissing, NotClosed
from .groups import GroupElement
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

    def left_perm(self, j: int) -> tuple[int, ...]:
        """The permutation ``k -> index(g_j g_k)`` (row ``j``)."""
        return self.mult[j]


def build_support_table(elements: Sequence[GroupElement]) -> SupportTable:
    """Index the multiplication of a closed support containing the identity.

    Raises IdentityMissing when no atom is the identity and NotClosed (with a
    witness pair) when some product escapes the support.  The identity is
    moved to index 0 if it is not already first.
    """
    elems = list(elements)
    if not elems:
        raise IdentityMissing("empty support")
    e = elems[0].group.identity()
    if e not in elems:
        raise IdentityMissing("support does not contain the identity")
    elems.insert(0, elems.pop(elems.index(e)))
    index: dict[GroupElement, int] = {}
    for i, el in enumerate(elems):
        index.setdefault(el, i)
    mult = []
    for j, gj in enumerate(elems):
        row = []
        for k, gk in enumerate(elems):
            idx = index.get(gj * gk)
            if idx is None:
                raise NotClosed(
                    f"product of atoms {j} and {k} ({gj} * {gk} = {gj * gk}) "
                    "escapes the support"
                )
            row.append(idx)
        mult.append(tuple(row))
    inv = []
    for k in range(len(elems)):
        j = next((j for j in range(len(elems)) if mult[k][j] == 0), None)
        if j is None:
            raise NotClosed(f"atom {k} ({elems[k]}) has no inverse inside the support")
        inv.append(j)
    return SupportTable(tuple(elems), tuple(mult), tuple(inv))


@dataclass(frozen=True)
class OperatorMatrix:
    """A one-sided convolution operator: a stochastic matrix plus its side."""

    matrix: RationalMatrix
    side: str  # "left" or "right"

    @property
    def size(self) -> int:
        return self.matrix.rows


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
