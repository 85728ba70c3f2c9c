"""The closure search of a support, support tables and convolution operators.

A support ``g_0 = e, g_1, …, g_n`` closed under multiplication is a finite
subgroup.  The closure search decides closure from a few generator columns
alone; on a closed support, the table filled from them turns all convolution
arithmetic restricted to it into index bookkeeping:

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

:func:`build_support_table` is the closure search followed by the fill.  The
search computes only a few columns of the table with group products.  It
picks generators greedily (:func:`~convreg.groups._generator_search`, which
Light's associativity test shares), each the least index not yet reached, and
computes for each generator ``s_t`` the right-multiplication column
``col_t[j] = index(g_j s_t)``: ``n`` products a generator.  A breadth-first
search from ``e`` by right products with the generators reaches every other
atom as ``g_k = g_p s_t`` with ``p`` reached before ``k``, one step
``(k, p, t)`` each.  The fill then sets ``mult[j][k] = col_t[mult[j][p]]`` for
every ``j``: index arithmetic, no products.

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

:func:`~convreg.regularity.decide_regular` runs the search on every normalized
support it decides and builds no table for a regular or open verdict: the
search is the verdict's closure test, the product
:class:`~convreg.errors.NotClosed` names is the witness, and a regular
verdict's certificate is re-validated on the search's result, after a check
that its steps reach every atom and that every generator column is a
permutation (O(n g) for ``g`` generators).  Only the unequal-weight diagnostic
fills the table, on at most ``SYSTEM_DIAGNOSTIC_MAX_ATOMS`` atoms, and
:func:`~convreg.measures.is_support_closed` is the search alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapExceeded, DimensionMismatch, IdentityMissing, NotClosed
from .groups import DEFAULT_CLOSURE_CAP, GroupElement, _generator_search
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
    return _fill(_search(elements))


def _search(elements: Sequence[GroupElement]) -> tuple:
    """The closure test: ``(elements, index, rep, columns, steps)`` of a closed support.

    ``elements`` is the support with the identity first, ``index`` maps each
    element to its first position and ``rep[i]`` is that position for the
    element at ``i``; ``columns`` and ``steps`` are those of
    :func:`~convreg.groups._generator_search`.  Raises as
    :func:`build_support_table` does.
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

    def column(g: int) -> list[int]:
        s = elems[g]
        col = [index.get(x * s) for x in elems]
        if None in col:
            # Some product escapes, so the row-major scan finds a first one; it
            # skips row and column 0, whose products with e cannot escape.
            rest = elems[1:]
            gj, gk = next((gj, gk) for gj in rest for gk in rest if gj * gk not in index)
            raise NotClosed(f"{gj} * {gk} = {gj * gk} escapes the support")
        return col

    return (elems, index, rep, *_generator_search(rep, column))


def _fill(found: tuple) -> SupportTable:
    """The table of a closed support from its :func:`_search`: one lookup an entry."""
    elems, _, rep, gen_columns, steps = found
    columns = {0: rep}  # g_j e = g_j
    for k, p, t in steps:  # g_k = g_p s_t, so mult[j][k] = col_t[mult[j][p]]
        columns[k] = list(map(gen_columns[t].__getitem__, columns[p]))
    mult = tuple(zip(*(columns[r] for r in rep)))
    # A finite closed set containing e is a subgroup, so every row holds e.
    return SupportTable(tuple(elems), mult, tuple(row.index(0) for row in mult))


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
