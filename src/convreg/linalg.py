"""Exact linear algebra over the rationals.

Matrices hold ``fractions.Fraction`` entries and results are ``Fraction``s —
no floating point — so solutions are exact and deterministic.  The arithmetic
itself runs on integers: each row (or column) is cleared of denominators once,
scaling it by the lcm of its denominators, and only final entries are built as
``Fraction``s.  No verdict depends on this module, and the regularity engine
uses none of its matrices: the exact equality-system diagnostic of a small
closed support with unequal weights builds its rows as integers and calls the
integer elimination :func:`_eliminate` directly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch

__all__ = [
    "RationalMatrix",
    "mat_mul",
    "mat_vec",
    "gaussian_solve",
]


@dataclass(frozen=True)
class RationalMatrix:
    """A dense immutable matrix of Fractions."""

    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction]]) -> "RationalMatrix":
        out = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if not out:
            raise DimensionMismatch("matrix needs at least one row")
        width = len(out[0])
        for i, row in enumerate(out):
            if len(row) != width:
                raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {width}")
        return RationalMatrix(out)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(ints, lcm)`` with ``values[k] == ints[k] / lcm``, ``lcm`` the lcm of
    the denominators."""
    lcm = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product ``a @ b``."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    cols = [_cleared(col) for col in zip(*b.entries)]
    rows = []
    for row in a.entries:
        ints, lcm = _cleared(row)
        rows.append(
            tuple(
                Fraction(sum(map(operator.mul, ints, col_ints)), lcm * col_lcm)
                for col_ints, col_lcm in cols
            )
        )
    return RationalMatrix(tuple(rows))


def mat_vec(a: RationalMatrix, v: Sequence[Fraction]) -> list[Fraction]:
    """Exact matrix-vector product."""
    if a.cols != len(v):
        raise DimensionMismatch(f"cannot apply {a.rows}x{a.cols} to a vector of length {len(v)}")
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a.entries]


def gaussian_solve(
    a: RationalMatrix, b: Sequence[Fraction]
) -> tuple[str, list[Fraction] | None]:
    """Solve ``a x = b`` exactly by Gauss-Jordan elimination.

    Returns one of ``("unique", x)``, ``("many", particular_x)`` or
    ``("none", None)``; the particular solution sets every free variable to 0.
    Each augmented row is cleared to integers and handed to
    :func:`_eliminate`.
    """
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)}")
    return _eliminate(
        [_cleared([*a.row(i), Fraction(b[i])])[0] for i in range(a.rows)], a.cols
    )


def _eliminate(aug: list[list[int]], n: int) -> tuple[str, list[Fraction] | None]:
    """Gauss-Jordan elimination of integer augmented rows ``[a_i | b_i]`` in place.

    ``n`` is the number of unknowns; the result is as for
    :func:`gaussian_solve`.  Pivots are chosen deterministically (first
    nonzero at or below the current row).  The elimination is fraction-free:
    a row is eliminated as ``pivot * row - factor * pivot_row`` and then
    divided by the gcd of its entries.  Every row stays a nonzero multiple of
    the row rational elimination would hold, with the same zero pattern, so
    the pivots, the kind and the solution are exactly the rational ones.

    Scaling any row by a nonzero integer before the call changes nothing.
    Row scaling is an invertible row operation, so it keeps every linear
    relation among the columns.  Column ``c`` is a pivot exactly when it is
    not in the span of the columns before it, so the pivot columns stay the
    same; the system is inconsistent exactly when the right-hand side is not
    in the span of the coefficient columns, so the ``none`` kind stays too.
    With the pivot columns fixed, the solution whose free variables are 0 is
    unique, because the pivot columns are independent.  So the kind and the
    solution equal those of the ``Fraction`` system, in the ``many`` case too.
    """
    m = len(aug)
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow = aug[r]
        pv = prow[col]
        for i in range(m):
            factor = aug[i][col]
            if i != r and factor != 0:
                row = [pv * v - factor * w for v, w in zip(aug[i], prow)]
                g = math.gcd(*row)
                aug[i] = [v // g for v in row] if g > 1 else row
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return "none", None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        x[col] = Fraction(aug[i][n], aug[i][col])
    return ("unique" if len(pivot_cols) == n else "many"), x
