"""Exact linear algebra over the rationals.

Everything here works on ``fractions.Fraction`` entries — no floating point —
so solutions are exact and deterministic.  No verdict depends on this module:
the regularity engine uses it only for the exact equality-system diagnostic of
a small closed support with unequal weights.
"""

from __future__ import annotations

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


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product ``a @ b``."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = list(zip(*b.entries))
    rows = [
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt)
        for row in a.entries
    ]
    return RationalMatrix(tuple(rows))


def mat_vec(a: RationalMatrix, v: Sequence[Fraction]) -> list[Fraction]:
    """Exact matrix-vector product."""
    if a.cols != len(v):
        raise DimensionMismatch(f"cannot apply {a.rows}x{a.cols} to a vector of length {len(v)}")
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a.entries]


def gaussian_solve(
    a: RationalMatrix, b: Sequence[Fraction]
) -> tuple[str, list[Fraction] | None]:
    """Solve ``a x = b`` exactly by Gaussian elimination.

    Returns one of ``("unique", x)``, ``("many", particular_x)`` or
    ``("none", None)``.  Pivots are chosen deterministically (first nonzero).
    """
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)}")
    m, n = a.rows, a.cols
    aug = [list(a.row(i)) + [Fraction(b[i])] for i in range(m)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return "none", None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][n]
    return ("unique" if len(pivot_cols) == n else "many"), x
