"""Exact rational matrices and elimination."""

from fractions import Fraction as F

import pytest

from convreg import (
    RationalMatrix,
    gaussian_solve,
    mat_mul,
    mat_vec,
)
from convreg.errors import DimensionMismatch


def M(rows):
    return RationalMatrix.from_rows([[F(v) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# Matrix plumbing


def test_identity_is_neutral():
    m = M([["1/2", "1/3"], ["1/2", "2/3"]])
    identity = M([[1, 0], [0, 1]])
    assert mat_mul(identity, m) == m
    assert mat_mul(m, identity) == m


def test_flat_matrix_squares():
    m = M([["1/2", "1/2"], ["1/2", "1/2"]])
    assert mat_mul(m, m) == m


def test_skewed_matrix_square():
    m = M([["3/4", "1/4"], ["1/4", "3/4"]])
    assert mat_mul(m, m) == M([["5/8", "3/8"], ["3/8", "5/8"]])


def test_mat_vec():
    m = M([["3/4", "1/4"], ["1/4", "3/4"]])
    assert mat_vec(m, [F(1), F(0)]) == [F(3, 4), F(1, 4)]


def test_dimension_mismatches():
    m = M([["1/2", "1/2"], ["1/2", "1/2"]])
    with pytest.raises(DimensionMismatch):
        mat_mul(m, M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(DimensionMismatch):
        mat_vec(m, [F(1)])


# ---------------------------------------------------------------------------
# Gaussian elimination


def test_gaussian_unique():
    kind, x = gaussian_solve(M([["5/8", "3/8"], ["3/8", "5/8"]]), [F(3, 4), F(1, 4)])
    assert kind == "unique"
    assert x == [F(3, 2), F(-1, 2)]


def test_gaussian_inconsistent():
    kind, x = gaussian_solve(M([[1, 1], [1, 1]]), [F(1), F(0)])
    assert kind == "none" and x is None


def test_gaussian_underdetermined_returns_particular_solution():
    a = M([[1, 1], [2, 2]])
    kind, x = gaussian_solve(a, [F(1), F(2)])
    assert kind == "many"
    assert mat_vec(a, x) == [F(1), F(2)]
