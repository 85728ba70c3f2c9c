"""Exact rational matrices and elimination."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convreg import (
    RationalMatrix,
    gaussian_solve,
    mat_mul,
    mat_vec,
)
from convreg.errors import DimensionMismatch
from convreg.linalg import _cleared, _eliminate


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


# ---------------------------------------------------------------------------
# The integer kernels against plain Fraction references


def reference_mat_mul(a, b):
    bt = list(zip(*b.entries))
    rows = [
        tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in bt)
        for row in a.entries
    ]
    return RationalMatrix(tuple(rows))


def reference_gaussian_solve(a, b):
    m, n = a.rows, a.cols
    aug = [list(a.row(i)) + [F(b[i])] for i in range(m)]
    pivot_cols = []
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
    x = [F(0)] * n
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][n]
    return ("unique" if len(pivot_cols) == n else "many"), x


SHAPES = ["random", "duplicate-row", "zero-row", "inconsistent", "zero-first-pivot"]


def _entry(rng):
    """Zero one time in four; otherwise a signed fraction of mixed denominator."""
    if rng.random() < 0.25:
        return F(0)
    return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 2, 3, 4, 6, 7, 12]))


@st.composite
def systems(draw):
    """``(a, b, rhs, shape)``: ``a`` of up to 9x9, ``b`` with as many rows as
    ``a`` has columns, and a right-hand side for ``a``.  Except in the
    ``inconsistent`` shape, ``rhs`` is ``a`` applied to a random vector, so
    the kind is ``unique`` or ``many`` by the rank of ``a``."""
    shape = draw(st.sampled_from(SHAPES))
    m, n, p = draw(st.integers(2, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    i, j = rng.sample(range(m), 2)
    if shape in ("duplicate-row", "inconsistent"):
        rows[j] = list(rows[i])
    elif shape == "zero-row":
        rows[j] = [F(0)] * n
    elif shape == "zero-first-pivot":
        rows[0][0] = F(0)
        rows[max(i, j)][0] = F(rng.randint(1, 9), rng.choice([1, 5]))
    rhs = mat_vec(M(rows), [_entry(rng) for _ in range(n)])
    if shape == "inconsistent":
        rhs[j] = rhs[i] + 1
    other = [[_entry(rng) for _ in range(p)] for _ in range(n)]
    return M(rows), M(other), rhs, shape


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(systems())
def test_integer_kernels_equal_the_fraction_references(case):
    a, b, rhs, shape = case
    assert mat_mul(a, b) == reference_mat_mul(a, b)
    kind, x = gaussian_solve(a, rhs)
    assert (kind, x) == reference_gaussian_solve(a, rhs)
    if shape == "inconsistent":
        assert kind == "none"
    if kind != "none":
        assert all(type(v) is F for v in x)
        assert mat_vec(a, x) == rhs


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(systems(), st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=9, max_size=9))
def test_row_scaling_changes_neither_kind_nor_solution(case, scales):
    # Each cleared augmented row times its own nonzero integer, sign included.
    a, _, rhs, _ = case
    rows = [
        [scale * v for v in _cleared([*a.row(i), rhs[i]])[0]]
        for i, scale in zip(range(a.rows), scales)
    ]
    assert _eliminate(rows, a.cols) == gaussian_solve(a, rhs)
