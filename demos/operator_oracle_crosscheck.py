"""
Convolution operators as matrices, and an exhaustive cross-check
================================================================

On a closed finite support, convolving by a fixed measure is a linear map.
This script builds the left and right operator matrices, shows the structure
the decision engine relies on, and then pits the engine against a brute-force
search that knows nothing about linear algebra.
"""

from fractions import Fraction

from convreg import (
    Measure,
    RationalMatrix,
    brute_force_ginverse,
    build_support_table,
    builtin_group,
    candidate_universe,
    convolve,
    decide_regular,
    dirac,
    gaussian_solve,
    left_operator,
    mat_mul,
    right_operator,
    uniform_on,
)

# --- the two one-sided operators on a non-abelian support -------------------
s3 = builtin_group("S3")
table = build_support_table(list(s3.enumerate_elements(16)))
skew = [Fraction(1, 2), Fraction(1, 4)] + [Fraction(1, 16)] * 4

L = left_operator(skew, table)
R = right_operator(skew, table)
print("support size:", table.size)
print("L == R on S3:", L.matrix == R.matrix)
print("L and R commute:", mat_mul(L.matrix, R.matrix) == mat_mul(R.matrix, L.matrix))
print("row sums of L:", sorted({sum(L.matrix.row(i)) for i in range(table.size)}))
print("column sums of L:", sorted({sum(L.matrix.column(j)) for j in range(table.size)}))
print()

# --- abelian collapse: one matrix instead of two ----------------------------
z4 = builtin_group("Z4")
t4 = build_support_table(list(z4.enumerate_elements(16)))
a4 = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
print("L == R on Z4:", left_operator(a4, t4).matrix == right_operator(a4, t4).matrix)
print()

# --- the determining system --------------------------------------------------
# mu * nu * mu = mu becomes (R L) beta = alpha for the weight vector beta of
# nu; a solution with beta >= 0 and sum(beta) = 1 is exactly a generalized
# inverse on the support.  Exact elimination on the stacked system shows that
# the skewed S3 measure has none: its only solution has negative entries.
M = mat_mul(R.matrix, L.matrix)
stacked = RationalMatrix.from_rows([*M.entries, [1] * table.size])
kind, beta = gaussian_solve(stacked, skew + [Fraction(1)])
print("equality system on the skewed S3 measure:", kind)
print("solution:", ", ".join(str(v) for v in beta))
# The engine does not need this system for its verdict: a measure is regular
# exactly when it is uniform on a coset of a finite subgroup, and the
# generalized inverse is then the point mass at the inverse of its first atom.
skewed = Measure(s3, list(zip(table.elements, skew)))
verdict = decide_regular(skewed)
print("closed-form verdict:", verdict.status, "/", verdict.reason)
coset = decide_regular(uniform_on(s3, list(table.elements)))
print("uniform on S3:", coset.status, "with ginverse", coset.certificate.ginverse)
print()

# --- engine versus brute force ------------------------------------------------
# The brute-force oracle enumerates every measure with bounded denominators on
# a universe that provably contains any generalized inverse, then tests the
# defining identity by direct convolution.  It must agree with the engine.
cases = [
    uniform_on(z4, [z4.element(2)]),
    Measure(z4, [(z4.element(0), Fraction(3, 4)), (z4.element(2), Fraction(1, 4))]),
    dirac(z4.element(1)),
    uniform_on(z4, list(z4.enumerate_elements(16))),
    Measure(z4, [(z4.element(1), Fraction(1, 2)), (z4.element(3), Fraction(1, 2))]),
]
for mu in cases:
    verdict = decide_regular(mu)
    found = brute_force_ginverse(mu, 6, candidate_universe(mu))
    agree = (verdict.status == "regular") == (found is not None)
    print(f"{str(mu):<40} engine={verdict.status:<12} oracle_hit={found is not None}  agree={agree}")
    if found is not None:
        assert convolve(convolve(mu, found), mu) == mu
