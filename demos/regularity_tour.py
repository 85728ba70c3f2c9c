"""
A tour of convolution regularity on small finite groups
=======================================================

A finitely supported probability measure mu is *regular* when some measure nu
satisfies mu * nu * mu = mu under convolution.  This script walks the main
decision paths on the cyclic group of order 4.
"""

from fractions import Fraction

from convreg import (
    Measure,
    builtin_group,
    convolve,
    decide_regular,
    decide_translated,
    dirac,
    uniform_on,
)

z4 = builtin_group("Z4")

# --- a subgroup uniform: the model regular measure ------------------------
# Uniform weights on the subgroup {0, 2} give an idempotent measure
# (mu * mu = mu), so mu is its own generalized inverse.
mu = uniform_on(z4, [z4.element(2)])
print("subject:", mu)
print("mu * mu == mu:", convolve(mu, mu) == mu)

verdict = decide_regular(mu)
print("verdict:", verdict.status)
print("ginverse:", verdict.certificate.ginverse)
print("moore-penrose:", verdict.certificate.moore_penrose)
print()

# --- an open support: rejected by the closure test ------------------------
# {0, 1} is not closed (1 + 1 = 2 escapes), and a regular measure whose
# support contains the identity must be supported on a subgroup.
open_mu = uniform_on(z4, [z4.element(1)])
open_verdict = decide_regular(open_mu)
print("subject:", open_mu)
print("verdict:", open_verdict.status, "/", open_verdict.reason)
print("detail:", open_verdict.detail)
print()

# --- a closed support that still fails: unequal weights -------------------
# A regular measure is uniform on a coset of a finite subgroup, so skewed
# weights (3/4, 1/4) on the two-point subgroup are not regular.  The detail
# shows why: the exact linear system for an inverse has only a signed solution.
z2 = builtin_group("Z2")
skewed = Measure(z2, [(z2.element(0), Fraction(3, 4)), (z2.element(1), Fraction(1, 4))])
skew_verdict = decide_regular(skewed)
print("subject:", skewed)
print("verdict:", skew_verdict.status, "/", skew_verdict.reason)
print("detail:", skew_verdict.detail)
print()

# --- translates: point masses are invertible, so verdicts are inherited ---
# dirac(g) * mu * dirac(h) is regular exactly when mu is; the engine
# translation-normalizes behind the scenes.
shifted = decide_translated(mu, z4.element(1), z4.element(0))
print("translate of the subgroup uniform by (1, 0):", shifted.subject)
print("verdict:", shifted.status)
print("certificate ginverse:", shifted.certificate.ginverse)
print("check by hand:", convolve(convolve(shifted.subject, shifted.certificate.ginverse), shifted.subject) == shifted.subject)
print()

# --- point masses: the invertible elements ---------------------------------
g = z4.element(3)
pv = decide_regular(dirac(g))
print("point mass at 3 is regular with inverse:", pv.certificate.ginverse)
