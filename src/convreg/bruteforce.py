"""Exhaustive grid search for generalized inverses.

This is the ground-truth oracle used to cross-check the closed-form engine:
it knows nothing about cosets or operator matrices and tests
``mu * nu * mu = mu`` for every candidate by direct convolution.

Candidates are Farey-style rational compositions: for each denominator
``q = 1..max_denominator`` every weight vector ``(k_1/q, …, k_m/q)`` with
nonnegative integers summing to ``q`` over the given support universe, in
deterministic order (``q`` ascending, compositions reverse-lexicographic, so
all mass on the first universe atom comes first).  Vectors whose entries
share a common factor with ``q`` already appeared at a smaller denominator
and are skipped.

Each candidate is tested in scaled integers, which is exact.  Let ``D`` be
the least common multiple of ``mu``'s weight denominators, so ``a = D mu``
has integer weights, and write the candidate as ``nu = k / q``.  Convolution
is bilinear, so ``(q D^2) (mu * nu * mu) = a * k * a``, and
``mu * nu * mu = mu`` holds exactly when the integer convolution
``a * k * a`` equals ``q D a`` element by element.  Only the returned hit is
built as a :class:`~convreg.measures.Measure`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BackendMismatch, UniverseTooLarge
from .groups import GroupElement
from .measures import Measure, support

__all__ = [
    "DEFAULT_MAX_ATOMS",
    "DEFAULT_MAX_CANDIDATES",
    "candidate_universe",
    "brute_force_ginverse",
]

DEFAULT_MAX_ATOMS = 24
DEFAULT_MAX_CANDIDATES = 2_000_000


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer compositions in reverse-lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _int_convolve(
    f: Sequence[tuple[GroupElement, int]], g: Sequence[tuple[GroupElement, int]]
) -> dict[GroupElement, int]:
    """Convolution of two integer-weighted atom lists, as element -> weight."""
    acc: dict[GroupElement, int] = {}
    for x, a in f:
        for y, b in g:
            z = x * y
            acc[z] = acc.get(z, 0) + a * b
    return acc


def candidate_universe(mu: Measure) -> tuple[GroupElement, ...]:
    """The smallest universe guaranteed to hold an inverse when one exists.

    For the canonically first support atom ``x``, any regular ``mu`` has a
    generalized inverse supported inside ``x^{-1} S(mu) x^{-1}`` (the
    Moore-Penrose support identity applied to the identity-supported
    translate).  When the identity is already in the support this is just
    ``S(mu)``.
    """
    xinv = mu.atoms[0][0].inverse()
    return tuple(sorted({xinv * s * xinv for s in support(mu)}, key=lambda el: el.sort_key()))


def brute_force_ginverse(
    mu: Measure,
    max_denominator: int,
    support_universe: Sequence[GroupElement],
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> Measure | None:
    """First grid measure ``nu`` with ``mu * nu * mu = mu``, or None.

    ``support_universe`` fixes where candidate mass may sit (for example the
    subgroup generated by the support, or :func:`candidate_universe`).
    Raises UniverseTooLarge when the grid would exceed the atom or
    enumeration budgets.
    """
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be >= 1, got {max_denominator}")
    universe = list(dict.fromkeys(support_universe))
    if any(el.group is not mu.group for el in universe):
        raise BackendMismatch("universe element belongs to a different group")
    m = len(universe)
    if m == 0:
        raise ValueError("support universe is empty")
    if m > max_atoms:
        raise UniverseTooLarge(f"universe has {m} atoms, budget is {max_atoms}")
    total = sum(math.comb(q + m - 1, m - 1) for q in range(1, max_denominator + 1))
    if total > max_candidates:
        raise UniverseTooLarge(
            f"grid holds {total} candidate vectors, budget is {max_candidates}"
        )
    scale = math.lcm(*(w.denominator for _, w in mu.atoms))
    scaled = [(el, w.numerator * (scale // w.denominator)) for el, w in mu.atoms]
    for q in range(1, max_denominator + 1):
        target = {el: q * scale * a for el, a in scaled}
        for parts in _compositions(q, m):
            if math.gcd(q, *parts) > 1:
                continue  # already tested with a smaller denominator
            k = [(universe[i], c) for i, c in enumerate(parts) if c > 0]
            if _int_convolve(_int_convolve(scaled, k).items(), scaled) == target:
                return Measure(mu.group, [(el, Fraction(c, q)) for el, c in k])
    return None
