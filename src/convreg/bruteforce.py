"""Exhaustive grid search for generalized inverses.

This is the ground-truth oracle used to cross-check the closed-form engine:
it knows nothing about cosets or operator matrices and tests
``mu * nu * mu = mu`` exactly for every candidate on a grid.

Candidates are Farey-style rational compositions: for each denominator
``q = 1..max_denominator`` every weight vector ``(k_1/q, …, k_m/q)`` with
nonnegative integers summing to ``q`` over the given support universe, in
deterministic order (``q`` ascending, compositions reverse-lexicographic, so
all mass on the first universe atom comes first).  Vectors whose entries
share a common factor with ``q`` already appeared at a smaller denominator
and are skipped.

Each candidate is tested in scaled integers, which is exact.  Let ``D`` be
the least common multiple of ``mu``'s weight denominators, so ``a = D mu``
has integer weights, and write the candidate on the universe
``u_1, …, u_m`` as ``nu = k / q``.  Convolution is bilinear, so::

    (q D^2) (mu * nu * mu) = a * k * a = sum_i k_i c_i,   c_i = a * δ(u_i) * a,

and ``mu * nu * mu = mu`` holds exactly when ``sum_i k_i c_i`` equals
``q D a`` element by element (zero off the support of ``mu``).  The ``m``
integer columns ``c_i`` are convolved once per call: at most
``m |S| (|S| + 1)`` group products for the support ``S`` of ``mu``, whatever
``max_denominator`` is and however many candidates are tested.  After that a
candidate costs integer arithmetic only.

Every column is laid out over one fixed index list (the support of ``mu``
first, then every other element some column reaches) as a single integer
with one ``w``-bit field per index.  Each column sums to ``D^2`` and the
``k_i`` sum to ``q``, so no entry of ``sum_i k_i c_i`` or of ``q D a``
exceeds ``q D^2``.  With ``2^w > max_denominator D^2`` no field carries into
the next, and the packed sums are equal exactly when every entry is.  Only
the returned hit is built as a :class:`~convreg.measures.Measure`.
"""

from __future__ import annotations

import math
import operator
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
    comp = [total] + [0] * (parts - 1)
    while True:
        yield tuple(comp)
        # The successor moves one unit from the rightmost nonzero part before
        # the last into the next part, together with the whole last part.
        i = parts - 2
        while i >= 0 and not comp[i]:
            i -= 1
        if i < 0:
            return
        rest = comp[-1]
        comp[-1] = 0
        comp[i] -= 1
        comp[i + 1] = rest + 1


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
    # Each column a * δ(u) * a, packed over one index list: the support of mu,
    # then every new element a column reaches (see the module docstring).
    width = (max_denominator * scale * scale).bit_length()
    index = {el: j for j, (el, _) in enumerate(scaled)}
    columns = []
    for u in universe:
        col = _int_convolve([(x * u, a) for x, a in scaled], scaled)
        columns.append(sum(c << width * index.setdefault(el, len(index)) for el, c in col.items()))
    target = scale * sum(a << width * j for j, (_, a) in enumerate(scaled))
    for q in range(1, max_denominator + 1):
        goal = q * target
        for parts in _compositions(q, m):
            if math.gcd(q, *parts) > 1:
                continue  # already tested with a smaller denominator
            if sum(map(operator.mul, parts, columns)) == goal:
                atoms = [(universe[i], Fraction(c, q)) for i, c in enumerate(parts) if c > 0]
                return Measure(mu.group, atoms)
    return None
