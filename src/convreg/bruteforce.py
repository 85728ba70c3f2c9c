"""Exhaustive grid search for generalized inverses.

This is the ground-truth oracle used to cross-check the closed-form engine:
it knows nothing about cosets or operator matrices and tests
``mu * nu * mu = mu`` exactly for every candidate on a grid.

Candidates are Farey-style rational compositions: for each denominator
``q = 1..max_denominator`` every weight vector ``(k_1/q, …, k_m/q)`` with
nonnegative integers summing to ``q`` over the given support universe, in
deterministic order (``q`` ascending, compositions reverse-lexicographic, so
all mass on the first universe atom comes first).  Vectors whose entries
share a factor ``g > 1`` with ``q`` are tested too, though none of them can
be the first hit: dividing the exact hit test ``sum_i k_i c_i = q D a``
(below) by ``g`` shows that the integer vector ``k / g`` is a hit at the
denominator ``q / g``, which was tested earlier.  So skipping them would
change neither the first hit nor whether there is one.

Each candidate is tested in scaled integers, which is exact.  Let ``D`` be
the least common multiple of ``mu``'s weight denominators, so ``a = D mu``
has integer weights, and write the candidate on the universe
``u_1, …, u_m`` as ``nu = k / q``.  Convolution is bilinear, so::

    (q D^2) (mu * nu * mu) = a * k * a = sum_i k_i c_i,   c_i = a * δ(u_i) * a,

and ``mu * nu * mu = mu`` holds exactly when ``sum_i k_i c_i`` equals
``q D a`` element by element (zero off the support ``S`` of ``mu``).

Only columns inside ``S`` can take part in a hit.  Every ``c_i`` and every
``k_i`` is nonnegative, so a candidate with ``k_i > 0`` on a column that
puts mass off ``S`` has a positive entry there, where ``q D a`` is zero.
The grid is therefore enumerated over the usable columns alone, and the
others are never tested.  This changes neither the first hit nor its
spelling: reverse-lexicographic order is descending tuple order, and two
tuples that are zero at the dropped positions first differ at a kept one,
so restricting the order to them keeps their relative order.  When no
column is usable there is no hit.

Each column is built once per call, stopping at its first product outside
``S``: at most ``m |S| (|S| + 1)`` group products, whatever
``max_denominator`` is and however many candidates are tested.  After that
a candidate costs integer arithmetic only.

Every usable column is laid out over the support of ``mu`` as a single
integer with one ``w``-bit field per support element.  Each column sums to
``D^2`` and the ``k_i`` sum to ``q``, so no entry of ``sum_i k_i c_i`` or of
``q D a`` exceeds ``q D^2``.  With ``2^w > max_denominator D^2`` no field
carries into the next, and the packed sums are equal exactly when every
entry is.  Only the returned hit is built as a
:class:`~convreg.measures.Measure`.
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


def _packed_column(
    scaled: Sequence[tuple[GroupElement, int]],
    u: GroupElement,
    index: dict[GroupElement, int],
    width: int,
) -> int | None:
    """``a * δ(u) * a`` packed over ``index``, or None once a product leaves it."""
    packed = 0
    for x, a in scaled:
        xu = x * u
        for y, b in scaled:
            j = index.get(xu * y)
            if j is None:
                return None
            packed += a * b << width * j
    return packed


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
    # Compositions of q into m parts, summed over q = 1..max_denominator.
    total = math.comb(max_denominator + m, m) - 1
    if total > max_candidates:
        raise UniverseTooLarge(
            f"grid holds {total} candidate vectors, budget is {max_candidates}"
        )
    scale = math.lcm(*(w.denominator for _, w in mu.atoms))
    scaled = [(el, w.numerator * (scale // w.denominator)) for el, w in mu.atoms]
    # Only the columns a * δ(u) * a inside the support can take part in a hit
    # (see the module docstring).
    width = (max_denominator * scale * scale).bit_length()
    index = {el: j for j, (el, _) in enumerate(scaled)}
    kept, columns = [], []
    for u in universe:
        col = _packed_column(scaled, u, index, width)
        if col is not None:
            kept.append(u)
            columns.append(col)
    if not columns:
        return None
    target = scale * sum(a << width * j for j, (_, a) in enumerate(scaled))
    for q in range(1, max_denominator + 1):
        goal = q * target
        for parts in _compositions(q, len(columns)):
            if sum(map(operator.mul, parts, columns)) == goal:
                atoms = [(kept[i], Fraction(c, q)) for i, c in enumerate(parts) if c > 0]
                return Measure(mu.group, atoms)
    return None
