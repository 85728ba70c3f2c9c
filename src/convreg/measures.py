"""Finitely supported probability measures under convolution.

A measure is a formal convex combination of point masses with exact rational
weights: atoms are ``(element, Fraction)`` pairs, every weight is strictly
positive, and the weights sum to one.  Atoms are merged by element equality
(keeping the canonically least spelling, which matters on the word backend)
and sorted in the backend's canonical order at construction.  Two measures
are equal when they put the same weight on the same elements.

Convolution multiplies supports pointwise and weights multiplicatively:
``(mu * nu)({x}) = sum of mu({g}) nu({h}) over g h = x``.  :func:`convolve`
accumulates those products straight into a dict and builds its result
without re-running the constructor's checks, because convolution already
guarantees them: both operands are on the same group, a product of positive
weights is positive, the totals multiply to ``1 * 1 = 1``, and the dict
merges equal elements (keeping the least spelling, as the constructor does).
:func:`translate` relabels atoms by a two-sided product and is trusted the
same way (its docstring has the proof), so it only re-sorts them, and
:func:`load_measure` checks each line once and merges without re-checking.  The
public constructor keeps every check.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

from .errors import BackendMismatch, IdentityMissing, NotClosed, ParseError
from .groups import MAX_INTEGER_DIGITS, Group, GroupElement, _naturals, content_lines
from .operators import _search

__all__ = [
    "Measure",
    "dirac",
    "convolve",
    "uniform_on",
    "translate",
    "support",
    "is_support_closed",
    "load_measure",
    "measure_to_json",
    "format_weight",
]

# ASCII digits, a slash, and a denominator that is not all zeros.
_WEIGHT = re.compile(r"[0-9]+/0*[1-9][0-9]*")


def _merge_atoms(
    pairs: Iterable[tuple[GroupElement, Fraction]]
) -> list[tuple[GroupElement, Fraction]]:
    """Combine weights of equal elements; keep the canonically least spelling."""
    acc: dict[GroupElement, list] = {}
    for el, w in pairs:
        slot = acc.get(el)
        if slot is None:
            acc[el] = [el, w]
        else:
            if el.sort_key() < slot[0].sort_key():
                slot[0] = el
            slot[1] += w
    return sorted(((el, w) for el, w in acc.values()), key=lambda item: item[0].sort_key())


def _sums_to_one(atoms: list[tuple[GroupElement, Fraction]]) -> bool:
    """Whether the weights sum to one, in integers over the lcm of their denominators.

    A ``Fraction`` sum would reduce by a gcd at every term; callers build one
    only for the diagnostic.
    """
    d = math.lcm(*(w.denominator for _, w in atoms))
    return sum(w.numerator * (d // w.denominator) for _, w in atoms) == d


class Measure:
    """An immutable finitely supported probability measure."""

    __slots__ = ("group", "atoms")

    def __init__(self, group: Group, pairs: Iterable[tuple[GroupElement, Fraction]]):
        checked = []
        for el, w in pairs:
            if el.group is not group:
                raise BackendMismatch("atom element belongs to a different group")
            w = Fraction(w)
            if w <= 0:
                raise ValueError(f"weights must be positive, got {w}")
            checked.append((el, w))
        merged = _merge_atoms(checked)
        if not _sums_to_one(merged):
            raise ValueError(f"weights must sum to 1, got {sum(w for _, w in merged)}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "atoms", tuple(merged))

    @classmethod
    def _trusted(cls, group: Group, atoms: list[tuple[GroupElement, Fraction]]) -> "Measure":
        """Wrap merged, sorted, positive atoms summing to one, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "atoms", tuple(atoms))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Measure is immutable")

    def weight_of(self, el: GroupElement) -> Fraction:
        """Weight at a single element (zero off the support)."""
        return dict(self.atoms).get(el, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self.group is other.group and dict(self.atoms) == dict(other.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{el}:{w}" for el, w in self.atoms)
        return f"Measure({inner})"


def dirac(g: GroupElement) -> Measure:
    """Point mass at ``g``."""
    return Measure(g.group, [(g, Fraction(1))])


def convolve(mu: Measure, nu: Measure) -> Measure:
    """Convolution product of two measures on the same group."""
    if mu.group is not nu.group:
        raise BackendMismatch("cannot convolve measures on different groups")
    pairs = ((g * h, wg * wh) for g, wg in mu.atoms for h, wh in nu.atoms)
    return Measure._trusted(mu.group, _merge_atoms(pairs))


def uniform_on(group: Group, elements: Iterable[GroupElement]) -> Measure:
    """Uniform measure on ``{e} ∪ elements`` (the identity is always included)."""
    pool = [group.identity(), *elements]
    if any(el.group is not group for el in pool):
        raise BackendMismatch("element belongs to a different group")
    merged = _merge_atoms((el, 1) for el in pool)
    w = Fraction(1, len(merged))
    return Measure._trusted(group, [(el, w) for el, _ in merged])


def translate(mu: Measure, g: GroupElement, h: GroupElement) -> Measure:
    """Two-sided translate ``dirac(g) * mu * dirac(h)``.

    The atoms need no re-check.  ``x -> g x h`` is injective (``g`` and ``h``
    are invertible), so distinct atoms stay distinct and none merge, and each
    keeps its weight, so the weights stay positive and sum to one.  Only the
    canonical order moves, so one sort restores it.
    """
    if g.group is not mu.group or h.group is not mu.group:
        raise BackendMismatch("translation elements belong to a different group")
    return _relabelled(mu.group, [(g * x * h, w) for x, w in mu.atoms])


def _relabelled(group: Group, atoms: list[tuple[GroupElement, Fraction]]) -> Measure:
    """Trusted measure from atoms moved by an injective map; sorts ``atoms``."""
    atoms.sort(key=lambda item: item[0].sort_key())
    return Measure._trusted(group, atoms)


def support(mu: Measure) -> tuple[GroupElement, ...]:
    """Support atoms in canonical order (the identity first when present)."""
    return tuple(el for el, _ in mu.atoms)


def is_support_closed(mu: Measure) -> bool:
    """Whether the support is closed under multiplication.

    A finite closed set holds ``e`` (some power of an atom is ``e``) and is
    then a subgroup, so the support is closed exactly when it holds ``e`` and
    the closure search of :mod:`convreg.operators` succeeds: ``n`` products a
    generator, at most ``log2(n)`` generators.  Raises CapExceeded, before any
    product, above ``DEFAULT_CLOSURE_CAP`` atoms.
    """
    try:
        _search(support(mu))
    except (IdentityMissing, NotClosed):
        return False
    return True


# ---------------------------------------------------------------------------
# File and JSON formats


def load_measure(text: str, group: Group) -> Measure:
    """Parse ``<element> <num>/<den>`` lines into a measure on ``group``.

    A weight is exactly ``<num>/<den>`` in ASCII digits with ``den > 0``: no
    sign, decimal point, exponent, ``_`` or bare integer, though
    ``Fraction()`` reads all of them.  Rejects zero weights and weight sums
    different from one, with the exact rational in the diagnostic.

    Each line is checked once, in order: its shape, the weight's spelling and
    digit budget, a zero numerator, then the element, which
    ``group.parse_element`` returns on ``group``.  A weight spelling is read
    on the first line that has it; a later line with the same spelling
    reuses that ``Fraction``, as it would pass the same checks (87-91% of
    the lines of the benchmark's ``grigorchuk-dihedral`` and
    ``finite-ladder`` measure files repeat a spelling, 19% of
    ``catalog-oracle``'s).  The total is checked once over all lines; the
    diagnostic spells it only when its numerator and denominator are within
    the digit budget, as the lcm of many denominators can pass the ``int``
    to ``str`` limit.  Every weight is then positive, every element is on
    ``group`` and the weights sum to one, so the measure is built from the
    merged atoms without the constructor's re-checks.
    """
    pairs = []
    weights: dict[str, Fraction] = {}
    for lineno, line in content_lines(text):
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise ParseError(f"expected '<element> <num>/<den>', got {line!r}", lineno)
        element_text, weight_text = parts
        w = weights.get(weight_text)
        if w is None:
            if not _WEIGHT.fullmatch(weight_text):
                raise ParseError(f"bad weight {weight_text!r}", lineno)
            num, den = _naturals(*weight_text.split("/"), line=lineno)
            if num == 0:
                raise ParseError("nonpositive weight 0", lineno)
            w = weights[weight_text] = Fraction(num, den)
        try:
            el = group.parse_element(element_text)
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        pairs.append((el, w))
    if not pairs:
        raise ParseError("empty measure file")
    if not _sums_to_one(pairs):
        total = sum(w for _, w in pairs)
        shown = f"a fraction of over {MAX_INTEGER_DIGITS} digits"
        if max(total.numerator, total.denominator) < 10**MAX_INTEGER_DIGITS:
            shown = str(total)
        raise ParseError(f"weights sum to {shown}, expected 1")
    return Measure._trusted(group, _merge_atoms(pairs))


def format_weight(w: Fraction) -> str:
    """Exact ``num/den`` spelling (denominator kept even when it is 1)."""
    return f"{w.numerator}/{w.denominator}"


def measure_to_json(mu: Measure) -> dict:
    """JSON-ready dict; weights as exact ``num/den`` strings."""
    return {
        "backend": mu.group.backend,
        "atoms": [
            {"element": str(el), "weight": format_weight(w)} for el, w in mu.atoms
        ],
    }
