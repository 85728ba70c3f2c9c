"""Deciding algebraic regularity of measures under convolution.

A measure ``mu`` is regular when some measure ``nu`` satisfies
``mu * nu * mu = mu``; such a ``nu`` is a generalized inverse, and
``nu * mu * nu`` is then a Moore-Penrose inverse (it satisfies both defining
equations ``w w+ w = w`` and ``w+ w w+ = w+``).

The decision rests on a closed form.  Let ``x`` be the canonically first
support atom.  Then ``mu`` is regular exactly when ``K = x^{-1} supp(mu)`` is
closed under multiplication and all weights of ``mu`` are equal, and then
``dirac(x^{-1})`` is a generalized inverse.

Proof.  Suppose ``mu * nu * mu = mu`` and put ``p = mu * nu``.  Then
``p * p = p``, and a finitely supported idempotent probability measure is
the uniform measure ``m_H`` on a finite subgroup ``H`` (Kawada-Ito 1940;
Wendel, Proc. AMS 1954).  Supports of convolutions of positive measures
multiply, so ``supp(mu) supp(nu) = H``: fixing ``t`` in ``supp(nu)`` puts
``supp(mu)`` inside the single right coset ``H t^{-1}``.  And
``mu = p * mu = m_H * mu`` is invariant under left translation by ``H``, so
``mu`` is uniform on all of ``H t^{-1}``.  Hence the weights are equal and
``x^{-1} supp(mu) = t H t^{-1}`` is a subgroup, in particular closed.
Conversely, a finite nonempty closed subset ``K`` of a group is a subgroup
(left multiplication by any ``k`` in ``K`` maps ``K`` injectively into, hence
onto, itself), so equal weights make ``mu = dirac(x) * m_K`` and
``mu * dirac(x^{-1}) * mu = dirac(x) * m_K * m_K = mu``.  No torsion
hypothesis is needed anywhere.

The decision procedure:

1. translation-normalize: left-multiply by the point mass at ``x^{-1}``, so
   the identity joins the support (point masses are invertible, so this
   preserves regularity);
2. if the normalized support is not closed under multiplication, the measure
   is not regular;
3. otherwise the measure is regular exactly when its weights are all equal;
4. the certificate ``dirac(x^{-1})`` is re-validated by direct convolution,
   on the normalized and on the original measure, before it is issued
   together with the verified Moore-Penrose inverse.

A closed support with unequal weights gets a diagnostic ``detail``: on at
most ``SYSTEM_DIAGNOSTIC_MAX_ATOMS`` atoms the exact solution of the equality
system ``(R L) beta = alpha``, ``sum(beta) = 1`` over the normalized support
(see :func:`build_regularity_system`), and in every case one pair of atoms
whose weights differ.

Verdicts either carry a fully validated :class:`Certificate` or a reason
(`support-not-closed` / `system-infeasible`) with exact diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateInvalid, ConvregError, MPVerificationFailed, NotAGInverse
from .groups import (
    DEFAULT_CLOSURE_CAP,
    Group,
    GroupElement,
    enumerate_group,
)
from .linalg import RationalMatrix, gaussian_solve, mat_mul
from .measures import (
    Measure,
    convolve,
    dirac,
    is_support_closed,
    measure_to_json,
    support,
    translate,
    uniform_on,
)
from .operators import OperatorMatrix, SupportTable, build_support_table, left_operator, right_operator

__all__ = [
    "RegularitySystem",
    "build_regularity_system",
    "is_generalized_inverse",
    "moore_penrose",
    "Certificate",
    "Verdict",
    "decide_regular",
    "decide_translated",
    "ProbeCase",
    "ProbeReport",
    "probe_uniform_subsets",
]

#: Largest closed support whose unequal-weight diagnostic solves the exact
#: equality system; larger ones only name a pair of unequal weights.
SYSTEM_DIAGNOSTIC_MAX_ATOMS = 8


@dataclass(frozen=True)
class RegularitySystem:
    """The exact system whose stochastic solutions are inverse weights."""

    table: SupportTable
    alpha: tuple[Fraction, ...]
    left: OperatorMatrix
    right: OperatorMatrix
    matrix: RationalMatrix  # right.matrix @ left.matrix

    @property
    def size(self) -> int:
        return self.table.size


def build_regularity_system(mu: Measure) -> RegularitySystem:
    """Index ``mu``'s closed support and assemble ``(R L) beta = alpha``."""
    table = build_support_table(support(mu))
    weights = dict(mu.atoms)
    alpha = tuple(weights[el] for el in table.elements)
    left = left_operator(alpha, table)
    right = right_operator(alpha, table)
    return RegularitySystem(table, alpha, left, right, mat_mul(right.matrix, left.matrix))


def is_generalized_inverse(mu: Measure, nu: Measure) -> bool:
    """Whether ``mu * nu * mu = mu`` holds exactly."""
    return convolve(convolve(mu, nu), mu) == mu


def moore_penrose(mu: Measure, ginverse: Measure) -> Measure:
    """Moore-Penrose inverse ``ginverse * mu * ginverse`` of a regular measure.

    Raises NotAGInverse if ``ginverse`` is not actually a generalized inverse
    and MPVerificationFailed if either defining equation fails afterwards
    (which would be an arithmetic bug, not a property of the input).
    """
    if not is_generalized_inverse(mu, ginverse):
        raise NotAGInverse("mu * nu * mu != mu for the claimed inverse")
    mp = convolve(convolve(ginverse, mu), ginverse)
    if convolve(convolve(mu, mp), mu) != mu:
        raise MPVerificationFailed("mu * mp * mu != mu")
    if convolve(convolve(mp, mu), mp) != mp:
        raise MPVerificationFailed("mp * mu * mp != mp")
    return mp


@dataclass(frozen=True)
class Certificate:
    """A validated witness of regularity."""

    subject: Measure
    ginverse: Measure
    moore_penrose: Measure
    checks: dict
    #: ``(g, h)`` with ``dirac(g) * subject * dirac(h)`` identity-supported,
    #: or None when the subject already contains the identity.
    normalization: tuple[GroupElement, GroupElement] | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of a regularity decision."""

    status: str  # "regular" | "not-regular" | "not-applicable"
    reason: str  # "certificate" | "support-not-closed" | "system-infeasible" | "backend-error"
    subject: Measure
    certificate: Certificate | None = None
    detail: str | None = None

    def to_json_dict(self) -> dict:
        cert = self.certificate
        norm = cert.normalization if cert else None
        return {
            "status": self.status,
            "reason": self.reason,
            "subject": measure_to_json(self.subject),
            "ginverse": measure_to_json(cert.ginverse) if cert else None,
            "moore_penrose": measure_to_json(cert.moore_penrose) if cert else None,
            "normalization": (
                {"left": str(norm[0]), "right": str(norm[1])} if norm else None
            ),
            "checks": dict(cert.checks) if cert else None,
            "detail": self.detail,
        }


def _closure_witness(mu: Measure) -> str:
    """Name the first product of atoms that escapes a support known to be open."""
    elems = support(mu)
    keys = set(elems)
    g, h = next((g, h) for g in elems for h in elems if g * h not in keys)
    return f"{g} * {h} = {g * h} escapes the support"


def _infeasibility_detail(mu: Measure, normalized: Measure) -> str:
    """Exact diagnostics for a closed support with unequal weights."""
    x, wx = mu.atoms[0]
    y, wy = next((el, w) for el, w in mu.atoms if w != wx)
    pair = (
        f"atoms {x} and {y} carry the unequal weights {wx} and {wy}, but a "
        "regular measure is uniform on a coset of a finite subgroup"
    )
    if len(normalized) > SYSTEM_DIAGNOSTIC_MAX_ATOMS:
        return pair
    system = build_regularity_system(normalized)
    stacked = RationalMatrix.from_rows([*system.matrix.entries, [1] * system.size])
    kind, solution = gaussian_solve(stacked, [*system.alpha, Fraction(1)])
    # Q[H] is semisimple (Maschke), so the system is consistent; a nonnegative
    # solution would be a generalized inverse, which the closed form rules out.
    if kind == "none" or min(solution) >= 0:
        raise CertificateInvalid(f"equality system ({kind}) contradicts the closed form")
    pretty = ", ".join(str(v) for v in solution)
    index = next(i for i, v in enumerate(solution) if v < 0)
    if kind == "unique":
        reason = (
            f"the equality system has the unique solution ({pretty}), whose "
            f"entry at index {index} is negative; no nonnegative solution exists"
        )
    else:
        reason = (
            f"the equality system is underdetermined; its particular solution "
            f"({pretty}) is negative at index {index}"
        )
    return f"{reason}; {pair}"


def decide_regular(mu: Measure) -> Verdict:
    """Decide whether ``mu`` has a generalized inverse, with certificate."""
    group = mu.group
    x = mu.atoms[0][0]
    e = group.identity()
    trivial = x == e
    xinv = x.inverse()
    normalized = mu if trivial else convolve(dirac(xinv), mu)
    if not is_support_closed(normalized):
        prefix = "" if trivial else f"after left translation by {xinv}, "
        return Verdict(
            "not-regular",
            "support-not-closed",
            mu,
            detail=(
                prefix + _closure_witness(normalized)
                + "; the support of a regular measure, translated to contain "
                "the identity, is a finite subgroup"
            ),
        )
    if len({w for _, w in mu.atoms}) > 1:
        return Verdict(
            "not-regular",
            "system-infeasible",
            mu,
            detail=_infeasibility_detail(mu, normalized),
        )
    if convolve(convolve(normalized, dirac(e)), normalized) != normalized:
        raise CertificateInvalid("normalized measure failed the closed-form re-validation")
    # When x is the identity, its own spelling is kept (word backend).
    ginverse = dirac(x if trivial else xinv)
    if not is_generalized_inverse(mu, ginverse):
        raise CertificateInvalid("de-normalized inverse failed re-validation")
    mp = moore_penrose(mu, ginverse)
    checks = {
        "support_closed": True,
        "ginverse_identity": True,  # mu * nu * mu == mu, re-verified above
        "mp_left": True,  # mu * mp * mu == mu
        "mp_right": True,  # mp * mu * mp == mp
    }
    if trivial:
        if set(support(mp)) != set(support(mu)):
            raise CertificateInvalid("Moore-Penrose support differs from the subject's")
        checks["mp_support_equals_subject_support"] = True
    cert = Certificate(
        subject=mu,
        ginverse=ginverse,
        moore_penrose=mp,
        checks=checks,
        normalization=None if trivial else (xinv, e),
    )
    return Verdict("regular", "certificate", mu, certificate=cert)


def decide_translated(mu: Measure, g: GroupElement, h: GroupElement) -> Verdict:
    """Decide regularity of the two-sided translate ``dirac(g) * mu * dirac(h)``.

    Point masses are invertible, so the translate is regular exactly when the
    base measure is; the verdict's detail records the translation pair.
    """
    subject = translate(mu, g, h)
    verdict = decide_regular(subject)
    note = f"subject is the ({g}, {h}) two-sided translate of the base measure"
    detail = f"{verdict.detail}; {note}" if verdict.detail else note
    return Verdict(
        verdict.status, verdict.reason, verdict.subject, verdict.certificate, detail
    )


# ---------------------------------------------------------------------------
# Uniform-measure survey


@dataclass(frozen=True)
class ProbeCase:
    """One surveyed subset and the verdict on its uniform measure."""

    subset: tuple[GroupElement, ...]
    support_closed: bool
    status: str
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "subset": [str(el) for el in self.subset],
            "support_closed": self.support_closed,
            "status": self.status,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ProbeReport:
    """Survey of uniform measures on ``{e} ∪ subset`` over a whole group.

    ``regular_iff_support_closed`` reports whether, across every surveyed
    subset, regularity coincided with multiplicative closure of the support —
    the question of whether uniform weights on an arbitrary finite set decide
    regularity through closure alone.
    """

    backend: str
    group_order: int
    max_subset_size: int
    cases: tuple[ProbeCase, ...]

    @property
    def regular_count(self) -> int:
        return sum(1 for c in self.cases if c.status == "regular")

    @property
    def closed_count(self) -> int:
        return sum(1 for c in self.cases if c.support_closed)

    @property
    def regular_iff_support_closed(self) -> bool:
        return all((c.status == "regular") == c.support_closed for c in self.cases)

    def to_json_dict(self) -> dict:
        return {
            "backend": self.backend,
            "group_order": self.group_order,
            "max_subset_size": self.max_subset_size,
            "cases": [c.to_json_dict() for c in self.cases],
            "summary": {
                "case_count": len(self.cases),
                "regular_count": self.regular_count,
                "closed_count": self.closed_count,
                "regular_iff_support_closed": self.regular_iff_support_closed,
            },
        }


def probe_uniform_subsets(
    group: Group, max_subset_size: int, cap: int = DEFAULT_CLOSURE_CAP
) -> ProbeReport:
    """Decide the uniform measure on ``{e} ∪ S`` for every small subset ``S``.

    Enumerates the whole group (CapExceeded when that is impossible, e.g. for
    the word backend) and sweeps subsets in deterministic (size, canonical
    order) sequence.
    """
    elements = enumerate_group(group, cap)
    cases = []
    for size in range(0, max_subset_size + 1):
        for combo in itertools.combinations(elements, size):
            measure = uniform_on(group, combo)
            closed = is_support_closed(measure)
            try:
                verdict = decide_regular(measure)
                status, reason = verdict.status, verdict.reason
            except ConvregError as exc:  # pragma: no cover - defensive
                status, reason = "not-applicable", f"backend-error: {exc}"
            cases.append(
                ProbeCase(
                    subset=combo,
                    support_closed=closed,
                    status=status,
                    reason=reason,
                )
            )
    return ProbeReport(
        backend=group.backend,
        group_order=len(elements),
        max_subset_size=max_subset_size,
        cases=tuple(cases),
    )
