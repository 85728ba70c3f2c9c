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
   preserves regularity).  Left multiplication is injective and keeps every
   weight, so this relabels the atoms (one product each) and re-sorts them,
   with no convolution and no merging;
2. run the closure search of :mod:`convreg.operators` on the normalized
   support, which computes only its greedy generator columns: when some
   product escapes the support the measure is not regular, the first escaping
   product in row-major canonical order being the witness;
3. otherwise the measure is regular exactly when its weights are all equal;
4. the certificate ``nu = dirac(x^{-1})`` and the Moore-Penrose inverse
   ``mp = nu * mu * nu``, a two-sided translate that merges no atoms, are
   re-validated on the search's result before they are issued.  With
   ``N = dirac(x^{-1}) * mu`` on the support ``K`` and ``r~ = r * dirac(x)``
   for a measure ``r``, ``mu * r * mu = dirac(x) * (N * r~ * N)``, so
   ``mu * r * mu = mu`` exactly when ``N * r~ * N = N``, and
   ``mp * mu * mp = mp`` exactly when ``mp~ * N * mp~ = mp~``.  Once the
   search's steps are checked to reach every atom and every generator column
   to be a permutation of the indices, each identity is an O(n) test, by the
   lemma below, and the check itself costs O(n g) for ``g`` generators.

   Why that check is enough.  The closure proof of :mod:`convreg.operators`
   gives ``K K ⊆ K`` from generator columns that lie inside ``K`` and steps
   that reach every atom, and a finite closed set containing ``e`` is a
   subgroup.  So the lemma holds on the group table of ``K``, whose rows and
   columns are translations in a group, hence permutations, and which the
   checks never build.  A generator column that repeats an index means the
   element model has merged two distinct atoms (``g_j s = g_k s`` with
   ``j != k``), and an unreached atom means the proof does not cover ``K``;
   either can come only from a bug, and no certificate is issued then.

   Lemma.  Take the group table of ``K``, let ``1`` be the all-ones vector on
   it (``N`` with its weights, equal by step 3, scaled to integers) and let
   ``r`` be a nonnegative integer vector on the table with total ``s``.  Then
   ``1 * r * 1 = s n 1`` and ``r * 1 * r = s^2 1``.

   Proof.  Column ``k`` being a permutation gives ``1 * dirac(k) = 1``, and
   row ``k`` being one gives ``dirac(k) * 1 = 1``.  By bilinearity
   ``1 * r = r * 1 = s 1``, so ``1 * r * 1 = s (1 * 1) = s n 1`` and
   ``r * 1 * r = s (r * 1) = s^2 1``.

   Normalized to probability measures, ``N * r~ * N = N`` whenever ``r~``
   lies on ``K``, and ``mp~ * N * mp~ = N``.  So the first two identities
   hold exactly when ``nu~`` and ``mp~`` lie on ``K``: an atom off the
   subgroup ``K`` makes ``N * r~ * N`` leave ``K`` too.  The third holds
   exactly when ``mp~ = N``, compared as exact element-to-weight maps (right
   translation by ``x`` is injective, so no two atoms of ``mp`` merge in
   ``mp~``).  These checks accept exactly the certificates that convolving
   out the three identities accepts.

A closed support with unequal weights gets a diagnostic ``detail``: on at
most ``SYSTEM_DIAGNOSTIC_MAX_ATOMS`` atoms the exact solution of the equality
system ``(R L) beta = alpha``, ``sum(beta) = 1`` over the normalized support,
where ``L`` and ``R`` are the one-sided convolution operators of
:mod:`convreg.operators`, and in every case one pair of atoms whose weights
differ.  No operator matrix is formed: ``R L beta = mu * beta * mu``, so the
system is built as integer rows straight from the support table, ``n^3``
multiply-adds, and solved by the integer elimination of :mod:`convreg.linalg`
(see :func:`_infeasibility_detail`).  Only this diagnostic fills the table,
from the closure search already run, and only on a support that small.

Verdicts either carry a fully validated :class:`Certificate` or a reason
(`support-not-closed` / `system-infeasible`) with exact diagnostics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapExceeded, CertificateInvalid, NotClosed
from .groups import DEFAULT_CLOSURE_CAP, Group, GroupElement, enumerate_group
from .linalg import _eliminate
from .measures import Measure, _relabelled, dirac, measure_to_json, support, translate, uniform_on
from .measures import convolve  # unused here; perfbench wraps and tests it by this name
from .operators import _fill, _search

__all__ = [
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

#: Largest number of subsets :func:`probe_uniform_subsets` decides.
PROBE_MAX_CASES = 100_000


@dataclass(frozen=True)
class Certificate:
    """A validated witness of regularity."""

    ginverse: Measure
    moore_penrose: Measure
    checks: dict
    #: ``(g, h)`` with ``dirac(g) * subject * dirac(h)`` identity-supported,
    #: or None when the verdict's subject already contains the identity.
    normalization: tuple[GroupElement, GroupElement] | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of a regularity decision."""

    status: str  # "regular" | "not-regular"
    reason: str  # "certificate" | "support-not-closed" | "system-infeasible"
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


def _infeasibility_detail(mu: Measure, normalized: Measure, found: tuple) -> str:
    """Exact diagnostics for a closed support with unequal weights.

    ``found`` is the closure search of the normalized support; the table is
    filled from it only when the system will be solved.  The equality system
    ``(R L) beta = alpha``, ``sum(beta) = 1`` is built as integer rows
    straight from the table.  ``L beta = mu * beta`` and
    ``R gamma = gamma * mu`` (see :mod:`convreg.operators`), so
    ``R L beta = (mu * beta) * mu = mu * beta * mu`` by associativity, and
    column ``l`` of ``R L`` is ``mu * dirac(g_l) * mu``.  Its weight at
    ``g_j`` is the sum of ``alpha_i alpha_k`` over the ``i, k`` with
    ``g_i g_l g_k = g_j``, that is with ``mult[mult[i][l]][k] == j``.  With
    ``D`` the lcm of the weight denominators and ``a = D alpha`` in
    ``table.elements`` order, row ``j`` times ``D^2`` reads
    ``(a * dirac(g_l) * a)(g_j)`` in column ``l`` and ``D a_j`` on the
    right.  Scaling rows changes neither the kind nor the solution
    (:func:`~convreg.linalg._eliminate`), so this is the rational system.
    """
    x, wx = mu.atoms[0]
    y, wy = next((el, w) for el, w in mu.atoms if w != wx)
    pair = (
        f"atoms {x} and {y} carry the unequal weights {wx} and {wy}, but a "
        "regular measure is uniform on a coset of a finite subgroup"
    )
    if len(normalized) > SYSTEM_DIAGNOSTIC_MAX_ATOMS:
        return pair
    table = _fill(found)
    weights = dict(normalized.atoms)
    d = math.lcm(*(w.denominator for w in weights.values()))
    a = [weights[el].numerator * (d // weights[el].denominator) for el in table.elements]
    n, mult = table.size, table.mult
    rows = [[0] * n + [d * aj] for aj in a]
    for l in range(n):
        for i, ai in enumerate(a):
            left = mult[mult[i][l]]
            for k, ak in enumerate(a):
                rows[left[k]][l] += ai * ak
    rows.append([1] * (n + 1))
    kind, solution = _eliminate(rows, n)
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
    normalized = mu if trivial else _relabelled(group, [(xinv * el, w) for el, w in mu.atoms])
    try:
        found = _search(support(normalized))
    except NotClosed as exc:
        prefix = "" if trivial else f"after left translation by {xinv}, "
        return Verdict(
            "not-regular",
            "support-not-closed",
            mu,
            detail=(
                prefix + str(exc)
                + "; the support of a regular measure, translated to contain "
                "the identity, is a finite subgroup"
            ),
        )
    w0 = mu.atoms[0][1]
    if any(w != w0 for _, w in mu.atoms):
        return Verdict(
            "not-regular",
            "system-infeasible",
            mu,
            detail=_infeasibility_detail(mu, normalized, found),
        )
    ginverse = dirac(x if trivial else xinv)  # x keeps its own spelling (word backend)
    nu = ginverse.atoms[0][0]
    mp = translate(mu, nu, nu)
    # Step 4: the search's steps, replayed from e, reach every atom, and each
    # generator column is a permutation of the indices.  O(n g) for g generators.
    elems, index, _, columns, steps = found
    full, reached = set(range(len(elems))), {0}
    for k, p, t in steps:
        if p in reached and columns[t][p] == k:
            reached.add(k)
    if reached != full or any(len(col) != len(elems) or set(col) != full for col in columns):
        raise CertificateInvalid("the support table is not the table of a subgroup")
    if nu * x not in index:
        raise CertificateInvalid(
            "the inverse failed re-validation: mu * nu * mu != mu for the claimed inverse"
        )
    mp_shifted = {el * x: w for el, w in mp.atoms}
    if not index.keys() >= mp_shifted.keys():
        raise CertificateInvalid("mu * mp * mu != mu")
    if mp_shifted != dict(normalized.atoms):
        raise CertificateInvalid("mp * mu * mp != mp")
    checks = {
        "support_closed": True,
        "ginverse_identity": True,  # mu * nu * mu == mu, re-verified on K
        "mp_left": True,  # mu * mp * mu == mu
        "mp_right": True,  # mp * mu * mp == mp
    }
    if trivial:
        if set(support(mp)) != set(support(mu)):
            raise CertificateInvalid("Moore-Penrose support differs from the subject's")
        checks["mp_support_equals_subject_support"] = True
    cert = Certificate(
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
    order) sequence.  Raises CapExceeded before deciding anything when there
    are more than ``PROBE_MAX_CASES`` subsets.
    """
    elements = enumerate_group(group, cap)
    # No subset is larger than the group, so larger sizes add no case.
    sizes = range(min(max_subset_size, len(elements)) + 1)
    count = sum(math.comb(len(elements), size) for size in sizes)
    if count > PROBE_MAX_CASES:
        raise CapExceeded(
            f"{count} subsets of at most {max_subset_size} of {len(elements)} "
            f"elements exceed the probe budget of {PROBE_MAX_CASES}"
        )
    cases = []
    for size in sizes:
        for combo in itertools.combinations(elements, size):
            verdict = decide_regular(uniform_on(group, combo))
            cases.append(
                ProbeCase(
                    subset=combo,
                    support_closed=verdict.reason != "support-not-closed",
                    status=verdict.status,
                    reason=verdict.reason,
                )
            )
    return ProbeReport(
        backend=group.backend,
        group_order=len(elements),
        max_subset_size=max_subset_size,
        cases=tuple(cases),
    )
