"""Regularity decisions, certificates, Moore-Penrose inverses, and surveys."""

import collections
import itertools
import random
from fractions import Fraction as F

import pytest

import convreg.measures
import convreg.operators
import convreg.regularity
from convreg import (
    GrigorchukGroup,
    Measure,
    builtin_group,
    builtin_names,
    closure,
    convolve,
    decide_regular,
    decide_translated,
    dirac,
    enumerate_group,
    load_cayley,
    probe_uniform_subsets,
    subgroups_of,
    support,
    uniform_on,
)
from convreg.errors import CapExceeded, CertificateInvalid
from convreg.groups import load_perm
from convreg.linalg import RationalMatrix, gaussian_solve, mat_mul
from convreg.operators import build_support_table, left_operator, right_operator

Z2 = load_cayley("cayley 2\n0 1\n1 0\n")
Z4 = load_cayley("cayley 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
S3 = load_perm("perm 3\n(0 1)\n(0 1 2)\n")
A4 = load_perm("perm 4\n(0 1 2)\n(1 2 3)\n")


# ---------------------------------------------------------------------------
# Fraction references: the certificate identities convolved out as measures


class NotAGInverse(Exception):
    """A claimed generalized inverse fails the defining identity."""


def is_generalized_inverse(mu, nu):
    """Whether ``mu * nu * mu = mu`` holds exactly."""
    return convolve(convolve(mu, nu), mu) == mu


def moore_penrose(mu, ginverse):
    """Moore-Penrose inverse ``ginverse * mu * ginverse``, both equations checked."""
    if not is_generalized_inverse(mu, ginverse):
        raise NotAGInverse("mu * nu * mu != mu for the claimed inverse")
    mp = convolve(convolve(ginverse, mu), ginverse)
    if convolve(convolve(mu, mp), mu) != mu:
        raise CertificateInvalid("mu * mp * mu != mu")
    if convolve(convolve(mp, mu), mp) != mp:
        raise CertificateInvalid("mp * mu * mp != mp")
    return mp


def reference_detail(mu):
    """``(kind, detail)`` of the unequal-weight diagnostic, built from the
    operator matrices: ``R L`` by ``mat_mul``, stacked over the all-ones row
    and solved over the rationals."""
    x, wx = mu.atoms[0]
    y, wy = next((el, w) for el, w in mu.atoms if w != wx)
    pair = (
        f"atoms {x} and {y} carry the unequal weights {wx} and {wy}, but a "
        "regular measure is uniform on a coset of a finite subgroup"
    )
    normalized = convolve(dirac(x.inverse()), mu)
    table = build_support_table(support(normalized))
    alpha = [normalized.weight_of(el) for el in table.elements]
    rl = mat_mul(right_operator(alpha, table).matrix, left_operator(alpha, table).matrix)
    stacked = RationalMatrix.from_rows([*rl.entries, [1] * table.size])
    kind, solution = gaussian_solve(stacked, [*alpha, F(1)])
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
    return kind, f"{reason}; {pair}"


def z2_uniform():
    return uniform_on(Z2, [Z2.element(1)])


def z2_skewed():
    return Measure(Z2, [(Z2.element(0), F(3, 4)), (Z2.element(1), F(1, 4))])


# ---------------------------------------------------------------------------
# Generalized-inverse predicate


def test_point_masses_invert_each_other():
    g = Z4.element(1)
    assert is_generalized_inverse(dirac(g), dirac(g.inverse()))


def test_identity_point_mass_inverts_uniform():
    assert is_generalized_inverse(z2_uniform(), dirac(Z2.element(0)))


def test_skewed_measure_is_not_self_inverse():
    mu = z2_skewed()
    assert not is_generalized_inverse(mu, mu)
    # mu^3 spelled out: (9/16, 7/16) != (3/4, 1/4).
    cubed = convolve(convolve(mu, mu), mu)
    assert cubed.weight_of(Z2.element(0)) == F(9, 16)


# ---------------------------------------------------------------------------
# Moore-Penrose construction


def test_mp_of_point_mass():
    x = Z4.element(1)
    assert moore_penrose(dirac(x), dirac(x.inverse())) == dirac(x.inverse())


def test_mp_of_uniform_via_identity_inverse():
    mu = z2_uniform()
    assert moore_penrose(mu, dirac(Z2.element(0))) == mu


def test_mp_of_uniform_via_itself():
    mu = z2_uniform()
    assert moore_penrose(mu, mu) == mu


def test_mp_rejects_non_inverse():
    with pytest.raises(NotAGInverse):
        moore_penrose(z2_skewed(), z2_skewed())


# ---------------------------------------------------------------------------
# decide_regular: frozen verdicts


def test_uniform_two_point_measure_is_regular():
    verdict = decide_regular(z2_uniform())
    assert verdict.status == "regular"
    assert verdict.reason == "certificate"
    cert = verdict.certificate
    assert cert.ginverse == dirac(Z2.element(0))
    assert cert.moore_penrose == z2_uniform()
    assert cert.normalization is None
    assert cert.checks["mp_support_equals_subject_support"] is True


def test_skewed_measure_is_infeasible():
    verdict = decide_regular(z2_skewed())
    assert verdict.status == "not-regular"
    assert verdict.reason == "system-infeasible"
    assert verdict.certificate is None
    assert "(3/2, -1/2)" in verdict.detail


def test_underdetermined_system_names_a_negative_particular_solution():
    # On Z4 the weights (1/3, 1/6, 1/3, 1/6) make R L singular.
    weights = [F(1, 3), F(1, 6), F(1, 3), F(1, 6)]
    mu = Measure(Z4, [(Z4.element(i), w) for i, w in enumerate(weights)])
    verdict = decide_regular(mu)
    assert verdict.reason == "system-infeasible"
    assert "underdetermined; its particular solution (2, -1, 0, 0)" in verdict.detail
    assert "unequal weights 1/3 and 1/6" in verdict.detail


def test_large_skewed_support_names_unequal_weights_without_a_system(monkeypatch):
    def forbidden(rows, n):
        raise AssertionError("the equality system was built")

    monkeypatch.setattr(convreg.regularity, "_eliminate", forbidden)
    elems = enumerate_group(A4)
    assert len(elems) == 12 > convreg.regularity.SYSTEM_DIAGNOSTIC_MAX_ATOMS
    mu = Measure(A4, [(el, F(2 if i == 0 else 1, 13)) for i, el in enumerate(elems)])
    verdict = decide_regular(mu)
    assert (verdict.status, verdict.reason) == ("not-regular", "system-infeasible")
    assert verdict.certificate is None
    assert "carry the unequal weights 2/13 and 1/13" in verdict.detail


def unequal_on_cosets(elements, subgroups):
    """Closed supports of at most 8 atoms in ``elements``, a group, with
    unequal weights as ``{element: relative weight}``.

    Every coset of every subgroup of 2 to 8 elements, with one atom twice as
    heavy as the rest; and every subgroup with weights constant on the left
    or right cosets of a proper nontrivial subgroup of it, one coset twice as
    heavy, translated by each element.  The second kind makes ``R L``
    singular.
    """
    subgroups = [h for h in subgroups if 2 <= len(h) <= 8]
    for h in subgroups:
        for coset in {frozenset(x * el for el in h) for x in elements}:
            for heavy in coset:
                yield {el: 2 if el == heavy else 1 for el in coset}
        for k in subgroups:
            if len(k) < len(h) and set(k) <= set(h):
                for parts in (
                    {frozenset(x * el for el in k) for x in h},
                    {frozenset(el * x for el in k) for x in h},
                ):
                    for heavy, x in itertools.product(parts, elements):
                        yield {x * el: 2 if part == heavy else 1 for part in parts for el in part}


def test_diagnostic_equals_the_operator_matrix_reference():
    grig = GrigorchukGroup()
    # <a,d> with respelled atoms: adadadad is the identity.
    words = ["", "a", "d", "ad", "da", "ada", "dad", "adad"]
    respelled = {grig.element(w): grig.element(w if i % 2 else "adadadad" + w)
                 for i, w in enumerate(words)}
    dihedral = [tuple(respelled[el] for el in closure(grig, pair))
                for pair in itertools.combinations(respelled, 2)]
    cases = [("<a,d>", grig, list(respelled), {frozenset(h): h for h in dihedral}.values())]
    for name in builtin_names():
        group = builtin_group(name)
        subgroups = [[group.element(i) for i in s] for s in subgroups_of(group)]
        cases.append((name, group, enumerate_group(group), subgroups))
    kinds = collections.Counter()
    seen = set()
    for name, group, elements, subgroups in cases:
        for relative in unequal_on_cosets(elements, subgroups):
            key = frozenset(relative.items())
            if key in seen:
                continue
            seen.add(key)
            total = sum(relative.values())
            mu = Measure(group, [(el, F(w, total)) for el, w in relative.items()])
            if group is grig:
                mu = Measure(group, [(respelled[el], w) for el, w in mu.atoms])
            kind, detail = reference_detail(mu)
            verdict = decide_regular(mu)
            assert verdict.reason == "system-infeasible"
            assert verdict.detail == detail, mu
            kinds[name, kind] += 1
    for name in ("S3", "D4", "Q8", "<a,d>"):
        assert kinds[name, "unique"] > 0 and kinds[name, "many"] > 0, name
    assert sum(kinds.values()) > 300


def test_coset_uniform_certificates_are_the_inverse_point_mass():
    checked = 0
    for name in builtin_names():
        group = builtin_group(name)
        for indices in subgroups_of(group):
            sub = [group.element(i) for i in indices]
            for x in enumerate_group(group):
                mu = Measure(group, [(x * h, F(1, len(sub))) for h in sub])
                cert = decide_regular(mu).certificate
                first = mu.atoms[0][0]
                assert cert.ginverse == dirac(first.inverse())
                assert moore_penrose(mu, cert.ginverse) == cert.moore_penrose
                checked += 1
    assert checked > 200


def test_open_support_is_rejected_before_solving():
    verdict = decide_regular(uniform_on(Z4, [Z4.element(1)]))
    assert verdict.status == "not-regular"
    assert verdict.reason == "support-not-closed"
    assert "escapes the support" in verdict.detail


SUBGROUP_NOTE = (
    "; the support of a regular measure, translated to contain the identity, "
    "is a finite subgroup"
)
GRIG = GrigorchukGroup()


@pytest.mark.parametrize(
    "mu, witness",
    [
        (uniform_on(Z4, [Z4.element(1)]), "1 * 1 = 2 escapes the support"),
        (
            Measure(Z4, [(Z4.element(1), F(1, 2)), (Z4.element(2), F(1, 2))]),
            "after left translation by 3, 1 * 1 = 2 escapes the support",
        ),
        (
            Measure(GRIG, [(GRIG.element("a"), F(1, 2)), (GRIG.element("b"), F(1, 2))]),
            "after left translation by a, ab * ab = abab escapes the support",
        ),
    ],
    ids=["cayley", "cayley-translated", "word-translated"],
)
def test_open_support_detail_names_the_first_escaping_product(mu, witness):
    verdict = decide_regular(mu)
    assert verdict.reason == "support-not-closed"
    assert verdict.detail == witness + SUBGROUP_NOTE


def test_point_masses_are_regular():
    for el in enumerate_group(Z4):
        verdict = decide_regular(dirac(el))
        assert verdict.status == "regular"
        assert verdict.certificate.ginverse == dirac(el.inverse())


def test_shifted_subgroup_uniform_is_regular():
    # Support {1, 3} in Z4: a coset of the even subgroup, no identity atom.
    mu = Measure(Z4, [(Z4.element(1), F(1, 2)), (Z4.element(3), F(1, 2))])
    verdict = decide_regular(mu)
    assert verdict.status == "regular"
    cert = verdict.certificate
    assert cert.normalization is not None
    assert is_generalized_inverse(mu, cert.ginverse)


def _counting(calls, key, function):
    """``function`` counting its calls in ``calls[key]``."""

    def counted(*args):
        calls[key] += 1
        return function(*args)

    return counted


@pytest.mark.parametrize(
    "payloads", [(0, 2), (1, 3)], ids=["identity-first", "translated-coset"]
)
def test_each_certificate_identity_is_checked_once_on_the_table(monkeypatch, payloads):
    # No measure convolution and no table at all: the translation
    # normalization relabels the atoms, one closure search proves the support
    # a subgroup, and the three certificate identities are O(n) tests on its
    # result.
    calls = {"convolve": 0, "search": 0, "fill": 0}
    for module in (convreg.measures, convreg.regularity):
        monkeypatch.setattr(module, "convolve", _counting(calls, "convolve", convolve))
    for module in (convreg.operators, convreg.regularity):
        monkeypatch.setattr(module, "_fill", _counting(calls, "fill", module._fill))
    monkeypatch.setattr(
        convreg.regularity, "_search", _counting(calls, "search", convreg.regularity._search)
    )
    mu = Measure(Z4, [(Z4.element(p), F(1, 2)) for p in payloads])
    cert = decide_regular(mu).certificate
    assert calls == {"convolve": 0, "search": 1, "fill": 0}
    gone = {"_table_convolve", "_reproduces", "_is_group_table"}
    assert not gone & set(vars(convreg.regularity))
    monkeypatch.undo()
    assert moore_penrose(mu, cert.ginverse) == cert.moore_penrose


def _skewed(group):
    """The whole group, its identity weighted twice."""
    elems = enumerate_group(group)
    weights = [F(2 if i == 0 else 1, len(elems) + 1) for i in range(len(elems))]
    return Measure(group, list(zip(elems, weights)))


@pytest.mark.parametrize(
    "mu, reason, fills",
    [
        (uniform_on(S3, enumerate_group(S3)[:3]), "support-not-closed", 0),
        (_skewed(A4), "system-infeasible", 0),  # 12 atoms: no system, no table
        (_skewed(S3), "system-infeasible", 1),  # 6 atoms: the diagnostic solves
    ],
    ids=["open", "skewed-12-atoms", "skewed-6-atoms"],
)
def test_only_the_small_diagnostic_fills_a_table(monkeypatch, mu, reason, fills):
    calls = {"search": 0, "fill": 0}
    for module in (convreg.operators, convreg.regularity):
        monkeypatch.setattr(module, "_fill", _counting(calls, "fill", module._fill))
    monkeypatch.setattr(
        convreg.regularity, "_search", _counting(calls, "search", convreg.regularity._search)
    )
    assert decide_regular(mu).reason == reason
    assert calls == {"search": 1, "fill": fills}


def _column_repeats_an_index(found):
    """``found`` with one generator-column entry that no step reads set to the
    entry before it, so that column repeats an index and every step holds."""
    elems, index, rep, columns, steps = found
    read = {(t, p) for _, p, t in steps}
    t, j = next(
        (t, j) for t, col in enumerate(columns) for j in range(len(col)) if (t, j) not in read
    )
    column = list(columns[t])
    column[j] = column[j - 1]
    return elems, index, rep, [*columns[:t], column, *columns[t + 1:]], steps


@pytest.mark.parametrize(
    "corrupt",
    [
        _column_repeats_an_index,
        # The last atom reached is left unreached.
        lambda found: (*found[:4], found[4][:-1]),
    ],
    ids=["generator-column-repeats-an-index", "atom-unreached"],
)
def test_corrupted_support_table_is_an_invalid_certificate(monkeypatch, corrupt):
    search = convreg.regularity._search
    monkeypatch.setattr(convreg.regularity, "_search", lambda elements: corrupt(search(elements)))
    mu = uniform_on(S3, enumerate_group(S3))
    with pytest.raises(CertificateInvalid, match="not the table of a subgroup"):
        decide_regular(mu)


def test_inverse_failing_revalidation_is_an_invalid_certificate(monkeypatch):
    # On the subgroup {0, 2} the closed form issues dirac(0); hand out dirac(1).
    monkeypatch.setattr(convreg.regularity, "dirac", lambda g: dirac(g * Z4.element(1)))
    with pytest.raises(CertificateInvalid, match="re-validation"):
        decide_regular(uniform_on(Z4, [Z4.element(2)]))


@pytest.mark.parametrize(
    "wrong_mp, message",
    [
        # On the subgroup {0, 2}: dirac(0) passes mu * mp * mu == mu only.
        (0, r"mp \* mu \* mp != mp"),
        # dirac(1) lies off the subgroup, so mu * mp * mu leaves it too.
        (1, r"mu \* mp \* mu != mu"),
    ],
    ids=["inside-the-subgroup", "off-the-subgroup"],
)
def test_corrupted_moore_penrose_is_an_invalid_certificate(monkeypatch, wrong_mp, message):
    # The closed form builds mp as the two-sided translate of mu by the
    # issued inverse; hand out a wrong point mass there.
    monkeypatch.setattr(
        convreg.regularity, "translate", lambda mu, g, h: dirac(Z4.element(wrong_mp))
    )
    with pytest.raises(CertificateInvalid, match=message):
        decide_regular(uniform_on(Z4, [Z4.element(2)]))


def test_verdict_json_shape():
    obj = decide_regular(z2_uniform()).to_json_dict()
    assert obj["status"] == "regular"
    assert obj["reason"] == "certificate"
    assert obj["ginverse"]["atoms"] == [{"element": "0", "weight": "1/1"}]
    assert obj["normalization"] is None
    assert set(obj) == {
        "status",
        "reason",
        "subject",
        "ginverse",
        "moore_penrose",
        "normalization",
        "checks",
        "detail",
    }
    failing = decide_regular(z2_skewed()).to_json_dict()
    assert failing["ginverse"] is None and failing["checks"] is None


# ---------------------------------------------------------------------------
# Certificate soundness and MP properties on random instances


def random_measure(rng, group, elems, max_support=3, max_den=6):
    chosen = rng.sample(elems, rng.randint(1, max_support))
    raw = [F(rng.randint(1, max_den), 1) for _ in chosen]
    total = sum(raw)
    return Measure(group, [(el, w / total) for el, w in zip(chosen, raw)])


def random_coset_measure(rng, group, elems):
    """Uniform on a left coset of the subgroup generated by one or two of
    ``elems``; the atoms keep their spellings from ``elems``."""
    subgroup = closure(group, rng.sample(elems, rng.randint(1, 2)))
    x = rng.choice(elems)
    coset = {x * h for h in subgroup}
    return Measure(group, [(el, F(1, len(coset))) for el in elems if el in coset])


# Elements of <a, d> spelled after an identity word, so that no atom carries
# its canonical spelling (the identity is spelled dadadada).
RESPELLED_AD = [
    GRIG.parse_element(("dadadada", "adadadad")[i % 2] + el.payload)
    for i, el in enumerate(closure(GRIG, [GRIG.element("a"), GRIG.element("d")]))
]


def test_random_verdicts_carry_sound_certificates():
    rng = random.Random(321)
    # (group, elements, whether half the draws are coset-uniform, the support
    # sizes of the regular draws)
    inputs = [
        (Z4, list(enumerate_group(Z4)), False, {1, 2}),
        (S3, list(enumerate_group(S3)), False, {1, 2}),
        (A4, list(enumerate_group(A4)), True, {1, 2, 3, 4, 12}),
        (GRIG, RESPELLED_AD, True, {1, 2, 4, 8}),
    ]
    for group, elems, cosets, sizes in inputs:
        regular_sizes = set()
        for _ in range(120):
            if cosets and rng.random() < 0.5:
                mu = random_coset_measure(rng, group, elems)
            else:
                mu = random_measure(rng, group, elems)
            verdict = decide_regular(mu)
            if verdict.status != "regular":
                continue
            regular_sizes.add(len(mu))
            cert = verdict.certificate
            assert convolve(convolve(mu, cert.ginverse), mu) == mu
            mp = cert.moore_penrose
            assert convolve(convolve(mu, mp), mu) == mu
            assert convolve(convolve(mp, mu), mp) == mp
            # Both one-sided products are idempotent measures.
            for prod in (convolve(mu, mp), convolve(mp, mu)):
                assert convolve(prod, prod) == prod
            if support(mu)[0] == group.identity():
                assert set(support(mp)) == set(support(mu))
        assert regular_sizes == sizes


def test_translation_never_changes_the_status():
    rng = random.Random(17)
    elems = list(enumerate_group(Z4))
    for _ in range(40):
        mu = random_measure(rng, Z4, elems)
        base = decide_regular(mu).status
        for g in elems:
            for h in elems:
                assert decide_translated(mu, g, h).status == base


def test_translated_subgroup_uniform():
    verdict = decide_translated(uniform_on(Z4, [Z4.element(2)]), Z4.element(1), Z4.element(0))
    assert verdict.status == "regular"
    assert "translate" in verdict.detail


def test_identity_translation_matches_plain_decision():
    mu = z2_skewed()
    e = Z2.identity()
    assert decide_translated(mu, e, e).status == decide_regular(mu).status


# ---------------------------------------------------------------------------
# Word backend end-to-end


def test_word_backend_uniform_pair_is_regular():
    g = GrigorchukGroup()
    mu = uniform_on(g, [g.element("a")])
    verdict = decide_regular(mu)
    assert verdict.status == "regular"
    assert convolve(convolve(mu, verdict.certificate.ginverse), mu) == mu


def test_word_backend_respelled_support_is_regular():
    # dadadada is the identity and adadadadb is b, so this is the uniform
    # measure on the subgroup {e, b}; its Moore-Penrose inverse spells the
    # atoms canonically, so the supports agree only as sets of elements.
    g = GrigorchukGroup()
    mu = Measure(g, [(g.element("dadadada"), F(1, 2)), (g.element("adadadadb"), F(1, 2))])
    verdict = decide_regular(mu)
    assert verdict.status == "regular"
    assert verdict.certificate.checks["mp_support_equals_subject_support"]
    assert set(support(verdict.certificate.moore_penrose)) == {g.identity(), g.element("b")}


def test_word_backend_open_support():
    g = GrigorchukGroup()
    mu = uniform_on(g, [g.element("a"), g.element("b")])
    verdict = decide_regular(mu)
    assert verdict.status == "not-regular"
    assert verdict.reason == "support-not-closed"


# ---------------------------------------------------------------------------
# Subset survey


def test_survey_two_point_group():
    report = probe_uniform_subsets(Z2, 1)
    assert len(report.cases) == 3  # {}, {0}, {1}
    assert all(c.status == "regular" for c in report.cases)
    assert report.regular_iff_support_closed is True


def test_survey_four_point_cycle():
    report = probe_uniform_subsets(Z4, 2)
    assert report.group_order == 4
    assert len(report.cases) == 1 + 4 + 6
    regular = {
        tuple(el.payload for el in c.subset)
        for c in report.cases
        if c.status == "regular"
    }
    assert regular == {(), (0,), (2,), (0, 2)}
    assert report.regular_iff_support_closed is True
    obj = report.to_json_dict()
    assert obj["summary"]["regular_iff_support_closed"] is True
    assert obj["summary"]["case_count"] == 11


def test_survey_tests_each_support_for_closure_once(monkeypatch):
    calls = {"search": 0}
    monkeypatch.setattr(
        convreg.regularity, "_search", _counting(calls, "search", convreg.regularity._search)
    )
    report = probe_uniform_subsets(Z4, 2)
    assert calls["search"] == len(report.cases) == 11
    for case in report.cases:
        atoms = set(support(uniform_on(Z4, case.subset)))
        # The reference multiplies every pair, independently of the search.
        assert case.support_closed == all(g * h in atoms for g in atoms for h in atoms)


def test_survey_klein_four_single_elements():
    v4 = load_cayley("cayley 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    report = probe_uniform_subsets(v4, 1)
    assert all(c.status == "regular" for c in report.cases)


def test_survey_over_budget_raises_before_deciding(monkeypatch):
    def forbidden(mu):
        raise AssertionError("a subset was decided")

    monkeypatch.setattr(convreg.regularity, "decide_regular", forbidden)
    s5 = load_perm("perm 5\n(0 1)\n(0 1 2 3 4)\n")
    with pytest.raises(CapExceeded, match="8502671 subsets"):
        probe_uniform_subsets(s5, 4)


def test_survey_budget_counts_every_subset(monkeypatch):
    monkeypatch.setattr(convreg.regularity, "PROBE_MAX_CASES", 10)
    with pytest.raises(CapExceeded, match="11 subsets"):
        probe_uniform_subsets(Z4, 2)
    assert len(probe_uniform_subsets(Z4, 1).cases) == 5
