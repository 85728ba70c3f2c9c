"""Regularity decisions, certificates, Moore-Penrose inverses, and surveys."""

import random
from fractions import Fraction as F

import pytest

import convreg.regularity
from convreg import (
    GrigorchukGroup,
    Measure,
    NotAGInverse,
    builtin_group,
    builtin_names,
    convolve,
    decide_regular,
    decide_translated,
    dirac,
    enumerate_group,
    is_generalized_inverse,
    load_cayley,
    load_perm,
    moore_penrose,
    probe_uniform_subsets,
    subgroups_of,
    support,
    uniform_on,
)

Z2 = load_cayley("cayley 2\n0 1\n1 0\n")
Z4 = load_cayley("cayley 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
S3 = load_perm("perm 3\n(0 1)\n(0 1 2)\n")


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
    def forbidden(mu):
        raise AssertionError("the equality system was built")

    monkeypatch.setattr(convreg.regularity, "build_regularity_system", forbidden)
    a4 = load_perm("perm 4\n(0 1 2)\n(1 2 3)\n")
    elems = enumerate_group(a4)
    assert len(elems) == 12 > convreg.regularity.SYSTEM_DIAGNOSTIC_MAX_ATOMS
    mu = Measure(a4, [(el, F(2 if i == 0 else 1, 13)) for i, el in enumerate(elems)])
    verdict = decide_regular(mu)
    assert (verdict.status, verdict.reason) == ("not-regular", "system-infeasible")
    assert verdict.certificate is None
    assert "carry the unequal weights 2/13 and 1/13" in verdict.detail


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


def test_random_verdicts_carry_sound_certificates():
    rng = random.Random(321)
    for group in (Z4, S3):
        elems = list(enumerate_group(group))
        for _ in range(120):
            mu = random_measure(rng, group, elems)
            verdict = decide_regular(mu)
            if verdict.status != "regular":
                continue
            cert = verdict.certificate
            assert convolve(convolve(mu, cert.ginverse), mu) == mu
            mp = cert.moore_penrose
            assert convolve(convolve(mu, mp), mu) == mu
            assert convolve(convolve(mp, mu), mp) == mp
            # Both one-sided products are idempotent measures.
            for prod in (convolve(mu, mp), convolve(mp, mu)):
                assert convolve(prod, prod) == prod
            if support(mu)[0] == group.identity():
                assert support(mp) == support(mu)


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


def test_survey_klein_four_single_elements():
    v4 = load_cayley("cayley 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    report = probe_uniform_subsets(v4, 1)
    assert all(c.status == "regular" for c in report.cases)
