"""Measure construction, convolution, translation, support, and file I/O."""

import random
from fractions import Fraction as F

import pytest

import convreg.operators
from convreg import (
    GrigorchukGroup,
    Measure,
    convolve,
    dirac,
    is_support_closed,
    load_cayley,
    support,
    uniform_on,
)
from convreg.errors import BackendMismatch, CapExceeded, ParseError
from convreg.groups import GroupElement, PermGroup, enumerate_group, load_perm
from convreg.measures import load_measure, measure_to_json, translate

Z2 = load_cayley("cayley 2\n0 1\n1 0\n")
Z4 = load_cayley("cayley 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")


def weights(mu):
    return [(el.payload, w) for el, w in mu.atoms]


def random_measure(rng, group, elems, max_support=3, max_den=6):
    chosen = rng.sample(elems, rng.randint(1, max_support))
    raw = [F(rng.randint(1, max_den), 1) for _ in chosen]
    total = sum(raw)
    return Measure(group, [(el, w / total) for el, w in zip(chosen, raw)])


# ---------------------------------------------------------------------------
# Construction invariants


def test_constructor_sorts_and_merges():
    mu = Measure(Z4, [(Z4.element(2), F(1, 4)), (Z4.element(0), F(1, 2)), (Z4.element(2), F(1, 4))])
    assert weights(mu) == [(0, F(1, 2)), (2, F(1, 2))]


def test_constructor_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        Measure(Z2, [(Z2.element(0), F(3, 2)), (Z2.element(1), F(-1, 2))])
    with pytest.raises(ValueError):
        Measure(Z2, [(Z2.element(0), F(1)), (Z2.element(1), F(0))])


def test_constructor_rejects_bad_total():
    with pytest.raises(ValueError):
        Measure(Z2, [(Z2.element(0), F(1, 2)), (Z2.element(1), F(1, 3))])


def test_semantic_deduplication_on_word_backend():
    g = GrigorchukGroup()
    mu = Measure(g, [(g.element("bc"), F(1, 2)), (g.element("d"), F(1, 2))])
    assert len(mu) == 1
    assert mu.weight_of(g.element("d")) == 1


def test_word_backend_merge_keeps_least_spelling_and_compares_elements():
    g = GrigorchukGroup()
    # adadadadb and b are one element; the merged atom is spelled b.
    mu = Measure(g, [(g.element("adadadadb"), F(1, 4)), (g.element("a"), F(1, 2)),
                     (g.element("b"), F(1, 4))])
    assert [(el.payload, w) for el, w in mu.atoms] == [("a", F(1, 2)), ("b", F(1, 2))]
    respelled = Measure(g, [(g.element("adadadada"), F(1, 2)), (g.element("adadadadb"), F(1, 2))])
    assert respelled == mu
    assert respelled != Measure(g, [(g.element("a"), F(1, 4)), (g.element("b"), F(3, 4))])


def test_dirac():
    assert weights(dirac(Z4.element(2))) == [(2, F(1))]
    g = GrigorchukGroup()
    assert dirac(g.element("ad")).atoms[0][0] == g.element("ad")


# ---------------------------------------------------------------------------
# Convolution


def test_point_masses_compose():
    g, h = Z4.element(1), Z4.element(2)
    assert convolve(dirac(g), dirac(h)) == dirac(Z4.element(3))


def test_skewed_square_on_two_point_group():
    mu = Measure(Z2, [(Z2.element(0), F(3, 4)), (Z2.element(1), F(1, 4))])
    assert weights(convolve(mu, mu)) == [(0, F(5, 8)), (1, F(3, 8))]


def test_uniform_subgroup_measure_is_idempotent():
    mu = uniform_on(Z2, [Z2.element(1)])
    assert convolve(mu, mu) == mu


def test_convolution_rejects_backend_mixing():
    with pytest.raises(BackendMismatch):
        convolve(dirac(Z2.element(0)), dirac(Z4.element(0)))


def test_convolution_associativity_random():
    rng = random.Random(8)
    elems = list(Z4.enumerate_elements(10))
    for _ in range(60):
        mu, nu, rho = (random_measure(rng, Z4, elems) for _ in range(3))
        assert convolve(convolve(mu, nu), rho) == convolve(mu, convolve(nu, rho))


def test_dirac_identity_is_neutral():
    rng = random.Random(9)
    elems = list(Z4.enumerate_elements(10))
    e = dirac(Z4.identity())
    for _ in range(30):
        mu = random_measure(rng, Z4, elems)
        assert convolve(e, mu) == mu
        assert convolve(mu, e) == mu


def test_support_product_law_and_mass():
    rng = random.Random(10)
    elems = list(Z4.enumerate_elements(10))
    for _ in range(60):
        mu, nu = (random_measure(rng, Z4, elems) for _ in range(2))
        prod = convolve(mu, nu)
        expected = {(g * h).payload for g in support(mu) for h in support(nu)}
        assert {el.payload for el in support(prod)} == expected
        assert sum(w for _, w in prod.atoms) == 1


def checked_convolve(mu, nu):
    """Convolution through the public, fully checking constructor."""
    return Measure(mu.group, [(g * h, wg * wh) for g, wg in mu.atoms for h, wh in nu.atoms])


def spelled(mu):
    return [(str(el), w) for el, w in mu.atoms]


def backend_pools():
    """Z4, perm S3 and <a,d> with respelled atoms, each with elements to draw."""
    grig = GrigorchukGroup()
    # adadadad is the identity, so adadadada = a.
    words = ["", "a", "d", "ad", "da", "ada", "dad", "adad",
             "adadadada", "adadadadd", "dadadada", "adadadadad"]
    s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    return [
        (Z4, list(Z4.enumerate_elements(10))),
        (s3, list(s3.enumerate_elements(10))),
        (grig, [grig.element(w) for w in words]),
    ]


def test_convolve_core_matches_checked_constructor_on_every_backend():
    rng = random.Random(12)
    for group, elems in backend_pools():
        for _ in range(40):
            mu, nu = (random_measure(rng, group, elems, max_support=4) for _ in range(2))
            prod = convolve(mu, nu)
            reference = checked_convolve(mu, nu)
            assert prod == reference
            assert spelled(prod) == spelled(reference)


def test_convolve_core_keeps_least_spelling():
    g = GrigorchukGroup()
    mu = uniform_on(g, [g.element("a")])
    nu = Measure(g, [(g.element("a"), F(1, 2)), (g.element("dadadada"), F(1, 2))])
    # e arises as e*dadadada first and as a*a second; a as e*a and a*dadadada.
    assert spelled(convolve(mu, nu)) == [("e", F(1, 2)), ("a", F(1, 2))]


def test_convolve_result_is_immutable_and_checks_groups():
    mu = convolve(uniform_on(Z4, [Z4.element(1)]), dirac(Z4.element(2)))
    with pytest.raises(AttributeError):
        mu.atoms = ()
    with pytest.raises(AttributeError):
        mu.group = Z2
    g = GrigorchukGroup()
    with pytest.raises(BackendMismatch):
        convolve(mu, dirac(g.element("a")))
    with pytest.raises(BackendMismatch):
        convolve(dirac(g.identity()), mu)


# ---------------------------------------------------------------------------
# uniform_on / translate


def test_uniform_on_inserts_identity():
    mu = uniform_on(Z4, [Z4.element(1)])
    assert weights(mu) == [(0, F(1, 2)), (1, F(1, 2))]


def test_uniform_on_empty_set_is_point_mass_at_identity():
    assert uniform_on(Z4, []) == dirac(Z4.identity())


def test_uniform_on_whole_group():
    g = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    elems = g.enumerate_elements(10)
    mu = uniform_on(g, elems)
    assert all(w == F(1, 6) for _, w in mu.atoms)


def test_uniform_on_deduplicates_semantically():
    g = GrigorchukGroup()
    # Equal elements keep the canonically least spelling, as in Measure.
    for words, least in [(["bc", "d"], "d"), (["adadadada", "a"], "a")]:
        mu = uniform_on(g, [g.element(w) for w in words])
        assert len(mu) == 2  # {e, least}
        assert mu.weight_of(g.element(least)) == F(1, 2)
        assert str(support(mu)[1]) == least


def test_translate_shifts_atoms():
    mu = uniform_on(Z4, [Z4.element(1)])
    shifted = translate(mu, Z4.element(1), Z4.element(0))
    assert weights(shifted) == [(1, F(1, 2)), (2, F(1, 2))]


def test_translate_equals_convolving_with_point_masses():
    rng = random.Random(11)
    elems = list(Z4.enumerate_elements(10))
    for _ in range(40):
        mu = random_measure(rng, Z4, elems)
        g, h = rng.choice(elems), rng.choice(elems)
        assert translate(mu, g, h) == convolve(convolve(dirac(g), mu), dirac(h))


def test_translate_matches_convolving_atom_for_atom_on_every_backend():
    # Same atoms, same canonical order and same spelling as the convolution,
    # on respelled word atoms and translates by long alternating words too.
    rng = random.Random(13)
    grig = GrigorchukGroup()
    words = ["", "a", "d", "ad", "da", "ada", "dad", "adad",
             "adadadada", "adadadadd", "dadadada", "adadadadad"]
    shifts = ["adadadadadad", "dadadadadada", "acacacacacac", "abababababab"]
    s4 = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    pools = [
        (Z4, list(Z4.enumerate_elements(10)), []),
        (s4, list(s4.enumerate_elements(30)), []),
        (grig, [grig.element(w) for w in words], [grig.element(w) for w in shifts]),
    ]
    for group, elems, long_shifts in pools:
        for _ in range(40):
            mu = random_measure(rng, group, elems, max_support=4)
            g, h = (rng.choice(elems + long_shifts) for _ in range(2))
            reference = convolve(convolve(dirac(g), mu), dirac(h))
            assert spelled(translate(mu, g, h)) == spelled(reference)


def test_translate_by_identities_is_noop():
    mu = uniform_on(Z4, [Z4.element(1)])
    assert translate(mu, Z4.identity(), Z4.identity()) == mu


# ---------------------------------------------------------------------------
# Support closure


def test_support_closure_examples():
    assert is_support_closed(uniform_on(Z4, [Z4.element(1)])) is False
    assert is_support_closed(uniform_on(Z4, [Z4.element(2)])) is True
    assert is_support_closed(dirac(Z4.identity())) is True


def test_support_closure_on_word_backend():
    g = GrigorchukGroup()
    assert is_support_closed(uniform_on(g, [g.element("a")])) is True
    assert is_support_closed(uniform_on(g, [g.element("a"), g.element("b")])) is False


def test_support_closure_costs_n_products_a_generator(monkeypatch):
    s4 = load_perm("perm 4\n(0 1)\n(0 1 2 3)\n")
    mu = uniform_on(s4, enumerate_group(s4))
    products = 0
    mul = GroupElement.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(GroupElement, "__mul__", counting_mul)
    assert is_support_closed(mu) is True
    # 24 atoms times 3 greedy generators; testing every pair would take 576.
    assert products == 72


def test_support_closure_over_the_budget_raises_before_any_product(monkeypatch):
    def forbidden(x, y):
        raise AssertionError("a product was computed")

    mu = uniform_on(Z4, enumerate_group(Z4))
    monkeypatch.setattr(convreg.operators, "DEFAULT_CLOSURE_CAP", 3)
    monkeypatch.setattr(Z4, "_mul", forbidden)
    with pytest.raises(CapExceeded, match="support of 4 atoms exceeds the table budget of 3"):
        is_support_closed(mu)


# ---------------------------------------------------------------------------
# Files and JSON


def test_load_measure_roundtrip():
    mu = load_measure("0 1/2\n1 1/2\n", Z2)
    assert weights(mu) == [(0, F(1, 2)), (1, F(1, 2))]


def test_load_measure_supports_elements_with_spaces():
    g = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    mu = load_measure("(0 1) 1/2\n(0 1 2) 1/2\n", g)
    assert mu.weight_of(g.parse_element("(0 1)")) == F(1, 2)


def test_load_measure_diagnostics():
    with pytest.raises(ParseError) as err:
        load_measure("0 1/2\n1 1/3\n", Z2)
    assert "5/6" in str(err.value)
    with pytest.raises(ParseError) as err:
        load_measure("0 0/2\n1 1/1\n", Z2)
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        load_measure("", Z2)
    with pytest.raises(ParseError):
        load_measure("0 1/2 extra\n", Z2)


def test_load_measure_matches_checked_constructor_on_every_backend():
    rng = random.Random(13)
    for group, elems in backend_pools():
        for _ in range(40):
            # Repeated atoms, and weights such as 2/8 that are not in lowest terms.
            atoms = rng.choices(elems, k=rng.randint(1, 6))
            parts = [rng.randint(1, 5) for _ in atoms]
            scale = rng.randint(1, 4)
            lines = [f"{el} {k * scale}/{sum(parts) * scale}" for el, k in zip(atoms, parts)]
            pairs = [(group.parse_element(str(el)), F(k, sum(parts))) for el, k in zip(atoms, parts)]
            loaded = load_measure("\n".join(lines), group)
            reference = Measure(group, pairs)
            assert loaded == reference
            assert spelled(loaded) == spelled(reference)


def test_measure_json_roundtrip():
    g = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    mu = load_measure("(0 1) 1/3\ne 2/3\n", g)
    obj = measure_to_json(mu)
    assert obj["atoms"][0]["weight"] == "2/3"
