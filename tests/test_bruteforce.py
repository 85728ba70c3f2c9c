"""Grid-search oracle for generalized inverses."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from convreg import (
    GrigorchukGroup,
    Measure,
    brute_force_ginverse,
    builtin_group,
    candidate_universe,
    closure,
    convolve,
    decide_regular,
    dirac,
    enumerate_group,
    load_cayley,
    support,
    uniform_on,
)
from convreg import bruteforce
from convreg.bruteforce import _compositions
from convreg.errors import UniverseTooLarge
from convreg.groups import GroupElement

Z2 = load_cayley("cayley 2\n0 1\n1 0\n")
Z4 = load_cayley("cayley 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")


def test_composition_order_is_reverse_lexicographic():
    assert list(_compositions(2, 3)) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    # Reverse-lexicographic is descending tuple order over all compositions.
    for total in range(6):
        for parts in range(1, 5):
            every = itertools.product(range(total + 1), repeat=parts)
            expected = sorted((c for c in every if sum(c) == total), reverse=True)
            assert list(_compositions(total, parts)) == expected


def test_candidate_universe_with_identity_atom_is_the_support():
    mu = uniform_on(Z4, [Z4.element(2)])
    assert candidate_universe(mu) == support(mu)


def test_candidate_universe_translates_by_first_atom():
    mu = Measure(Z4, [(Z4.element(1), F(1, 2)), (Z4.element(3), F(1, 2))])
    # x = 1, universe = {1^-1 * s * 1^-1} = {3*1*3, 3*3*3} = {1, 3}.
    assert [el.payload for el in candidate_universe(mu)] == [1, 3]


def test_uniform_pair_finds_identity_point_mass_first():
    mu = uniform_on(Z2, [Z2.element(1)])
    nu = brute_force_ginverse(mu, 2, candidate_universe(mu))
    assert nu == dirac(Z2.element(0))


def test_skewed_pair_has_no_inverse_up_to_eight():
    mu = Measure(Z2, [(Z2.element(0), F(3, 4)), (Z2.element(1), F(1, 4))])
    assert brute_force_ginverse(mu, 8, enumerate_group(Z2)) is None


def test_point_mass_inverse_found_at_denominator_one():
    g = Z4.element(1)
    mu = dirac(g)
    nu = brute_force_ginverse(mu, 1, closure(Z4, [g]))
    assert nu == dirac(g.inverse())


def test_every_hit_is_verified_by_convolution():
    rng = random.Random(2718)
    elems = list(enumerate_group(Z4))
    for _ in range(40):
        chosen = rng.sample(elems, rng.randint(1, 3))
        raw = [rng.randint(1, 4) for _ in chosen]
        total = sum(raw)
        mu = Measure(Z4, [(el, F(v, total)) for el, v in zip(chosen, raw)])
        nu = brute_force_ginverse(mu, 4, candidate_universe(mu))
        if nu is not None:
            assert convolve(convolve(mu, nu), mu) == mu


def test_oracle_agrees_with_engine_on_a_sample():
    rng = random.Random(99)
    elems = list(enumerate_group(Z4))
    for _ in range(60):
        chosen = rng.sample(elems, rng.randint(1, 3))
        raw = [rng.randint(1, 6) for _ in chosen]
        total = sum(raw)
        mu = Measure(Z4, [(el, F(v, total)) for el, v in zip(chosen, raw)])
        engine_regular = decide_regular(mu).status == "regular"
        oracle_hit = brute_force_ginverse(mu, 8, candidate_universe(mu)) is not None
        assert engine_regular == oracle_hit


def test_budgets_are_enforced():
    mu = uniform_on(Z4, [Z4.element(1), Z4.element(2), Z4.element(3)])
    with pytest.raises(UniverseTooLarge):
        brute_force_ginverse(mu, 2, enumerate_group(Z4), max_atoms=3)
    with pytest.raises(UniverseTooLarge):
        brute_force_ginverse(mu, 50, enumerate_group(Z4), max_candidates=100)
    with pytest.raises(ValueError):
        brute_force_ginverse(mu, 0, enumerate_group(Z4))


def test_group_products_are_fixed_per_call(monkeypatch):
    # A non-regular measure walks the whole grid, so only the columns built
    # once per call may multiply group elements, whatever the denominator.
    mu = Measure(Z4, [(Z4.element(i), F(2 if i == 0 else 1, 5)) for i in range(4)])
    universe = candidate_universe(mu)
    products = 0
    mul = GroupElement.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(GroupElement, "__mul__", counting_mul)
    counts = []
    for max_denominator in (2, 8):
        products = 0
        assert brute_force_ginverse(mu, max_denominator, universe) is None
        counts.append(products)
    m, s = len(universe), len(mu.atoms)
    assert counts[0] == counts[1] <= m * s * (s + 1)


def test_budget_is_counted_in_closed_form():
    # The count is exact and immediate, however large the denominator.
    mu = uniform_on(Z4, [Z4.element(1), Z4.element(2), Z4.element(3)])
    huge = 10**12
    with pytest.raises(UniverseTooLarge) as err:
        brute_force_ginverse(mu, huge, enumerate_group(Z4))
    assert str(err.value) == (
        f"grid holds {math.comb(huge + 4, 4) - 1} candidate vectors, budget is 2000000"
    )
    # Hockey stick: the compositions of q = 1..Q into m parts.
    elems = enumerate_group(builtin_group("D4"))
    for m in range(1, 8):
        for top in range(1, 60):
            with pytest.raises(UniverseTooLarge) as err:
                brute_force_ginverse(dirac(elems[0]), top, elems[:m], max_candidates=0)
            total = sum(math.comb(q + m - 1, m - 1) for q in range(1, top + 1))
            assert str(err.value) == f"grid holds {total} candidate vectors, budget is 0"


def test_no_composition_when_every_column_leaves_the_support(monkeypatch):
    # {0, 1, 2} is open in Z4: every column a * δ(u) * a reaches 3, so not
    # one candidate is generated, even at a denominator near the budget.
    mu = Measure(Z4, [(Z4.element(0), F(1, 2)), (Z4.element(1), F(1, 4)), (Z4.element(2), F(1, 4))])
    calls = 0
    compositions = bruteforce._compositions

    def counting(total, parts):
        nonlocal calls
        calls += 1
        return compositions(total, parts)

    monkeypatch.setattr(bruteforce, "_compositions", counting)
    assert brute_force_ginverse(mu, 226, candidate_universe(mu)) is None
    assert calls == 0
    assert brute_force_ginverse(uniform_on(Z4, [Z4.element(2)]), 1, enumerate_group(Z4))
    assert calls == 1


# ---------------------------------------------------------------------------
# The integer-scaled oracle against a Fraction reference


def reference_ginverse(mu, max_denominator, support_universe):
    """The oracle as a plain Fraction loop: build each candidate as a checked
    Measure and convolve through the checked constructor."""

    def conv(x, y):
        return Measure(x.group, [(g * h, wg * wh) for g, wg in x.atoms for h, wh in y.atoms])

    universe = list(dict.fromkeys(support_universe))
    for q in range(1, max_denominator + 1):
        for parts in _compositions(q, len(universe)):
            if math.gcd(q, *parts) > 1:
                continue
            nu = Measure(mu.group, [(universe[i], F(k, q)) for i, k in enumerate(parts) if k > 0])
            if conv(conv(mu, nu), mu) == mu:
                return nu
    return None


def sweep_measures():
    """Every measure on Z2, Z3, Z4 and S3 with at most 3 atoms and weight
    denominators at most 6 (the criterion-2 sweep)."""
    values = sorted({F(k, d) for d in range(1, 7) for k in range(1, d + 1)})
    for name in ("Z2", "Z3", "Z4", "S3"):
        group = builtin_group(name)
        elems = enumerate_group(group)
        for size in (1, 2, 3):
            vectors = [
                (*head, 1 - sum(head))
                for head in itertools.product(values, repeat=size - 1)
                if 1 - sum(head) in values
            ]
            for subset in itertools.combinations(elems, size):
                for weights in vectors:
                    yield Measure(group, list(zip(subset, weights)))


def assert_same_first_hit(mu, max_denominator, universe=None):
    universe = candidate_universe(mu) if universe is None else universe
    hit = brute_force_ginverse(mu, max_denominator, universe)
    expected = reference_ginverse(mu, max_denominator, universe)
    if expected is None:
        assert hit is None
    else:
        assert hit == expected
        assert [(str(el), w) for el, w in hit.atoms] == [(str(el), w) for el, w in expected.atoms]
    return hit


def test_scaled_oracle_matches_reference_on_the_sweep():
    measures = list(sweep_measures())
    assert len(measures) == 765
    for mu in measures:
        assert_same_first_hit(mu, 4)


def test_scaled_oracle_matches_reference_on_whole_group_universes():
    # On the whole group a closed support keeps some columns a * δ(u) * a
    # and drops the ones that leave it, so the oracle enumerates a proper
    # subset of the grid.  An open support keeps no column, and it has no
    # inverse at all (criterion 4), so the answer there is None.
    hits = 0
    for mu in sweep_measures():
        universe = enumerate_group(mu.group)
        s = support(mu)
        if len(closure(mu.group, [s[0].inverse() * x for x in s])) > len(s):
            assert brute_force_ginverse(mu, 2, universe) is None
        else:
            hits += assert_same_first_hit(mu, 2, universe) is not None
    assert hits > 0


def test_scaled_oracle_matches_reference_on_respelled_words():
    g = GrigorchukGroup()
    # On <a,d>, adadadad and dadadada are the identity, so adadadada = a,
    # adadadadd = d and adadadadad = ad.
    cases = [
        [("dadadada", F(1, 2)), ("adadadada", F(1, 2))],
        [("adadadada", F(1, 2)), ("adadadadad", F(1, 2))],
        [("dadadada", F(3, 4)), ("adadadadd", F(1, 4))],
        [("adadadad", F(1, 3)), ("adadadadd", F(1, 3)), ("a", F(1, 3))],
        [("dadadada", F(1, 4)), ("adadadadad", F(1, 4)), ("adad", F(1, 4)), ("adadad", F(1, 4))],
    ]
    hits = 0
    for atoms in cases:
        mu = Measure(g, [(g.element(w), wt) for w, wt in atoms])
        assert_same_first_hit(mu, 4)
        hits += brute_force_ginverse(mu, 4, candidate_universe(mu)) is not None
    assert hits == 3
