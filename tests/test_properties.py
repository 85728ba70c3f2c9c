"""Property-based cross-checks, with fixed (derandomized) examples."""

from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings, strategies as st

from convreg import (
    GrigorchukGroup,
    Measure,
    brute_force_ginverse,
    builtin_group,
    builtin_names,
    candidate_universe,
    closure,
    convolve,
    decide_regular,
    decide_translated,
    dirac,
    enumerate_group,
)
from convreg.bruteforce import _compositions
from convreg.errors import ClosureBudgetExceeded, ConvregError
from convreg.groups import load_perm
from convreg.measures import load_measure, measure_to_json

GROUPS = {name: builtin_group(name) for name in builtin_names()}
ELEMENTS = {name: enumerate_group(group) for name, group in GROUPS.items()}
S4 = load_perm("perm 4\n(0 1)\n(0 1 2 3)\n")


@st.composite
def small_measures(draw):
    """A measure of at most 3 atoms on a catalog group; small integer weight
    ratios, so equal weights (and hence regular measures) are common."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    atoms = draw(st.lists(st.sampled_from(ELEMENTS[name]), min_size=1, max_size=3, unique=True))
    raw = draw(st.lists(st.integers(1, 3), min_size=len(atoms), max_size=len(atoms)))
    return Measure(GROUPS[name], [(el, F(r, sum(raw))) for el, r in zip(atoms, raw)])


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(small_measures())
def test_closed_form_agrees_with_brute_force_oracle(mu):
    regular = decide_regular(mu).status == "regular"
    assert regular == (brute_force_ginverse(mu, 8, candidate_universe(mu)) is not None)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(small_measures())
def test_every_grid_candidate_is_a_hit_exactly_when_regular(mu):
    # For mu = δ(x) m_H the universe is H x^{-1}, and
    # m_H * (nu * δ(x)) * m_H = m_H for every probability nu on it; an
    # irregular mu has no inverse at all.
    regular = decide_regular(mu).status == "regular"
    universe = candidate_universe(mu)
    for q in (1, 2, 3):
        for parts in _compositions(q, len(universe)):
            nu = Measure(mu.group, [(u, F(k, q)) for u, k in zip(universe, parts) if k])
            assert (convolve(convolve(mu, nu), mu) == mu) == regular
    # So the oracle's first hit is the first grid candidate, all mass on the
    # first universe atom.
    expected = dirac(universe[0]) if regular else None
    assert brute_force_ginverse(mu, 3, universe) == expected


@st.composite
def translated_measures(draw):
    """``(mu, g, h)``: a measure of at most 8 atoms on a catalog group or S4,
    and a translation pair.  Half the supports are cosets ``x H`` of a
    subgroup of order at most 8, so that skewed weights reach the
    equality-system diagnostic."""
    group = draw(st.sampled_from([*(GROUPS[name] for name in sorted(GROUPS)), S4]))
    elements = enumerate_group(group)
    if draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=2))
        try:
            subgroup = closure(group, gens, cap=8)
        except ClosureBudgetExceeded:
            subgroup = closure(group, gens[:1])  # cyclic, of order at most 4 in S4
        x = draw(st.sampled_from(elements))
        atoms = [x * k for k in subgroup]
    else:
        atoms = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=8, unique=True))
    raw = draw(st.lists(st.integers(1, 3), min_size=len(atoms), max_size=len(atoms)))
    mu = Measure(group, [(el, F(r, sum(raw))) for el, r in zip(atoms, raw)])
    return mu, draw(st.sampled_from(elements)), draw(st.sampled_from(elements))


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(translated_measures())
def test_translates_share_status_and_reason(case):
    mu, g, h = case
    base = decide_regular(mu)
    translated = decide_translated(mu, g, h)
    assert (translated.status, translated.reason) == (base.status, base.reason)


GRIG = GrigorchukGroup()
S5 = load_perm("perm 5\n(0 1)\n(0 1 2 3 4)\n")


@st.composite
def elements_of_one_group(draw):
    """``(group, elements)``: 1-4 elements of a catalog group (Cayley), of S5
    (permutations) or of the Grigorchuk group, given there as random words."""
    backend = draw(st.sampled_from(["cayley", "perm", "word"]))
    if backend == "cayley":
        name = draw(st.sampled_from(sorted(GROUPS)))
        group, element = GROUPS[name], st.sampled_from(ELEMENTS[name])
    elif backend == "perm":
        group, element = S5, st.permutations(range(5)).map(lambda p: S5.element(tuple(p)))
    else:
        group, element = GRIG, st.text("abcd", max_size=12).map(GRIG.parse_element)
    return group, draw(st.lists(element, min_size=1, max_size=4))


@seed(20261)
@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(elements_of_one_group())
def test_elements_round_trip_through_their_text(case):
    # Equality is the group's, so a word is compared as an element, not as a spelling.
    group, elements = case
    for el in elements:
        assert group.parse_element(str(el)) == el


@seed(20262)
@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(elements_of_one_group(), st.data())
def test_measures_round_trip_through_their_text(case, data):
    group, elements = case
    raw = data.draw(st.lists(st.integers(1, 50), min_size=len(elements), max_size=len(elements)))
    mu = Measure(group, [(el, F(r, sum(raw))) for el, r in zip(elements, raw)])
    atoms = measure_to_json(mu)["atoms"]
    text = "".join(f"{atom['element']} {atom['weight']}\n" for atom in atoms)
    assert load_measure(text, group) == mu


@pytest.mark.parametrize(
    "capped",
    [
        pytest.param(
            lambda: closure(GRIG, [GRIG.element("b"), GRIG.element("acac")], cap=5),
            id="closure-infinite-b-acac",
        ),
        pytest.param(lambda: enumerate_group(GROUPS["Q8"], cap=5), id="enumerate-cayley"),
    ],
)
def test_capped_loops_raise_at_a_small_cap(capped):
    """Loops not already covered elsewhere: word_order, perm and word-backend
    enumeration and both brute_force_ginverse budgets have their own tests."""
    with pytest.raises(ConvregError, match="exceeds cap 5"):
        capped()
