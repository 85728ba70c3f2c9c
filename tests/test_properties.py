"""Property-based cross-checks, with fixed (derandomized) examples."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from convreg import (
    Measure,
    brute_force_ginverse,
    builtin_group,
    builtin_names,
    candidate_universe,
    decide_regular,
    enumerate_group,
)

GROUPS = {name: builtin_group(name) for name in builtin_names()}
ELEMENTS = {name: enumerate_group(group) for name, group in GROUPS.items()}


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
