"""Built-in group tables: validity, structure constants, subgroup lattices."""

import pytest

from convreg import (
    builtin_group,
    builtin_names,
    enumerate_group,
    subgroups_of,
    uniform_on,
    convolve,
)
from convreg.catalog import cayley_text
from convreg.groups import CayleyGroup, load_group

EXPECTED_ORDERS = {"Z2": 2, "Z3": 3, "Z4": 4, "V4": 4, "S3": 6, "D4": 8, "Q8": 8}
EXPECTED_SUBGROUP_COUNTS = {"Z2": 2, "Z3": 2, "Z4": 3, "V4": 5, "S3": 6, "D4": 10, "Q8": 6}


def test_names_cover_expectations():
    assert set(builtin_names()) == set(EXPECTED_ORDERS)


def test_tables_load_through_the_validating_parser():
    for name in builtin_names():
        g = load_group(cayley_text(name))
        assert g.order == EXPECTED_ORDERS[name]


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        cayley_text("Z5")


def test_element_orders_q8():
    q8 = builtin_group("Q8")
    # index 0 = 1, 1 = -1, then +/-i, +/-j, +/-k.
    assert q8.element(0).order() == 1
    assert q8.element(1).order() == 2
    for idx in range(2, 8):
        assert q8.element(idx).order() == 4


def test_q8_hamilton_product():
    q8 = builtin_group("Q8")
    i, j, k = q8.element(2), q8.element(4), q8.element(6)
    minus_one = q8.element(1)
    assert i * j == k
    assert j * i == k.inverse()
    assert i * i == minus_one
    assert (i * j) * k == minus_one


def test_d4_structure():
    d4 = builtin_group("D4")
    orders = sorted(el.order() for el in enumerate_group(d4))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


# Literal file texts: the golden corpora and the benchmark index elements by
# these tables, so any change to a row or to the element order shows here.
PINNED_TEXTS = {
    "Z2": (
        "# Z2\n"
        "cayley 2\n"
        "0 1\n"
        "1 0\n"
    ),
    "Z3": (
        "# Z3\n"
        "cayley 3\n"
        "0 1 2\n"
        "1 2 0\n"
        "2 0 1\n"
    ),
    "Z4": (
        "# Z4\n"
        "cayley 4\n"
        "0 1 2 3\n"
        "1 2 3 0\n"
        "2 3 0 1\n"
        "3 0 1 2\n"
    ),
    "V4": (
        "# V4\n"
        "cayley 4\n"
        "0 1 2 3\n"
        "1 0 3 2\n"
        "2 3 0 1\n"
        "3 2 1 0\n"
    ),
    "S3": (
        "# S3\n"
        "cayley 6\n"
        "0 1 2 3 4 5\n"
        "1 0 4 5 2 3\n"
        "2 3 0 1 5 4\n"
        "3 2 5 4 0 1\n"
        "4 5 1 0 3 2\n"
        "5 4 3 2 1 0\n"
    ),
    "D4": (
        "# D4\n"
        "cayley 8\n"
        "0 1 2 3 4 5 6 7\n"
        "1 0 6 7 5 4 2 3\n"
        "2 3 0 1 6 7 4 5\n"
        "3 2 4 5 7 6 0 1\n"
        "4 5 3 2 0 1 7 6\n"
        "5 4 7 6 1 0 3 2\n"
        "6 7 1 0 2 3 5 4\n"
        "7 6 5 4 3 2 1 0\n"
    ),
    "Q8": (
        "# Q8\n"
        "cayley 8\n"
        "0 1 2 3 4 5 6 7\n"
        "1 0 3 2 5 4 7 6\n"
        "2 3 1 0 6 7 5 4\n"
        "3 2 0 1 7 6 4 5\n"
        "4 5 7 6 1 0 2 3\n"
        "5 4 6 7 0 1 3 2\n"
        "6 7 4 5 3 2 1 0\n"
        "7 6 5 4 2 3 0 1\n"
    ),
}


@pytest.mark.parametrize("name", list(PINNED_TEXTS))
def test_table_text_is_pinned(name):
    assert cayley_text(name) == PINNED_TEXTS[name]


def test_subgroup_counts():
    for name in builtin_names():
        subs = subgroups_of(builtin_group(name))
        assert len(subs) == EXPECTED_SUBGROUP_COUNTS[name], name


def test_subgroups_are_closed_and_contain_identity():
    for name in builtin_names():
        g = builtin_group(name)
        for sub in subgroups_of(g):
            assert sub[0] == 0
            members = set(sub)
            assert all(g.table[i][j] in members for i in sub for j in sub)


def test_subgroup_uniform_measures_are_idempotent():
    for name in builtin_names():
        g = builtin_group(name)
        for sub in subgroups_of(g):
            mu = uniform_on(g, [g.element(i) for i in sub])
            assert convolve(mu, mu) == mu


def test_subgroup_enumeration_bails_out_beyond_sixteen():
    big = [[(i + j) % 17 for j in range(17)] for i in range(17)]
    with pytest.raises(ValueError):
        subgroups_of(CayleyGroup(big))
