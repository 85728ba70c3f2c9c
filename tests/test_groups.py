"""Cayley-table and permutation backends: arithmetic, parsing, budgets."""

import random

import pytest

from convreg import (
    ClosureBudgetExceeded,
    GrigorchukGroup,
    closure,
    enumerate_group,
    load_cayley,
)
from convreg.errors import (
    BackendMismatch,
    CapExceeded,
    NotAGroup,
    OrderBudgetExceeded,
    ParseError,
)
from convreg.groups import (
    MAX_PERM_DEGREE,
    CayleyGroup,
    GroupElement,
    PermGroup,
    load_group,
    load_perm,
)

Z2_TEXT = "cayley 2\n0 1\n1 0\n"
Z4_TEXT = "cayley 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"
S3_PERM_TEXT = "perm 3\n(0 1)\n(0 1 2)\n"


def z4():
    return load_cayley(Z4_TEXT)


# ---------------------------------------------------------------------------
# Cayley backend


def test_load_cayley_z2():
    g = load_cayley(Z2_TEXT)
    assert g.order == 2
    assert g.identity() == g.element(0)


def test_cayley_multiply_and_inverse():
    g = z4()
    assert g.element(1) * g.element(3) == g.element(0)
    assert g.element(3).inverse() == g.element(1)
    assert g.identity() == g.element(0)


def test_cayley_rejects_repeated_row():
    with pytest.raises(NotAGroup):
        load_cayley("cayley 2\n0 1\n0 1\n")


def test_cayley_rejects_identity_off_zero():
    # Rows/columns are permutations but index 0 is not the identity.
    with pytest.raises(NotAGroup):
        load_cayley("cayley 2\n1 0\n0 1\n")


# Each row and column is a permutation fixing index 0 as identity, but
# (1*1)*2 != 1*(1*2) under this table.
LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def z128_intercalate():
    # Z128 with the 2x2 subsquare at rows 1, 65 and columns 3, 67 swapped:
    # still a Latin square with identity 0, but (1*1)*2 = 4 while
    # 1*(1*2) = 68.  Only three in a thousand triples fail, so a sampled
    # associativity check can miss it; Light's test cannot.
    n = 128
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i in (1, 65):
        table[i][3], table[i][67] = table[i][67], table[i][3]
    return table


def test_cayley_rejects_non_associative_table():
    text = "cayley 5\n" + "\n".join(" ".join(str(v) for v in row) for row in LOOP_5)
    with pytest.raises(NotAGroup):
        load_cayley(text)


def test_cayley_rejects_z128_with_one_intercalate_swap():
    with pytest.raises(NotAGroup, match="associativity"):
        CayleyGroup(z128_intercalate())


@pytest.mark.parametrize(
    "table, message",
    [
        pytest.param(LOOP_5, "associativity fails at (i, j, k) = (1, 1, 2)", id="loop-5"),
        pytest.param(
            z128_intercalate(),
            "associativity fails at (i, j, k) = (1, 1, 2)",
            id="z128-intercalate",
        ),
        # Every row is a permutation; columns 1 and 2 are not, and 1 is named.
        pytest.param(
            [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
            "column 1 is not a permutation of 0..2",
            id="column",
        ),
    ],
)
def test_cayley_names_the_first_failure(table, message):
    with pytest.raises(NotAGroup) as err:
        CayleyGroup(table)
    assert str(err.value) == message


def test_cayley_accepts_large_group_tables():
    n = 128
    CayleyGroup([[(i + j) % n for j in range(n)] for i in range(n)])
    s4 = load_perm("perm 4\n(0 1)\n(0 1 2 3)\n")
    elems = enumerate_group(s4)
    index = {el: i for i, el in enumerate(elems)}
    CayleyGroup([[index[x * y] for y in elems] for x in elems])


def test_cayley_parse_element_bounds():
    g = z4()
    assert g.parse_element("2") == g.element(2)
    assert g.parse_element("e") == g.identity()
    with pytest.raises(ParseError):
        g.parse_element("4")
    with pytest.raises(ParseError):
        g.parse_element("x")


def test_cayley_order_values():
    g = z4()
    assert g.element(1).order() == 4
    assert g.element(2).order() == 2
    assert g.identity().order() == 1


# ---------------------------------------------------------------------------
# Permutation backend


def test_perm_cycle_parsing_roundtrip():
    g = PermGroup(5)
    el = g.parse_element("(0 1 2)(3 4)")
    assert el.payload == (1, 2, 0, 4, 3)
    assert str(el) == "(0 1 2)(3 4)"
    assert str(g.identity()) == "e"


def test_perm_cycles_compose_leftmost_last():
    g = PermGroup(3)
    # (0 1)(1 2) maps 2 -> 1 -> 0 via the right cycle first.
    el = g.parse_element("(0 1)(1 2)")
    assert el.payload == (1, 2, 0)
    # Random cycle lists that share points, against a right-to-left product.
    rng = random.Random(1207)
    for _ in range(3000):
        degree = rng.randint(1, 7)
        cycles = [
            rng.sample(range(degree), rng.randint(0, degree)) for _ in range(rng.randint(1, 5))
        ]
        text = rng.choice(["", " "]).join(
            "(" + rng.choice([" ", ",", ", "]).join(map(str, c)) + ")" for c in cycles
        )
        image = []
        for x in range(degree):
            for cyc in reversed(cycles):
                if x in cyc:
                    x = cyc[(cyc.index(x) + 1) % len(cyc)]
            image.append(x)
        assert PermGroup(degree).parse_element(text).payload == tuple(image), text


def test_perm_multiply_involution():
    g = PermGroup(3)
    t = g.parse_element("(0 1)")
    assert t * t == g.identity()


def test_perm_inverse():
    g = PermGroup(3)
    el = g.element((1, 2, 0))
    assert el.inverse() == g.element((2, 0, 1))


def test_perm_order_lcm_of_cycles():
    g = PermGroup(5)
    assert g.parse_element("(0 1 2)(3 4)").order() == 6


def test_perm_parse_rejects_bad_cycles():
    g = PermGroup(3)
    for bad in ["(0 3)", "(0 0)", "0 1", "(", "(0 1"]:
        with pytest.raises(ParseError):
            g.parse_element(bad)


def test_load_perm_s3():
    g = load_perm(S3_PERM_TEXT)
    assert g.degree == 3
    assert len(enumerate_group(g)) == 6


def test_perm_degree_budget_is_checked_before_any_allocation():
    over = MAX_PERM_DEGREE + 1
    with pytest.raises(NotAGroup) as err:
        PermGroup(10**9)
    assert str(err.value) == f"degree 1000000000 exceeds the budget {MAX_PERM_DEGREE}"
    # The header's line is named, and no generator line is parsed.
    with pytest.raises(ParseError) as err:
        load_group(f"# big\nperm {over}\n(0 x)\n")
    assert str(err.value) == f"line 2: degree {over} exceeds the budget {MAX_PERM_DEGREE}"
    assert load_perm(f"perm {MAX_PERM_DEGREE}\n(0 1)\n").degree == MAX_PERM_DEGREE


# ---------------------------------------------------------------------------
# Cross-backend rules and budgets


def test_cross_backend_multiplication_rejected():
    a = z4().element(1)
    b = PermGroup(3).parse_element("(0 1)")
    with pytest.raises(BackendMismatch):
        a * b


def test_elements_of_distinct_group_objects_do_not_mix():
    g1, g2 = z4(), z4()
    with pytest.raises(BackendMismatch):
        g1.element(1) * g2.element(1)


def test_element_hashes_do_not_depend_on_the_group_object():
    # Hashes repeat from run to run; elements of different group objects
    # share them but stay unequal.
    g1, g2 = z4(), z4()
    assert hash(g1.element(3)) == hash(g2.element(3))
    assert g1.element(3) != g2.element(3)
    p1, p2 = PermGroup(3), PermGroup(3)
    assert hash(p1.parse_element("(0 1)")) == hash(p2.parse_element("(0 1)"))
    assert p1.parse_element("(0 1)") != p2.parse_element("(0 1)")
    w1, w2 = GrigorchukGroup(), GrigorchukGroup()
    assert hash(w1.element("ab")) == hash(w2.element("ab"))
    assert w1.element("ab") != w2.element("ab")
    assert len({g1.element(1), g2.element(1)}) == 2


@pytest.mark.parametrize(
    "group, x, y",
    [
        (z4(), 1, 2),
        (PermGroup(3), (1, 0, 2), (1, 2, 0)),
        (GrigorchukGroup(), "ad", "adadadada"),
    ],
    ids=["cayley", "perm", "grigorchuk"],
)
def test_products_are_plain_immutable_elements(group, x, y):
    product = group.element(x) * group.element(y)
    assert type(product) is GroupElement
    assert product.group is group
    with pytest.raises(AttributeError):
        product.payload = x
    with pytest.raises(AttributeError):
        product.group = z4()
    same = group.element(group._mul(x, y))
    assert product == same
    assert hash(product) == hash(same)
    assert {product: 1}[same] == 1


def test_order_budget_exceeded():
    g = z4()
    with pytest.raises(OrderBudgetExceeded):
        g.element(1).order(cap=3)


def test_closure_generates_subgroup():
    g = z4()
    elems = closure(g, [g.element(2)])
    assert [el.payload for el in elems] == [0, 2]


def test_closure_budget():
    g = GrigorchukGroup()
    with pytest.raises(ClosureBudgetExceeded):
        closure(g, [g.element("a"), g.element("b"), g.element("c")], cap=50)


def test_perm_enumeration_over_cap_raises_cap_exceeded():
    g = load_perm(S3_PERM_TEXT)
    with pytest.raises(CapExceeded, match="generated subgroup exceeds cap 5"):
        enumerate_group(g, cap=5)


def test_enumerate_group_cap():
    g = GrigorchukGroup()
    with pytest.raises(CapExceeded):
        enumerate_group(g, cap=100)


# ---------------------------------------------------------------------------
# File parsing edges


def test_load_group_dispatches_on_header():
    assert isinstance(load_group(Z2_TEXT), CayleyGroup)
    assert isinstance(load_group(S3_PERM_TEXT), PermGroup)
    assert isinstance(load_group("# comment\ngrigorchuk\n"), GrigorchukGroup)
    with pytest.raises(ParseError):
        load_group("lattice 3\n")


def test_comments_and_blank_lines_ignored():
    g = load_cayley("# Z2\n\ncayley 2\n0 1\n# middle\n1 0\n")
    assert g.order == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_cayley("cayley 2\n0 1\n1 x\n")
    assert "line 3" in str(err.value)


def test_non_ascii_rejected():
    with pytest.raises(ParseError):
        load_cayley("cayley 2\n0 1\n1 0 é\n")


@pytest.mark.parametrize(
    "ch", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_control_characters_are_errors_not_line_breaks(ch):
    # str.splitlines breaks at each of these; a file line ends only at LF,
    # CRLF or CR.
    with pytest.raises(ParseError) as err:
        load_cayley(f"cayley 2\n0{ch}1\n1 0\n")
    assert str(err.value) == f"line 2: non-printable or non-ASCII character {ch!r}"


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_lf_crlf_and_cr_end_lines(eol):
    assert load_cayley(eol.join(["# Z2", "cayley 2", "0 1", "1 0", ""])).order == 2
    with pytest.raises(ParseError) as err:
        load_cayley(eol.join(["cayley 2", "", "0 1", "1 x", ""]))
    assert str(err.value) == "line 4: non-integer table entry in '1 x'"


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("cayley 2\n\n0 1\n1\f0\n", 4),
        ("cayley 2\r\n\r\n0 1\r\n1\f0\r\n", 4),
        ("cayley 2\r\r0 1\r1\f0\r", 4),
        ("cayley 2\r\n\r0 1\n1\f0", 4),
        ("cayley 2\r\f\n0 1\n", 2),
        ("\fcayley 2\n", 1),
    ],
    ids=["lf", "crlf", "cr", "mixed", "between-cr-and-lf", "first-character"],
)
def test_control_character_is_named_on_its_line_after_any_break(text, lineno):
    with pytest.raises(ParseError) as err:
        load_cayley(text)
    assert str(err.value) == f"line {lineno}: non-printable or non-ASCII character '\\x0c'"


# ---------------------------------------------------------------------------
# Random properties


def test_random_associativity_and_inverses():
    rng = random.Random(60601)
    groups = [z4(), load_perm(S3_PERM_TEXT)]
    for g in groups:
        elems = enumerate_group(g)
        for _ in range(80):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == g.identity()
            assert a.inverse() * a == g.identity()


def test_order_divides_cyclic_subgroup_size():
    rng = random.Random(2)
    for g in [z4(), load_perm(S3_PERM_TEXT)]:
        for el in enumerate_group(g):
            n = el.order()
            assert len(closure(g, [el])) == n
            power = g.identity()
            for _ in range(n):
                power = power * el
            assert power == g.identity()
