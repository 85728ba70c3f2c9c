"""Support tables and left/right convolution operator matrices."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings, strategies as st

import convreg.operators
from convreg import (
    GrigorchukGroup,
    Measure,
    RationalMatrix,
    build_support_table,
    builtin_group,
    builtin_names,
    convolve,
    enumerate_group,
    left_operator,
    load_cayley,
    mat_mul,
    mat_vec,
    right_operator,
    subgroups_of,
)
from convreg.errors import CapExceeded, DimensionMismatch, IdentityMissing, NotClosed
from convreg.groups import closure, load_perm
from convreg.operators import SupportTable

Z2 = load_cayley("cayley 2\n0 1\n1 0\n")
Z4 = load_cayley("cayley 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
S3 = load_perm("perm 3\n(0 1)\n(0 1 2)\n")


def table_for(group, payloads):
    return build_support_table([group.element(p) for p in payloads])


def random_alpha(rng, n, max_den=6):
    raw = [rng.randint(1, max_den) for _ in range(n)]
    total = sum(raw)
    return [F(v, total) for v in raw]


def rows_of(matrix):
    return [list(matrix.row(i)) for i in range(matrix.rows)]


# ---------------------------------------------------------------------------
# Support tables


def test_trivial_table():
    t = table_for(Z4, [0])
    assert t.size == 1
    assert t.mult == ((0,),)


def test_z4_even_subgroup_table():
    t = table_for(Z4, [0, 2])
    assert [el.payload for el in t.elements] == [0, 2]
    assert t.mult == ((0, 1), (1, 0))
    assert t.mult[1] == (1, 0)
    assert t.inv_index == (0, 1)


def test_identity_moved_to_front():
    t = table_for(Z4, [2, 0])
    assert t.elements[0] == Z4.identity()


def test_left_perms_are_bijections_fixing_identity_row():
    elems = enumerate_group(S3)
    t = build_support_table(elems)
    n = t.size
    assert t.mult[0] == tuple(range(n))
    for j in range(n):
        assert sorted(t.mult[j]) == list(range(n))
    # Right actions compose in the opposite order somewhere on a nonabelian
    # support: some pair of left-translation permutations fails to commute.
    def compose(p, q):
        return tuple(p[q[i]] for i in range(n))

    assert any(
        compose(t.mult[j], t.mult[k]) != compose(t.mult[k], t.mult[j])
        for j in range(n)
        for k in range(n)
    )


def test_inv_index_is_an_involution_hitting_identity():
    for group, payloads in [(Z4, [0, 1, 2, 3]), (Z4, [0, 2])]:
        t = table_for(group, payloads)
        for k in range(t.size):
            assert t.inv_index[t.inv_index[k]] == k
            assert t.mult[k][t.inv_index[k]] == 0


def test_missing_identity_rejected():
    with pytest.raises(IdentityMissing):
        table_for(Z4, [1, 3])


def test_open_support_rejected_with_witness():
    with pytest.raises(NotClosed) as err:
        table_for(Z4, [0, 1])
    assert str(err.value) == "1 * 1 = 2 escapes the support"


def test_support_over_the_budget_is_refused_before_any_product(monkeypatch):
    def forbidden(x, y):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(convreg.operators, "DEFAULT_CLOSURE_CAP", 3)
    monkeypatch.setattr(Z4, "_mul", forbidden)
    elems = [Z4.element(p) for p in range(4)]
    with pytest.raises(CapExceeded, match="support of 4 atoms exceeds the table budget of 3"):
        build_support_table(elems)
    with pytest.raises(AssertionError, match="a product was computed"):
        build_support_table(elems[:3])


# ---------------------------------------------------------------------------
# The generator-built table against the row-major scan


def row_major_table(elements):
    """Reference: every product of the support, one row at a time."""
    elems = list(elements)
    e = elems[0].group.identity()
    elems.insert(0, elems.pop(elems.index(e)))
    index = {}
    for i, el in enumerate(elems):
        index.setdefault(el, i)
    mult = []
    for gj in elems:
        row = []
        for gk in elems:
            idx = index.get(gj * gk)
            if idx is None:
                raise NotClosed(f"{gj} * {gk} = {gj * gk} escapes the support")
            row.append(idx)
        mult.append(tuple(row))
    return SupportTable(tuple(elems), tuple(mult), tuple(row.index(0) for row in mult))


S4 = load_perm("perm 4\n(0 1)\n(0 1 2 3)\n")
A5 = load_perm("perm 5\n(0 1 2)\n(0 1 2 3 4)\n")
S5 = load_perm("perm 5\n(0 1)\n(0 1 2 3 4)\n")
S5_ELEMENTS = enumerate_group(S5)
GRIG = GrigorchukGroup()
LADDER = ("a d", "a c", "a b", "b c ada", "b c abacaba", "d ada cabac")


def test_table_matches_the_row_major_scan_on_catalog_subgroups():
    for name in builtin_names():
        group = builtin_group(name)
        for sub in subgroups_of(group):
            elems = [group.element(i) for i in sub]
            assert build_support_table(elems) == row_major_table(elems), (name, sub)


@pytest.mark.parametrize("group", [S4, A5, S5], ids=["S4", "A5", "S5"])
def test_table_matches_the_row_major_scan_on_permutation_groups(group):
    elems = enumerate_group(group)
    assert build_support_table(elems) == row_major_table(elems)


@pytest.mark.parametrize("gens, order", zip(LADDER, (8, 16, 32, 64, 128, 256)), ids=LADDER)
def test_table_matches_the_row_major_scan_on_the_grigorchuk_ladder(gens, order):
    elems = closure(GRIG, [GRIG.element(w) for w in gens.split()], cap=600)
    assert len(elems) == order
    assert build_support_table(elems) == row_major_table(elems)


@seed(20241)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.lists(st.sampled_from(S5_ELEMENTS), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_table_matches_the_row_major_scan_on_random_s5_subgroups(gens, rng):
    elems = list(closure(S5, gens))
    rng.shuffle(elems)
    elems += elems[: rng.randint(0, 2)]  # repeated atoms share an index
    assert build_support_table(elems) == row_major_table(elems)


@seed(20241)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.sampled_from(S5_ELEMENTS[1:]), min_size=1, max_size=30, unique=True))
def test_open_s5_subsets_name_the_reference_escaping_product(others):
    elems = [S5.identity(), *others]
    try:
        expected = row_major_table(elems)
    except NotClosed as exc:
        with pytest.raises(NotClosed) as err:
            build_support_table(elems)
        assert str(err.value) == str(exc)
    else:
        assert build_support_table(elems) == expected


# ---------------------------------------------------------------------------
# Operator matrices: frozen small cases


def test_left_operator_flat_two_point():
    t = table_for(Z2, [0, 1])
    L = left_operator([F(1, 2), F(1, 2)], t)
    assert rows_of(L.matrix) == [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    assert L.side == "left"


def test_left_operator_skewed_two_point():
    t = table_for(Z2, [0, 1])
    L = left_operator([F(3, 4), F(1, 4)], t)
    assert rows_of(L.matrix) == [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]


def test_point_mass_gives_identity_operator():
    t = table_for(Z4, [0, 1, 2, 3])
    alpha = [F(1), F(0), F(0), F(0)]
    identity = RationalMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert left_operator(alpha, t).matrix == identity
    assert right_operator(alpha, t).matrix == identity


def test_left_and_right_differ_on_nonabelian_support():
    elems = enumerate_group(S3)
    t = build_support_table(elems)
    e_idx = 0
    swap_idx = next(
        i for i, el in enumerate(t.elements) if el == S3.parse_element("(0 1)")
    )
    alpha = [F(0)] * 6
    alpha[e_idx] = F(1, 2)
    alpha[swap_idx] = F(1, 2)
    L = left_operator(alpha, t)
    R = right_operator(alpha, t)
    assert L.matrix != R.matrix


def test_alpha_validation():
    t = table_for(Z2, [0, 1])
    with pytest.raises(DimensionMismatch):
        left_operator([F(1)], t)
    with pytest.raises(ValueError):
        left_operator([F(3, 2), F(-1, 2)], t)
    with pytest.raises(ValueError):
        left_operator([F(1, 2), F(1, 3)], t)


# ---------------------------------------------------------------------------
# Random properties


def random_instance(rng):
    group, payloads = rng.choice(
        [
            (Z2, [0, 1]),
            (Z4, [0, 2]),
            (Z4, [0, 1, 2, 3]),
            (S3, None),
        ]
    )
    if payloads is None:
        elems = list(enumerate_group(group))
    else:
        elems = [group.element(p) for p in payloads]
    t = build_support_table(elems)
    return group, t, random_alpha(rng, t.size)


def test_operators_commute_and_are_doubly_stochastic():
    rng = random.Random(2024)
    for _ in range(200):
        _, t, alpha = random_instance(rng)
        L = left_operator(alpha, t).matrix
        R = right_operator(alpha, t).matrix
        assert mat_mul(L, R) == mat_mul(R, L)
        n = t.size
        for m in (L, R):
            for i in range(n):
                assert sum(m.row(i)) == 1
                assert sum(m.column(i)) == 1
                assert sorted(m.row(i)) == sorted(alpha)
                assert sorted(m.column(i)) == sorted(alpha)


def test_operator_faithfulness_against_convolution():
    rng = random.Random(606)
    for _ in range(120):
        group, t, alpha = random_instance(rng)
        mu = Measure(group, [(el, w) for el, w in zip(t.elements, alpha) if w > 0])
        beta = random_alpha(rng, t.size)
        nu = Measure(group, [(el, w) for el, w in zip(t.elements, beta) if w > 0])
        L = left_operator(alpha, t)
        R = right_operator(alpha, t)
        left_expected = convolve(mu, nu)
        right_expected = convolve(nu, mu)
        left_got = mat_vec(L.matrix, beta)
        right_got = mat_vec(R.matrix, beta)
        for k, el in enumerate(t.elements):
            assert left_expected.weight_of(el) == left_got[k]
            assert right_expected.weight_of(el) == right_got[k]


def test_abelian_supports_collapse_left_and_right():
    rng = random.Random(11)
    for _ in range(60):
        t = table_for(Z4, [0, 1, 2, 3])
        alpha = random_alpha(rng, 4)
        L = left_operator(alpha, t).matrix
        R = right_operator(alpha, t).matrix
        assert L == R
        # The determining matrix R*L is then the square of the single
        # translation matrix.
        assert mat_mul(R, L) == mat_mul(L, L)
