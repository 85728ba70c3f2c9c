"""Library error paths: each raises its documented exception type and message."""

from fractions import Fraction

import pytest

from convreg.bruteforce import brute_force_ginverse
from convreg.errors import BackendMismatch, DimensionMismatch, IdentityMissing, ParseError
from convreg.groups import closure, load_cayley, load_perm
from convreg.linalg import RationalMatrix, gaussian_solve
from convreg.measures import Measure, translate, uniform_on
from convreg.operators import build_support_table

Z2_TEXT = "cayley 2\n0 1\n1 0\n"
Z2 = load_cayley(Z2_TEXT)
# Equal tables, distinct group objects: their elements never mix.
FOREIGN = load_cayley(Z2_TEXT).element(1)
MU = uniform_on(Z2, [Z2.element(1)])
SQUARE = RationalMatrix.from_rows([[1, 0], [0, 1]])

CASES = [
    ("empty-support", lambda: build_support_table([]), IdentityMissing, "empty support"),
    (
        "oracle-empty-universe",
        lambda: brute_force_ginverse(MU, 2, []),
        ValueError,
        "support universe is empty",
    ),
    (
        "oracle-foreign-universe",
        lambda: brute_force_ginverse(MU, 2, [Z2.identity(), FOREIGN]),
        BackendMismatch,
        "universe element belongs to a different group",
    ),
    (
        "measure-foreign-atom",
        lambda: Measure(Z2, [(FOREIGN, Fraction(1))]),
        BackendMismatch,
        "atom element belongs to a different group",
    ),
    (
        "uniform-foreign-element",
        lambda: uniform_on(Z2, [FOREIGN]),
        BackendMismatch,
        "element belongs to a different group",
    ),
    (
        "translate-foreign-element",
        lambda: translate(MU, Z2.identity(), FOREIGN),
        BackendMismatch,
        "translation elements belong to a different group",
    ),
    (
        "closure-foreign-generator",
        lambda: closure(Z2, [FOREIGN]),
        BackendMismatch,
        "generator from a different group",
    ),
    (
        "matrix-no-rows",
        lambda: RationalMatrix.from_rows([]),
        DimensionMismatch,
        "matrix needs at least one row",
    ),
    (
        "matrix-ragged-rows",
        lambda: RationalMatrix.from_rows([[1, 2], [3]]),
        DimensionMismatch,
        "row 1 has 1 entries, expected 2",
    ),
    (
        "solve-rhs-length",
        lambda: gaussian_solve(SQUARE, [1]),
        DimensionMismatch,
        "matrix has 2 rows but rhs has 1",
    ),
    # The command line reaches these loaders only through load_group, which
    # refuses an empty file first.
    ("cayley-empty-file", lambda: load_cayley(""), ParseError, "empty group file"),
    ("perm-empty-file", lambda: load_perm("# nothing\n"), ParseError, "empty group file"),
]


@pytest.mark.parametrize(
    "call, kind, message", [pytest.param(*case[1:], id=case[0]) for case in CASES]
)
def test_error_type_and_message(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message
