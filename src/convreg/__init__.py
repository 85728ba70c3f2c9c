"""Exact regularity of finitely supported probability measures under convolution.

Finitely supported probability measures on a group form a semigroup under
convolution.  This package decides, in exact rational arithmetic,
whether a given measure ``mu`` is *regular* — whether some measure ``nu``
satisfies ``mu * nu * mu = mu`` — and when it is, produces a verified
generalized inverse and Moore-Penrose inverse.

Group arithmetic comes from one of three backends (Cayley tables,
permutations, or reduced words in the first Grigorchuk group).  The decision
engine uses a closed form — a measure is regular exactly when it is uniform
on a coset of a finite subgroup — and re-verifies every certificate by direct
convolution; an independent brute-force grid search provides an oracle for
cross-checking.
"""

from .bruteforce import brute_force_ginverse, candidate_universe
from .catalog import builtin_group, builtin_names, cayley_text, is_abelian, subgroups_of
from .errors import (
    BackendMismatch,
    CapExceeded,
    CertificateInvalid,
    ClosureBudgetExceeded,
    ConvregError,
    DimensionMismatch,
    IdentityMissing,
    MPVerificationFailed,
    NotAGInverse,
    NotAGroup,
    NotClosed,
    OrderBudgetExceeded,
    ParseError,
    UniverseTooLarge,
)
from .grigorchuk import GrigorchukGroup, is_identity_word, reduce_word, word_order, word_sections
from .groups import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_ORDER_CAP,
    CayleyGroup,
    Group,
    GroupElement,
    PermGroup,
    closure,
    enumerate_group,
    load_cayley,
    load_group,
    load_perm,
    multiply,
)
from .linalg import RationalMatrix, gaussian_solve, mat_mul, mat_vec
from .measures import (
    Measure,
    convolve,
    dirac,
    format_weight,
    is_support_closed,
    load_measure,
    measure_from_json,
    measure_to_json,
    support,
    translate,
    uniform_on,
)
from .operators import (
    OperatorMatrix,
    SupportTable,
    build_support_table,
    left_operator,
    right_operator,
)
from .regularity import (
    Certificate,
    ProbeCase,
    ProbeReport,
    Verdict,
    decide_regular,
    decide_translated,
    is_generalized_inverse,
    moore_penrose,
    probe_uniform_subsets,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # groups
    "Group",
    "GroupElement",
    "CayleyGroup",
    "PermGroup",
    "GrigorchukGroup",
    "multiply",
    "closure",
    "enumerate_group",
    "load_cayley",
    "load_perm",
    "load_group",
    "DEFAULT_ORDER_CAP",
    "DEFAULT_CLOSURE_CAP",
    # grigorchuk word layer
    "reduce_word",
    "word_sections",
    "is_identity_word",
    "word_order",
    # measures
    "Measure",
    "dirac",
    "convolve",
    "uniform_on",
    "translate",
    "support",
    "is_support_closed",
    "load_measure",
    "format_weight",
    "measure_to_json",
    "measure_from_json",
    # operators
    "SupportTable",
    "build_support_table",
    "OperatorMatrix",
    "left_operator",
    "right_operator",
    # linear algebra
    "RationalMatrix",
    "mat_mul",
    "mat_vec",
    "gaussian_solve",
    # regularity engine
    "is_generalized_inverse",
    "moore_penrose",
    "Certificate",
    "Verdict",
    "decide_regular",
    "decide_translated",
    "ProbeCase",
    "ProbeReport",
    "probe_uniform_subsets",
    # oracle
    "brute_force_ginverse",
    "candidate_universe",
    # catalog
    "builtin_names",
    "cayley_text",
    "builtin_group",
    "subgroups_of",
    "is_abelian",
    # errors
    "ConvregError",
    "BackendMismatch",
    "ParseError",
    "NotAGroup",
    "NotClosed",
    "IdentityMissing",
    "DimensionMismatch",
    "OrderBudgetExceeded",
    "ClosureBudgetExceeded",
    "CapExceeded",
    "UniverseTooLarge",
    "NotAGInverse",
    "MPVerificationFailed",
    "CertificateInvalid",
]
