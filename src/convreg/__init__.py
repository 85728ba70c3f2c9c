"""Exact regularity of finitely supported probability measures under convolution.

Finitely supported probability measures on a group form a semigroup under
convolution.  This package decides, in exact rational arithmetic,
whether a given measure ``mu`` is *regular* — whether some measure ``nu``
satisfies ``mu * nu * mu = mu`` — and when it is, produces a verified
generalized inverse and Moore-Penrose inverse.

Group arithmetic comes from one of three backends (Cayley tables,
permutations, or reduced words in the first Grigorchuk group).  The decision
engine uses a closed form — a measure is regular exactly when it is uniform
on a coset of a finite subgroup — and re-verifies every certificate on the
support table of the measure's subgroup; an independent brute-force grid
search provides an oracle for cross-checking.

This namespace re-exports what the demos, the README quick start and the
acceptance tests import, plus :class:`ConvregError`; every other name imports
from its module, e.g. ``from convreg.errors import ParseError``.
"""

from .bruteforce import brute_force_ginverse, candidate_universe
from .catalog import builtin_group, builtin_names, subgroups_of
from .errors import (
    ClosureBudgetExceeded,
    ConvregError,
)
from .grigorchuk import GrigorchukGroup, is_identity_word, reduce_word, word_order, word_sections
from .groups import (
    closure,
    enumerate_group,
    load_cayley,
)
from .linalg import RationalMatrix, gaussian_solve, mat_mul, mat_vec
from .measures import (
    Measure,
    convolve,
    dirac,
    is_support_closed,
    support,
    uniform_on,
)
from .operators import (
    build_support_table,
    left_operator,
    right_operator,
)
from .regularity import (
    decide_regular,
    decide_translated,
    probe_uniform_subsets,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # groups
    "GrigorchukGroup",
    "closure",
    "enumerate_group",
    "load_cayley",
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
    "support",
    "is_support_closed",
    # operators
    "build_support_table",
    "left_operator",
    "right_operator",
    # linear algebra
    "RationalMatrix",
    "mat_mul",
    "mat_vec",
    "gaussian_solve",
    # regularity engine
    "decide_regular",
    "decide_translated",
    "probe_uniform_subsets",
    # oracle
    "brute_force_ginverse",
    "candidate_universe",
    # catalog
    "builtin_names",
    "builtin_group",
    "subgroups_of",
    # errors
    "ConvregError",
    "ClosureBudgetExceeded",
]
