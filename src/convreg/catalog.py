"""Built-in small groups as Cayley-table files.

Desk-scale reference groups for tests and demos: cyclic groups, the Klein
four-group, the symmetric group on three points, the dihedral group of the
square, and the quaternion group, each generated by a few permutations and
tabulated from their closure.  Each is exposed both as loadable file text
(:func:`cayley_text`) and as a ready :class:`~convreg.groups.CayleyGroup`
(:func:`builtin_group`).  Identity is always index 0.
"""

from __future__ import annotations

from .groups import CayleyGroup, enumerate_group, load_cayley, load_perm

__all__ = [
    "builtin_names",
    "cayley_text",
    "builtin_group",
    "subgroups_of",
]

# name -> (degree, generators in cycle notation).  Each element is indexed by
# the rank of its image tuple.  In the regular actions (Z_n, V4, Q8) the image
# tuple of g starts with g, so index g is g itself: addition mod n, XOR, and
# for Q8 index 2*unit + sign bit over the units 1, i, j, k, whose generators
# are left multiplication by i and j.
_GENERATORS = {
    "Z2": (2, "(0 1)"),
    "Z3": (3, "(0 1 2)"),
    "Z4": (4, "(0 1 2 3)"),
    "V4": (4, "(0 1)(2 3)", "(0 2)(1 3)"),
    "S3": (3, "(0 1)", "(0 1 2)"),
    "D4": (4, "(0 1 2 3)", "(0 3)(1 2)"),  # rotation, flip
    "Q8": (8, "(0 2 1 3)(4 6 5 7)", "(0 4 1 5)(2 7 3 6)"),
}


def builtin_names() -> tuple[str, ...]:
    """Names of the built-in groups, smallest first."""
    return tuple(_GENERATORS)


def cayley_text(name: str) -> str:
    """Group-file text (``cayley <n>`` header plus table rows)."""
    try:
        degree, *generators = _GENERATORS[name]
    except KeyError:
        raise KeyError(f"unknown built-in group {name!r}; pick from {builtin_names()}") from None
    group = load_perm("\n".join([f"perm {degree}", *generators]))
    elements = enumerate_group(group)  # sorted by image tuple, identity first
    index = {el: i for i, el in enumerate(elements)}
    lines = [f"# {name}", f"cayley {len(elements)}"]
    lines += [" ".join(str(index[x * y]) for y in elements) for x in elements]
    return "\n".join(lines) + "\n"


def builtin_group(name: str) -> CayleyGroup:
    """Built-in group loaded through the regular file parser."""
    return load_cayley(cayley_text(name))


def subgroups_of(group: CayleyGroup) -> list[tuple[int, ...]]:
    """All subgroups as sorted index tuples (brute force; desk scale only)."""
    n = group.order
    if n > 16:
        raise ValueError(f"subgroup enumeration is limited to order <= 16, got {n}")
    table = group.table
    subgroups = []
    others = [i for i in range(1, n)]
    for mask in range(1 << (n - 1)):
        members = [0] + [others[b] for b in range(n - 1) if mask >> b & 1]
        member_set = set(members)
        if all(table[i][j] in member_set for i in members for j in members):
            subgroups.append(tuple(members))
    return sorted(subgroups, key=lambda s: (len(s), s))
