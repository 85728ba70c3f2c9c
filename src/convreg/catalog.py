"""Built-in small groups as Cayley-table files.

Desk-scale reference groups for tests and demos: cyclic groups, the Klein
four-group, the symmetric group on three points, the dihedral group of the
square, and the quaternion group.  Each is exposed both as loadable file text
(:func:`cayley_text`) and as a ready :class:`~convreg.groups.CayleyGroup`
(:func:`builtin_group`).  Identity is always index 0.
"""

from __future__ import annotations

from .groups import CayleyGroup, PermGroup, load_cayley

__all__ = [
    "builtin_names",
    "cayley_text",
    "builtin_group",
    "subgroups_of",
]


def _cyclic(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _klein() -> list[list[int]]:
    return [[i ^ j for j in range(4)] for i in range(4)]


def _from_perms(perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Cayley table of a set of permutations closed under composition."""
    perms = sorted(perms)  # identity image tuple sorts first
    index = {p: i for i, p in enumerate(perms)}
    degree = len(perms[0])
    table = []
    for p in perms:
        table.append([index[tuple(p[q[x]] for x in range(degree))] for q in perms])
    return table


def _sym3() -> list[list[int]]:
    from itertools import permutations

    return _from_perms([tuple(p) for p in permutations(range(3))])


def _dihedral4() -> list[list[int]]:
    square = PermGroup(4, [(1, 2, 3, 0), (3, 2, 1, 0)])  # rotation, flip
    return _from_perms([el.payload for el in square.enumerate_elements(8)])


def _quaternion() -> list[list[int]]:
    # Element i encodes sign (i & 1: minus) and unit (i >> 1): 1, i, j, k.
    unit_mul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (2, 0): (2, 1), (3, 0): (3, 1),
        (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
        (1, 2): (3, 1), (2, 1): (3, -1),
        (2, 3): (1, 1), (3, 2): (1, -1),
        (3, 1): (2, 1), (1, 3): (2, -1),
    }
    n = 8
    table = []
    for x in range(n):
        row = []
        for y in range(n):
            ux, sx = x >> 1, -1 if x & 1 else 1
            uy, sy = y >> 1, -1 if y & 1 else 1
            uz, sz = unit_mul[(ux, uy)]
            sign = sx * sy * sz
            row.append(uz * 2 + (0 if sign > 0 else 1))
        table.append(row)
    return table


_BUILDERS = {
    "Z2": lambda: _cyclic(2),
    "Z3": lambda: _cyclic(3),
    "Z4": lambda: _cyclic(4),
    "V4": _klein,
    "S3": _sym3,
    "D4": _dihedral4,
    "Q8": _quaternion,
}


def builtin_names() -> tuple[str, ...]:
    """Names of the built-in groups, smallest first."""
    return ("Z2", "Z3", "Z4", "V4", "S3", "D4", "Q8")


def cayley_text(name: str) -> str:
    """Group-file text (``cayley <n>`` header plus table rows)."""
    try:
        table = _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown built-in group {name!r}; pick from {builtin_names()}") from None
    lines = [f"# {name}", f"cayley {len(table)}"]
    lines += [" ".join(str(v) for v in row) for row in table]
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
