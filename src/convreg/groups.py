"""Group backends and element arithmetic.

Three interchangeable backends share one element model:

* :class:`CayleyGroup` — a finite group given by its full multiplication table,
  with the identity pinned at index 0;
* :class:`PermGroup` — permutations of ``{0, …, degree-1}`` stored as image
  tuples, entered in cycle notation;
* the Grigorchuk backend (see :mod:`convreg.grigorchuk`) — reduced words over
  ``{a, b, c, d}``.

Elements are lightweight handles ``(group, payload)`` with one hashed model:
the backend's ``_eq`` and ``_hash`` see the element, not its spelling (plain
payload equality on tables and permutations; tree sections and a level-action
fingerprint on words), so plain ``dict`` and ``set`` hold elements of every
backend.  Hashes ignore the group object and repeat from run to run; elements
of different group objects never compare equal and never mix: their product
raises :class:`~convreg.errors.BackendMismatch`.
"""

from __future__ import annotations

import abc
import operator
import re
from collections import deque
from typing import Any, Callable, ClassVar, Iterable, Sequence

from .errors import (
    BackendMismatch,
    CapExceeded,
    ClosureBudgetExceeded,
    NotAGroup,
    OrderBudgetExceeded,
    ParseError,
)

__all__ = [
    "DEFAULT_ORDER_CAP",
    "DEFAULT_CLOSURE_CAP",
    "MAX_PERM_DEGREE",
    "MAX_INTEGER_DIGITS",
    "Group",
    "GroupElement",
    "CayleyGroup",
    "PermGroup",
    "closure",
    "enumerate_group",
    "load_cayley",
    "load_perm",
    "load_group",
    "content_lines",
]

DEFAULT_ORDER_CAP = 2**16
DEFAULT_CLOSURE_CAP = 4096
# Every permutation of a PermGroup is a tuple of this many points at most.
MAX_PERM_DEGREE = 2**16
# Every integer read from text has at most this many digits.  ``int()`` refuses
# more than the interpreter's limit (4300 by default from Python 3.11), and
# no setting of that limit is below 640.
MAX_INTEGER_DIGITS = 640


class Group(abc.ABC):
    """A group backend: payload arithmetic, equality, hashing and text forms."""

    backend: ClassVar[str]

    @abc.abstractmethod
    def _mul(self, x: Any, y: Any) -> Any:
        """Product of two payloads."""

    @abc.abstractmethod
    def _inv(self, x: Any) -> Any:
        """Inverse payload."""

    @abc.abstractmethod
    def _identity(self) -> Any:
        """Identity payload."""

    @abc.abstractmethod
    def _sort_key(self, x: Any) -> Any:
        """Total-order key; the identity always sorts first."""

    @abc.abstractmethod
    def parse_element(self, text: str) -> "GroupElement":
        """Parse backend-specific element syntax (``e`` is the identity)."""

    @abc.abstractmethod
    def format_payload(self, x: Any) -> str:
        """Inverse of :meth:`parse_element`, up to canonical spelling."""

    # Payload equality and hash, which must agree; the word backend overrides both.
    def _eq(self, x: Any, y: Any) -> bool:
        return x == y

    _hash = hash  # a builtin, so it binds no ``self``

    def element(self, payload: Any) -> "GroupElement":
        return GroupElement(self, payload)

    def identity(self) -> "GroupElement":
        return self.element(self._identity())

    def order_of(self, x: Any, cap: int) -> int:
        """Order of a payload by iterated multiplication with equality tests."""
        e = self._identity()
        acc = x
        k = 1
        while not self._eq(acc, e):
            if k >= cap:
                raise OrderBudgetExceeded(
                    f"order of {self.format_payload(x)} exceeds cap {cap}"
                )
            acc = self._mul(acc, x)
            k += 1
        return k

    def enumerate_elements(self, cap: int) -> tuple["GroupElement", ...]:
        """All group elements in canonical order; CapExceeded if impossible."""
        raise CapExceeded(f"{self.backend} backend is not enumerable")


class GroupElement:
    """A group element: a backend handle plus an immutable payload."""

    __slots__ = ("group", "payload")

    def __init__(self, group: Group, payload: Any):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("GroupElement is immutable")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        if group is not other.group:
            raise BackendMismatch(
                f"elements from different groups: {group.backend} vs {other.group.backend}"
            )
        product = _new_element(GroupElement)
        _set_group(product, group)
        _set_payload(product, group._mul(self.payload, other.payload))
        return product

    def inverse(self) -> "GroupElement":
        return self.group.element(self.group._inv(self.payload))

    def order(self, cap: int = DEFAULT_ORDER_CAP) -> int:
        return self.group.order_of(self.payload, cap)

    def sort_key(self) -> Any:
        return self.group._sort_key(self.payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group is not other.group:
            return False
        return self.group._eq(self.payload, other.payload)

    def __hash__(self) -> int:
        return self.group._hash(self.payload)

    def __repr__(self) -> str:
        return f"<{self.group.backend}:{self.group.format_payload(self.payload)}>"

    def __str__(self) -> str:
        return self.group.format_payload(self.payload)


# Products skip ``__init__`` and ``__setattr__``: the slots' own descriptors
# fill a bare instance, which is then as immutable as any other.
_new_element = object.__new__
_set_group = GroupElement.group.__set__
_set_payload = GroupElement.payload.__set__


# ---------------------------------------------------------------------------
# Cayley-table backend


class CayleyGroup(Group):
    """Finite group presented by its multiplication table.

    ``table[i][j]`` is the index of the product of elements ``i`` and ``j``;
    index 0 is the identity.  The table is fully validated on construction:
    every row and column must be a permutation, row/column 0 must fix
    everything, and associativity is checked exactly by Light's test.
    """

    backend = "cayley"

    def __init__(self, table: Sequence[Sequence[int]]):
        rows = tuple(_integers(row, f"table[{i}]") for i, row in enumerate(table))
        n = len(rows)
        if n == 0:
            raise NotAGroup("empty multiplication table")
        full = set(range(n))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NotAGroup(f"row {i} has {len(row)} entries, expected {n}")
            if set(row) != full:
                raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
        for j, col in enumerate(zip(*rows)):
            if set(col) != full:
                raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
        for k in range(n):
            for i, j in ((0, k), (k, 0)):
                if rows[i][j] != k:
                    raise NotAGroup(f"identity axiom fails: table[{i}][{j}] = {rows[i][j]}")
        self.table = rows
        self.order = n
        self._inverses = tuple(row.index(0) for row in rows)
        self._check_associativity()

    def _check_associativity(self) -> None:
        """Light's test: ``(x g) y == x (g y)`` for all ``x, y`` and generators ``g``.

        The ``g`` that pass are closed under products, as ``(x(gh))y =
        ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y)``; each generator is the
        least index that right products of the earlier ones miss, so every
        index passes.  A group needs at most log2(n) generators.

        For each ``x`` the test compares whole rows, ``(x g) y`` over all ``y``
        against ``x (g y)`` over all ``y``, and scans for the first ``y`` only
        on a mismatch, so it names the same first ``(x, g, y)`` as a triple
        loop.  A generator exists only when ``n >= 2``, so ``itemgetter`` picks
        at least two entries and returns a tuple.
        """
        n, t = self.order, self.table

        def column(g: int) -> list[int]:
            pick = operator.itemgetter(*t[g])
            for x, row in enumerate(t):
                if t[row[g]] != pick(row):
                    y = next(y for y in range(n) if t[t[x][g]][y] != t[x][t[g][y]])
                    raise NotAGroup(f"associativity fails at (i, j, k) = ({x}, {g}, {y})")
            return [row[g] for row in t]

        _generator_search(range(n), column)

    def _mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def _inv(self, x: int) -> int:
        return self._inverses[x]

    def _identity(self) -> int:
        return 0

    def _sort_key(self, x: int) -> int:
        return x

    def parse_element(self, text: str) -> GroupElement:
        s = text.strip()
        if s == "e":
            return self.identity()
        index = _naturals(s)
        if index is None:
            raise ParseError(f"expected an element index, got {s!r}")
        [i] = index
        if not 0 <= i < self.order:
            raise ParseError(f"element index {i} out of range 0..{self.order - 1}")
        return self.element(i)

    def format_payload(self, x: int) -> str:
        return str(x)

    def enumerate_elements(self, cap: int) -> tuple[GroupElement, ...]:
        if self.order > cap:
            raise CapExceeded(f"group order {self.order} exceeds cap {cap}")
        return tuple(self.element(i) for i in range(self.order))


# ---------------------------------------------------------------------------
# Permutation backend


class PermGroup(Group):
    """Permutations of ``{0, .., degree-1}``; payloads are image tuples.

    The group object carries a list of generators (used for enumeration and
    closure); arithmetic works for any permutation of the right degree.
    Products compose like functions: ``(p * q)(x) = p(q(x))``.
    """

    backend = "perm"

    def __init__(self, degree: int, generators: Iterable[Sequence[int]] = ()):
        if degree < 1:
            raise NotAGroup(f"degree must be >= 1, got {degree}")
        if degree > MAX_PERM_DEGREE:
            raise NotAGroup(f"degree {degree} exceeds the budget {MAX_PERM_DEGREE}")
        self.degree = degree
        gens = []
        for gi, g in enumerate(generators):
            img = _integers(g, f"generators[{gi}]")
            if len(img) != degree or set(img) != set(range(degree)):
                raise NotAGroup(f"generator {gi} is not a bijection of 0..{degree - 1}")
            gens.append(img)
        self.generators = tuple(gens)

    def _mul(self, x: tuple, y: tuple) -> tuple:
        return tuple(map(x.__getitem__, y))

    def _inv(self, x: tuple) -> tuple:
        out = [0] * self.degree
        for i, v in enumerate(x):
            out[v] = i
        return tuple(out)

    def _identity(self) -> tuple:
        return tuple(range(self.degree))

    def _sort_key(self, x: tuple) -> tuple:
        return x

    def parse_element(self, text: str) -> GroupElement:
        return self.element(_parse_cycles(text, self.degree))

    def format_payload(self, x: tuple) -> str:
        return _format_cycles(x)

    def enumerate_elements(self, cap: int) -> tuple[GroupElement, ...]:
        return closure(self, [self.element(g) for g in self.generators], cap=cap)


def _parse_cycles(text: str, degree: int) -> tuple:
    """Parse cycle notation like ``(0 1 2)(3 4)`` into an image tuple.

    Fixed points may be omitted; ``e`` and ``()`` denote the identity.
    Cycles compose like functions (rightmost cycle applied first), which is
    immaterial for the usual disjoint-cycle spelling.

    The text is cut at each ``)``, and each cycle is checked and composed in
    turn, on its own points only: ``img[v] = img[next(v)]`` for every ``v``
    of the cycle, all read before any is written.
    """
    s = text.strip()
    if s in ("e", "()"):
        return tuple(range(degree))
    if not s.startswith("("):
        raise ParseError(f"expected cycle notation, got {s!r}")
    img = list(range(degree))
    *pieces, tail = s.split(")")
    for piece in pieces:
        cycle = piece.lstrip()
        if not cycle.startswith("("):  # an empty piece stands before a ")"
            raise ParseError(f"unexpected {(cycle or ')')[0]!r} in cycle notation {s!r}")
        cyc = _naturals(*cycle[1:].replace(",", " ").split())
        if cyc is None:
            raise ParseError(f"non-integer entry in cycle {cycle + ')'!r}")
        for v in cyc:
            if v >= degree:
                raise ParseError(f"point {v} out of range 0..{degree - 1}")
        if len(set(cyc)) != len(cyc):
            raise ParseError(f"repeated point in cycle {cycle + ')'!r}")
        images = [img[v] for v in cyc]
        for v, w in zip(cyc, images[1:] + images[:1]):
            img[v] = w
    tail = tail.lstrip()
    if tail:
        if tail[0] == "(":
            raise ParseError(f"unbalanced parenthesis in {s!r}")
        raise ParseError(f"unexpected {tail[0]!r} in cycle notation {s!r}")
    return tuple(img)


def _format_cycles(img: tuple) -> str:
    """Image tuple to cycle notation; fixed points omitted, identity is ``e``."""
    n = len(img)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or img[i] == i:
            continue
        cyc = [i]
        seen[i] = True
        j = img[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = img[j]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


# ---------------------------------------------------------------------------
# Generated subgroups and enumeration


def _generator_search(rep: Sequence[int], column: Callable[[int], list[int]]) -> tuple:
    """Greedy generators of a finite group of indices, and how each index is reached.

    Index 0 is the identity; ``rep[i]`` is the first index of the element at
    ``i`` (repeated elements share it), and ``column(i)`` is the
    right-multiplication column ``[index(g_j g_i) for j]``, which may raise
    to stop the search.  Each generator is the least index not yet reached;
    a breadth-first search from 0 by right products with the generators
    reaches the others.  Returns the generator columns ``cols`` and one step
    ``(k, p, t)`` per index ``k`` reached, in the order reached: ``k =
    cols[t][p]``, so ``g_k = g_p s_t`` for the ``t``-th generator ``s_t``,
    with ``p`` reached before ``k``.
    """
    order, reached = [0], {0}
    columns, steps = [], []
    for g, r in enumerate(rep):
        if r in reached:
            continue
        columns.append(column(g))
        for p in order:  # also visits the indices appended below
            for t, col in enumerate(columns):
                k = col[p]
                if k not in reached:
                    reached.add(k)
                    order.append(k)
                    steps.append((k, p, t))
    return columns, steps


def closure(
    group: Group,
    generators: Sequence[GroupElement],
    cap: int = DEFAULT_CLOSURE_CAP,
) -> tuple[GroupElement, ...]:
    """The subgroup generated by ``generators``, as a canonically sorted tuple.

    Breadth-first right products from ``e`` reach the monoid the generators
    generate.  When that monoid is finite it is a subgroup, since a finite
    monoid inside a group is one: ``x`` has a repeated power ``x^i = x^(i+k)``,
    so ``x^k = e`` and ``x^(k-1)`` is its inverse.  No torsion hypothesis is
    used.  Raises ClosureBudgetExceeded once more than ``cap`` distinct
    elements appear, as they do for every infinite monoid (the Grigorchuk
    generators b, c together with a generate an infinite group, for example).
    """
    for g in generators:
        if g.group is not group:
            raise BackendMismatch("generator from a different group")
    e = group.identity()
    found = {e}
    frontier = deque([e])
    while frontier:
        x = frontier.popleft()
        for g in generators:
            y = x * g
            if y not in found:
                found.add(y)
                if len(found) > cap:
                    raise ClosureBudgetExceeded(
                        f"generated subgroup exceeds cap {cap}"
                    )
                frontier.append(y)
    return tuple(sorted(found, key=lambda el: el.sort_key()))


def enumerate_group(group: Group, cap: int = DEFAULT_CLOSURE_CAP) -> tuple[GroupElement, ...]:
    """Every element of the group, canonically ordered; CapExceeded if too big."""
    return group.enumerate_elements(cap)


# ---------------------------------------------------------------------------
# File formats


_LINE_BREAK = re.compile(r"\r\n|\r|\n")
_NOT_PRINTABLE = re.compile(r"[^\t\n\r -~]")
_DIGITS = re.compile(r"[0-9]+")


def _naturals(*tokens: str, line: int | None = None) -> list[int] | None:
    """Nonempty ``tokens`` as integers if all are ASCII digits, else None.

    Every integer of every input is read here; ``int()`` alone would also take
    a sign, ``_`` and non-ASCII digits.  The tokens being nonempty, one match
    of their concatenation tests them all.  A token longer than
    ``MAX_INTEGER_DIGITS`` is a ParseError on ``line``; the concatenation
    bounds every token, so tokens are measured only when it is that long.
    """
    joined = "".join(tokens)
    if tokens and not _DIGITS.fullmatch(joined):
        return None
    if len(joined) > MAX_INTEGER_DIGITS:
        for t in tokens:
            if len(t) > MAX_INTEGER_DIGITS:
                raise ParseError(
                    f"integer of {len(t)} digits exceeds the budget {MAX_INTEGER_DIGITS}", line
                )
    return list(map(int, tokens))


def _integers(values: Sequence[Any], name: str) -> tuple[int, ...]:
    """A library caller's ``values`` as exact integers (``operator.index``).

    ``int()`` would truncate ``1.9`` to 1 and read ``'1'`` as 1; NotAGroup
    names the first entry, ``name[j]``, that is not an integer, found by a
    second scan only once the first pass has failed.
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for j, v in enumerate(values):
            try:
                operator.index(v)
            except TypeError:
                raise NotAGroup(f"{name}[{j}] = {v!r} is not an integer") from None
        raise


def content_lines(text: str) -> list[tuple[int, str]]:
    """Non-empty, non-comment lines as ``(1-based line number, stripped text)``.

    Lines end at LF, CRLF or CR only.  Every other character must be 7-bit
    printable or a tab, so a control character such as a form feed is an
    error on its line, not a line break; ``#`` starts a whole-line comment.
    One search of the whole text finds the first such character, and the
    line breaks before it number its line.  Past that search, LF, CRLF and
    CR are the only breaks ``str.splitlines`` can meet.
    """
    bad = _NOT_PRINTABLE.search(text)
    if bad:
        lineno = len(_LINE_BREAK.findall(text, 0, bad.start())) + 1
        raise ParseError(f"non-printable or non-ASCII character {bad.group()!r}", lineno)
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _header(lines: list[tuple[int, str]], kind: str, param: str, what: str) -> int:
    """The natural number of a ``<kind> <param>`` header, the first of ``lines``."""
    if not lines:
        raise ParseError("empty group file")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] != kind:
        raise ParseError(f"expected '{kind} <{param}>' header, got {header!r}", lineno)
    parsed = _naturals(tokens[1], line=lineno)
    if parsed is None:
        raise ParseError(f"bad {what} {tokens[1]!r}", lineno)
    return parsed[0]


def _cayley(lines: list[tuple[int, str]]) -> CayleyGroup:
    n = _header(lines, "cayley", "n", "group order")
    body = lines[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} table rows, found {len(body)}")
    table = []
    for lineno, line in body:
        row = _naturals(*line.split(), line=lineno)
        if row is None:
            raise ParseError(f"non-integer table entry in {line!r}", lineno)
        if len(row) != n:
            raise ParseError(f"expected {n} entries, found {len(row)}", lineno)
        table.append(row)
    return CayleyGroup(table)


def _perm(lines: list[tuple[int, str]]) -> PermGroup:
    degree = _header(lines, "perm", "degree", "degree")
    if degree > MAX_PERM_DEGREE:
        raise ParseError(f"degree {degree} exceeds the budget {MAX_PERM_DEGREE}", lines[0][0])
    gens = []
    for lineno, line in lines[1:]:
        try:
            gens.append(_parse_cycles(line, degree))
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    return PermGroup(degree, gens)


def load_cayley(text: str) -> CayleyGroup:
    """Parse a ``cayley <n>`` header plus n table rows."""
    return _cayley(content_lines(text))


def load_perm(text: str) -> PermGroup:
    """Parse a ``perm <degree>`` header plus one generator per line."""
    return _perm(content_lines(text))


def load_group(text: str) -> Group:
    """Parse any group file; the header keyword picks the backend."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty group file")
    lineno, header = lines[0]
    keyword = header.split()[0]
    if keyword == "cayley":
        return _cayley(lines)
    if keyword == "perm":
        return _perm(lines)
    if keyword == "grigorchuk":
        if header.split() != ["grigorchuk"]:
            raise ParseError(f"unexpected tokens after 'grigorchuk': {header!r}", lineno)
        if len(lines) > 1:
            raise ParseError("unexpected content after 'grigorchuk' header", lines[1][0])
        from .grigorchuk import GrigorchukGroup

        return GrigorchukGroup()
    raise ParseError(
        f"unknown group kind {keyword!r} (expected cayley, perm, or grigorchuk)", lineno
    )
