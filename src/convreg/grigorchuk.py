"""The first Grigorchuk group as a word backend.

Elements are reduced words over ``{a, b, c, d}``.  The four generators are
involutions acting on the infinite rooted binary tree through the wreath
recursion

    a = (1, 1) sigma        b = (a, c)        c = (a, d)        d = (1, b)

where ``sigma`` swaps the two subtrees and ``(g0, g1)`` acts as ``g0`` on the
left subtree and ``g1`` on the right.  Products compose like functions:
``(g h)(x) = g(h(x))``.

Word reduction applies ``xx -> empty`` and the Klein rules
``bc = cb = d``, ``bd = db = c``, ``cd = dc = b`` with a stack pass; the
system is length-reducing and confluent, so reduced words are the normal
forms of the free product C2 * (C2 x C2).  The Grigorchuk group is a proper
quotient of that free product, so distinct reduced words can still denote
equal elements (``adadadad`` is the identity).  Equality is therefore decided
semantically: ``u == v`` iff ``u * v^-1`` is the identity, and identity
testing recurses through the tree sections.  The recursion terminates because
a reduced word of length ``L >= 2`` either swaps the subtrees (so it is not
the identity) or has sections of length at most ``ceil((L+1)/2) < L`` for
``L >= 3``; length-2 reduced words always contain exactly one ``a`` and hence
swap.

Elements hash by a fingerprint of their action on the top
``_FINGERPRINT_DEPTH`` levels of the tree: at depth k, the swap bit and both
sections' depth-(k-1) fingerprints packed exactly into one integer; at depth
0, the image in the abelianization (C2)^3.  Equal elements have equal swaps,
sections and abelian images, so all spellings of an element share a
fingerprint, and dicts and sets of words work as on the other backends.
Depth 3 already separates <a,d>, <a,c> and <a,b> (orders 8, 16, 32).

Identity tests and fingerprints are memoized in bounded, thread-safe
``functools.lru_cache``s that evict the least recently used entry when full,
so group objects stay immutable; ``cache_info()`` on either function reports
its hits and misses.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import OrderBudgetExceeded, ParseError
from .groups import DEFAULT_ORDER_CAP, Group, GroupElement

__all__ = [
    "GrigorchukGroup",
    "reduce_word",
    "word_sections",
    "is_identity_word",
    "word_fingerprint",
    "word_order",
]

_ALPHABET = "abcd"

# (swap, left section, right section) for each generator.
_LETTER_SECTIONS = {
    "a": (1, "", ""),
    "b": (0, "a", "c"),
    "c": (0, "a", "d"),
    "d": (0, "", "b"),
}

# Products of distinct letters from {b, c, d}.
_KLEIN = {
    ("b", "c"): "d",
    ("c", "b"): "d",
    ("b", "d"): "c",
    ("d", "b"): "c",
    ("c", "d"): "b",
    ("d", "c"): "b",
}

_FINGERPRINT_DEPTH = 4


def reduce_word(letters: str) -> str:
    """Normal form of a word: cancel squares, fold Klein pairs, repeat."""
    out: list[str] = []
    for ch in letters:
        if ch not in _ALPHABET:
            raise ParseError(f"unknown generator {ch!r} (alphabet is a, b, c, d)")
        out.append(ch)
        while len(out) >= 2:
            x, y = out[-2], out[-1]
            if x == y:
                del out[-2:]
            elif (x, y) in _KLEIN:
                folded = _KLEIN[x, y]
                del out[-2:]
                out.append(folded)
            else:
                break
    return "".join(out)


def _join(x: str, y: str) -> str:
    """Normal form of ``x + y`` for reduced ``x``, ``y``: equal letters at the
    junction cancel, then two of {b, c, d} fold into one between ``a``'s."""
    i, j, n = len(x), 0, len(y)
    while i and j < n and x[i - 1] == y[j]:
        i -= 1
        j += 1
    if i and j < n and x[i - 1] != "a" and y[j] != "a":
        return x[: i - 1] + _KLEIN[x[i - 1], y[j]] + y[j + 1 :]
    return x[:i] + y[j:]


def word_sections(word: str) -> tuple[bool, str, str]:
    """Tree-level decomposition ``w = (w0, w1) sigma^swap`` of a reduced word.

    Letters are absorbed left to right: appending a letter l with sections
    (l0, l1) to an accumulator with swap s routes l0/l1 to the sections
    straight or crossed according to s, then xors the swaps.  The returned
    sections are reduced.
    """
    swap = 0
    left: list[str] = []
    right: list[str] = []
    for ch in word:
        lswap, l0, l1 = _LETTER_SECTIONS[ch]
        if swap:
            left.append(l1)
            right.append(l0)
        else:
            left.append(l0)
            right.append(l1)
        swap ^= lswap
    return bool(swap), reduce_word("".join(left)), reduce_word("".join(right))


@lru_cache(maxsize=1 << 18)
def is_identity_word(word: str) -> bool:
    """Whether a reduced word denotes the identity automorphism."""
    if len(word) < 2:
        return word == ""
    swap, w0, w1 = word_sections(word)
    return (not swap) and is_identity_word(w0) and is_identity_word(w1)


@lru_cache(maxsize=5 << 14)  # room for 2^14 words at each of depths 0-4
def word_fingerprint(word: str, depth: int = _FINGERPRINT_DEPTH) -> int:
    """Equality-invariant fingerprint of a reduced word (see the module docstring).

    Depth 0 is the abelian image, with a, b, c, d -> 001, 010, 100, 110 added
    in (C2)^3.  Depth k packs the swap bit and both sections' depth-(k-1)
    fingerprints, which have at most ``(4 << (k-1)) - 1`` bits, exactly.
    """
    if depth == 0:
        a, b, c, d = (word.count(letter) & 1 for letter in _ALPHABET)
        return a | (b ^ d) << 1 | (c ^ d) << 2
    swap, w0, w1 = word_sections(word)
    bits = (4 << (depth - 1)) - 1
    return swap | (word_fingerprint(w0, depth - 1) | word_fingerprint(w1, depth - 1) << bits) << 1


def word_order(word: str, cap: int = DEFAULT_ORDER_CAP) -> int:
    """Order of a reduced word by repeated squaring.

    Every element of the group has order a power of two, so squaring until
    the identity appears finds the exact order.
    """
    if is_identity_word(word):
        return 1
    acc = word
    k = 1
    while True:
        acc = _join(acc, acc)
        k *= 2
        if k > cap:
            raise OrderBudgetExceeded(f"order of {word!r} exceeds cap {cap}")
        if is_identity_word(acc):
            return k


class GrigorchukGroup(Group):
    """Backend handle for the first Grigorchuk group; payloads are reduced words."""

    backend = "grigorchuk"

    def _mul(self, x: str, y: str) -> str:
        return _join(x, y)

    def _inv(self, x: str) -> str:
        # Generators are involutions, so inversion reverses the word; the
        # reverse of a reduced word is reduced.
        return x[::-1]

    def _identity(self) -> str:
        return ""

    def _sort_key(self, x: str) -> tuple[int, str]:
        return (len(x), x)

    def _eq(self, x: str, y: str) -> bool:
        if x == y:
            return True
        return word_fingerprint(x) == word_fingerprint(y) and is_identity_word(_join(x, y[::-1]))

    def _hash(self, x: str) -> int:
        return word_fingerprint(x)

    def order_of(self, x: str, cap: int) -> int:
        return word_order(x, cap)

    def parse_element(self, text: str) -> GroupElement:
        s = text.strip()
        if s == "e":
            return self.identity()
        return self.element(reduce_word(s))

    def format_payload(self, x: str) -> str:
        return x if x else "e"
