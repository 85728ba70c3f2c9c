"""Independent group models that fix each benchmark op's expected outcome.

Nothing here imports convreg.  Every input the benchmark hands to convreg is
generated from one of these models, spelled as text, and the expected verdict
comes from the model alone:

* a support ``S`` is *closed* exactly when it is a left coset ``xH`` of a
  finite subgroup, i.e. when ``s0^-1 S`` is closed under multiplication for
  any ``s0`` in ``S`` (the choice of ``s0`` does not matter);
* a measure is regular exactly when its support is closed and all weights are
  equal (the closed form: ``mu * nu`` is idempotent, so uniform on a finite
  subgroup, which forces ``mu`` to be uniform on one coset).

Certificates that convreg returns are mapped back into the model and
re-verified there by exact convolution.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

REGULAR = ("regular", "certificate")
NOT_CLOSED = ("not-regular", "support-not-closed")
INFEASIBLE = ("not-regular", "system-infeasible")


class PermModel:
    """Permutations of ``0..degree-1`` as image tuples; ``(p q)(x) = p(q(x))``."""

    def __init__(self, degree: int, generators: list[str]):
        self.degree = degree
        self.generator_text = list(generators)
        gens = [self.parse(g) for g in generators]
        self.elements = sorted(closure(self, gens))

    def identity(self) -> tuple:
        return tuple(range(self.degree))

    def mul(self, p: tuple, q: tuple) -> tuple:
        return tuple(p[i] for i in q)

    def inv(self, p: tuple) -> tuple:
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    def parse(self, text: str) -> tuple:
        """Cycle notation (``e`` or ``()`` is the identity)."""
        img = list(range(self.degree))
        s = text.strip()
        if s in ("e", "()"):
            return tuple(img)
        for chunk in s.replace(")", "").split("(")[1:]:
            cyc = [int(v) for v in chunk.split()]
            step = list(range(self.degree))
            for i, v in enumerate(cyc):
                step[v] = cyc[(i + 1) % len(cyc)]
            img = [img[step[i]] for i in range(self.degree)]
        return tuple(img)

    def spell(self, p: tuple) -> str:
        seen, parts = set(), []
        for i in range(len(p)):
            if i in seen or p[i] == i:
                continue
            cyc, j = [i], p[i]
            seen.add(i)
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = p[j]
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) or "e"

    def from_payload(self, payload) -> tuple:
        return tuple(payload)

    def group_text(self) -> str:
        return f"perm {self.degree}\n" + "".join(g + "\n" for g in self.generator_text)


class CayleyModel:
    """A permutation group presented by its full table; index 0 is the identity."""

    def __init__(self, perms: PermModel):
        self.perms = perms
        self.elements = perms.elements  # sorted, so the identity is first
        self.index = {p: i for i, p in enumerate(self.elements)}

    def identity(self) -> tuple:
        return self.perms.identity()

    def mul(self, p: tuple, q: tuple) -> tuple:
        return self.perms.mul(p, q)

    def inv(self, p: tuple) -> tuple:
        return self.perms.inv(p)

    def table(self) -> list[list[int]]:
        return [[self.index[self.mul(p, q)] for q in self.elements] for p in self.elements]

    def parse(self, text: str) -> tuple:
        s = text.strip()
        return self.identity() if s == "e" else self.elements[int(s)]

    def spell(self, p: tuple) -> str:
        return str(self.index[p])

    def from_payload(self, payload: int) -> tuple:
        return self.elements[payload]

    def group_text(self) -> str:
        rows = [" ".join(map(str, row)) for row in self.table()]
        return f"cayley {len(rows)}\n" + "".join(r + "\n" for r in rows)


class DihedralModel:
    """``<a, x | a^2, x^2, (ax)^m>`` with ``x`` one of the letters b, c, d.

    Elements are ``(k, f)``: ``f = 0`` is the rotation ``r^k``, ``f = 1`` the
    reflection ``r^k s``; ``a = (0, 1)`` and ``x = (1, 1)``, so ``ax`` has
    order ``m``.  In the first Grigorchuk group ``ad``, ``ac`` and ``ab`` have
    orders 4, 8 and 16, so ``<a, x>`` is this dihedral group of order ``2m``.
    """

    def __init__(self, m: int, letter: str):
        self.m = m
        self.letter = letter
        self.elements = sorted(closure(self, [(0, 1), (1, 1)]))
        self._words = self._shortest_words()

    def identity(self) -> tuple:
        return (0, 0)

    def mul(self, g: tuple, h: tuple) -> tuple:
        k1, f1 = g
        k2, f2 = h
        return ((k1 - k2 if f1 else k1 + k2) % self.m, f1 ^ f2)

    def inv(self, g: tuple) -> tuple:
        k, f = g
        return g if f else ((-k) % self.m, 0)

    def eval(self, word: str) -> tuple:
        gens = {"a": (0, 1), self.letter: (1, 1)}
        acc = self.identity()
        for ch in word:
            acc = self.mul(acc, gens[ch])  # KeyError on a letter outside <a, x>
        return acc

    def _shortest_words(self) -> dict:
        words = {self.identity(): ""}
        frontier = deque([""])
        while frontier:
            w = frontier.popleft()
            for ch in "a" + self.letter:
                g = self.eval(w + ch)
                if g not in words:
                    words[g] = w + ch
                    frontier.append(w + ch)
        return words

    def relator(self) -> str:
        """``(ax)^m``, a non-trivial spelling of the identity."""
        return ("a" + self.letter) * self.m

    def alternating(self, first: str, length: int) -> str:
        other = self.letter if first == "a" else "a"
        return "".join(first if i % 2 == 0 else other for i in range(length))

    def parse(self, text: str) -> tuple:
        s = text.strip()
        return self.eval("" if s == "e" else s)

    def word(self, g: tuple) -> str:
        """A shortest word for ``g`` (empty for the identity)."""
        return self._words[g]

    def spell(self, g: tuple) -> str:
        return self._words[g] or "e"

    def from_payload(self, payload: str) -> tuple:
        return self.eval(payload)

    def group_text(self) -> str:
        return "grigorchuk\n"


def closure(model, generators) -> set:
    """The subgroup generated by ``generators`` (breadth-first products)."""
    found = {model.identity()}
    frontier = deque(found)
    while frontier:
        x = frontier.popleft()
        for g in generators:
            y = model.mul(x, g)
            if y not in found:
                found.add(y)
                frontier.append(y)
    return found


def is_coset(model, support) -> bool:
    """Whether ``support`` is a left coset of a subgroup."""
    s0inv = model.inv(next(iter(support)))
    shifted = {model.mul(s0inv, s) for s in support}
    return all(model.mul(g, h) in shifted for g in shifted for h in shifted)


def expected(model, mu: dict) -> tuple[str, str]:
    """(status, reason) of a measure ``{element: weight}`` by the closed form."""
    if not is_coset(model, mu):
        return NOT_CLOSED
    return REGULAR if len(set(mu.values())) == 1 else INFEASIBLE


def convolve(model, mu: dict, nu: dict) -> dict:
    out: dict = {}
    for g, wg in mu.items():
        for h, wh in nu.items():
            x = model.mul(g, h)
            out[x] = out.get(x, 0) + wg * wh
    return out


def certificate_holds(model, mu: dict, nu: dict, mp: dict | None = None) -> bool:
    """``mu nu mu = mu`` and, given ``mp``, both Moore-Penrose equations."""
    def is_measure(m: dict) -> bool:
        return all(w > 0 for w in m.values()) and sum(m.values()) == 1

    if not is_measure(nu) or convolve(model, convolve(model, mu, nu), mu) != mu:
        return False
    if mp is None:
        return True
    return (
        is_measure(mp)
        and convolve(model, convolve(model, mu, mp), mu) == mu
        and convolve(model, convolve(model, mp, mu), mp) == mp
    )


def measure_text(pairs: list[tuple[str, Fraction]]) -> str:
    """Measure-file text from ``(element spelling, weight)`` pairs."""
    return "".join(f"{el} {w.numerator}/{w.denominator}\n" for el, w in pairs)
