"""Word arithmetic and identity testing for the Grigorchuk backend.

The frozen constants in this file were produced by the independent
tree-automaton model at the bottom (``_act_word`` / ``_level_order``): it
evaluates generator actions on finite binary-tree levels straight from the
defining recursion a=(1,1)sigma, b=(a,c), c=(a,d), d=(1,b), with no word
rewriting involved, so it cannot share bugs with the rewriting engine.
"""

import functools
import random
import sys
import threading

import pytest

from convreg import GrigorchukGroup
from convreg.errors import OrderBudgetExceeded, ParseError
import convreg.grigorchuk as grigorchuk
from convreg.grigorchuk import (
    is_identity_word,
    reduce_word,
    word_fingerprint,
    word_order,
    word_sections,
)

LETTERS = "abcd"


# ---------------------------------------------------------------------------
# Independent oracle: generator actions on binary-tree levels.

_CHILD_WORDS = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}


def _act_letter(letter: str, bits: tuple) -> tuple:
    if not bits:
        return bits
    first, rest = bits[0], bits[1:]
    if letter == "a":
        return (1 - first,) + rest
    left, right = _CHILD_WORDS[letter]
    return (first,) + _act_word(left if first == 0 else right, rest)


def _act_word(word: str, bits: tuple) -> tuple:
    # Composition convention (uv)(x) = u(v(x)): rightmost letter acts first.
    out = bits
    for letter in reversed(word):
        out = _act_letter(letter, out)
    return out


def _level_points(n: int) -> list:
    points = [()]
    for _ in range(n):
        points = [p + (b,) for p in points for b in (0, 1)]
    return points


def _acts_trivially(word: str, level: int) -> bool:
    return all(_act_word(word, p) == p for p in _level_points(level))


def _level_order(word: str, level: int) -> int:
    points = _level_points(level)
    order = 1
    images = {p: _act_word(word, p) for p in points}
    current = dict(images)
    while any(current[p] != p for p in points):
        current = {p: images[current[p]] for p in points}
        order += 1
    return order


def _random_word(rng: random.Random, max_len: int = 12) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randrange(max_len + 1)))


_KLEIN = {"bc": "d", "cb": "d", "bd": "c", "db": "c", "cd": "b", "dc": "b"}


def _stack_reduce(letters: str) -> str:
    """Reference normal form by a letter-at-a-time stack pass: push each
    letter, then cancel a square or fold a Klein pair on top while one is
    there; the first letter outside a, b, c, d raises as ``reduce_word`` does."""
    out: list[str] = []
    for ch in letters:
        if ch not in LETTERS:
            raise ParseError(f"unknown generator {ch!r} (alphabet is a, b, c, d)")
        out.append(ch)
        while len(out) >= 2:
            pair = out[-2] + out[-1]
            if pair[0] == pair[1]:
                del out[-2:]
            elif pair in _KLEIN:
                out[-2:] = [_KLEIN[pair]]
            else:
                break
    return "".join(out)


# ---------------------------------------------------------------------------
# Rewriting


def test_reduce_cancels_involutions():
    assert reduce_word("aabb") == ""
    assert reduce_word("aa") == ""
    assert reduce_word("abba") == ""


def test_reduce_folds_klein_pairs():
    assert reduce_word("bc") == "d"
    assert reduce_word("cb") == "d"
    assert reduce_word("bd") == "c"
    assert reduce_word("db") == "c"
    assert reduce_word("cd") == "b"
    assert reduce_word("dc") == "b"


def test_reduce_fixes_reduced_words():
    assert reduce_word("ad") == "ad"
    assert reduce_word("") == ""
    assert reduce_word("abacad") == "abacad"


def test_reduced_words_alternate():
    rng = random.Random(20330)
    for _ in range(300):
        w = reduce_word(_random_word(rng))
        for u, v in zip(w, w[1:]):
            assert u != v
            assert not (u in "bcd" and v in "bcd")


def test_reduce_word_matches_a_stack_reduction():
    def outcome(reduce, word):
        try:
            return reduce(word)
        except ParseError as exc:
            return f"ParseError: {exc}"

    rng = random.Random(3917)
    for alphabet, count in ((LETTERS, 10000), (LETTERS * 4 + "xeA 1\u00e9(", 2000)):
        for _ in range(count):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randrange(31)))
            assert outcome(reduce_word, word) == outcome(_stack_reduce, word), word
    assert outcome(reduce_word, "abxae") == "ParseError: unknown generator 'x' (alphabet is a, b, c, d)"


def test_reduce_word_on_long_words():
    # In ``abc`` every b|c junction folds and nothing cancels, so the normal
    # form grows by two letters a piece; followed by its inverse, every piece
    # cancels back across all the earlier ones.  A fold that copies the
    # normal form at each of the 10^5 junctions takes about ten times this
    # test's run time.
    k = 10**5
    assert reduce_word("abc" * k) == "ad" * k
    assert reduce_word("abc" * k + "cba" * k) == ""
    rng = random.Random(8461)
    word = "".join(rng.choice(LETTERS) for _ in range(3 * k))
    assert reduce_word(word) == _stack_reduce(word)

def test_reduction_preserves_tree_action():
    rng = random.Random(5171)
    for _ in range(150):
        w = _random_word(rng)
        r = reduce_word(w)
        for p in _level_points(5):
            assert _act_word(w, p) == _act_word(r, p)


# ---------------------------------------------------------------------------
# Sections


def test_sections_of_generators():
    assert word_sections("a") == (True, "", "")
    assert word_sections("b") == (False, "a", "c")
    assert word_sections("c") == (False, "a", "d")
    assert word_sections("d") == (False, "", "b")


def test_sections_of_ab():
    assert word_sections("ab") == (True, "c", "a")


def test_sections_match_tree_action():
    # With sections (s, w0, w1), the word sends the subtree x to subtree
    # x XOR s and acts there by the section indexed x XOR s.
    rng = random.Random(9001)
    for _ in range(200):
        w = reduce_word(_random_word(rng))
        swap, w0, w1 = word_sections(w)
        s = 1 if swap else 0
        tail = tuple(rng.randrange(2) for _ in range(5))
        for x in (0, 1):
            expected = ((x ^ s),) + _act_word((w0, w1)[x ^ s], tail)
            assert _act_word(w, (x,) + tail) == expected


def test_section_length_contraction():
    rng = random.Random(140)
    for _ in range(300):
        w = reduce_word(_random_word(rng, max_len=16))
        if len(w) < 2:
            continue
        _, w0, w1 = word_sections(w)
        bound = (len(w) + 2) // 2  # ceil((L+1)/2)
        assert len(w0) <= bound
        assert len(w1) <= bound


# ---------------------------------------------------------------------------
# Identity testing


def test_identity_word_base_cases():
    assert is_identity_word("") is True
    for letter in LETTERS:
        assert is_identity_word(letter) is False


def test_identity_word_relation_bcd():
    assert is_identity_word(reduce_word("bcd")) is True


def test_identity_word_agrees_with_tree_action():
    rng = random.Random(3344)
    for _ in range(200):
        w = reduce_word(_random_word(rng))
        assert is_identity_word(w) == _acts_trivially(w, 8)


def test_word_times_its_reverse_is_identity():
    rng = random.Random(77)
    for _ in range(200):
        w = _random_word(rng)
        assert is_identity_word(reduce_word(w + w[::-1])) is True


def test_klein_triple_products_commute():
    for u in "bcd":
        for v in "bcd":
            assert is_identity_word(reduce_word(u + v + u + v)) is True


# ---------------------------------------------------------------------------
# Orders


def test_generator_orders():
    for letter in LETTERS:
        assert word_order(letter) == 2
    assert word_order("") == 1


def test_frozen_pair_orders():
    # Automaton values (stable from level 6 up): ad -> 4, ac -> 8, ab -> 16.
    assert _level_order("ad", 8) == 4
    assert _level_order("ac", 8) == 8
    assert _level_order("ab", 8) == 16
    assert word_order("ad") == 4
    assert word_order("ac") == 8
    assert word_order("ab") == 16


def test_orders_match_tree_action():
    rng = random.Random(515)
    seen = set()
    for _ in range(40):
        w = reduce_word(_random_word(rng, max_len=6))
        if w in seen:
            continue
        seen.add(w)
        assert word_order(w) == _level_order(w, 8)


def test_orders_are_powers_of_two():
    rng = random.Random(99)
    for _ in range(60):
        n = word_order(reduce_word(_random_word(rng, max_len=10)))
        assert n & (n - 1) == 0


def test_order_budget_is_enforced():
    with pytest.raises(OrderBudgetExceeded):
        word_order("ab", cap=8)


# ---------------------------------------------------------------------------
# Group backend


def test_backend_arithmetic_and_equality():
    g = GrigorchukGroup()
    a, b, c, d = (g.element(x) for x in LETTERS)
    assert (b * c) == d
    assert (a * a) == g.identity()
    assert (a * b).inverse() == b * a
    assert a != b
    assert (b * c * d) == g.identity()


def test_backend_equality_is_semantic():
    g = GrigorchukGroup()
    # Payloads differ ("bc" reduces to "d" but "abca..." style pairs do not
    # always share reduced spellings), equality must still hold.
    u = g.element("bc")
    v = g.element("d")
    assert u == v
    assert hash(u) == hash(v)


def test_backend_parse_and_format():
    g = GrigorchukGroup()
    assert g.parse_element("e") == g.identity()
    assert str(g.parse_element("aabb")) == "e"
    assert str(g.parse_element("ab")) == "ab"
    with pytest.raises(ParseError):
        g.parse_element("axb")


def test_backend_random_associativity():
    g = GrigorchukGroup()
    rng = random.Random(4242)
    for _ in range(60):
        x, y, z = (g.element(reduce_word(_random_word(rng, 6))) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_backend_product_matches_full_reduction():
    g = GrigorchukGroup()
    rng = random.Random(6021)
    for _ in range(500):
        x, y = (reduce_word(_random_word(rng, 14)) for _ in range(2))
        assert g._mul(x, y) == reduce_word(x + y)


# ---------------------------------------------------------------------------
# Fingerprints (element hashes)

IDENTITY_WORDS = ("adadadad", "ac" * 8, "ab" * 16)


def _dihedral_words(letter: str, m: int) -> list:
    """The 2m elements (a x)^k and (a x)^k a of <a, x>, with a x of order m."""
    rotations = [reduce_word(("a" + letter) * k) for k in range(m)]
    return rotations + [reduce_word(r + "a") for r in rotations]


def test_respelled_words_keep_their_fingerprint():
    g = GrigorchukGroup()
    rng = random.Random(8128)
    points = _level_points(6)
    for _ in range(60):
        word = reduce_word("".join(rng.choice("ab") for _ in range(rng.randrange(20))))
        for identity_word in IDENTITY_WORDS:
            respelled = reduce_word(identity_word + word)
            assert respelled != word
            # The oracle confirms that both spellings act alike.
            assert all(_act_word(respelled, p) == _act_word(word, p) for p in points)
            assert word_fingerprint(respelled) == word_fingerprint(word)
            assert hash(g.element(respelled)) == hash(g.element(word))
            assert g.element(respelled) == g.element(word)


def test_fingerprints_separate_the_dihedral_subgroups():
    for letter, m in (("d", 4), ("c", 8), ("b", 16)):
        words = _dihedral_words(letter, m)
        # Distinct elements by the oracle: distinct actions on level 8.
        actions = {tuple(_act_word(w, p) for p in _level_points(8)) for w in words}
        assert len(actions) == 2 * m
        assert len({word_fingerprint(w) for w in words}) == 2 * m


def test_fingerprint_cache_stays_bounded(monkeypatch):
    assert word_fingerprint.cache_info().maxsize == 5 << 14
    rng = random.Random(31)
    words = [reduce_word(_random_word(rng, 24)) for _ in range(300)]
    expected = [word_fingerprint(w) for w in words]
    # The recursion looks the name up in the module, so every depth goes
    # through the small copy and keeps evicting.
    small = functools.lru_cache(maxsize=5)(word_fingerprint.__wrapped__)
    monkeypatch.setattr(grigorchuk, "word_fingerprint", small)
    for _ in range(2):
        assert [small(w) for w in words] == expected
        assert small.cache_info().currsize <= 5


def test_fingerprint_cache_under_threads(monkeypatch):
    # More threads than cores share a tiny cache that keeps evicting;
    # every thread must still see the single-threaded fingerprints.
    rng = random.Random(2718)
    words = [reduce_word(_random_word(rng, 24)) for _ in range(200)]
    expected = [word_fingerprint(w) for w in words]
    small = functools.lru_cache(maxsize=3)(word_fingerprint.__wrapped__)
    monkeypatch.setattr(grigorchuk, "word_fingerprint", small)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            [small(w) for w in words])) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    assert small.cache_info().currsize <= 3


def test_identity_cache_evicts_without_changing_answers(monkeypatch):
    assert is_identity_word.cache_info().maxsize == 1 << 18
    g = GrigorchukGroup()
    rng = random.Random(1729)
    words = [reduce_word(_random_word(rng, 24)) for _ in range(200)]
    # Respellings of each word by a relator: equal elements, distinct words.
    respelled = [(w, reduce_word(r + w)) for w in words[:40] for r in IDENTITY_WORDS]
    tested = words + [*IDENTITY_WORDS] + [g._mul(v, w[::-1]) for w, v in respelled]
    expected = [is_identity_word(w) for w in tested]
    equalities = [g.element(x) == g.element(y) for x, y in zip(words, words[1:])]
    assert any(expected) and not all(expected)
    # GrigorchukGroup._eq and the recursion look the name up in the module.
    small = functools.lru_cache(maxsize=3)(is_identity_word.__wrapped__)
    monkeypatch.setattr(grigorchuk, "is_identity_word", small)
    for _ in range(2):
        assert [small(w) for w in tested] == expected
        assert all(g.element(v) == g.element(w) for w, v in respelled)
        assert [g.element(x) == g.element(y) for x, y in zip(words, words[1:])] == equalities
        assert small.cache_info().currsize <= 3
    assert small.cache_info().misses > 3
