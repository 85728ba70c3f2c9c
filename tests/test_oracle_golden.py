"""Golden oracle corpus: every ``brute_force_ginverse`` outcome below is
pinned by a short digest.

The corpus is deterministic.  It holds every measure of the criterion-2 sweep
(at most three atoms, weight denominators at most 6, on Z2, Z3, Z4 and S3)
searched up to denominator 8, the five respelled word-backend measures of
``tests/test_bruteforce.py`` up to denominator 4, and the uniform and the
one-heavy-atom measure on A4 inside S4 up to denominator 4.  Every search
runs over :func:`~convreg.candidate_universe`.  Each outcome (``None``, or
the returned atoms with their spellings and exact weights) is reduced to the
first 12 hex digits of the sha256 of its canonical JSON, one digest a line,
in corpus order, in ``tests/data/oracle.sha256``.

Regenerating the file changes pinned output and is done on purpose only::

    PYTHONPATH=src python tests/test_oracle_golden.py
"""

import hashlib
import itertools
import json
from fractions import Fraction as F
from pathlib import Path

from convreg import (
    GrigorchukGroup,
    Measure,
    brute_force_ginverse,
    builtin_group,
    candidate_universe,
    enumerate_group,
)
from convreg.groups import load_perm

DIGESTS = Path(__file__).parent / "data" / "oracle.sha256"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def outcome(mu, max_denominator):
    nu = brute_force_ginverse(mu, max_denominator, candidate_universe(mu))
    return None if nu is None else [[str(el), str(w)] for el, w in nu.atoms]


def label(name, mu, max_denominator):
    atoms = ", ".join(f"{el}={w}" for el, w in mu.atoms)
    return f"{name} {{{atoms}}} q<={max_denominator}"


def sweep_cases():
    """The criterion-2 sweep: every measure with at most 3 atoms and weight
    denominators at most 6 on Z2, Z3, Z4 and S3."""
    values = sorted({F(k, d) for d in range(1, 7) for k in range(1, d + 1)})
    for name in ("Z2", "Z3", "Z4", "S3"):
        group = builtin_group(name)
        elems = enumerate_group(group)
        for size in (1, 2, 3):
            vectors = [
                (*head, 1 - sum(head))
                for head in itertools.product(values, repeat=size - 1)
                if 1 - sum(head) in values
            ]
            for subset in itertools.combinations(elems, size):
                for weights in vectors:
                    yield name, Measure(group, list(zip(subset, weights))), 8


def word_cases():
    """Measures on <a,d> whose atoms are respelled by identity words."""
    g = GrigorchukGroup()
    cases = [
        [("dadadada", F(1, 2)), ("adadadada", F(1, 2))],
        [("adadadada", F(1, 2)), ("adadadadad", F(1, 2))],
        [("dadadada", F(3, 4)), ("adadadadd", F(1, 4))],
        [("adadadad", F(1, 3)), ("adadadadd", F(1, 3)), ("a", F(1, 3))],
        [("dadadada", F(1, 4)), ("adadadadad", F(1, 4)), ("adad", F(1, 4)), ("adadad", F(1, 4))],
    ]
    for atoms in cases:
        yield "<a,d>", Measure(g, [(g.element(w), wt) for w, wt in atoms]), 4


def a4_cases():
    """The uniform and the one-heavy-atom measure on A4 in S4."""
    a4 = load_perm("perm 4\n(0 1 2)\n(1 2 3)\n")
    elems = enumerate_group(a4)
    yield "A4", Measure(a4, [(el, F(1, len(elems))) for el in elems]), 4
    yield "A4", Measure(a4, [(el, F(2 if i == 0 else 1, 13)) for i, el in enumerate(elems)]), 4


def corpus():
    """(label, digest) for every corpus input, in the committed order."""
    for cases in (sweep_cases(), word_cases(), a4_cases()):
        for name, mu, max_denominator in cases:
            yield label(name, mu, max_denominator), digest(outcome(mu, max_denominator))


def committed_digests() -> list[str]:
    lines = DIGESTS.read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def test_oracle_outcomes_match_the_committed_digests():
    expected = committed_digests()
    count = 0
    for count, (name, got) in enumerate(corpus(), 1):
        assert count <= len(expected), f"corpus input {count} ({name}) has no committed digest"
        assert got == expected[count - 1], f"oracle outcome {count} changed: {name}"
    assert count == len(expected), f"corpus ends after {count} inputs, file has {len(expected)}"
    assert count == 765 + 5 + 2


if __name__ == "__main__":
    lines = [
        "# sha256[:12] of each oracle outcome's canonical JSON, in tests/test_oracle_golden.py corpus order",
        *(d for _, d in corpus()),
    ]
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} digests to {DIGESTS}")
