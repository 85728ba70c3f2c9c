"""Golden verdict corpus: every verdict below is pinned by a short digest.

The corpus is deterministic.  It holds every measure of at most three atoms
with weight ratios 1-3 on the seven catalog groups, fixed-seed S4 and A5
``perm`` measures (coset-uniform, skewed and open), word-backend measures on
<a,d>, <a,c> and <a,b> with respelled atoms and two-sided translates, and the
size-2 uniform-subset probe of every catalog group.  Each verdict is reduced
to the first 12 hex digits of the sha256 of its canonical JSON, one digest a
line, in corpus order, in ``tests/data/verdicts.sha256``.

Regenerating the file changes pinned output and is done on purpose only::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

from convreg import (
    GrigorchukGroup,
    Measure,
    builtin_group,
    builtin_names,
    decide_regular,
    decide_translated,
    enumerate_group,
    probe_uniform_subsets,
)
from convreg.groups import closure, load_perm

DIGESTS = Path(__file__).parent / "data" / "verdicts.sha256"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def spelled(elements):
    return "[" + ",".join(str(el) for el in elements) + "]"


def weighted(group, elements, raw):
    total = sum(raw)
    return Measure(group, [(el, F(r, total)) for el, r in zip(elements, raw)])


def catalog_cases():
    """Every <=3-atom measure with coprime weight ratios from 1-3."""
    for name in builtin_names():
        group = builtin_group(name)
        elements = enumerate_group(group)
        for size in (1, 2, 3):
            for combo in itertools.combinations(elements, size):
                for raw in itertools.product((1, 2, 3), repeat=size):
                    if math.gcd(*raw) == 1:
                        label = f"{name} {spelled(combo)} {raw}"
                        yield label, decide_regular(weighted(group, combo, raw))


def coset_measures(rng, group, elements, per_kind):
    """Coset-uniform, skewed-coset and open measures from a seeded generator."""
    for kind in ("coset", "skewed", "open"):
        for _ in range(per_kind):
            if kind == "open":
                atoms = rng.sample(elements, rng.randint(2, 6))
                yield kind, atoms, [rng.randint(1, 3) for _ in atoms]
                continue
            sub = closure(group, rng.sample(elements, rng.choice((1, 2))))
            x = rng.choice(elements)
            atoms = [x * h for h in sub] if rng.random() < 0.5 else [h * x for h in sub]
            raw = [1] * len(atoms)
            if kind == "skewed" and len(atoms) > 1:
                raw[rng.randrange(len(atoms))] = 2
            yield kind, atoms, raw


def perm_cases():
    rng = random.Random(20241)
    for name, text in (
        ("S4", "perm 4\n(0 1)\n(0 1 2 3)\n"),
        ("A5", "perm 5\n(0 1 2)\n(0 1 2 3 4)\n"),
    ):
        group = load_perm(text)
        elements = list(enumerate_group(group))
        for kind, atoms, raw in coset_measures(rng, group, elements, 12):
            label = f"{name} {kind} {spelled(atoms)} {raw}"
            yield label, decide_regular(weighted(group, atoms, raw))


def word_cases():
    """Measures on finite dihedral subgroups of the Grigorchuk group."""
    rng = random.Random(9)
    g = GrigorchukGroup()
    for letter, identity_word in (("d", "ad" * 4), ("c", "ac" * 8), ("b", "ab" * 16)):
        elements = list(closure(g, [g.element("a"), g.element(letter)]))
        for kind, atoms, raw in coset_measures(rng, g, elements, 8):
            # Respell about half the atoms by an identity prefix.
            atoms = [
                g.element(identity_word + el.payload) if rng.random() < 0.5 else el
                for el in atoms
            ]
            mu = weighted(g, atoms, raw)
            label = f"<a,{letter}> {kind} {spelled(atoms)} {raw}"
            yield label, decide_regular(mu)
            u, v = rng.choice(elements), g.element(rng.choice(("", "b", "ab", "cad")))
            yield f"{label} translated by ({u}, {v})", decide_translated(mu, u, v)


def probe_cases():
    for name in builtin_names():
        report = probe_uniform_subsets(builtin_group(name), 2)
        for case in report.cases:
            yield f"probe {name} {spelled(case.subset)}", case
        yield f"probe {name} summary", report


def corpus():
    """(label, digest) for every corpus input, in the committed order.

    Each outcome (a verdict, a probe case or a probe report) is computed only
    when the generator reaches it.
    """
    for cases in (catalog_cases(), perm_cases(), word_cases(), probe_cases()):
        for label, outcome in cases:
            yield label, digest(outcome.to_json_dict())


def committed_digests() -> list[str]:
    lines = DIGESTS.read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def test_verdicts_match_the_committed_digests():
    expected = committed_digests()
    count = 0
    for count, (label, got) in enumerate(corpus(), 1):
        assert count <= len(expected), f"corpus input {count} ({label}) has no committed digest"
        assert got == expected[count - 1], f"verdict {count} changed: {label}"
    assert count == len(expected), f"corpus ends after {count} inputs, file has {len(expected)}"


if __name__ == "__main__":
    lines = [
        "# sha256[:12] of each verdict's canonical JSON, in tests/test_golden.py corpus order",
        *(d for _, d in corpus()),
    ]
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} digests to {DIGESTS}")
