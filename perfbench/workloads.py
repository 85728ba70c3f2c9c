"""The four benchmark workloads: seeded inputs, set-up, ops and their checks.

A workload is a list of *rounds*.  Every round has the same composition of
(group, support size, input class, translate length) slots; the seed picks
the coset, subset and atom order that fill each slot and, except
in grigorchuk-dihedral, the order in which the ops run.  Choices that swing
an op's cost (which atom is heavy, where a word is respelled) are fixed by the
slot, so the cost of a run barely depends on the seed while the inputs do.

This module is the only benchmark code that calls convreg in-process.  The
tracer wraps the convreg names bound here (``load_group``, ``decide_regular``,
...) because this is where they are called from.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from convreg.bruteforce import brute_force_ginverse, candidate_universe
from convreg.catalog import builtin_group
from convreg.groups import closure, enumerate_group, load_group
from convreg.measures import load_measure, uniform_on
from convreg.regularity import decide_regular

import model as mdl

WORKLOADS = ("finite-ladder", "grigorchuk-dihedral", "catalog-oracle", "cli-cold")

KINDS = ("regular", "infeasible", "open")


@dataclass
class Instance:
    """One group as convreg receives it, with its independent model."""

    model: object
    text: str | None = None  # group-file text; None for a catalog group
    builtin: str | None = None  # catalog name
    generators: list[str] | None = None  # words whose closure is the group


@dataclass
class Op:
    instance: str
    kind: str
    size: int  # support size, which is also the size class
    mu: dict  # model measure {element: weight}
    text: str  # measure-file text
    expected: tuple[str, str]
    args: list[str] | None = None  # elements of a CLI `uniform` op


@dataclass
class Workload:
    name: str
    instances: dict[str, Instance]
    ops: list[Op] = field(default_factory=list)
    rounds: int = 1


# ---------------------------------------------------------------------------
# Shared generators


def _weights(kind: str, k: int) -> list[Fraction]:
    """Uniform weights, or, for ``infeasible``, the first atom twice as heavy.

    The simplex's cost depends on the weight pattern: a random 1:2 split
    costs 5-10x more on A5 and swings tenfold with the seed, and even a
    single heavy atom swings 2x with its position.  So the heavy atom is
    always the least element of the support.
    """
    if kind != "infeasible":
        return [Fraction(1, k)] * k
    return [Fraction(2, k + 1)] + [Fraction(1, k + 1)] * (k - 1)


def _coset(rng: random.Random, m, subgroup: set) -> list:
    x = rng.choice(m.elements)
    return [m.mul(x, h) for h in sorted(subgroup)]


def _open_subset(rng: random.Random, m, k: int) -> list:
    while True:
        subset = rng.sample(m.elements, k)
        if not mdl.is_coset(m, subset):
            return subset


def _near_coset(rng: random.Random, m, subgroup: set) -> list:
    """A coset with one atom swapped for one outside it.

    Open, yet spelled and sized like the coset, so its cost hardly depends on
    the seed; a random subset's cost on the word backend swings 2.5x.
    """
    while True:
        support = _coset(rng, m, subgroup)
        outside = [g for g in m.elements if g not in support]
        support[rng.randrange(len(support))] = rng.choice(outside)
        if not mdl.is_coset(m, support):
            return support


def _op(key: str, inst: Instance, kind: str, support: list, rng, spell=None) -> Op:
    """An op with the ``kind`` weights on ``support``, atoms in a seeded order.

    ``spell`` maps an element to its text; the default is the model's
    canonical spelling.
    """
    support = sorted(support)
    rest = support[1:]
    rng.shuffle(rest)
    mu = dict(zip(support[:1] + rest, _weights(kind, len(support))))
    spell = spell or inst.model.spell
    text = mdl.measure_text([(spell(g), w) for g, w in mu.items()])
    return Op(key, kind, len(support), mu, text, mdl.expected(inst.model, mu))


def _slot_instance(keys: list[str], rnd: int, j: int, kind_idx: int) -> str:
    """Cycle the eligible instances by round and slot, never by seed.

    7 is coprime to every list length, so each round starts elsewhere.
    """
    return keys[(rnd * 7 + j + kind_idx) % len(keys)]


# ---------------------------------------------------------------------------
# finite-ladder: S4, A5, S5 as `perm` and as `cayley` text


_FINITE = {"S4": (4, ["(0 1)", "(0 1 2 3)"]),
           "A5": (5, ["(0 1 2)", "(0 1 2 3 4)"]),
           "S5": (5, ["(0 1)", "(0 1 2 3 4)"])}

# size -> (groups holding such a coset, subgroup generators by degree)
_FINITE_SUBGROUPS = {
    2: (("S4", "A5", "S5"), {4: ["(0 1)(2 3)"], 5: ["(0 1)(2 3)"]}),
    6: (("S4", "A5", "S5"), {4: ["(0 1 2)", "(0 1)"], 5: ["(0 1 2)", "(0 1)(3 4)"]}),
    12: (("S4", "A5", "S5"), {4: ["(0 1 2)", "(0 1)(2 3)"], 5: ["(0 1 2)", "(0 1)(2 3)"]}),
    24: (("S4", "S5"), {4: ["(0 1 2 3)", "(0 1)"], 5: ["(0 1 2 3)", "(0 1)"]}),
    60: (("A5", "S5"), {5: ["(0 1 2)", "(0 1 2 3 4)"]}),
}
_FINITE_OPEN = {2: ("S4", "A5", "S5"), 6: ("S4", "A5", "S5"), 12: ("S4", "A5", "S5"),
                24: ("A5", "S5"), 60: ("S5",)}

# Ops per support size per round, for each input class (45 ops a round).
# Open supports cost at most 2-3 ms and n=2 decisions about 1 ms, so 42% of
# a round is cheap; one skewed n=6 op (about 3.5 ms) comes next and the eight
# uniform n=6 ops (4-7 ms) after it, so the median falls a third of the way
# into the uniform n=6 class.  The two n=60 closed ops (1-2.5 s) are the top
# 4% and the four n=24 closed ops (70-200 ms) the next 9%, so the 90th
# percentile falls inside n=24.  Skewed n=12 ops make up the thirds.
_FINITE_MIX = {
    "regular": {2: 2, 6: 8, 12: 2, 24: 2, 60: 1},
    "infeasible": {2: 2, 6: 1, 12: 9, 24: 2, 60: 1},
    "open": {2: 2, 6: 4, 12: 4, 24: 3, 60: 2},
}


def _finite_instances() -> dict[str, Instance]:
    out = {}
    for name, (degree, gens) in _FINITE.items():
        perms = mdl.PermModel(degree, gens)
        out[f"{name}/perm"] = Instance(perms, text=perms.group_text())
        table = mdl.CayleyModel(perms)
        out[f"{name}/cayley"] = Instance(table, text=table.group_text())
    return out


def _finite_ladder(rng: random.Random, rounds: int) -> Workload:
    w = Workload("finite-ladder", _finite_instances(), rounds=rounds)
    for rnd in range(rounds):
        for kind_idx, kind in enumerate(KINDS):
            for size, count in _FINITE_MIX[kind].items():
                groups = _FINITE_OPEN[size] if kind == "open" else _FINITE_SUBGROUPS[size][0]
                keys = [f"{g}/{b}" for b in ("perm", "cayley") for g in groups]
                for j in range(count):
                    key = _slot_instance(keys, rnd, j, kind_idx)
                    inst = w.instances[key]
                    m = inst.model
                    if kind == "open":
                        support = _open_subset(rng, m, size)
                    else:
                        # A seeded coset of a fixed subgroup: every coset
                        # normalizes to the same subgroup, so the decision's
                        # cost does not depend on the seed (a conjugate's
                        # does, by up to 1.7x at n=6).
                        perms = m if isinstance(m, mdl.PermModel) else m.perms
                        gens = [perms.parse(g) for g in _FINITE_SUBGROUPS[size][1][perms.degree]]
                        support = _coset(rng, m, mdl.closure(m, gens))
                    w.ops.append(_op(key, inst, kind, support, rng))
    return w


# ---------------------------------------------------------------------------
# grigorchuk-dihedral: <a,d>, <a,c>, <a,b> in the word backend


_DIHEDRAL = {"ad": (4, "d"), "ac": (8, "c"), "ab": (16, "b")}
# Eligible groups and ops per support size per round, for each input class
# (35 ops a round).  The cheapest third are n=2 decisions and small open
# supports; the open n=16 supports on <a,b> come next and hold the median.  The two n=32 closed ops (0.7-2 s) are the top 6% and the four
# uniform n=16 ops on <a,b> (about 220 ms) the next 11%, so the 90th
# percentile falls inside that class.  Those stay untranslated and canonically
# spelled cosets of the rotations, because a length-24 translate triples an
# n=16 decision and a dihedral, respelled coset costs 1.3-2.5x more.
_DIHEDRAL_GROUPS = {
    "regular": {2: ("ad", "ac", "ab"), 4: ("ad", "ac", "ab"), 8: ("ad", "ac", "ab"),
                16: ("ab",), 32: ("ab",)},
    "infeasible": {2: ("ad", "ac", "ab"), 4: ("ad", "ac", "ab"), 8: ("ad", "ac", "ab"),
                   16: ("ac", "ab"), 32: ("ab",)},
    "open": {2: ("ad", "ac", "ab"), 4: ("ad", "ac", "ab"), 8: ("ac", "ab"), 16: ("ab",)},
}
_DIHEDRAL_MIX = {
    "regular": {2: 3, 4: 2, 8: 2, 16: 4, 32: 1},
    "infeasible": {2: 3, 4: 2, 8: 3, 16: 3, 32: 1},
    "open": {2: 2, 4: 2, 8: 2, 16: 5},
}
_LENGTHS = (0, 4, 12, 24)  # translate lengths, cycled by slot


def _plain(kind: str, size: int) -> bool:
    """Slots kept untranslated; uniform n=16 ones are also plain rotation cosets."""
    return kind == "open" or size == 32 or (kind == "regular" and size == 16)


def _dihedral_subgroup(m: mdl.DihedralModel, size: int, cyclic: bool, offset: int) -> set:
    """Rotations of order ``size``, or a dihedral subgroup of order ``size``."""
    if cyclic and m.m % size == 0:
        return mdl.closure(m, [(m.m // size, 0)])
    step = 2 * m.m // size
    return mdl.closure(m, [(step % m.m, 0), (offset % m.m, 1)])


def _grigorchuk_dihedral(rng: random.Random, rounds: int) -> Workload:
    instances = {}
    for key, (order, letter) in _DIHEDRAL.items():
        m = mdl.DihedralModel(order, letter)
        instances[key] = Instance(m, text=m.group_text(), generators=["a", letter])
    w = Workload("grigorchuk-dihedral", instances, rounds=rounds)
    for rnd in range(rounds):
        for kind_idx, kind in enumerate(KINDS):
            for size, count in _DIHEDRAL_MIX[kind].items():
                keys = list(_DIHEDRAL_GROUPS[kind][size])
                for j in range(count):
                    key = _slot_instance(keys, rnd, j, kind_idx)
                    m = instances[key].model
                    rotations = (rnd + j) % 2 == 0 or (kind == "regular" and size == 16)
                    sub = _dihedral_subgroup(m, size, rotations, rnd + j)
                    base = _near_coset(rng, m, sub) if kind == "open" else _coset(rng, m, sub)
                    plain = _plain(kind, size)
                    length = 0 if plain else _LENGTHS[(rnd + j + kind_idx) % len(_LENGTHS)]
                    first = "a" if (rnd + j) % 2 == 0 else m.letter
                    left = m.alternating(first, length)
                    right = m.alternating(m.letter if first == "a" else "a", length)
                    g, h = m.eval(left), m.eval(right)
                    # Every other slot prefixes (ax)^m, the identity, to a quarter of
                    # its atoms.  Which atoms and where is fixed, not seeded: the
                    # cost of an n=32 decision swings 1.7x with it.
                    noisy = set(sorted(base)[1::4]) if (rnd + j) % 2 and not plain else set()
                    words = {}
                    for s in base:
                        word = m.relator() + m.word(s) if s in noisy else m.word(s)
                        words[m.mul(m.mul(g, s), h)] = (left + word + right) or "e"
                    support, spell = list(words), words.__getitem__
                    w.ops.append(_op(key, instances[key], kind, support, rng, spell))
    return w


# ---------------------------------------------------------------------------
# catalog-oracle: the exhaustive criterion-2 sweep


def _farey_vectors(slots: int) -> list[tuple[Fraction, ...]]:
    """Ordered positive weight vectors summing to 1, denominators <= 6."""
    values = sorted({Fraction(k, d) for d in range(1, 7) for k in range(1, d + 1)})
    out = []

    def rec(prefix, remaining, left):
        if left == 1:
            if remaining in values:
                out.append(prefix + (remaining,))
            return
        for v in values:
            if v < remaining:
                rec(prefix + (v,), remaining - v, left - 1)

    rec((), Fraction(1), slots)
    return out


_CATALOG = {"Z2": (2, ["(0 1)"]), "Z3": (3, ["(0 1 2)"]), "Z4": (4, ["(0 1 2 3)"]),
            "S3": (3, ["(0 1)", "(0 1 2)"])}
CATALOG_SIZE = 765  # measures in the sweep
CATALOG_OPEN = 561  # of which have open supports


def _catalog_oracle(rng: random.Random, rounds: int) -> Workload:
    instances = {
        name: Instance(mdl.CayleyModel(mdl.PermModel(deg, gens)), builtin=name)
        for name, (deg, gens) in _CATALOG.items()
    }
    w = Workload("catalog-oracle", instances, rounds=rounds)
    vectors = {n: _farey_vectors(n) for n in (1, 2, 3)}
    for _ in range(rounds):
        sweep = []
        for name, inst in instances.items():
            m = inst.model
            for size in (1, 2, 3):
                for subset in itertools.combinations(m.elements, size):
                    for weights in vectors[size]:
                        mu = dict(zip(subset, weights))
                        text = mdl.measure_text([(m.spell(g), wt) for g, wt in mu.items()])
                        kind = "open" if not mdl.is_coset(m, mu) else (
                            "regular" if len(set(weights)) == 1 else "infeasible")
                        sweep.append(Op(name, kind, size, mu, text, mdl.expected(m, mu)))
        rng.shuffle(sweep)
        w.ops += sweep
    return w


# ---------------------------------------------------------------------------
# cli-cold: one `python -m convreg.cli` process per op


_CLI = {"Z4/cayley": (4, ["(0 1 2 3)"]), "S3/cayley": (3, ["(0 1)", "(0 1 2)"]),
        "S4/perm": (4, ["(0 1)", "(0 1 2 3)"])}
_CLI_MAX = 8  # largest support, so that the decision stays small next to start-up


def _small_subgroup(rng: random.Random, m) -> set:
    while True:
        gens = rng.sample(m.elements, rng.choice((1, 2)))
        sub = mdl.closure(m, gens)
        if 2 <= len(sub) <= _CLI_MAX:
            return sub


def _cli_cold(rng: random.Random, rounds: int) -> Workload:
    instances = {}
    for key, (deg, gens) in _CLI.items():
        perms = mdl.PermModel(deg, gens)
        m = perms if key.endswith("/perm") else mdl.CayleyModel(perms)
        instances[key] = Instance(m, text=m.group_text())
    ad = mdl.DihedralModel(4, "d")
    instances["ad/word"] = Instance(ad, text=ad.group_text(), generators=["a", "d"])
    w = Workload("cli-cold", instances, rounds=rounds)
    for _ in range(rounds):
        batch = []
        for key, inst in instances.items():
            m = inst.model
            for kind in KINDS:
                if kind == "open":
                    support = _open_subset(rng, m, rng.randint(2, min(_CLI_MAX, len(m.elements) - 1)))
                else:
                    support = _coset(rng, m, _small_subgroup(rng, m))
                batch.append(_op(key, inst, kind, support, rng))
            # `uniform` decides the uniform measure on {e} plus its arguments
            for kind in ("regular", "open"):
                while True:
                    if kind == "regular":
                        members = _small_subgroup(rng, m)
                    else:
                        members = set(rng.sample(m.elements, rng.randint(1, 3))) | {m.identity()}
                    if (kind == "regular") == mdl.is_coset(m, members):
                        break
                args = [m.spell(g) for g in sorted(members) if g != m.identity()] or ["e"]
                op = _op(key, inst, kind, members, rng)
                op.args = args
                batch.append(op)
        rng.shuffle(batch)
        w.ops += batch
    return w


# ---------------------------------------------------------------------------
# Size and entry points


# Nominal seconds per round on a 2-core x86 container with Python 3.11, and
# the fewest rounds a run may have: at least 100 ops, and for
# grigorchuk-dihedral 210, which its median needs to be steady.
_ROUND_SECONDS = {"finite-ladder": 3.9, "grigorchuk-dihedral": 3.5,
                  "catalog-oracle": 17.0, "cli-cold": 2.4}
_MIN_ROUNDS = {"finite-ladder": 3, "grigorchuk-dihedral": 6, "catalog-oracle": 1, "cli-cold": 5}
_GENERATORS = {"finite-ladder": _finite_ladder, "grigorchuk-dihedral": _grigorchuk_dihedral,
               "catalog-oracle": _catalog_oracle, "cli-cold": _cli_cold}


def build(name: str, seed: int, seconds: float) -> Workload:
    """Generate a workload's inputs; the same seed and seconds give the same ops."""
    rounds = max(_MIN_ROUNDS[name], round(seconds / _ROUND_SECONDS[name]))
    w = _GENERATORS[name](random.Random(f"{name}:{seed}"), rounds)
    # The word backend's identity cache makes an op's cost depend on the ops
    # before it, so grigorchuk-dihedral keeps its slot order.
    if name in ("finite-ladder", "cli-cold"):
        random.Random(f"{name}:{seed}:order").shuffle(w.ops)
    return w


def setup(w: Workload):
    """The timed set-up: load and enumerate every group, build every input.

    Returns ``(groups, orders, inputs)``: convreg group per instance, the
    enumerated order per instance, and one measure per op.
    """
    groups, orders = {}, {}
    for key, inst in w.instances.items():
        g = builtin_group(inst.builtin) if inst.builtin else load_group(inst.text)
        if inst.generators:
            elements = closure(g, [g.parse_element(t) for t in inst.generators])
        else:
            elements = enumerate_group(g)
        groups[key], orders[key] = g, len(elements)
    inputs = []
    for op in w.ops:
        g = groups[op.instance]
        if op.args is not None:
            inputs.append(uniform_on(g, [g.parse_element(t) for t in op.args]))
        else:
            inputs.append(load_measure(op.text, g))
    return groups, orders, inputs


def decide(mu):
    return decide_regular(mu)


def decide_with_oracle(mu):
    verdict = decide_regular(mu)
    return verdict, brute_force_ginverse(mu, 8, candidate_universe(mu))


def expected_orders(w: Workload) -> dict[str, int]:
    return {key: len(inst.model.elements) for key, inst in w.instances.items()}


def model_measure(m, atoms) -> dict:
    """convreg ``(element, weight)`` atoms as a model measure."""
    out: dict = {}
    for el, wt in atoms:
        g = m.from_payload(el.payload)
        out[g] = out.get(g, 0) + wt
    return out


def check_catalog_tables(w: Workload, groups: dict) -> bool:
    """The catalog groups convreg ships must be the tables the model uses."""
    return all(
        [list(row) for row in groups[key].table] == inst.model.table()
        for key, inst in w.instances.items()
    )


def sweep_counts(w: Workload) -> tuple[int, int]:
    per_round = len(w.ops) // w.rounds
    opens = sum(op.kind == "open" for op in w.ops) // w.rounds
    return per_round, opens

