"""Outside-in tracing of convreg: wrap names where they are called from.

convreg modules bind their own copies of the functions they import
(``regularity.convolve`` is not looked up through ``measures``), so each name
is wrapped in the namespace of the module that calls it.  Wrapping changes no
argument and no result, and :meth:`Tracer.restore` puts every original back.

Three kinds of wrapper keep the overhead low enough to trace millions of
group operations:

* ``span``: records ``(name, start, end, parent)`` in flat arrays, so that the
  self time of a span is its duration minus the time its child spans cover;
* ``timed``: hot names; call count plus the time of outermost calls only;
* ``counted``: hottest names; call count only.

A name missing from its namespace (a later version may delete it) is listed
in :attr:`Tracer.absent` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from typing import Callable


class Tracer:
    """In-memory spans and counters; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.times: dict[str, float] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, bool, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, kind: str = "span", after=None) -> bool:
        """Replace ``owner.attr`` by a recording wrapper named ``name``.

        ``after(tracer, args, result)`` runs after a successful call, to add
        counters that depend on the arguments or the result.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return False
        own = attr in vars(owner)
        fn = {"span": self._span, "timed": self._timed, "counted": self._counted}[kind]
        setattr(owner, attr, fn(original, name, after))
        self._undo.append((owner, attr, own, original))
        return True

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._undo:
            owner, attr, own, original = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _span(self, original, name, after):
        nid = self._name_id(name)
        stack, clock = self._stack, self.clock
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            self.count(name)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _timed(self, original, name, after):
        depth = [0]
        clock = self.clock
        self.times.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            if depth[0]:
                result = original(*args, **kwargs)
            else:
                depth[0] = 1
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.times[name] += clock() - start
                    depth[0] = 0
            self.count(name)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _counted(self, original, name, after):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name inclusive and self span time, counters and timed totals.

        Summaries of several processes add up key by key (:func:`merge`).
        """
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                children[p] += duration[i]
        incl: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            incl[name] = incl.get(name, 0.0) + duration[i]
            self_time[name] = self_time.get(name, 0.0) + duration[i] - children[i]
        return {"incl": incl, "self": self_time, "counts": dict(self.counts),
                "times": dict(self.times), "absent": sorted(set(self.absent))}

    def write_spans(self, fh) -> None:
        """JSON lines: the name table, then ``[name, parent, start, end]`` per span."""
        fh.write(json.dumps({"names": self.names}) + "\n")
        for i in range(len(self.span_start)):
            fh.write(f"[{self.span_name[i]},{self.span_parent[i]},"
                     f"{self.span_start[i]!r},{self.span_end[i]!r}]\n")


def merge(summaries: list[dict]) -> dict:
    out = {"incl": {}, "self": {}, "counts": {}, "times": {}, "absent": set()}
    for s in summaries:
        for part in ("incl", "self", "counts", "times"):
            for k, v in s[part].items():
                out[part][k] = out[part].get(k, 0) + v
        out["absent"].update(s["absent"])
    out["absent"] = sorted(out["absent"])
    return out


# ---------------------------------------------------------------------------
# What to wrap in convreg


def _verdict_counts(tr: Tracer, args, verdict) -> None:
    tr.count({"certificate": "verdict.regular", "support-not-closed": "verdict.not_closed",
              "system-infeasible": "verdict.infeasible"}.get(verdict.reason, "verdict.other"))


def _pairs(tr: Tracer, args, result) -> None:
    tr.count("convolve.pairs", len(args[0].atoms) * len(args[1].atoms))


def _oracle_hits(tr: Tracer, args, result) -> None:
    tr.count("oracle.found", result is not None)


# (module, attribute, span name, kind, after-hook).  Names nested in a class
# are written "Class.attr".
_CONVREG = [
    ("convreg.regularity", "build_regularity_system", "regularity.build_regularity_system", "span", None),
    ("convreg.regularity", "solve_stochastic", "regularity.solve_stochastic", "span", None),
    ("convreg.regularity", "mat_mul", "regularity.mat_mul", "span", None),
    ("convreg.regularity", "convolve", "regularity.convolve", "span", _pairs),
    ("convreg.regularity", "build_support_table", "regularity.build_support_table", "span",
     lambda tr, args, result: tr.count("table.atoms", len(args[0]))),
    ("convreg.regularity", "left_operator", "regularity.left_operator", "span", None),
    ("convreg.regularity", "right_operator", "regularity.right_operator", "span", None),
    ("convreg.regularity", "is_support_closed", "regularity.is_support_closed", "span", None),
    ("convreg.regularity", "moore_penrose", "regularity.moore_penrose", "span", None),
    ("convreg.linalg", "gaussian_solve", "linalg.gaussian_solve", "span", None),
    ("convreg.bruteforce", "convolve", "bruteforce.convolve", "span", _pairs),
    ("convreg.measures", "Measure.__init__", "Measure.__init__", "timed",
     lambda tr, args, result: tr.count("measure.atoms", len(args[0].atoms))),
    ("convreg.grigorchuk", "is_identity_word", "grigorchuk.is_identity_word", "timed",
     lambda tr, args, result: len(args[0]) >= 2 and tr.count("identity.lookups")),
    ("convreg.grigorchuk", "word_sections", "grigorchuk.word_sections", "counted", None),
    ("convreg.grigorchuk", "reduce_word", "grigorchuk.reduce_word", "counted", None),
    ("convreg.groups", "Group._eq", "Group._eq", "counted", None),
    ("convreg.grigorchuk", "GrigorchukGroup._eq", "GrigorchukGroup._eq", "counted", None),
    ("convreg.groups", "CayleyGroup._mul", "CayleyGroup._mul", "counted", None),
    ("convreg.groups", "PermGroup._mul", "PermGroup._mul", "counted", None),
    ("convreg.grigorchuk", "GrigorchukGroup._mul", "GrigorchukGroup._mul", "counted", None),
]

# Names the benchmark (or the CLI) calls; wrapped in the calling module.
_API = [
    ("load_group", "groups.load_group", None),
    ("builtin_group", "catalog.builtin_group", None),
    ("enumerate_group", "groups.enumerate_group", None),
    ("closure", "groups.closure", None),
    ("load_measure", "measures.load_measure", None),
    ("uniform_on", "measures.uniform_on", None),
    ("decide_regular", "regularity.decide_regular", _verdict_counts),
    ("candidate_universe", "bruteforce.candidate_universe", None),
    ("brute_force_ginverse", "bruteforce.brute_force_ginverse", _oracle_hits),
]


def _resolve(path: str, attr: str):
    try:
        owner = importlib.import_module(path)
    except ImportError:
        return None, attr
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, last


def install(tracer: Tracer, caller) -> Tracer:
    """Wrap convreg's internal call sites plus the API names ``caller`` calls."""
    for path, attr, name, kind, after in _CONVREG:
        owner, last = _resolve(path, attr)
        tracer.wrap(owner, last, name, kind, after)
    for attr, name, after in _API:
        if attr in vars(caller):
            tracer.wrap(caller, attr, name, "span", after)
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(s: dict) -> dict[str, float]:
    """The per-layer metrics (seconds, counts, ratios) from a summary."""
    incl, self_time, counts, times = s["incl"], s["self"], s["counts"], s["times"]

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def c(*names):
        return sum(counts.get(n, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = c("identity.lookups")
    oracle_candidates = c("bruteforce.convolve") / 2  # mu*nu*mu per candidate
    return {
        "linalg.mat_mul_s": t("regularity.mat_mul"),
        "linalg.solve_s": t("regularity.solve_stochastic"),
        "linalg.gauss_s": t("linalg.gaussian_solve"),
        "linalg.solve_calls": c("regularity.solve_stochastic"),
        "operators.table_s": t("regularity.build_support_table"),
        "operators.table_atoms": c("table.atoms"),
        "operators.operator_s": t("regularity.left_operator", "regularity.right_operator"),
        "measures.convolve_s": t("regularity.convolve", "bruteforce.convolve"),
        "measures.convolve_calls": c("regularity.convolve", "bruteforce.convolve"),
        "measures.convolve_pairs": c("convolve.pairs"),
        "measures.closed_test_s": t("regularity.is_support_closed"),
        "measures.init_s": times.get("Measure.__init__", 0.0),
        "measures.init_atoms": c("measure.atoms"),
        "groups.mul_calls": c("CayleyGroup._mul", "PermGroup._mul", "GrigorchukGroup._mul"),
        "groups.eq_calls": c("Group._eq", "GrigorchukGroup._eq"),
        "groups.load_s": t("groups.load_group", "catalog.builtin_group"),
        "groups.enumerate_s": t("groups.enumerate_group", "groups.closure"),
        "grigorchuk.identity_tests": c("grigorchuk.is_identity_word"),
        "grigorchuk.section_calls": c("grigorchuk.word_sections"),
        "grigorchuk.cache_hit_ratio": ratio(lookups - c("grigorchuk.word_sections"), lookups),
        "grigorchuk.reduce_calls": c("grigorchuk.reduce_word"),
        "grigorchuk.identity_s": times.get("grigorchuk.is_identity_word", 0.0),
        "regularity.decide_s": t("regularity.decide_regular"),
        "regularity.self_s": self_time.get("regularity.decide_regular", 0.0),
        "regularity.system_s": t("regularity.build_regularity_system"),
        "regularity.convolve_s": t("regularity.convolve"),
        "regularity.mp_s": t("regularity.moore_penrose"),
        "regularity.n_regular": c("verdict.regular"),
        "regularity.n_not_closed": c("verdict.not_closed"),
        "regularity.n_infeasible": c("verdict.infeasible"),
        "bruteforce.oracle_s": t("bruteforce.brute_force_ginverse"),
        "bruteforce.convolve_calls": c("bruteforce.convolve"),
        "bruteforce.hit_ratio": ratio(c("oracle.found"), oracle_candidates),
    }
