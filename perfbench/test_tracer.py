"""Tracer checks on a toy call tree: nesting, self time, counters, restore.

    PYTHONPATH=src python3 -m pytest perfbench/test_tracer.py

A fake clock that advances by one per reading makes every duration exact.
"""

import itertools
import types

import pytest

import tracer as trc

TOY = '''
def leaf(x):
    return x + 1

def mid(x):
    return leaf(x) + leaf(x)

def top(x):
    return mid(x) * 2

def rec(n):
    return 0 if n == 0 else rec(n - 1) + 1
'''


def toy_module():
    toy = types.ModuleType("toy")
    exec(TOY, toy.__dict__)
    return toy


def ticking_tracer():
    return trc.Tracer(clock=itertools.count().__next__)


def test_nesting_and_self_time():
    toy = toy_module()
    tr = ticking_tracer()
    for name in ("top", "mid", "leaf"):
        assert tr.wrap(toy, name, name)
    assert toy.top(1) == 8
    # clock readings: top 0..7, mid 1..6, leaves 2..3 and 4..5
    names = [tr.names[i] for i in tr.span_name]
    assert names == ["top", "mid", "leaf", "leaf"]
    assert list(tr.span_parent) == [-1, 0, 1, 1]
    assert list(tr.span_start) == [0, 1, 2, 4]
    assert list(tr.span_end) == [7, 6, 3, 5]
    s = tr.summary()
    assert s["incl"] == {"top": 7, "mid": 5, "leaf": 2}
    assert s["self"] == {"top": 2, "mid": 3, "leaf": 2}
    assert s["counts"] == {"top": 1, "mid": 1, "leaf": 2}


def test_timed_counts_every_call_but_times_the_outermost():
    toy = toy_module()
    tr = ticking_tracer()
    tr.wrap(toy, "rec", "rec", kind="timed",
            after=lambda t, args, result: t.count("rec.args", args[0]))
    assert toy.rec(3) == 3
    assert tr.counts == {"rec": 4, "rec.args": 3 + 2 + 1 + 0}
    assert tr.times == {"rec": 1}  # one start and one end reading
    assert len(tr.span_start) == 0


def test_counted_and_merge():
    toy = toy_module()
    a, b = ticking_tracer(), ticking_tracer()
    a.wrap(toy, "leaf", "leaf", kind="counted")
    toy.mid(0)
    a.restore()
    b.wrap(toy, "mid", "mid")
    toy.mid(0)
    b.restore()
    merged = trc.merge([a.summary(), b.summary()])
    assert merged["counts"] == {"leaf": 2, "mid": 1}
    assert merged["incl"] == {"mid": 1}


def test_restore_puts_back_module_and_inherited_names():
    toy = toy_module()
    originals = (toy.top, toy.leaf)

    class Base:
        def f(self):
            return "base"

    class Sub(Base):
        pass

    tr = ticking_tracer()
    tr.wrap(toy, "top", "top")
    tr.wrap(toy, "leaf", "leaf", kind="counted")
    tr.wrap(Sub, "f", "Sub.f")
    assert Sub().f() == "base" and "f" in vars(Sub)
    tr.restore()
    assert (toy.top, toy.leaf) == originals
    assert "f" not in vars(Sub) and Sub.f is Base.f


def test_missing_names_are_absent_not_errors():
    toy = toy_module()
    tr = ticking_tracer()
    assert not tr.wrap(toy, "solve_stochastic", "gone.solve_stochastic")
    assert not tr.wrap(None, "f", "gone.module")
    s = tr.summary()
    assert s["absent"] == ["gone.module", "gone.solve_stochastic"]
    metrics = trc.layer_metrics(s)
    assert metrics["linalg.solve_s"] == 0 and metrics["grigorchuk.cache_hit_ratio"] == 0


def test_install_on_convreg_restores_every_original():
    regularity = pytest.importorskip("convreg.regularity")
    import workloads

    before = (regularity.convolve, regularity.Measure.__init__, workloads.decide_regular)
    tr = trc.install(trc.Tracer(), workloads)
    assert regularity.convolve is not before[0]
    tr.restore()
    assert (regularity.convolve, regularity.Measure.__init__, workloads.decide_regular) == before
