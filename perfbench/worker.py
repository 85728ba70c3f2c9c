"""Run one workload in this (fresh) interpreter and print one JSON object.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--traced]
        --work DIR [--spans FILE]

run.py starts this with the pinned environment (``PYTHONPATH=src``, private
bytecode cache, fixed hash seed).  The object holds raw samples (set-up times,
per-op latencies, support sizes), the failure count, the verdict digest and
the process's peak RSS; run.py turns them into metrics.  With ``--traced``
the tracer wraps convreg first and the object adds the trace summary.

Load is a closed loop with one client: each op starts when the previous one
has returned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import model as mdl
import tracer as trc
import workloads as wl

SETUP_REPEATS = 5
CLI_TIMEOUT_S = 60
# probe() and spawn_probe() on a quiet 2-core x86 container, Python 3.11; a
# scaled time reads as if the host ran at this speed.
PROBE_NOMINAL_S = 0.0016
SPAWN_NOMINAL_S = 0.012
HERE = os.path.dirname(os.path.abspath(__file__))


def _atoms(mu) -> list | None:
    if mu is None:
        return None
    return [[str(el), f"{w.numerator}/{w.denominator}"] for el, w in mu.atoms]


def _check_verdict(op: wl.Op, m, verdict) -> tuple[bool, list]:
    """Expected (status, reason), and a certificate that holds in the model."""
    cert = verdict.certificate
    entry = [verdict.status, verdict.reason,
             _atoms(cert.ginverse) if cert else None, _atoms(cert.moore_penrose) if cert else None]
    ok = (verdict.status, verdict.reason) == op.expected
    if op.expected == mdl.REGULAR:
        ok = ok and cert is not None and mdl.certificate_holds(
            m, op.mu, wl.model_measure(m, cert.ginverse.atoms),
            wl.model_measure(m, cert.moore_penrose.atoms))
    else:
        ok = ok and cert is None
    return ok, entry


def check_inprocess(w: wl.Workload, results: list) -> tuple[list[bool], list]:
    oks, entries = [], []
    for op, result in zip(w.ops, results):
        m = w.instances[op.instance].model
        if isinstance(result, BaseException):
            oks.append(False)
            entries.append(["raised", type(result).__name__, str(result)])
            continue
        if w.name == "catalog-oracle":
            verdict, nu = result
            ok, entry = _check_verdict(op, m, verdict)
            found = nu is not None
            ok = ok and found == (op.expected == mdl.REGULAR)
            if found:
                ok = ok and mdl.certificate_holds(m, op.mu, wl.model_measure(m, nu.atoms))
            entry.append(_atoms(nu))
        else:
            ok, entry = _check_verdict(op, m, result)
        oks.append(ok)
        entries.append(entry)
    return oks, entries


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed right now.

    The host is shared, and the same work takes up to 1.5x longer for
    seconds at a time.  run.py scales each op by the probes taken around it,
    so host slowdowns cancel while convreg's own cost does not.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return time.perf_counter() - t0


def spawn_probe() -> float:
    """Seconds to start and end a bare interpreter: process-start speed now.

    A loop does not track how long the host takes to start a process; a CLI
    op is mostly that, so cli-cold ops are scaled by this probe instead.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], capture_output=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0


def run_inprocess(w: wl.Workload, inputs: list):
    op = wl.decide_with_oracle if w.name == "catalog-oracle" else wl.decide
    clock = time.perf_counter
    latencies, starts, probes, results = [], [], [], []
    start = clock()
    for mu in inputs:
        probes.append((clock() - start, probe()))
        t0 = clock()
        try:
            result = op(mu)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = exc
        latencies.append(clock() - t0)
        starts.append(t0 - start)
        results.append(result)
    probes.append((clock() - start, probe()))
    return latencies, starts, probes, results


# ---------------------------------------------------------------------------
# cli-cold


def write_cli_inputs(w: wl.Workload, work: str) -> list[list[str]]:
    """Group and measure files under ``work``; one CLI argument list per op."""
    paths = {}
    for key, inst in w.instances.items():
        paths[key] = os.path.join(work, key.replace("/", "-") + ".group")
        with open(paths[key], "w", encoding="ascii") as fh:
            fh.write(inst.text)
    argvs = []
    for i, op in enumerate(w.ops):
        if op.args is not None:
            argvs.append(["uniform", paths[op.instance], *op.args])
            continue
        path = os.path.join(work, f"op{i}.measure")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(op.text)
        argvs.append(["check", paths[op.instance], path])
    return argvs


def _parse_measure_line(m, text: str) -> dict:
    out = {}
    for atom in text.split("  "):
        el, weight = atom.rsplit("=", 1)
        out[m.parse(el)] = Fraction(weight)
    return out


def check_cli(w: wl.Workload, results: list) -> tuple[list[bool], list]:
    oks, entries = [], []
    for op, (code, out) in zip(w.ops, results):
        m = w.instances[op.instance].model
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        status, reason = fields.get("status"), fields.get("reason")
        entry = [code, status, reason, fields.get("ginverse"), fields.get("moore-penrose")]
        ok = (status, reason) == op.expected and code == (0 if op.expected == mdl.REGULAR else 2)
        if ok and op.expected == mdl.REGULAR:
            try:
                nu = _parse_measure_line(m, fields["ginverse"])
                mp = _parse_measure_line(m, fields["moore-penrose"])
            except (KeyError, ValueError):
                ok = False
            else:
                ok = mdl.certificate_holds(m, op.mu, nu, mp)
        oks.append(ok)
        entries.append(entry)
    return oks, entries


def run_cli(argvs: list[list[str]], traced: bool, work: str, spans: str | None):
    """One CLI process per op; traced ops run through cli_boot.py."""
    clock = time.perf_counter
    latencies, starts, probes, results, boots = [], [], [], [], []
    subprocess.run([sys.executable, "-m", "convreg.cli", *argvs[0]], capture_output=True,
                   timeout=CLI_TIMEOUT_S)  # warm-up: fills the private bytecode cache
    start = clock()
    for i, argv in enumerate(argvs):
        if traced:
            report = os.path.join(work, f"boot{i}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"), report, *argv]
        else:
            cmd = [sys.executable, "-m", "convreg.cli", *argv]
        probes.append((clock() - start, spawn_probe()))
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        t1 = clock()
        latencies.append(t1 - t0)
        starts.append(t0 - start)
        results.append((proc.returncode, proc.stdout))
        if traced:
            with open(report, encoding="utf-8") as fh:
                boot = json.load(fh)
            boot["spawn"] = t0
            boots.append(boot)
    probes.append((clock() - start, spawn_probe()))
    if not traced:
        return latencies, starts, probes, results, None
    summary = trc.merge([b["summary"] for b in boots])
    split = {
        "cli.interpreter_ms": [1000 * (b["boot"] - b["spawn"]) for b in boots],
        "cli.import_ms": [1000 * (b["imported"] - b["boot"]) for b in boots],
        "cli.main_ms": [1000 * (b["main_end"] - b["main_start"]) for b in boots],
    }
    if spans:
        with open(spans, "w", encoding="utf-8") as out:
            for i, b in enumerate(boots):
                out.write(json.dumps({"op": i, "names": b["names"]}) + "\n")
                out.writelines(json.dumps(s) + "\n" for s in b["spans"])
    return latencies, starts, probes, results, (summary, split)


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    w = wl.build(args.workload, args.seed, args.seconds)
    cli = w.name == "cli-cold"
    argvs = write_cli_inputs(w, args.work) if cli else None
    tracer = trc.install(trc.Tracer(), wl) if args.traced and not cli else None

    setup_s, setup_probes = [], []
    for _ in range(1 if args.traced else SETUP_REPEATS):
        setup_probes.append(probe())
        t0 = time.perf_counter()
        groups, orders, inputs = wl.setup(w)
        setup_s.append(time.perf_counter() - t0)

    if tracer is not None:
        # Counts cover the timed pass only: convreg's closure() keeps elements
        # in a set hashed by id(group), so set-up's equality tests vary with
        # memory layout from run to run.
        tracer.counts.clear()

    trace = None
    if cli:
        latencies, starts, probes, results, trace = run_cli(argvs, args.traced, args.work, args.spans)
        oks, entries = check_cli(w, results)
        maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        latencies, starts, probes, results = run_inprocess(w, inputs)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.restore()
            trace = (tracer.summary(), {})
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    tracer.write_spans(fh)
        oks, entries = check_inprocess(w, results)

    setup_ok = orders == wl.expected_orders(w)
    if w.name == "catalog-oracle":
        setup_ok = setup_ok and wl.check_catalog_tables(w, groups) and \
            wl.sweep_counts(w) == (wl.CATALOG_SIZE, wl.CATALOG_OPEN)
    failures = [f"op {i}: {op.instance} {op.kind} n={op.size} expected {op.expected}, got {e}"
                for i, (op, ok, e) in enumerate(zip(w.ops, oks, entries)) if not ok]
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    out = {
        "workload": w.name, "seed": args.seed, "rounds": w.rounds, "setup_ok": setup_ok,
        "setup_s": setup_s, "setup_probe_s": setup_probes,
        "latency_s": latencies, "start_s": starts, "probes": probes,
        "probe_nominal_s": SPAWN_NOMINAL_S if cli else PROBE_NOMINAL_S,
        "setup_probe_nominal_s": PROBE_NOMINAL_S, "size": [op.size for op in w.ops],
        "attempted": len(w.ops), "failed": len(failures),
        "failures": failures[:5], "digest": digest, "maxrss_kb": maxrss_kb,
        "summary": trace[0] if trace else None, "cli_split": trace[1] if trace else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
