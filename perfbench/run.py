"""The convreg benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads, metrics and bounds are listed in
BENCHMARK.json and explained in perfbench/README.md.

Every run starts fresh interpreters under pinned conditions: ``PYTHONPATH``
is the checkout's ``src``, the hash seed is 0, and bytecode goes to a private
``PYTHONPYCACHEPREFIX`` that one warm-up process fills before anything is
timed (``PYTHONDONTWRITEBYTECODE`` is removed, else every process would
recompile the package).

``--trace 0`` runs the workload once in a worker process and prints the
end-to-end metrics.  ``--trace 1`` runs it twice on the same inputs, untraced
then traced, and prints the per-layer metrics; the verdict digests of the two
must agree, and the ratio of their timed phases is ``trace.overhead_ratio``.
The spans of the traced run are written to ``.perfbench_out/``.

The last line of standard output is the result object; the line before it
holds the details (Python version, nproc, verdict digest, failures).  The
exit code is 0 only when every op's verdict and certificate checked out.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170
PROBE_WINDOW_S = 0.1
BYTECODE = "private PYTHONPYCACHEPREFIX, warmed by one process before timing"


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"))
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"over the {DEADLINE_S} s budget")
    return left


def run_worker(args, env, deadline, traced: bool, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", WORK]
    if traced:
        cmd.append("--traced")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker over the {DEADLINE_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ms_p50(samples: list[float]) -> float:
    return 1000 * statistics.median(samples)


def scaled_latencies(r: dict) -> list[float]:
    """Each op's latency at the nominal host speed.

    An op is scaled by the probe's nominal time over the median of the probes
    taken from ``PROBE_WINDOW_S`` before it starts to as long after it ends
    (see ``worker.probe``), which cancels the shared host's slow spells; raw
    wall times stay in the detail line.
    """
    at = [a for a, _ in r["probes"]]
    took = [t for _, t in r["probes"]]
    out = []
    for i, (start, lat) in enumerate(zip(r["start_s"], r["latency_s"])):
        lo = bisect.bisect_left(at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(at, start + lat + PROBE_WINDOW_S)
        window = took[min(lo, i):max(hi, i + 2)]  # always the probes just before and after
        out.append(lat * r["probe_nominal_s"] / statistics.median(window))
    return out


def _latency_metrics(lat: list[float]) -> dict[str, float]:
    return {"ops_per_s": len(lat) / sum(lat), "op_ms_p50": _ms_p50(lat),
            "op_ms_p90": 1000 * statistics.quantiles(lat, n=10)[8]}


def end_to_end(r: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"]) * r["setup_probe_nominal_s"]
        / statistics.median(r["setup_probe_s"]),
        **_latency_metrics(scaled_latencies(r)),
        "ok_frac": (r["attempted"] - r["failed"]) / r["attempted"],
        "peak_rss_mb": r["maxrss_kb"] / 1024,
    }


def raw(r: dict) -> dict[str, float]:
    """Unscaled wall-clock figures and the median probe, for the detail line."""
    return {"setup_s": statistics.median(r["setup_s"]), **_latency_metrics(r["latency_s"]),
            "probe_ms": _ms_p50([t for _, t in r["probes"]])}


def per_layer(base: dict, traced: dict, names: list[str]) -> dict[str, float]:
    values = tracer.layer_metrics(traced["summary"])
    split = traced["cli_split"] or {}
    for name in names:
        if name.startswith("cli."):
            values[name] = statistics.median(split[name]) if name in split else 0.0
    by_size: dict[int, list[float]] = {}
    if base["workload"] in ("finite-ladder", "grigorchuk-dihedral"):
        for size, lat in zip(base["size"], scaled_latencies(base)):
            by_size.setdefault(size, []).append(lat)
    prefix = "regularity.decide_ms_p50.n"
    for name in names:
        if name.startswith(prefix):
            samples = by_size.get(int(name[len(prefix):]))
            values[name] = _ms_p50(samples) if samples else 0.0
    values["trace.overhead_ratio"] = sum(scaled_latencies(traced)) / sum(scaled_latencies(base))
    return {n: values[n] for n in names}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "convreg", "__init__.py")):
        print("perfbench: no src/convreg here; run from the repository root", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    deadline = time.monotonic() + DEADLINE_S
    env = pinned_env()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        subprocess.run([sys.executable, "-c", "import runpy, convreg.cli"], env=env,
                       check=True, capture_output=True, timeout=_remaining(deadline))
        runs = [run_worker(args, env, deadline, traced=False)]
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, f"spans-{args.workload}.jsonl")
            runs.append(run_worker(args, env, deadline, traced=True, spans=spans))
            values = per_layer(runs[0], runs[1], list(units))
        else:
            values = end_to_end(runs[0])
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    digests = {r["digest"] for r in runs}
    correct = all(r["setup_ok"] and r["failed"] == 0 for r in runs) and len(digests) == 1
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": runs[0]["rounds"], "ops": runs[0]["attempted"],
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "bytecode": BYTECODE, "hash_seed": 0, "digest": sorted(digests),
        "setup_s": runs[0]["setup_s"],
        "raw": [raw(r) for r in runs],
        "failures": [f for r in runs for f in r["failures"]],
        "absent": (runs[-1]["summary"] or {}).get("absent", []),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
