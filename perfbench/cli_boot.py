"""Run one ``convreg`` CLI command under the tracer and report its phases.

    python3 perfbench/cli_boot.py REPORT.json <convreg cli arguments>

Stands in for ``python -m convreg.cli`` in a traced cli-cold run.  The clock
is ``time.perf_counter`` (system-wide monotonic on Linux), so the caller can
subtract its own spawn time from ``boot``.  The tracer is imported only after
``convreg.cli`` so that ``imported - boot`` is the package import alone.
"""

import time

BOOT = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import convreg.cli  # noqa: E402

IMPORTED = time.perf_counter()

import tracer as trc  # noqa: E402


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    tr = trc.install(trc.Tracer(), convreg.cli)
    start = time.perf_counter()
    try:
        code = convreg.cli.main(argv)
    finally:
        end = time.perf_counter()
        tr.restore()
    spans = [[tr.span_name[i], tr.span_parent[i], tr.span_start[i], tr.span_end[i]]
             for i in range(len(tr.span_start))]
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"boot": BOOT, "imported": IMPORTED, "main_start": start, "main_end": end,
                   "summary": tr.summary(), "names": tr.names, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
