"""Every narrated walkthrough in demos/, and the README quick start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
QUICK_START = README.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
# Each print line of the quick start ends in a comment that shows its output.
QUICK_START_OUTPUT = [
    line.split("# ", 1)[1] for line in QUICK_START.splitlines() if line.startswith("print(")
]


def test_demos_are_present():
    assert [d.name for d in DEMOS] == [
        "grigorchuk_walk.py",
        "operator_oracle_crosscheck.py",
        "regularity_tour.py",
    ]


@pytest.mark.parametrize(
    "args, output",
    [pytest.param([str(d)], None, id=d.stem) for d in DEMOS]
    + [pytest.param(["-c", QUICK_START], QUICK_START_OUTPUT, id="readme_quick_start")],
)
def test_demo_exits_cleanly(args, output):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    if output is not None:
        assert proc.stdout.splitlines() == output
