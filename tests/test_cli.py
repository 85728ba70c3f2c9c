"""Command-line behavior: exit codes, report shapes, stream discipline."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from convreg.cli import main

Z2_TEXT = "cayley 2\n0 1\n1 0\n"
Z4_TEXT = "cayley 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"
S3_TEXT = "perm 3\n(0 1)\n(0 1 2)\n"
GRIG_TEXT = "grigorchuk\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return {
        "z2": write("z2.grp", Z2_TEXT),
        "z4": write("z4.grp", Z4_TEXT),
        "s3": write("s3.grp", S3_TEXT),
        "grig": write("grig.grp", GRIG_TEXT),
        "uniform": write("uniform.msr", "0 1/2\n1 1/2\n"),
        "skewed": write("skewed.msr", "0 3/4\n1 1/4\n"),
        "bad_group": write("bad.grp", "cayley 2\n0 1\n0 1\n"),
        "bad_measure": write("bad.msr", "0 1/2\n1 1/3\n"),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_regular_exits_zero(files, capsys):
    code, out, err = run(capsys, "check", files["z2"], files["uniform"])
    assert code == 0
    assert "status: regular" in out
    assert "ginverse: 0=1/1" in out
    assert err == ""


def test_check_not_regular_exits_two(files, capsys):
    code, out, err = run(capsys, "check", files["z2"], files["skewed"])
    assert code == 2
    assert "status: not-regular" in out
    assert "system-infeasible" in out
    assert err == ""


def test_check_malformed_group_exits_one(files, capsys):
    code, out, err = run(capsys, "check", files["bad_group"], files["uniform"])
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_check_bad_measure_reports_line(files, capsys):
    code, _, err = run(capsys, "check", files["z2"], files["bad_measure"])
    assert code == 1
    assert "error:" in err


def test_check_missing_file_exits_one(files, capsys):
    code, _, err = run(capsys, "check", files["z2"], "/nonexistent.msr")
    assert code == 1
    assert "error:" in err


def test_check_json_roundtrips_measures(files, capsys):
    code, out, _ = run(capsys, "check", files["z2"], files["uniform"], "--json")
    assert code == 0
    obj = json.loads(out)
    weights = {atom["element"]: atom["weight"] for atom in obj["subject"]["atoms"]}
    assert Fraction(weights["1"]).denominator == 2
    assert len(obj["ginverse"]["atoms"]) == 1
    assert obj["checks"]["support_closed"] is True


def test_usage_error_exits_one_not_two(files, capsys):
    code, _, err = run(capsys, "definitely-not-a-command")
    assert code == 1
    assert "usage" in err.lower() or "error" in err.lower()


@pytest.mark.parametrize("which", ["z2", "uniform"])
def test_non_ascii_byte_is_a_parse_error(files, capsys, which):
    # A UTF-8 "é" inside a comment on line 2 of either input file.
    path = Path(files[which])
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n# caf\xc3\xa9\n" + rest)
    code, out, err = run(capsys, "check", files["z2"], files["uniform"])
    assert code == 1
    assert out == ""
    assert err == "error: line 2: non-printable or non-ASCII character '\\udcc3'\n"


_PINNED_GROUP_ERRORS = [
    ("empty-group-file", "", "empty group file"),
    ("comment-only-group-file", "# nothing\n", "empty group file"),
    (
        "grigorchuk-extra-token",
        "grigorchuk x\n",
        "line 1: unexpected tokens after 'grigorchuk': 'grigorchuk x'",
    ),
    (
        "grigorchuk-extra-line",
        "grigorchuk\na\n",
        "line 2: unexpected content after 'grigorchuk' header",
    ),
    (
        "unknown-group-kind",
        "free 2\n",
        "line 1: unknown group kind 'free' (expected cayley, perm, or grigorchuk)",
    ),
    ("cayley-header", "cayley\n", "line 1: expected 'cayley <n>' header, got 'cayley'"),
    ("cayley-bad-order", "cayley x\n", "line 1: bad group order 'x'"),
    ("cayley-negative-order", "cayley -1\n", "line 1: bad group order '-1'"),
    ("cayley-row-count", "cayley 2\n0 1\n", "expected 2 table rows, found 1"),
    ("cayley-non-integer", "cayley 2\n0 a\n1 0\n", "line 2: non-integer table entry in '0 a'"),
    ("cayley-row-length", "cayley 2\n0 1 1\n1 0\n", "line 2: expected 2 entries, found 3"),
    ("cayley-empty-table", "cayley 0\n", "empty multiplication table"),
    ("cayley-row-not-permutation", "cayley 2\n0 0\n1 0\n", "row 0 is not a permutation of 0..1"),
    (
        "cayley-identity-column",
        "cayley 3\n0 1 2\n2 0 1\n1 2 0\n",
        "identity axiom fails: table[1][0] = 2",
    ),
    ("perm-header", "perm\n", "line 1: expected 'perm <degree>' header, got 'perm'"),
    ("perm-bad-degree", "perm x\n", "line 1: bad degree 'x'"),
    ("perm-degree-zero", "perm 0\n", "degree must be >= 1, got 0"),
    (
        "cycle-unexpected-character",
        "perm 3\n(0 1)x\n",
        "line 2: unexpected 'x' in cycle notation '(0 1)x'",
    ),
    ("cycle-non-integer", "perm 3\n(0 a)\n", "line 2: non-integer entry in cycle '(0 a)'"),
]

_PINNED_MEASURE_ERRORS = [
    ("measure-one-token", "0 1/2\n1\n", "line 2: expected '<element> <num>/<den>', got '1'"),
    ("measure-bad-element", "0 1/2\n7 1/2\n", "line 2: element index 7 out of range 0..1"),
    # Each line is checked in full (shape, weight, zero, element) before the total.
    ("measure-weight-before-element", "0 1/2\n7 1/x\n", "line 2: bad weight '1/x'"),
    ("measure-zero-before-total", "0 1/2\n1 00/3\n", "line 2: nonpositive weight 0"),
    ("measure-element-before-total", "0 1/3\n1 1/3\n2 1/3\n",
     "line 3: element index 2 out of range 0..1"),
    ("measure-empty", "# no atoms\n", "empty measure file"),
    ("measure-total-below-one", "0 1/2\n1 2/6\n", "weights sum to 5/6, expected 1"),
    ("measure-total-integer", "0 2/2\n1 3/3\n", "weights sum to 2, expected 1"),
]


@pytest.mark.parametrize(
    "group_text, measure_text, extra, code, out, err",
    [
        pytest.param(
            Z4_TEXT,
            "1 1/2\n3 1/2\n",
            [],
            0,
            "status: regular\n"
            "reason: certificate\n"
            "subject: 1=1/2  3=1/2\n"
            "ginverse: 3=1/1\n"
            "moore-penrose: 1=1/2  3=1/2\n"
            "normalization: left=3 right=0\n"
            "checks: support_closed, ginverse_identity, mp_left, mp_right\n",
            "",
            id="normalization-line",
        ),
        pytest.param(
            S3_TEXT,
            None,
            ["(0 1)", "--json"],
            0,
            '{\n  "count": 2,\n  "elements": [\n    "e",\n    "(0 1)"\n  ]\n}\n',
            "",
            id="closure-json",
        ),
        *(
            pytest.param(text, "0 1/2\n1 1/2\n", [], 1, "", f"error: {message}\n", id=name)
            for name, text, message in _PINNED_GROUP_ERRORS
        ),
        *(
            pytest.param(Z2_TEXT, text, [], 1, "", f"error: {message}\n", id=name)
            for name, text, message in _PINNED_MEASURE_ERRORS
        ),
        # A form feed or vertical tab is an error on its line, not a line break.
        pytest.param(
            "cayley 2\f0 1\n1 0\n",
            "0 1/2\v1 1/2\n",
            [],
            1,
            "",
            "error: line 1: non-printable or non-ASCII character '\\x0c'\n",
            id="form-feed-in-group",
        ),
        pytest.param(
            Z2_TEXT,
            "0 1/2\v1 1/2\n",
            [],
            1,
            "",
            "error: line 1: non-printable or non-ASCII character '\\x0b'\n",
            id="vertical-tab-in-measure",
        ),
    ],
)
def test_cli_output_is_pinned(tmp_path, capsys, group_text, measure_text, extra, code, out, err):
    # Literal stdout, stderr and exit code of paths no other test runs.
    # A measure text selects `check`; without one the command is `closure`.
    group, measure = tmp_path / "g.grp", tmp_path / "m.msr"
    group.write_text(group_text)
    if measure_text is None:
        argv = ["closure", str(group)]
    else:
        measure.write_text(measure_text)
        argv = ["check", str(group), str(measure)]
    assert run(capsys, *argv, *extra) == (code, out, err)


# ---------------------------------------------------------------------------
# uniform / ginverse


def test_uniform_subcommand_not_regular(files, capsys):
    code, out, _ = run(capsys, "uniform", files["z4"], "1")
    assert code == 2
    assert "support-not-closed" in out


def test_uniform_subcommand_regular_subgroup(files, capsys):
    code, out, _ = run(capsys, "uniform", files["z4"], "2")
    assert code == 0
    assert "status: regular" in out


def test_ginverse_found(files, capsys):
    code, out, _ = run(capsys, "ginverse", files["z2"], files["uniform"])
    assert code == 0
    assert "ginverse: 0=1/1" in out


def test_ginverse_not_found(files, capsys):
    code, out, _ = run(capsys, "ginverse", files["z2"], files["skewed"], "--max-denominator", "6")
    assert code == 2
    assert "no generalized inverse" in out


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        pytest.param(
            "ginverse", "--max-denominator", "0", "must be >= 1, got 0", id="0-must be >= 1, got 0"
        ),
        pytest.param(
            "ginverse", "--max-denominator", "-3", "must be >= 1, got -3", id="-3-must be >= 1, got -3"
        ),
        pytest.param(
            "ginverse", "--max-denominator", "x", "invalid int value: 'x'", id="x-invalid int value: 'x'"
        ),
        pytest.param("probe", "--max-set-size", "-1", "must be >= 0, got -1", id="probe-max-set-size"),
        pytest.param("probe", "--max", "-2", "must be >= 1, got -2", id="probe-max"),
        pytest.param("closure", "--max", "0", "must be >= 1, got 0", id="closure-max"),
        pytest.param("order", "--order-cap", "-1", "must be >= 1, got -1", id="order-cap"),
    ],
)
def test_ginverse_bad_max_denominator_is_a_usage_error(
    files, capsys, command, option, value, message
):
    positional = {
        "ginverse": [files["z2"], files["uniform"]],
        "probe": [files["z4"]],
        "closure": [files["s3"], "(0 1)"],
        "order": [files["z4"], "1"],
    }[command]
    code, out, err = run(capsys, command, *positional, option, value)
    assert code == 1
    assert out == ""
    assert err.endswith(f"error: argument {option}: {message}\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        # Every integer token is ASCII digits only: no sign, no `_`, no
        # non-ASCII digit, though `int()` accepts all three.
        pytest.param(
            ["check", "z2", "0 1/2\n0_1 1/2\n"],
            "error: line 2: expected an element index, got '0_1'\n",
            id="index-underscore",
        ),
        pytest.param(
            ["check", "z2", "0 1/2\n+1 1/2\n"],
            "error: line 2: expected an element index, got '+1'\n",
            id="index-plus",
        ),
        pytest.param(
            ["order", "z2", "１"],
            "error: expected an element index, got '１'\n",
            id="index-fullwidth",
        ),
        pytest.param(
            ["check", "cayley +2\n0 1\n1 0\n", "0 1/2\n1 1/2\n"],
            "error: line 1: bad group order '+2'\n",
            id="cayley-order-plus",
        ),
        pytest.param(
            ["check", "cayley 2\n0 1\n1 0_0\n", "0 1/2\n1 1/2\n"],
            "error: line 3: non-integer table entry in '1 0_0'\n",
            id="cayley-row-underscore",
        ),
        pytest.param(
            ["closure", "perm +3\n(0 1)\n", "(0 1)"],
            "error: line 1: bad degree '+3'\n",
            id="perm-degree-plus",
        ),
        pytest.param(
            ["closure", "perm 3\n(0 +1)\n", "(0 1)"],
            "error: line 2: non-integer entry in cycle '(0 +1)'\n",
            id="cycle-plus",
        ),
        pytest.param(
            ["closure", "s3", "(0 １)"],
            "error: non-integer entry in cycle '(0 １)'\n",
            id="cycle-fullwidth",
        ),
    ],
)
def test_integer_numerals_are_ascii_digits_only(tmp_path, files, capsys, argv, err):
    # A fixture name picks its file, text with a line break is written to a
    # file, and any other argument is passed as it is.
    paths = []
    for i, text in enumerate(argv[1:3]):
        if text in files:
            paths.append(files[text])
        elif "\n" in text:
            path = tmp_path / f"input{i}"
            path.write_text(text)
            paths.append(str(path))
        else:
            paths.append(text)
    assert run(capsys, argv[0], *paths) == (1, "", err)


def test_integer_option_is_ascii_digits_only(files, capsys):
    code, out, err = run(capsys, "closure", files["z2"], "1", "--max", "1_0")
    assert (code, out) == (1, "")
    assert err.endswith("error: argument --max: invalid int value: '1_0'\n")


def test_ginverse_json(files, capsys):
    code, out, _ = run(capsys, "ginverse", files["z2"], files["uniform"], "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["ginverse"]["atoms"] == [{"element": "0", "weight": "1/1"}]


# ---------------------------------------------------------------------------
# closure / order


def test_closure_lists_generated_subgroup(files, capsys):
    code, out, _ = run(capsys, "closure", files["s3"], "(0 1)", "(0 1 2)")
    assert code == 0
    assert out.splitlines()[0] == "6 elements"
    assert "e" in out.splitlines()[1:]


def test_closure_budget_error(files, capsys):
    code, _, err = run(capsys, "closure", files["grig"], "a", "b", "c", "--max", "40")
    assert code == 1
    assert "error:" in err


def test_perm_degree_over_budget_is_one_error_line(tmp_path, files, capsys):
    group = tmp_path / "huge.grp"
    group.write_text("perm 1000000000\n(0 1)\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(group), files["uniform"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: degree 1000000000 exceeds the budget ")
    assert err.count("\n") == 1


def test_order_on_table_group(files, capsys):
    code, out, _ = run(capsys, "order", files["z4"], "3")
    assert code == 0
    assert out.strip() == "order(3) = 4"


def test_order_on_word_group_matches_backend(files, capsys):
    code, out, _ = run(capsys, "order", files["grig"], "ad", "--json")
    assert code == 0
    obj = json.loads(out)
    from convreg import word_order

    assert obj["order"] == word_order("ad")


def test_order_cap_error(files, capsys):
    code, _, err = run(capsys, "order", files["z4"], "1", "--order-cap", "3")
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# probe


def test_probe_summary(files, capsys):
    code, out, _ = run(capsys, "probe", files["z4"], "--max-set-size", "2")
    assert code == 0
    assert "regular iff support-closed: yes" in out


def test_probe_json(files, capsys):
    code, out, _ = run(capsys, "probe", files["z4"], "--max-set-size", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["case_count"] == 5
    assert obj["summary"]["regular_iff_support_closed"] is True


def test_probe_sizes_beyond_the_group_order_add_no_case(files, capsys):
    # Z2 has subsets of at most 2 elements; a huge size must not loop over
    # the sizes that hold none.
    code, huge, err = run(capsys, "probe", files["z2"], "--max-set-size", "1000000")
    assert (code, err) == (0, "")
    _, exact, _ = run(capsys, "probe", files["z2"], "--max-set-size", "2")
    assert "max subset size: 1000000\n" in huge
    assert huge.replace("max subset size: 1000000\n", "max subset size: 2\n") == exact


def test_probe_on_word_group_is_an_error(files, capsys):
    code, _, err = run(capsys, "probe", files["grig"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "command, unbuffered",
    [
        pytest.param("probe", False, id="buffered"),
        pytest.param("probe", True, id="unbuffered"),
        # argparse prints help itself; unbuffered, it drops the failed write
        # and exits 0, so only the buffered case reaches the final flush.
        pytest.param("help", False, id="help-buffered"),
    ],
)
def test_closed_stdout_exits_quietly_with_sigpipe_code(files, command, unbuffered):
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails with EPIPE; with buffered stdout that write is
    # the flush at the end of the command.
    argv = {
        "probe": ["probe", files["z4"], "--max-set-size", "2", "--json"],
        "help": ["--help"],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "convreg.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


# ---------------------------------------------------------------------------
# help and usage text

_TOP_HELP = """\
usage: convreg [-h] {check,ginverse,uniform,closure,order,probe} ...

Exact-arithmetic regularity of finitely supported probability measures under
convolution.

positional arguments:
  {check,ginverse,uniform,closure,order,probe}
    check               decide regularity of a measure file
    ginverse            grid-search a generalized inverse
    uniform             decide the uniform measure on {e} plus arguments
    closure             enumerate the subgroup generated by elements
    order               order of one element
    probe               survey uniform measures on all small subsets

options:
  -h, --help            show this help message and exit
"""

_USAGE = {
    "check": "usage: convreg check [-h] [--json] group measure\n",
    "ginverse": "usage: convreg ginverse [-h] [--max-denominator D] [--json] group measure\n",
    "uniform": "usage: convreg uniform [-h] [--json] group element [element ...]\n",
    "closure": "usage: convreg closure [-h] [--max N] [--json] group element [element ...]\n",
    "order": "usage: convreg order [-h] [--order-cap K] [--json] group element\n",
    "probe": "usage: convreg probe [-h] [--max-set-size K] [--max N] [--json] group\n",
}

_SUBCOMMAND_HELP = {
    "check": """
positional arguments:
  group       group file
  measure     measure file

options:
  -h, --help  show this help message and exit
  --json      machine-readable output
""",
    "ginverse": """
positional arguments:
  group                group file
  measure              measure file

options:
  -h, --help           show this help message and exit
  --max-denominator D  largest candidate weight denominator (default 8)
  --json               machine-readable output
""",
    "uniform": """
positional arguments:
  group       group file
  element

options:
  -h, --help  show this help message and exit
  --json      machine-readable output
""",
    "closure": """
positional arguments:
  group       group file
  element

options:
  -h, --help  show this help message and exit
  --max N     enumeration budget (default 4096)
  --json      machine-readable output
""",
    "order": """
positional arguments:
  group          group file
  element

options:
  -h, --help     show this help message and exit
  --order-cap K  largest exponent tried (default 65536)
  --json         machine-readable output
""",
    "probe": """
positional arguments:
  group             group file

options:
  -h, --help        show this help message and exit
  --max-set-size K  largest surveyed subset size (default 2)
  --max N           group enumeration budget (default 4096)
  --json            machine-readable output
""",
}


@pytest.mark.parametrize(
    "argv, out",
    [
        pytest.param(["--help"], _TOP_HELP, id="top"),
        *(
            pytest.param([command, "--help"], _USAGE[command] + text, id=command)
            for command, text in _SUBCOMMAND_HELP.items()
        ),
    ],
)
def test_help_text_is_pinned(monkeypatch, capsys, argv, out):
    # argparse wraps to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (0, out, "")


_REQUIRED = {
    "check": "group, measure",
    "ginverse": "group, measure",
    "uniform": "group, element",
    "closure": "group, element",
    "order": "group, element",
    "probe": "group",
}


@pytest.mark.parametrize("command", list(_REQUIRED))
def test_missing_positional_usage_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    err = f"{_USAGE[command]}error: the following arguments are required: {_REQUIRED[command]}\n"
    assert run(capsys, command) == (1, "", err)


@pytest.mark.parametrize(
    "weight, err",
    [
        # A weight is ASCII digits, a slash and ASCII digits, and nothing else,
        # though Fraction() reads every form below but 1/0 as a number.
        *(
            pytest.param(w, f"error: line 2: bad weight {w!r}\n", id=w)
            for w in ["0.5", ".5", "5e-1", "+1/2", "1_0/20", "-1/2", "1", "1/0"]
        ),
        pytest.param("0/5", "error: line 2: nonpositive weight 0\n", id="0/5"),
        # A non-ASCII digit never reaches the weight: its line is rejected first.
        pytest.param(
            "１/2",
            "error: line 2: non-printable or non-ASCII character '\\udcef'\n",
            id="fullwidth",
        ),
    ],
)
def test_weight_is_num_slash_den_only(files, tmp_path, capsys, weight, err):
    measure = tmp_path / "w.msr"
    measure.write_text(f"0 1/2\n1 {weight}\n")
    assert run(capsys, "check", files["z2"], str(measure)) == (1, "", err)
