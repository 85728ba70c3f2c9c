"""Command-line interface.

Subcommands::

    convreg check    GROUPFILE MEASUREFILE   decide regularity, print verdict
    convreg ginverse GROUPFILE MEASUREFILE   grid-search a generalized inverse
    convreg uniform  GROUPFILE ELEMENT...    decide the uniform measure on {e} ∪ args
    convreg closure  GROUPFILE ELEMENT...    enumerate the generated subgroup
    convreg order    GROUPFILE ELEMENT       order of one element
    convreg probe    GROUPFILE               survey uniform measures on small subsets

Exit codes: 0 regular (or plain success), 2 not-regular (or no inverse found
in the searched grid), 1 any error, 141 (128 + SIGPIPE) when the reader of
standard output closed it early.  Verdicts and reports go to standard output;
diagnostics go to standard error and never depend on the verdict.

:func:`main` loads the group file once and passes the group to the command.
Each command returns its exit code, its ``--json`` object and its text lines,
and ``main`` alone prints one or the other.  One helper in
:func:`_build_parser` declares every subcommand with its ``group`` argument,
its ``--json`` flag and its command.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, Iterator, Sequence

from .bruteforce import brute_force_ginverse, candidate_universe
from .errors import ConvregError
from .groups import DEFAULT_CLOSURE_CAP, DEFAULT_ORDER_CAP, Group, _naturals, closure, load_group
from .measures import Measure, format_weight, load_measure, measure_to_json, uniform_on
from .regularity import Verdict, decide_regular, probe_uniform_subsets

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_REGULAR = 2
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE

# What a command hands to main: its exit code, its --json object and its text lines.
_Output = tuple[int, dict, list[str]]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 means not-regular here, so remap."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"error: {message}\n")


def _int_at_least(low: int):
    """An argparse ``type`` for integers >= ``low``; rejections become usage errors.

    A leading ``-`` is read, so that a negative value is named as below ``low``.
    """

    def parse(text: str) -> int:
        digits = _naturals(text.removeprefix("-"))
        if digits is None:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        value = -digits[0] if text.startswith("-") else digits[0]
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _read(path: str) -> str:
    # A non-ASCII byte decodes to a lone surrogate, which the parser's
    # content_lines rejects as a ParseError naming its line.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return fh.read()


def _format_measure(mu: Measure) -> str:
    return "  ".join(f"{el}={format_weight(w)}" for el, w in mu.atoms)


def _verdict(verdict: Verdict) -> _Output:
    lines = [
        f"status: {verdict.status}",
        f"reason: {verdict.reason}",
        f"subject: {_format_measure(verdict.subject)}",
    ]
    cert = verdict.certificate
    if cert is not None:
        lines.append(f"ginverse: {_format_measure(cert.ginverse)}")
        lines.append(f"moore-penrose: {_format_measure(cert.moore_penrose)}")
        if cert.normalization is not None:
            left, right = cert.normalization
            lines.append(f"normalization: left={left} right={right}")
        lines.append("checks: " + ", ".join(k for k, v in cert.checks.items() if v))
    if verdict.detail:
        lines.append(f"detail: {verdict.detail}")
    code = EXIT_OK if verdict.status == "regular" else EXIT_NOT_REGULAR
    return code, verdict.to_json_dict(), lines


def _cmd_check(group: Group, args: argparse.Namespace) -> _Output:
    return _verdict(decide_regular(load_measure(_read(args.measure), group)))


def _cmd_uniform(group: Group, args: argparse.Namespace) -> _Output:
    elements = [group.parse_element(t) for t in args.elements]
    return _verdict(decide_regular(uniform_on(group, elements)))


def _cmd_ginverse(group: Group, args: argparse.Namespace) -> _Output:
    mu = load_measure(_read(args.measure), group)
    universe = candidate_universe(mu)
    nu = brute_force_ginverse(mu, args.max_denominator, universe)
    obj = {
        "found": nu is not None,
        "max_denominator": args.max_denominator,
        "universe": [str(el) for el in universe],
        "ginverse": measure_to_json(nu) if nu is not None else None,
    }
    if nu is None:
        line = (
            "no generalized inverse on the candidate universe with "
            f"denominator <= {args.max_denominator}"
        )
        return EXIT_NOT_REGULAR, obj, [line]
    return EXIT_OK, obj, [f"ginverse: {_format_measure(nu)}"]


def _cmd_closure(group: Group, args: argparse.Namespace) -> _Output:
    gens = [group.parse_element(t) for t in args.elements]
    elements = [str(el) for el in closure(group, gens, cap=args.max)]
    obj = {"count": len(elements), "elements": elements}
    return EXIT_OK, obj, [f"{len(elements)} elements", *elements]


def _cmd_order(group: Group, args: argparse.Namespace) -> _Output:
    el = group.parse_element(args.element)
    n = el.order(cap=args.order_cap)
    return EXIT_OK, {"element": str(el), "order": n}, [f"order({el}) = {n}"]


def _cmd_probe(group: Group, args: argparse.Namespace) -> _Output:
    report = probe_uniform_subsets(group, args.max_set_size, cap=args.max)
    lines = [
        f"backend: {report.backend}",
        f"group order: {report.group_order}",
        f"max subset size: {report.max_subset_size}",
    ]
    for case in report.cases:
        subset = "{" + ", ".join(str(el) for el in case.subset) + "}"
        closed = "closed" if case.support_closed else "not-closed"
        lines.append(f"  subset {subset}: support {closed}, {case.status} ({case.reason})")
    lines.append(
        f"summary: {len(report.cases)} cases, {report.regular_count} regular, "
        f"{report.closed_count} support-closed, "
        f"regular iff support-closed: {'yes' if report.regular_iff_support_closed else 'no'}"
    )
    return EXIT_OK, report.to_json_dict(), lines


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="convreg",
        description=(
            "Exact-arithmetic regularity of finitely supported probability "
            "measures under convolution."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    @contextlib.contextmanager
    def command(name: str, func: Callable[..., _Output], help: str) -> Iterator[_Parser]:
        # The body of the ``with`` adds the command's own arguments, so that
        # they sit between ``group`` and ``--json`` in usage and help.
        p = sub.add_parser(name, help=help)
        p.add_argument("group", help="group file")
        yield p
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)

    with command("check", _cmd_check, "decide regularity of a measure file") as p:
        p.add_argument("measure", help="measure file")

    with command("ginverse", _cmd_ginverse, "grid-search a generalized inverse") as p:
        p.add_argument("measure", help="measure file")
        p.add_argument(
            "--max-denominator",
            type=_int_at_least(1),
            default=8,
            metavar="D",
            help="largest candidate weight denominator (default 8)",
        )

    with command("uniform", _cmd_uniform, "decide the uniform measure on {e} plus arguments") as p:
        p.add_argument("elements", nargs="+", metavar="element")

    with command("closure", _cmd_closure, "enumerate the subgroup generated by elements") as p:
        p.add_argument("elements", nargs="+", metavar="element")
        p.add_argument(
            "--max",
            type=_int_at_least(1),
            default=DEFAULT_CLOSURE_CAP,
            metavar="N",
            help=f"enumeration budget (default {DEFAULT_CLOSURE_CAP})",
        )

    with command("order", _cmd_order, "order of one element") as p:
        p.add_argument("element")
        p.add_argument(
            "--order-cap",
            type=_int_at_least(1),
            default=DEFAULT_ORDER_CAP,
            metavar="K",
            help=f"largest exponent tried (default {DEFAULT_ORDER_CAP})",
        )

    with command("probe", _cmd_probe, "survey uniform measures on all small subsets") as p:
        p.add_argument(
            "--max-set-size",
            type=_int_at_least(0),
            default=2,
            metavar="K",
            help="largest surveyed subset size (default 2)",
        )
        p.add_argument(
            "--max",
            type=_int_at_least(1),
            default=DEFAULT_CLOSURE_CAP,
            metavar="N",
            help=f"group enumeration budget (default {DEFAULT_CLOSURE_CAP})",
        )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse handles --help and usage errors
            code = int(exc.code or 0)
        else:
            code, obj, lines = args.func(load_group(_read(args.group)), args)
            print(json.dumps(obj, indent=2) if args.json else "\n".join(lines))
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point fd 1 at devnull so the final flush at exit stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ConvregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
