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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .bruteforce import brute_force_ginverse, candidate_universe
from .errors import ConvregError
from .groups import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_ORDER_CAP,
    Group,
    GroupElement,
    _naturals,
    closure,
    load_group,
)
from .measures import Measure, format_weight, load_measure, measure_to_json, uniform_on
from .regularity import Verdict, decide_regular, probe_uniform_subsets

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_REGULAR = 2
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE


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


def _load_group(path: str) -> Group:
    return load_group(_read(path))


def _parse_elements(group: Group, texts: Sequence[str]) -> list[GroupElement]:
    return [group.parse_element(t) for t in texts]


def _format_measure(mu: Measure) -> str:
    return "  ".join(f"{el}={format_weight(w)}" for el, w in mu.atoms)


def _print_verdict(verdict: Verdict) -> None:
    print(f"status: {verdict.status}")
    print(f"reason: {verdict.reason}")
    print(f"subject: {_format_measure(verdict.subject)}")
    cert = verdict.certificate
    if cert is not None:
        print(f"ginverse: {_format_measure(cert.ginverse)}")
        print(f"moore-penrose: {_format_measure(cert.moore_penrose)}")
        if cert.normalization is not None:
            left, right = cert.normalization
            print(f"normalization: left={left} right={right}")
        print("checks: " + ", ".join(k for k, v in cert.checks.items() if v))
    if verdict.detail:
        print(f"detail: {verdict.detail}")


def _verdict_command(verdict: Verdict, args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(verdict.to_json_dict(), indent=2))
    else:
        _print_verdict(verdict)
    return EXIT_OK if verdict.status == "regular" else EXIT_NOT_REGULAR


def _cmd_check(args: argparse.Namespace) -> int:
    group = _load_group(args.group)
    mu = load_measure(_read(args.measure), group)
    return _verdict_command(decide_regular(mu), args)


def _cmd_uniform(args: argparse.Namespace) -> int:
    group = _load_group(args.group)
    mu = uniform_on(group, _parse_elements(group, args.elements))
    return _verdict_command(decide_regular(mu), args)


def _cmd_ginverse(args: argparse.Namespace) -> int:
    group = _load_group(args.group)
    mu = load_measure(_read(args.measure), group)
    universe = candidate_universe(mu)
    nu = brute_force_ginverse(mu, args.max_denominator, universe)
    if args.json:
        print(
            json.dumps(
                {
                    "found": nu is not None,
                    "max_denominator": args.max_denominator,
                    "universe": [str(el) for el in universe],
                    "ginverse": measure_to_json(nu) if nu is not None else None,
                },
                indent=2,
            )
        )
    elif nu is None:
        print(
            "no generalized inverse on the candidate universe with "
            f"denominator <= {args.max_denominator}"
        )
    else:
        print(f"ginverse: {_format_measure(nu)}")
    return EXIT_OK if nu is not None else EXIT_NOT_REGULAR


def _cmd_closure(args: argparse.Namespace) -> int:
    group = _load_group(args.group)
    gens = _parse_elements(group, args.elements)
    elements = closure(group, gens, cap=args.max)
    if args.json:
        print(
            json.dumps(
                {"count": len(elements), "elements": [str(el) for el in elements]},
                indent=2,
            )
        )
    else:
        print(f"{len(elements)} elements")
        for el in elements:
            print(str(el))
    return EXIT_OK


def _cmd_order(args: argparse.Namespace) -> int:
    group = _load_group(args.group)
    el = group.parse_element(args.element)
    n = el.order(cap=args.order_cap)
    if args.json:
        print(json.dumps({"element": str(el), "order": n}, indent=2))
    else:
        print(f"order({el}) = {n}")
    return EXIT_OK


def _cmd_probe(args: argparse.Namespace) -> int:
    group = _load_group(args.group)
    report = probe_uniform_subsets(group, args.max_set_size, cap=args.max)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return EXIT_OK
    print(f"backend: {report.backend}")
    print(f"group order: {report.group_order}")
    print(f"max subset size: {report.max_subset_size}")
    for case in report.cases:
        subset = "{" + ", ".join(str(el) for el in case.subset) + "}"
        closed = "closed" if case.support_closed else "not-closed"
        print(f"  subset {subset}: support {closed}, {case.status} ({case.reason})")
    print(
        f"summary: {len(report.cases)} cases, {report.regular_count} regular, "
        f"{report.closed_count} support-closed, "
        f"regular iff support-closed: {'yes' if report.regular_iff_support_closed else 'no'}"
    )
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="convreg",
        description=(
            "Exact-arithmetic regularity of finitely supported probability "
            "measures under convolution."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="decide regularity of a measure file")
    p.add_argument("group", help="group file")
    p.add_argument("measure", help="measure file")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ginverse", help="grid-search a generalized inverse")
    p.add_argument("group", help="group file")
    p.add_argument("measure", help="measure file")
    p.add_argument(
        "--max-denominator",
        type=_int_at_least(1),
        default=8,
        metavar="D",
        help="largest candidate weight denominator (default 8)",
    )
    common(p)
    p.set_defaults(func=_cmd_ginverse)

    p = sub.add_parser("uniform", help="decide the uniform measure on {e} plus arguments")
    p.add_argument("group", help="group file")
    p.add_argument("elements", nargs="+", metavar="element")
    common(p)
    p.set_defaults(func=_cmd_uniform)

    p = sub.add_parser("closure", help="enumerate the subgroup generated by elements")
    p.add_argument("group", help="group file")
    p.add_argument("elements", nargs="+", metavar="element")
    p.add_argument(
        "--max",
        type=_int_at_least(1),
        default=DEFAULT_CLOSURE_CAP,
        metavar="N",
        help=f"enumeration budget (default {DEFAULT_CLOSURE_CAP})",
    )
    common(p)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("order", help="order of one element")
    p.add_argument("group", help="group file")
    p.add_argument("element")
    p.add_argument(
        "--order-cap",
        type=_int_at_least(1),
        default=DEFAULT_ORDER_CAP,
        metavar="K",
        help=f"largest exponent tried (default {DEFAULT_ORDER_CAP})",
    )
    common(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("probe", help="survey uniform measures on all small subsets")
    p.add_argument("group", help="group file")
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
    common(p)
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse handles --help and usage errors
            code = int(exc.code or 0)
        else:
            code = args.func(args)
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
