"""Command-line front end.

Subcommands expose the series endpoints, the brute-force oracle, and the two
counting operators.  Output is JSON with big integers rendered as decimal
strings; ``--pretty`` switches to a short text rendering.  Exit status is 0
only when the computation succeeded and every requested cross-check passed;
it is 1 for bad input or a failed cross-check and ``EXIT_INVARIANT`` (3) when
an internal invariant fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import GraphError, parse_graph
from .oracle import ORACLE_MAX_LENGTH, OracleBound, element_counts, enumerate_classes
from .pipeline import (
    MAX_VERTICES,
    conj_geodesic_series,
    detect_part1_family,
    geodesic_series,
    part1_crosscheck,
    spherical_conj_series,
    spherical_growth_series,
)
from .series import InvariantError, NonIntegralCoefficient, PowerSeries, neck, rho

EXIT_INVARIANT = 3  # an internal invariant failed; 1 is bad input, 2 is argparse usage
MAX_DEGREE = 5000  # bound on --max-degree, --expand and the --series degree; checked before any work


def _load_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path!r}: {exc}") from None
    graph = parse_graph(text)
    if graph.n_vertices > MAX_VERTICES:
        raise GraphError(f"graph has {graph.n_vertices} vertices, at most {MAX_VERTICES} are allowed")
    return graph


def _parse_series_argument(text: str) -> PowerSeries:
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"series must be a JSON array: {exc}") from None
    if not isinstance(values, list) or not values:
        raise ValueError("series must be a nonempty JSON array of integers")
    if len(values) > MAX_DEGREE + 1:
        raise ValueError(f"--series has {len(values)} coefficients, at most {MAX_DEGREE + 1} "
                         f"(degree {MAX_DEGREE}) are allowed")
    return PowerSeries.from_list(values)


def _emit(doc: dict, pretty: bool):
    if pretty:
        for key, value in doc.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k, v in value.items():
                    print(f"  {k}: {v}")
            else:
                print(f"{key}: {value}")
    else:
        print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _oracle_class_counts(graph, length: int) -> list:
    """Class counts to the longest length up to ``length`` that the oracle's bounds admit."""
    while True:
        try:
            return enumerate_classes(graph, length)
        except OracleBound:
            if length == 0:
                raise
            length -= 1


def _cmd_conj_growth(args) -> int:
    graph = _load_graph(args.graph)
    if args.crosscheck == "oracle":
        # before the series, so a refused length costs no series work
        reference = _oracle_class_counts(graph, min(args.max_degree, 6, ORACLE_MAX_LENGTH))
    report = spherical_conj_series(graph, args.max_degree)
    doc = report.to_json_dict()
    if not args.per_subset:
        doc.pop("per_subset")
    match = True
    if args.crosscheck == "part1":
        family = detect_part1_family(graph)
        if family is None:
            print("crosscheck failed: graph matches no built-in closed-form family", file=sys.stderr)
            return 1
        reference = part1_crosscheck(family, args.max_degree)
        match = reference.coefficients == report.sigma_tilde.coefficients
        doc["crosscheck"] = {"family": family, "series": reference.to_strings(), "match": match}
    elif args.crosscheck == "oracle":
        match = tuple(reference) == report.sigma_tilde.coefficients[: len(reference)]
        doc["crosscheck"] = {"oracle_degree": len(reference) - 1,
                             "class_counts": [str(c) for c in reference], "match": match}
    _emit(doc, args.pretty)
    if not match:
        print("crosscheck failed", file=sys.stderr)
    return 0 if match else 1


# command -> (JSON key of the rational function, endpoint)
_RATIONAL_COMMANDS = {
    "std-growth": ("standard_growth", spherical_growth_series),
    "geo-growth": ("geodesic_growth", geodesic_series),
    "conj-geo-growth": ("conjugacy_geodesic_growth", conj_geodesic_series),
}


def _cmd_rational(args) -> int:
    graph = _load_graph(args.graph)
    key, endpoint = _RATIONAL_COMMANDS[args.command]
    method = getattr(args, "method", None)  # only conj-geo-growth has --method
    rf = endpoint(graph) if method is None else endpoint(graph, method)
    doc = {key: rf.to_json_dict()}
    if method is not None:
        doc["method"] = method
    if args.expand is not None:
        doc["series"] = rf.expand(args.expand).to_strings()
    _emit(doc, args.pretty)
    return 0


def _cmd_oracle(args) -> int:
    graph = _load_graph(args.graph)
    classes = enumerate_classes(graph, args.max_length)
    elements = element_counts(graph, args.max_length)
    _emit(
        {
            "max_length": args.max_length,
            "class_counts": [str(c) for c in classes],
            "element_counts": [str(c) for c in elements],
        },
        args.pretty,
    )
    return 0


_OPERATORS = {"rho": rho, "neck": neck}


def _cmd_operator(args) -> int:
    series = _parse_series_argument(args.series)
    _emit({args.command: _OPERATORS[args.command](series).to_strings()}, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raaggrowth",
        description="Exact growth and conjugacy growth series of right-angled Artin groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, expand=False):
        p.add_argument("--graph", required=True, help="path to a graph JSON file")
        p.add_argument("--pretty", action="store_true", help="text output instead of JSON")
        if expand:
            p.add_argument("--expand", type=int, default=None, metavar="N",
                           help="also expand the series to degree N")

    p = sub.add_parser("conj-growth", help="spherical conjugacy growth series")
    add_common(p)
    p.add_argument("--max-degree", type=int, default=12)
    p.add_argument("--per-subset", action="store_true",
                   help="include the per-block rational functions in the output")
    p.add_argument("--crosscheck", choices=["part1", "oracle"], default=None,
                   help="verify against a closed form or the brute-force oracle")
    p.set_defaults(handler=_cmd_conj_growth)

    p = sub.add_parser("std-growth", help="standard (spherical) growth series")
    add_common(p, expand=True)
    p.set_defaults(handler=_cmd_rational)

    p = sub.add_parser("geo-growth", help="geodesic growth series")
    add_common(p, expand=True)
    p.set_defaults(handler=_cmd_rational)

    p = sub.add_parser("conj-geo-growth", help="conjugacy geodesic growth series")
    add_common(p, expand=True)
    p.add_argument("--method", choices=["direct", "incl-excl"], default="direct")
    p.set_defaults(handler=_cmd_rational)

    p = sub.add_parser("oracle", help="brute-force class and element counts")
    add_common(p)
    p.add_argument("--max-length", type=int, required=True)
    p.set_defaults(handler=_cmd_oracle)

    for name in _OPERATORS:
        p = sub.add_parser(name, help=f"apply the {name} operator to a series")
        p.add_argument("--series", required=True,
                       help="JSON array of integer coefficients, constant term first")
        p.add_argument("--pretty", action="store_true")
        p.set_defaults(handler=_cmd_operator)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag in ("max_degree", "expand"):
        value = getattr(args, flag, None)
        if value is not None and not 0 <= value <= MAX_DEGREE:
            option = "--" + flag.replace("_", "-")
            print(f"error: {option} must be between 0 and {MAX_DEGREE}, got {value}", file=sys.stderr)
            return 1
    try:
        return args.handler(args)
    except (GraphError, OracleBound, NonIntegralCoefficient, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
