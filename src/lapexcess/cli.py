"""Command-line front end.

Three subcommands: ``analyze`` (full report, exit code encodes the
verdict), ``spectrum`` (eigenvalues only), and ``gen`` (print a family's
edge list, composable with ``analyze -`` through a pipe).

Exit codes follow the BSD sysexits convention for errors and encode the
verdict on success:

    0   distance_regular
    1   not_distance_regular
    2   inconclusive
    64  unusable input: bad flags, malformed edge list, unknown family
    65  the graph is not connected
    70  internal failure: a misclustered spectrum, a violated invariant,
        or any other unexpected exception (LAPACK non-convergence, a
        non-finite value refused by the JSON writer)
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .eigen import (
    DEFAULT_CLUSTER_TOL,
    SpectrumClusterError,
    cluster_spectrum,
    eigenvalues_sym,
    phi_products,
)
from .graphs import (
    DisconnectedGraphError,
    EdgeListError,
    Graph,
    GraphInputError,
    format_edge_list,
    generate,
    laplacian_matrix,
    parse_edge_list,
)
from .orthopoly import OrthopolyBreakdownError
from .report import (
    build_document,
    dumps,
    render_spectrum_text,
    render_text,
    spectrum_document,
)
from .theorem import (
    DEFAULT_EQUALITY_TOL,
    InternalCheckError,
    MisclusteredSpectrumError,
    Verdict,
    analyze,
)

EXIT_USAGE = 64
EXIT_DISCONNECTED = 65
EXIT_INTERNAL = 70

_VERDICT_EXIT = {
    Verdict.DISTANCE_REGULAR: 0,
    Verdict.NOT_DISTANCE_REGULAR: 1,
    Verdict.INCONCLUSIVE: 2,
}


class _UsageError(Exception):
    """Command-line misuse detected after argparse (e.g. no input given)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage, but this CLI reserves 2
    for the inconclusive verdict; usage errors exit 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError("tolerance must be a positive finite number")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and then reused:
    # parse_args keeps no state between calls, and building the tree is a
    # large share of the verdict time on a small graph.
    parser = _Parser(
        prog="lapexcess",
        description=(
            "Decide whether a connected graph is distance-regular by "
            "comparing its average excess with the spectral excess of its "
            "Laplacian spectrum."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_input_options(p):
        p.add_argument(
            "input",
            nargs="?",
            default=None,
            metavar="EDGELIST",
            help="edge-list file, or '-' for stdin",
        )
        p.add_argument(
            "--gen",
            metavar="FAMILY[:P1:P2]",
            help=(
                "generate a named family instead of reading input "
                "(e.g. path:4, petersen, complete_bipartite:2:3)"
            ),
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="emit the JSON document instead of text",
        )
        p.add_argument(
            "--tol-eig",
            type=_positive_float,
            default=DEFAULT_CLUSTER_TOL,
            metavar="REL",
            help=(
                "eigenvalue clustering tolerance, relative to the spectral "
                "radius (default %(default)g)"
            ),
        )

    p_analyze = sub.add_parser(
        "analyze",
        help="full distance-regularity report; exit code encodes the verdict",
    )
    add_input_options(p_analyze)
    p_analyze.add_argument(
        "--tol-eq",
        type=_positive_float,
        default=DEFAULT_EQUALITY_TOL,
        metavar="REL",
        help=(
            "excess equality tolerance, relative to the spectral excess "
            "(default %(default)g)"
        ),
    )
    p_analyze.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the combinatorial intersection-number cross-check",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_spectrum = sub.add_parser(
        "spectrum",
        help="raw and clustered Laplacian spectrum only",
    )
    add_input_options(p_spectrum)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_gen = sub.add_parser("gen", help="print a graph family as an edge list")
    p_gen.add_argument(
        "family",
        metavar="FAMILY[:P1:P2]",
        help="family name with colon-separated integer parameters",
    )
    p_gen.set_defaults(func=_cmd_gen)
    return parser


# ---------------------------------------------------------------------------
# Input resolution
# ---------------------------------------------------------------------------

def _parse_family_spec(spec: str):
    """Split 'name:p1:p2' (or 'name:p1,p2') into the family name and
    integer parameters."""
    name, sep, rest = spec.partition(":")
    params = []
    if sep:
        for token in rest.replace(",", ":").split(":"):
            token = token.strip()
            try:
                params.append(int(token))
            except ValueError:
                raise GraphInputError(
                    f"bad integer parameter {token!r} in family spec {spec!r}"
                ) from None
    return name.strip(), tuple(params)


def _load_graph(args) -> Graph:
    if args.gen is not None and args.input is not None:
        raise _UsageError("give an edge-list input or --gen, not both")
    if args.gen is not None:
        family, params = _parse_family_spec(args.gen)
        return generate(family, params)
    if args.input is None:
        raise _UsageError("no input: give an edge-list path, '-' for stdin, or --gen")
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if args.input == "-" else args.input
        raise EdgeListError(f"cannot read {source}: {exc}") from exc
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    analysis = analyze(
        g,
        tol_eig=args.tol_eig,
        tol_eq=args.tol_eq,
        run_oracle=not args.no_oracle,
    )
    doc = build_document(analysis)
    sys.stdout.write(dumps(doc) + "\n" if args.json else render_text(doc))
    return _VERDICT_EXIT[analysis.verdict]


def _cmd_spectrum(args) -> int:
    # Deliberately stops after clustering so the spectrum stays inspectable
    # even when a later pipeline stage would fail.
    g = _load_graph(args)
    raw = eigenvalues_sym(laplacian_matrix(g))
    spectrum = cluster_spectrum(raw, args.tol_eig)
    doc = spectrum_document(g, raw, spectrum, phi_products(spectrum))
    sys.stdout.write(dumps(doc) + "\n" if args.json else render_spectrum_text(doc))
    return 0


def _cmd_gen(args) -> int:
    family, params = _parse_family_spec(args.family)
    sys.stdout.write(format_edge_list(generate(family, params)))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"lapexcess: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DisconnectedGraphError as exc:
        print(f"lapexcess: error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except GraphInputError as exc:
        print(f"lapexcess: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        SpectrumClusterError,
        OrthopolyBreakdownError,
        MisclusteredSpectrumError,
        InternalCheckError,
    ) as exc:
        print(f"lapexcess: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # Anything else (a warning raised as an error, MemoryError,
        # LinAlgError from the eigensolver, a non-finite value refused by
        # the JSON writer) must not escape as status 1, which means "not
        # distance-regular".
        print(
            f"lapexcess: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
