"""Command-line front end.

Three subcommands: ``analyze`` (full report, exit code encodes the
verdict), ``spectrum`` (eigenvalues only), and ``gen`` (print a family's
edge list, composable with ``analyze -`` through a pipe).

Exit codes follow the BSD sysexits convention for errors and encode the
verdict on success:

    0   distance_regular
    1   not_distance_regular
    2   inconclusive
    64  unusable input: an unknown or abbreviated flag, a bad edge list or
        family, no input source or both an edge list and --gen
    65  the graph is not connected
    70  internal failure: an InternalCheckError (a failed eigendecomposition
        certificate, a misclustered spectrum, a violated invariant), or any
        other unexpected exception (LAPACK non-convergence, a JSON value
        that is not finite)
"""

from __future__ import annotations

import argparse
import functools
import sys

from .eigen import (
    InternalCheckError,
    cluster_spectrum,
    eigenvalues_sym,
    phi_products,
)
from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphInputError,
    format_edge_list,
    generate,
    laplacian_matrix,
    parse_edge_list,
    parse_integer,
)
from .report import (
    build_document,
    dumps,
    render_spectrum_text,
    render_text,
    spectrum_document,
)
from .theorem import Verdict, analyze

EXIT_USAGE = 64
EXIT_DISCONNECTED = 65
EXIT_INTERNAL = 70

_VERDICT_EXIT = {
    Verdict.DISTANCE_REGULAR: 0,
    Verdict.NOT_DISTANCE_REGULAR: 1,
    Verdict.INCONCLUSIVE: 2,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage, but this CLI reserves 2
    for the inconclusive verdict; usage errors exit 64 instead.

    argparse also hands a subcommand's unknown arguments up to the top
    level, which refuses them with its own usage.  Each subcommand's parser
    runs through parse_known_args, so refusing leftovers there names the
    parser they were given to: ``lapexcess analyze: error: ...``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and then reused:
    # parse_args keeps no state between calls, and building the tree is a
    # large share of the verdict time on a small graph.
    # allow_abbrev=False everywhere: a prefix such as --js must not be
    # read as whichever option it happens to match
    parser = _Parser(
        prog="lapexcess",
        allow_abbrev=False,
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

    p_analyze = sub.add_parser(
        "analyze",
        help="full distance-regularity report; exit code encodes the verdict",
        allow_abbrev=False,
    )
    add_input_options(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_spectrum = sub.add_parser(
        "spectrum",
        help="raw and clustered Laplacian spectrum only",
        allow_abbrev=False,
    )
    add_input_options(p_spectrum)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_gen = sub.add_parser(
        "gen", help="print a graph family as an edge list", allow_abbrev=False
    )
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
    integer parameters, each read by ``graphs.parse_integer``.  Each part
    is trimmed of ASCII spaces and tabs only, as the edge-list reader
    separates tokens."""
    name, sep, rest = spec.partition(":")
    tokens = [token.strip(" \t") for token in rest.replace(",", ":").split(":")] if sep else []
    params = tuple(map(parse_integer, tokens))
    if None in params:
        token = tokens[params.index(None)]
        raise GraphInputError(f"bad integer parameter {token!r} in family spec {spec!r}")
    return name.strip(" \t"), params


def _load_graph(args) -> Graph:
    if args.gen is not None and args.input is not None:
        raise GraphInputError("give an edge-list input or --gen, not both")
    if args.gen is not None:
        family, params = _parse_family_spec(args.gen)
        return generate(family, params)
    if args.input is None:
        raise GraphInputError("no input: give an edge-list path, '-' for stdin, or --gen")
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if args.input == "-" else args.input
        raise GraphInputError(f"cannot read {source}: {exc}") from exc
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    analysis = analyze(g)
    doc = build_document(analysis)
    sys.stdout.write(dumps(doc) + "\n" if args.json else render_text(doc))
    return _VERDICT_EXIT[analysis.verdict]


def _cmd_spectrum(args) -> int:
    # Runs the eigensolver, the clustering and the phi products alone, so a
    # failure in a later stage of analyze does not stop it; a failure in
    # one of these three still exits 70.
    g = _load_graph(args)
    raw, _ = eigenvalues_sym(laplacian_matrix(g))
    spectrum = cluster_spectrum(raw)
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
    except DisconnectedGraphError as exc:
        print(f"lapexcess: error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except GraphInputError as exc:
        print(f"lapexcess: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
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
