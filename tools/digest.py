"""Byte-identity digest of the command-line output.

Runs ``lapexcess.cli.main`` in this process over a fixed set of inputs and
hashes the exit code, stdout and stderr of every call.  Two checkouts whose
digests agree produce the same bytes on these inputs, so a refactor that
claims "same output" can be checked by running this script on both:

    PYTHONPATH=src python tools/digest.py            # every spec
    PYTHONPATH=src python tools/digest.py petersen   # a subset

Specs:

* ``atlas``: ``analyze - --json``, ``analyze -`` and ``spectrum - --json``
  on the edge-list text of each of the 996 connected graphs of the networkx
  graph atlas (n <= 7; networkx comes with the test extra);
* ``cycle:128``, ``path:128``, ``hypercube:6``, ``petersen``,
  ``complete:6``, ``complete_bipartite:3:4``, ``star:5``: ``analyze`` and
  ``spectrum`` on ``--gen SPEC``, each with and without ``--json``;
* ``errors``: the failure paths that options and input reach, one call
  each: ``analyze --gen path:4 --tol-eq 0.5`` (an unknown option, exit
  64), ``analyze -`` on a malformed line (exit 64) and on a disconnected
  edge list (exit 65);
* ``inputs``: every input refusal of ``analyze``, one call each.  Ten of
  the malformed texts of ``tests/test_graphs.py::test_parse_rejects_malformed``
  on stdin, ``n 0`` and ``n 2``/``0 5`` among them, which ``Graph``
  refuses; ``--gen`` with an unknown family, a wrong arity, a non-integer
  parameter and ``path:0``; a missing file; a file together with
  ``--gen``; no input at all; and on ``--gen petersen``, the unknown
  options ``--tol-eq 1e-300``, ``--tol-eq 1`` and ``--tol-eig 1e-8``, and
  the abbreviation ``--tol 1e-6``; last, ``1_0`` as an endpoint on stdin
  and ``--gen path:+4``, which ``int()`` would read but the integer rule
  refuses (23 calls in all);
* ``gen``: the edge list ``gen`` prints for each family, the bytes that
  ``gen SPEC | analyze -`` reads, and ``analyze -`` on an edge list with a
  comment line, a blank line and a trailing comment.

Prints one line per spec (its SHA-256 and the number of calls) and a last
line with the SHA-256 over all of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from lapexcess import cli
from lapexcess.graphs import Graph, format_edge_list

GENERATED = (
    "cycle:128", "path:128", "hypercube:6", "petersen",
    "complete:6", "complete_bipartite:3:4", "star:5",
)
SPECS = ("atlas",) + GENERATED + ("errors", "inputs", "gen")
ATLAS_ARGVS = (["analyze", "-", "--json"], ["analyze", "-"], ["spectrum", "-", "--json"])
ERRORS = (
    (["analyze", "--gen", "path:4", "--tol-eq", "0.5"], ""),
    (["analyze", "-"], "0 zero\n"),
    (["analyze", "-"], "0 1\n2 3\n"),
)
MALFORMED = (
    "", "0\n", "0 1 2\n", "x y\n", "0 -1\n", "3 3\n",
    "n\n0 1\n", "n two\n0 1\n", "n 0\n", "n 2\n0 5\n",
)
# a relative path that no checkout contains, so the refusal reads the same
MISSING = "no-such-dir/graph.txt"
INPUTS = tuple((["analyze", "-"], text) for text in MALFORMED) + tuple(
    (argv, "")
    for argv in (
        ["analyze", "--gen", "nosuch:3"],
        ["analyze", "--gen", "path:3:4"],
        ["analyze", "--gen", "path:x"],
        ["analyze", "--gen", "path:0"],
        ["analyze", MISSING],
        ["analyze", MISSING, "--gen", "path:4"],
        ["analyze"],
        ["analyze", "--gen", "petersen", "--tol-eq", "1e-300"],
        ["analyze", "--gen", "petersen", "--tol-eq", "1"],
        ["analyze", "--gen", "petersen", "--tol-eig", "1e-8"],
        ["analyze", "--gen", "petersen", "--tol", "1e-6"],
    )
) + (
    # integers that int() would read but the integer rule refuses
    (["analyze", "-"], "0 1\n1 1_0\n"),
    (["analyze", "--gen", "path:+4"], ""),
)

# both spellings of a two-parameter spec, and every family
GEN = (
    "path:4", "cycle:5", "complete:4", "complete_bipartite:2:3",
    "complete_bipartite:2,3", "star:3", "petersen", "hypercube:3",
)
COMMENTED = "# the 4-cycle\n0 1\n1 2\n\n2 3  # a trailing comment\n0 3\n"


def atlas_texts() -> list:
    """Edge-list text of every connected atlas graph, vertices renumbered
    0..n-1 in sorted order."""
    import networkx as nx

    texts = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 1 or not nx.is_connected(g):
            continue
        index = {node: i for i, node in enumerate(sorted(g.nodes()))}
        edges = [(index[u], index[v]) for u, v in g.edges()]
        texts.append(format_edge_list(Graph(n, edges)))
    return texts


def calls(spec: str):
    """(argv, stdin text) for every call of one spec."""
    if spec == "atlas":
        for text in atlas_texts():
            for argv in ATLAS_ARGVS:
                yield argv, text
        return
    if spec == "errors":
        yield from ERRORS
        return
    if spec == "inputs":
        yield from INPUTS
        return
    if spec == "gen":
        for family in GEN:
            yield ["gen", family], ""
        yield ["analyze", "-"], COMMENTED
        return
    for command in ("analyze", "spectrum"):
        for extra in ([], ["--json"]):
            yield [command, "--gen", spec, *extra], ""


def record(argv, text) -> bytes:
    """Length-prefixed argv, exit code, stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    parts = [" ".join(argv), str(code), out.getvalue(), err.getvalue()]
    return b"".join(b"%d:%s" % (len(p.encode()), p.encode()) for p in parts)


def main(argv=None) -> int:
    specs = (argv if argv is not None else sys.argv[1:]) or list(SPECS)
    unknown = [s for s in specs if s not in SPECS]
    if unknown:
        print(f"unknown spec(s) {unknown}; known: {', '.join(SPECS)}", file=sys.stderr)
        return 64
    whole = hashlib.sha256()
    for spec in specs:
        h = hashlib.sha256()
        count = 0
        for call_argv, text in calls(spec):
            h.update(record(call_argv, text))
            count += 1
        whole.update(h.digest())
        print(f"{spec:12s} {h.hexdigest()}  ({count} calls)")
    print(f"{'all':12s} {whole.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
