"""Every input refusal of the command line, pinned byte for byte.

``ROWS`` is one table of (argv, stdin, exit code, stdout, whole stderr).
``test_refusal`` runs each row through ``cli.main`` in this process, and
CI runs each through the installed ``lapexcess`` command, so a refusal
whose bytes move shows up as the row that changed.  The usage line is
formatted at a fixed width, whatever the terminal, so both run every row
at several values of ``COLUMNS``.

The refusals that need raw bytes or a file of their own, non-UTF-8 input
and a disconnected file, are tests in ``test_cli.py``.
"""

import io
import sys

import pytest

from lapexcess import cli

USAGE = "usage: lapexcess {} [-h] [--gen FAMILY[:P1:P2]] [--json] [EDGELIST]\n"
KNOWN = "complete, complete_bipartite, cycle, hypercube, path, petersen, star"
# a relative path that no checkout contains, so the refusal reads the same
MISSING = "no-such-dir/graph.txt"


def _refused(argv, message, stdin="", code=64):
    return argv, stdin, code, "", f"lapexcess: error: {message}\n"


def _gen(spec, message):
    return _refused(["analyze", "--gen", spec], message)


def _unknown(command, argv, words):
    """An unknown or abbreviated option, refused with the usage of the
    subcommand it follows."""
    err = USAGE.format(command) + f"lapexcess {command}: error: unrecognized arguments: {words}\n"
    return [command, *argv], "", 64, "", err


# the edge-list reader, and Graph behind it, refuse each text with its
# message; tests/test_graphs.py checks that parse_edge_list raises it
EDGE_LISTS = {
    # the edge-list reader names the line
    "": "empty input: no vertices or edges",
    "0\n": "line 1: expected 'u v', got '0'",
    "0 1 2\n": "line 1: expected 'u v', got '0 1 2'",
    "x y\n": "line 1: non-integer vertex in 'x y'",
    "0 zero\n": "line 1: non-integer vertex in '0 zero'",
    "0 -1\n": "line 1: negative vertex index in '0 -1'",
    "3 3\n": "line 1: self-loop at vertex 3",
    "n\n0 1\n": "line 1: malformed vertex-count line 'n'",
    "n two\n0 1\n": "line 1: bad vertex count 'two'",
    # Graph refuses a count below 1 or an endpoint out of range, in its
    # own words
    "n 0\n": "vertex count must be positive, got 0",
    "n -3\n0 1\n": "vertex count must be positive, got -3",
    "n 2\n0 5\n": "edge (0, 5) has an endpoint outside 0..1",
    "n 2\n5 0\n": "edge (5, 0) has an endpoint outside 0..1",
    # int() reads each of these as an integer; the integer rule does not
    "0 1\n1 1_0\n": "line 2: non-integer vertex in '1 1_0'",
    "0 +1\n": "line 1: non-integer vertex in '0 +1'",
    "0 1\n1 ٢\n": "line 2: non-integer vertex in '1 ٢'",
    "n ３\n0 1\n1 2\n": "line 1: bad vertex count '３'",
    "n 1_0\n0 1\n": "line 1: bad vertex count '1_0'",
    # only ASCII space and tab part tokens and only LF, CR LF or CR end a
    # line, so other whitespace stays inside its token or line
    "0\xa01\n1\u30002\n": r"line 1: expected 'u v', got '0\xa01'",
    "0 1\n1\u30002\n": r"line 2: expected 'u v', got '1\u30002'",
    "0 1\u20281 2\n": r"line 1: expected 'u v', got '0 1\u20281 2'",
    "0 1\x851 2\n": r"line 1: expected 'u v', got '0 1\x851 2'",
    "0\x0c1\n": r"line 1: expected 'u v', got '0\x0c1'",
}

ROWS = [
    *(_refused(["analyze", "-"], message, text) for text, message in EDGE_LISTS.items()),
    # and a graph that is not connected, the one input refused with 65
    _refused(["analyze", "-"], "graph on 4 vertices with 2 edges is not connected", "0 1\n2 3\n", 65),
    # --gen: the spec reader, its integer rule, and the generators
    _gen("nosuch:1", f"unknown family 'nosuch' (known: {KNOWN})"),
    _gen("nosuch:3", f"unknown family 'nosuch' (known: {KNOWN})"),
    _gen("\u3000path:4", rf"unknown family '\u3000path' (known: {KNOWN})"),
    _gen("path:3:4", "family 'path' takes 1 parameter(s), got 2"),
    _refused(["gen", "path"], "family 'path' takes 1 parameter(s), got 0"),
    *(
        _gen(spec, f"bad integer parameter {token!r} in family spec {spec!r}")
        for spec, token in [("path:x", "x"), ("path:two", "two"), ("path:1_0", "1_0"),
                            ("path:+4", "+4"), ("path:٤", "٤"), ("complete_bipartite:2,３", "３"),
                            ("path:\u30004", "\u30004")]
    ),
    _gen("path:0", "vertex count must be positive, got 0"),
    _gen("complete:0", "vertex count must be positive, got 0"),
    _gen("complete_bipartite:0,3", "complete_bipartite needs both parts >= 1, got 0, 3"),
    _gen("star:0", "star needs k >= 1 leaves, got 0"),
    # input sources: none, two, or one that cannot be read
    _refused(["analyze"], "no input: give an edge-list path, '-' for stdin, or --gen"),
    _refused(["analyze", "--gen", "path:4", "extra.txt"], "give an edge-list input or --gen, not both"),
    _refused(["analyze", MISSING, "--gen", "path:4"], "give an edge-list input or --gen, not both"),
    _refused(
        ["analyze", MISSING],
        f"cannot read {MISSING}: [Errno 2] No such file or directory: {MISSING!r}",
    ),
    # argparse: an unknown command, and options that do not exist or are
    # abbreviated; no tolerance is an option and the oracle cannot be
    # switched off
    (
        ["bogus-command"], "", 64, "",
        "usage: lapexcess [-h] command ...\nlapexcess: error: argument command: invalid "
        "choice: 'bogus-command' (choose from 'analyze', 'spectrum', 'gen')\n",
    ),
    _unknown("analyze", ["--gen", "path:4", "--tol-eq", "0.5"], "--tol-eq"),
    *(
        _unknown("analyze", ["--gen", "petersen", *extra], extra[0])
        for extra in (["--tol-eq", "1e-300"], ["--tol-eq", "1"], ["--tol-eig", "1e-8"],
                      ["--tol", "1e-6"], ["--no-oracle"])
    ),
    *(
        _unknown(command, ["--gen", "path:4", *extra], extra[0])
        for command in ("analyze", "spectrum")
        for extra in (["--tol", "0.5"], ["--js"], ["--tol-eig", "1e-8"], ["--tol-eq", "1e-6"])
    ),
    # argparse binds 1e-6 to the optional EDGELIST and leaves '-' over;
    # the refusal names the option alone
    _unknown("analyze", ["--tol-eq", "1e-6", "-"], "--tol-eq"),
]


def _id(argv, stdin, columns):
    # the 80-column run of a row keeps the row's own id
    width = "" if columns == "80" else f" COLUMNS={columns}"
    return " ".join(argv) + (f" < {stdin}" if stdin else "") + width


@pytest.mark.parametrize("argv, stdin, code, out, err, columns", [
    pytest.param(*row, columns, id=_id(row[0], row[1], columns))
    for row in ROWS
    for columns in ("40", "80", "200")
])
def test_refusal(monkeypatch, capsys, argv, stdin, code, out, err, columns):
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)
