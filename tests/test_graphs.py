"""Graph construction, parsing, generators, and distance combinatorics.

Distances and matrices are cross-checked against networkx, which plays no
part in the package itself.
"""

import re
import tracemalloc

import numpy as np
import pytest
from helpers import adjacency, neighbors, random_connected_graph, to_networkx

import networkx as nx
from lapexcess import (
    DisconnectedGraphError,
    FAMILIES,
    Graph,
    GraphInputError,
    analyze,
    average_excess,
    build_document,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance_data,
    format_edge_list,
    generate,
    hypercube_graph,
    laplacian_matrix,
    parse_edge_list,
    path_graph,
    petersen_graph,
    star_graph,
)
from lapexcess.graphs import parse_integer
from lapexcess.theorem import per_vertex_excess


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

CANONICAL_PATH = frozenset({(0, 1), (1, 2)})


def test_from_edges_normalizes_and_dedups():
    # an edge list with reversed and repeated pairs gives the canonical graph
    g = Graph(3, [(2, 1), (1, 2), (0, 1)])
    assert g.edges == CANONICAL_PATH and g.edge_count == 2
    canonical = Graph(3, CANONICAL_PATH)
    assert g == canonical and hash(g) == hash(canonical)
    assert repr(g) == repr(canonical)
    # the derived adjacency takes no part in equality, hashing or repr
    assert "adj" not in repr(g)


def test_direct_construction_validates_normalization():
    # direct construction normalizes every pair it is given instead of
    # trusting the caller: a reversed frozenset, a numpy array and a lazy
    # iterable of numpy integers all give the canonical graph
    canonical = Graph(3, CANONICAL_PATH)
    for n, pairs in [
        (3, frozenset({(1, 0), (1, 2)})),
        (np.int64(3), np.array([[1, 0], [2, 1], [0, 1]])),
        (3, ((np.int32(v), np.uint8(v + 1)) for v in range(2))),
    ]:
        g = Graph(n, pairs)
        assert g == canonical and hash(g) == hash(canonical)
        assert g.edges == CANONICAL_PATH and g.edge_count == 2
        assert repr(g) == repr(canonical)


def test_construction_rejects_loops_and_range():
    with pytest.raises(GraphInputError, match=re.escape("self-loop at vertex 0")):
        Graph(3, [(0, 0), (0, 1)])
    with pytest.raises(GraphInputError, match=re.escape("edge (0, 3) has an endpoint outside 0..2")):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphInputError, match=re.escape("edge (-1, 2) has an endpoint outside 0..2")):
        Graph(3, [(-1, 2)])
    with pytest.raises(GraphInputError, match=re.escape("edge (0, 1, 2) is not a pair")):
        Graph(3, [(0, 1, 2)])


def test_non_integer_input_raises():
    # operator.index refuses what int() would truncate, and each refusal
    # names the value
    with pytest.raises(GraphInputError, match=re.escape("edge (0, 1.5) is not a pair of integer vertices")):
        Graph(3, [(0, 1.5), (1, 2)])
    with pytest.raises(GraphInputError, match=re.escape("family 'path' parameter must be an integer, got 4.7")):
        generate("path", [4.7])
    with pytest.raises(GraphInputError, match=re.escape("vertex count must be an integer, got 2.5")):
        Graph(2.5)
    # numpy integers are integers
    assert generate("path", [np.int64(4)]) == path_graph(4)


@pytest.mark.parametrize("family, params", [
    ("path", (4.7,)),
    ("cycle", (5.0,)),
    ("complete", (3.5,)),
    ("complete_bipartite", (2.0, 3)),
    ("star", (2.5,)),
    ("hypercube", (2.5,)),
])
def test_generators_refuse_non_integer_parameters(family, params):
    # each generator reads its own parameters, called directly or through
    # generate()
    message = f"family {family!r} parameter must be an integer, got {params[0]!r}"
    with pytest.raises(GraphInputError, match=f"^{re.escape(message)}$"):
        FAMILIES[family][0](*params)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        Graph(2, [])
    # at least n - 1 edges pass the edge-count guard, so the traversal
    # decides: a triangle and an isolated vertex, and K_4 and K_3
    with pytest.raises(DisconnectedGraphError):
        Graph(4, [(0, 1), (0, 2), (1, 2)])
    k4_and_k3 = [(u, v) for part in (range(4), range(4, 7)) for u in part for v in part if u < v]
    with pytest.raises(DisconnectedGraphError):
        Graph(7, k4_and_k3)


def test_connectivity_matches_networkx():
    # random graphs on 2 to 16 vertices with n - 1 to 2n edges; 79 of the
    # 300 are disconnected
    rng = np.random.default_rng(2718)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 17))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = int(rng.integers(n - 1, min(2 * n, len(pairs)) + 1))
        edges = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)]
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        connected = nx.is_connected(h)
        seen.add(connected)
        if connected:
            assert Graph(n, edges).edge_count == m
        else:
            with pytest.raises(DisconnectedGraphError):
                Graph(n, edges)
    assert seen == {True, False}


def test_vertex_count_positive():
    with pytest.raises(GraphInputError):
        Graph(0)


def test_single_vertex_graph():
    g = Graph(1)
    assert g.n == 1
    assert g.edge_count == 0
    assert list(g.degrees()) == [0]


def test_degrees_and_neighbors():
    g = path_graph(4)
    assert g.degrees().tolist() == [1, 2, 2, 1]
    assert [np.flatnonzero(row).tolist() for row in g.adjacency_matrix] == [
        [1], [0, 2], [1, 3], [2],
    ]
    assert set(cycle_graph(5).degrees().tolist()) == {2}


# ---------------------------------------------------------------------------
# Edge-list text
# ---------------------------------------------------------------------------

def test_parse_basic():
    g = parse_edge_list("0 1\n1 2\n")
    assert g.n == 3
    assert g.edges == {(0, 1), (1, 2)}


def test_parse_header_comments_blanks_duplicates():
    text = """
    # a triangle with an isolated-free header
    n 3
    0 1
    1 2   # trailing comment
    1 2
    2 1
    0 2
    """
    g = parse_edge_list(text)
    assert g.n == 3
    assert g.edge_count == 3


def test_parse_header_allows_larger_n():
    with pytest.raises(DisconnectedGraphError):
        parse_edge_list("n 4\n0 1\n1 2\n")


def test_too_few_edges_rejected_without_per_vertex_memory():
    # one edge cannot connect a million vertices; that is decided before
    # any per-vertex structure is built
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError, match="1000000 vertices with 1 edges"):
            parse_edge_list("n 1000000\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


MALFORMED = {
    "": "empty input: no vertices or edges",
    "0\n": "line 1: expected 'u v', got '0'",
    "0 1 2\n": "line 1: expected 'u v', got '0 1 2'",
    "x y\n": "line 1: non-integer vertex in 'x y'",
    "0 -1\n": "line 1: negative vertex index in '0 -1'",
    "3 3\n": "line 1: self-loop at vertex 3",
    "n\n0 1\n": "line 1: malformed vertex-count line 'n'",
    "n two\n0 1\n": "line 1: bad vertex count 'two'",
    # Graph refuses a count below 1 or an endpoint out of range, in its words
    "n 0\n": "vertex count must be positive, got 0",
    "n -3\n0 1\n": "vertex count must be positive, got -3",
    "n 2\n0 5\n": "edge (0, 5) has an endpoint outside 0..1",
    "n 2\n5 0\n": "edge (5, 0) has an endpoint outside 0..1",
    # int() reads each of these as an integer; the reader's rule does not
    "0 1\n1 1_0\n": "line 2: non-integer vertex in '1 1_0'",
    "0 +1\n": "line 1: non-integer vertex in '0 +1'",
    "0 1\n1 ٢\n": "line 2: non-integer vertex in '1 ٢'",
    "n ３\n0 1\n1 2\n": "line 1: bad vertex count '３'",
    "n 1_0\n0 1\n": "line 1: bad vertex count '1_0'",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphInputError, match=f"^{re.escape(MALFORMED[text])}$"):
        parse_edge_list(text)


def test_parse_integer_rule():
    # an optional '-', then ASCII digits, no more than any int() reads
    for token, value in [("0", 0), ("007", 7), ("-3", -3), ("9" * 640, int("9" * 640))]:
        assert parse_integer(token) == value
    for token in ["", "-", "--1", "-+1", "+1", "1_0", "٢", "３", "1 ", "0x1", "1e3"]:
        assert parse_integer(token) is None
    assert parse_integer("1" * 641) is None
    assert parse_integer("-" + "0" * 641) is None


def test_parse_refuses_a_token_past_the_digit_limit():
    # 5000 digits are past the 4300 that int() reads by default: refused by
    # the rule, not left to escape as a bare ValueError
    huge = "1" * 5000
    with pytest.raises(GraphInputError, match="^line 1: non-integer vertex in "):
        parse_edge_list(f"0 {huge}\n")
    with pytest.raises(GraphInputError, match="^line 1: bad vertex count "):
        parse_edge_list(f"n {huge}\n0 1\n")


@pytest.mark.parametrize("n, pairs", [
    (0, []),
    (-3, [(0, 1)]),
    (2, [(0, 5)]),
    (2, [(5, 0)]),
    (3, [(0, 1), (1, 2), (2, 3), (9, 0)]),
])
def test_parse_leaves_count_and_range_to_graph(n, pairs):
    # one rule, one message: the reader adds nothing to Graph's refusal
    with pytest.raises(GraphInputError) as direct:
        Graph(n, pairs)
    text = f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    with pytest.raises(GraphInputError) as parsed:
        parse_edge_list(text)
    assert type(parsed.value) is type(direct.value) is GraphInputError
    assert str(parsed.value) == str(direct.value)


def test_format_parse_round_trip():
    for g in [path_graph(4), petersen_graph(), Graph(1), star_graph(3)]:
        assert parse_edge_list(format_edge_list(g)) == g


def test_format_single_vertex_uses_header():
    assert format_edge_list(Graph(1)) == "n 1\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_path_and_cycle_counts():
    assert path_graph(1).edge_count == 0
    assert path_graph(5).edge_count == 4
    assert cycle_graph(3).edge_count == 3
    assert cycle_graph(7).edge_count == 7


def test_complete_and_bipartite():
    k5 = complete_graph(5)
    assert k5.edge_count == 10
    assert set(k5.degrees().tolist()) == {4}
    k23 = complete_bipartite_graph(2, 3)
    assert k23.n == 5
    assert k23.edge_count == 6
    assert sorted(k23.degrees()) == [2, 2, 2, 3, 3]


def test_star():
    s = star_graph(4)
    assert s.n == 5
    assert list(s.degrees()) == [4, 1, 1, 1, 1]


def test_petersen_shape():
    p = petersen_graph()
    assert p.n == 10
    assert p.edge_count == 15
    assert set(p.degrees().tolist()) == {3}
    dd = distance_data(p)
    assert dd.diameter == 2
    # 3-regular, 6 vertices at distance two from each vertex
    assert np.all(per_vertex_excess(dd, 1) == 3)
    assert np.all(per_vertex_excess(dd, 2) == 6)
    # girth 5: no two adjacent vertices share a neighbor
    a = adjacency(p)
    assert np.max((a @ a) * a) == 0


def test_hypercube():
    q3 = hypercube_graph(3)
    assert q3.n == 8
    assert q3.edge_count == 12
    assert set(q3.degrees().tolist()) == {3}
    assert distance_data(q3).diameter == 3


def test_generate_dispatch():
    assert generate("path", (4,)) == path_graph(4)
    assert generate("petersen", ()) == petersen_graph()
    assert generate("complete_bipartite", (2, 3)) == complete_bipartite_graph(2, 3)


def test_generate_errors():
    known = "complete, complete_bipartite, cycle, hypercube, path, petersen, star"
    for family, params, message in [
        ("nosuch", (3,), f"unknown family 'nosuch' (known: {known})"),
        ("path", (), "family 'path' takes 1 parameter(s), got 0"),
        ("petersen", (1,), "family 'petersen' takes 0 parameter(s), got 1"),
        # generate() checks the count only, so a wrong count comes first
        ("petersen", (1.5,), "family 'petersen' takes 0 parameter(s), got 1"),
        ("path", (4.7,), "family 'path' parameter must be an integer, got 4.7"),
        ("path", (0,), "vertex count must be positive, got 0"),
        ("cycle", (2,), "cycle needs k >= 3, got 2"),
        ("hypercube", (0,), "hypercube needs q >= 1, got 0"),
    ]:
        with pytest.raises(GraphInputError, match=f"^{re.escape(message)}$"):
            generate(family, params)


# ---------------------------------------------------------------------------
# Matrices and distances, cross-checked against networkx
# ---------------------------------------------------------------------------

def test_laplacian_structure():
    g = cycle_graph(5)
    lap = laplacian_matrix(g)
    assert np.array_equal(lap, lap.T)
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert lap.trace() == 2 * g.edge_count
    assert np.array_equal(lap, np.diag(g.degrees()) - adjacency(g))


def test_adjacency_matrix_is_built_once_and_read_only():
    g = petersen_graph()
    a = g.adjacency_matrix
    assert a is g.adjacency_matrix
    assert a.dtype == bool and not a.flags.writeable
    assert np.array_equal(a, adjacency(g))
    # a cached attribute, not a field
    assert g == petersen_graph() and hash(g) == hash(petersen_graph())
    assert "adjacency_matrix" not in repr(g)


def test_matrices_match_networkx():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 6)))
        assert np.array_equal(
            laplacian_matrix(g),
            nx.laplacian_matrix(to_networkx(g), nodelist=range(n)).toarray().astype(float),
        )


def test_distance_data_matches_networkx():
    rng = np.random.default_rng(99)
    graphs = [petersen_graph(), hypercube_graph(3)]
    graphs += [random_connected_graph(rng, int(rng.integers(2, 14)), 3) for _ in range(6)]
    for g in graphs:
        dd = distance_data(g)
        h = to_networkx(g)
        assert neighbors(g) == [sorted(h[v]) for v in range(g.n)]
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        for u in range(g.n):
            for v in range(g.n):
                assert dd.dist[u, v] == lengths[u][v]
        assert dd.diameter == nx.diameter(h)
        # the distance classes dist == i partition the all-ones matrix
        classes = [dd.dist == i for i in range(dd.diameter + 1)]
        assert np.array_equal(sum(c.astype(int) for c in classes), np.ones((g.n, g.n)))
        assert np.array_equal(classes[0], np.eye(g.n))
        if dd.diameter >= 1:
            assert np.array_equal(classes[1], adjacency(g))
        # expected[i, u] is the number of vertices at distance i from u,
        # for every i up to d and at least one past the diameter
        a = analyze(g)
        d = a.spectrum.d
        rows = max(d, dd.diameter + 1) + 1
        expected = np.zeros((rows, g.n), dtype=int)
        for u in range(g.n):
            for v in range(g.n):
                expected[lengths[u][v], u] += 1
        counts = np.array([per_vertex_excess(dd, i) for i in range(rows)])
        assert np.array_equal(counts, expected)
        # the counts of each vertex sum to n
        assert np.all(counts.sum(axis=0) == g.n)
        for i in range(dd.diameter, rows):
            assert average_excess(dd, i) == expected[i].mean()
        # the report carries the row at d, which is at least the diameter
        excess = build_document(a)["excess"]
        assert excess["per_vertex"] == expected[d].tolist()
        assert excess["average"] == expected[d].mean()

