"""Graph construction, parsing, generators, and distance combinatorics.

Distances and matrices are cross-checked against networkx, which plays no
part in the package itself.
"""

import tracemalloc

import numpy as np
import pytest
from helpers import adjacency, random_connected_graph, to_networkx

import networkx as nx
from lapexcess import (
    DisconnectedGraphError,
    EdgeListError,
    GeneratorError,
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
from lapexcess.theorem import per_vertex_excess


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_from_edges_normalizes_and_dedups():
    g = Graph.from_edges(3, [(2, 1), (1, 2), (0, 1)])
    assert g.edges == frozenset({(1, 2), (0, 1)})
    assert g.edge_count == 2
    # the derived adjacency takes no part in equality, hashing or repr
    direct = Graph(3, frozenset({(0, 1), (1, 2)}))
    assert g == direct and hash(g) == hash(direct)
    assert "adj" not in repr(g)


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(EdgeListError):
        Graph.from_edges(3, [(0, 0), (0, 1)])
    with pytest.raises(EdgeListError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(EdgeListError):
        Graph.from_edges(3, [(-1, 2)])


def test_direct_construction_validates_normalization():
    with pytest.raises(EdgeListError):
        Graph(3, frozenset({(1, 0), (1, 2)}))


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        Graph.from_edges(2, [])


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
    assert list(g.degrees()) == [1, 2, 2, 1]
    assert g.adj == ((1,), (0, 2), (1, 3), (2,))
    assert set(cycle_graph(5).degrees().tolist()) == {2}


# ---------------------------------------------------------------------------
# Edge-list text
# ---------------------------------------------------------------------------

def test_parse_basic():
    g = parse_edge_list("0 1\n1 2\n")
    assert g.n == 3
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_parse_header_comments_blanks_duplicates():
    text = """
    # a triangle with an isolated-free header
    n 3
    0 1
    1 2   # trailing comment
    1 2
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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0\n",
        "0 1 2\n",
        "x y\n",
        "0 -1\n",
        "3 3\n",
        "n\n0 1\n",
        "n two\n0 1\n",
        "n 0\n",
        "n 2\n0 5\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(EdgeListError):
        parse_edge_list(text)


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
    with pytest.raises(GeneratorError):
        generate("nosuch", (3,))
    with pytest.raises(GeneratorError):
        generate("path", ())
    with pytest.raises(GeneratorError):
        generate("petersen", (1,))
    with pytest.raises(GeneratorError):
        generate("cycle", (2,))
    with pytest.raises(GeneratorError):
        generate("hypercube", (0,))


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
        assert g.adj == tuple(tuple(sorted(h[v])) for v in range(g.n))
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

