"""Property tests on connected graphs, each analyzed next to a relabelled
copy of itself.

The examples are random graphs with at most 12 vertices (a spanning tree
plus random chords) and named distance-regular families with up to 16
vertices.  Relabelling must not change anything the theorem speaks about,
the distance-regular verdict and the intersection array included, and the
average excess never exceeds the spectral excess.
"""

from helpers import permute_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from lapexcess import (
    Graph,
    IntersectionArray,
    Verdict,
    analyze,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    petersen_graph,
)

DISTANCE_REGULAR = (
    [cycle_graph(k) for k in range(3, 13)]
    + [hypercube_graph(3), hypercube_graph(4), petersen_graph()]
    + [complete_bipartite_graph(m, m) for m in range(2, 7)]
    + [complete_graph(k) for k in range(2, 13)]
)


@st.composite
def random_connected_graphs(draw):
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


@st.composite
def relabelled_pairs(draw):
    """(g, h): a random graph or a named distance-regular one, and the same
    graph relabelled."""
    g = draw(st.one_of(random_connected_graphs(), st.sampled_from(DISTANCE_REGULAR)))
    return g, permute_graph(g, draw(st.permutations(range(g.n))))


def oracle_outcome(res):
    # A refusal's witness pair depends on the labelling; whether the graph
    # is regular at all does not.
    if isinstance(res, IntersectionArray):
        return res
    return res.reason.startswith("not regular")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(relabelled_pairs())
def test_relabelling_keeps_the_verdict_and_the_excess_bound(pair):
    a, b = (analyze(g) for g in pair)
    if pair[0] in DISTANCE_REGULAR:
        assert a.verdict is Verdict.DISTANCE_REGULAR
        assert isinstance(a.oracle, IntersectionArray)
    assert a.verdict == b.verdict
    assert a.spectrum.d == b.spectrum.d
    assert a.distances.diameter == b.distances.diameter
    assert oracle_outcome(a.oracle) == oracle_outcome(b.oracle)
    for x in (a, b):
        assert x.average_excess <= x.spectral_excess * (1.0 + x.tol_eq)
