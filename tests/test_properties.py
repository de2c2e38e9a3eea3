"""Property tests on random connected graphs with at most 12 vertices.

Each example is a spanning tree plus random chords, analyzed next to a
relabelled copy of itself.  Relabelling must not change anything the
theorem speaks about, and the average excess never exceeds the spectral
excess.
"""

from helpers import permute_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from lapexcess import Graph, IntersectionArray, analyze


@st.composite
def relabelled_pairs(draw):
    """(g, h): a random connected graph and the same graph relabelled."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph.from_edges(n, edges)
    return g, permute_graph(g, draw(st.permutations(range(n))))


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
    assert a.verdict == b.verdict
    assert a.spectrum.d == b.spectrum.d
    assert a.distances.diameter == b.distances.diameter
    assert oracle_outcome(a.oracle) == oracle_outcome(b.oracle)
    for x in (a, b):
        assert x.average_excess <= x.spectral_excess * (1.0 + x.tol_eq)
