"""Corpus fixtures shared by the invariant sweeps and acceptance tests.

The exhaustive part is every connected graph on 1..7 vertices, pulled from
the networkx graph atlas (996 isomorphism classes).  The named part adds
the families the acceptance criteria call out explicitly.  Analyses are
computed once per session because several tests sweep the same corpus.
"""

import os
from pathlib import Path

import networkx as nx
import pytest

from lapexcess import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    petersen_graph,
)
from lapexcess.theorem import analyze

# The CLI tests run `python -m lapexcess` in child processes; hand them the
# source tree that the `pythonpath` setting in pyproject.toml gives pytest.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def _atlas_graphs():
    out = []
    for idx, g in enumerate(nx.graph_atlas_g()):
        n = g.number_of_nodes()
        if n < 1 or n > 7 or not nx.is_connected(g):
            continue
        mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
        edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
        out.append((f"atlas_{idx}", Graph(n, edges)))
    return out


def _named_graphs():
    out = []
    for k in range(3, 13):
        out.append((f"cycle_{k}", cycle_graph(k)))
    for k in range(2, 9):
        out.append((f"complete_{k}", complete_graph(k)))
    for m in range(1, 5):
        out.append((f"bipartite_{m}_{m}", complete_bipartite_graph(m, m)))
    out.append(("hypercube_2", hypercube_graph(2)))
    out.append(("hypercube_3", hypercube_graph(3)))
    out.append(("petersen", petersen_graph()))
    return out


@pytest.fixture(scope="session")
def atlas_corpus():
    """(name, Graph) for every connected graph on at most 7 vertices."""
    return _atlas_graphs()


@pytest.fixture(scope="session")
def corpus(atlas_corpus):
    """Atlas corpus plus the named families."""
    return atlas_corpus + _named_graphs()


@pytest.fixture(scope="session")
def analyzed_corpus(corpus):
    """(name, Graph, Analysis) for the whole corpus, oracle enabled."""
    return [(name, g, analyze(g)) for name, g in corpus]
