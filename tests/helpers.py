"""Small builders shared across test modules."""

import networkx as nx
import numpy as np

from lapexcess import DistinctSpectrum, Graph, phi_products


def random_connected_graph(rng, n: int, extra_edges: int = 0) -> Graph:
    """Random tree on n vertices plus up to extra_edges random chords."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    remaining = extra_edges
    attempts = 0
    while remaining > 0 and attempts < 50 * (extra_edges + 1):
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            remaining -= 1
    return Graph.from_edges(n, edges)


def permute_graph(g: Graph, perm) -> Graph:
    """Relabel vertices: vertex v becomes perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.sorted_edges())
    return h


def idempotent(lap: np.ndarray, s: DistinctSpectrum, i: int) -> np.ndarray:
    """Spectral projector onto the eigenspace of theta_i, computed as the
    matrix polynomial (1/phi_i) * prod_{j != i} (L - theta_j I).

    No eigenvectors are materialized.  The projector for theta_0 = 0 of a
    connected Laplacian is J/n.  Output is symmetrized.
    """
    if not 0 <= i <= s.d:
        raise IndexError(f"eigenvalue index {i} out of range 0..{s.d}")
    n = lap.shape[0]
    phis = phi_products(s)
    f = np.eye(n)
    for j in range(s.d + 1):
        if j != i:
            f = f @ (lap - s.thetas[j] * np.eye(n))
    f /= phis[i]
    return (f + f.T) / 2.0
