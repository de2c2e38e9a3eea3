"""Graph representation, parsing, deterministic generators, and combinatorics.

Graphs are finite, simple, undirected, and connected, with vertices labeled
by the dense integers 0..n-1.  Connectivity is enforced at construction time
because everything downstream (the Laplacian spectrum having a simple zero
eigenvalue, the predistance machinery) assumes it.

All types are immutable after construction and every function is pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphInputError(ValueError):
    """Invalid graph input (bad edge list, bad generator parameters)."""


class EdgeListError(GraphInputError):
    """Malformed edge-list text: bad line, self-loop, index out of range."""


class GeneratorError(GraphInputError):
    """Unknown graph family or invalid generator parameters."""


class DisconnectedGraphError(GraphInputError):
    """The graph is not connected."""


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph on vertices 0..n-1.

    ``edges`` holds normalized pairs (u, v) with u < v, no loops and no
    duplicates.  Construct via :meth:`from_edges`, :func:`parse_edge_list`,
    or one of the generators; direct construction validates but does not
    normalize.

    ``adj`` is derived from ``edges`` at construction: one sorted tuple of
    neighbors per vertex.  It takes no part in equality, hashing or repr.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    adj: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphInputError(f"vertex count must be positive, got {self.n}")
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                if u == v:
                    raise EdgeListError(f"self-loop at vertex {u}")
                raise EdgeListError(
                    f"edge {e} is not a pair u < v of vertices in 0..{self.n - 1}"
                )
        # fewer than n - 1 edges cannot connect n vertices; checking that
        # first keeps a huge declared n from costing O(n) memory
        if len(self.edges) >= self.n - 1:
            adj = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            object.__setattr__(self, "adj", tuple(tuple(sorted(a)) for a in adj))
            if -1 not in _hop_distances(self.adj, 0):
                return
        raise DisconnectedGraphError(
            f"graph on {self.n} vertices with {len(self.edges)} edges "
            "is not connected"
        )

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Pairs are normalized to u < v and deduplicated.  Raises
        :class:`EdgeListError` on loops or out-of-range endpoints and
        :class:`DisconnectedGraphError` if the result is disconnected.
        """
        normalized = set()
        for u, v in edges:
            u, v = int(u), int(v)
            normalized.add((u, v) if u < v else (v, u))
        return cls(n, frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        """Edges as a lexicographically sorted list of (u, v), u < v."""
        return sorted(self.edges)

    def degrees(self) -> np.ndarray:
        """Vertex degrees as an integer array of length n."""
        return np.array([len(a) for a in self.adj], dtype=int)


def _hop_distances(adj, s: int) -> list:
    """Hop distance from s to every vertex, -1 where unreachable."""
    # BFS on a Python row; order grows while the loop scans it
    row = [-1] * len(adj)
    row[s] = 0
    order = [s]
    for x in order:
        dx = row[x] + 1
        for y in adj[x]:
            if row[y] < 0:
                row[y] = dx
                order.append(y)
    return row


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    Format: one edge per line as two nonnegative integers ``u v``.  An
    optional first (non-comment) line ``n <count>`` declares the vertex
    count; otherwise it is inferred as max index + 1.  ``#`` starts a
    comment; blank lines are ignored.  Duplicate edges collapse.

    Raises :class:`EdgeListError` for malformed input and
    :class:`DisconnectedGraphError` for disconnected graphs.
    """
    declared_n = None
    pairs = []
    first = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if first and parts[0] == "n":
            if len(parts) != 2:
                raise EdgeListError(f"line {lineno}: malformed vertex-count line {raw!r}")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise EdgeListError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if declared_n < 1:
                raise EdgeListError(f"line {lineno}: vertex count must be positive")
            first = False
            continue
        first = False
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative vertex index in {raw!r}")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        pairs.append((u, v))

    if declared_n is None:
        if not pairs:
            raise EdgeListError("empty input: no vertices or edges")
        n = max(max(u, v) for u, v in pairs) + 1
    else:
        n = declared_n
        for u, v in pairs:
            if u >= n or v >= n:
                raise EdgeListError(
                    f"edge ({u}, {v}) references a vertex >= declared n={n}"
                )
    return Graph.from_edges(n, pairs)


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text for ``g`` (inverse of :func:`parse_edge_list`).

    Emits sorted ``u v`` lines.  The single-vertex graph has no edges, so it
    is written as the header line ``n 1``.
    """
    if g.edge_count == 0:
        return f"n {g.n}\n"
    return "".join(f"{u} {v}\n" for u, v in g.sorted_edges())


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------

def path_graph(k: int) -> Graph:
    """Path on k >= 1 vertices: edges (i, i+1) for i = 0..k-2."""
    if k < 1:
        raise GeneratorError(f"path needs k >= 1, got {k}")
    return Graph(k, frozenset((i, i + 1) for i in range(k - 1)))


def cycle_graph(k: int) -> Graph:
    """Cycle on k >= 3 vertices: path edges plus (0, k-1)."""
    if k < 3:
        raise GeneratorError(f"cycle needs k >= 3, got {k}")
    edges = {(i, i + 1) for i in range(k - 1)}
    edges.add((0, k - 1))
    return Graph(k, frozenset(edges))


def complete_graph(k: int) -> Graph:
    """Complete graph on k >= 1 vertices."""
    if k < 1:
        raise GeneratorError(f"complete needs k >= 1, got {k}")
    return Graph(k, frozenset((i, j) for i in range(k) for j in range(i + 1, k)))


def complete_bipartite_graph(m: int, k: int) -> Graph:
    """Complete bipartite graph with parts {0..m-1} and {m..m+k-1}."""
    if m < 1 or k < 1:
        raise GeneratorError(f"complete_bipartite needs both parts >= 1, got {m}, {k}")
    return Graph(m + k, frozenset((i, m + j) for i in range(m) for j in range(k)))


def star_graph(k: int) -> Graph:
    """Star with center 0 and k >= 1 leaves 1..k (k+1 vertices total)."""
    if k < 1:
        raise GeneratorError(f"star needs k >= 1 leaves, got {k}")
    return Graph(k + 1, frozenset((0, i) for i in range(1, k + 1)))


def petersen_graph() -> Graph:
    """Petersen graph as the Kneser graph K(5, 2).

    Vertices are the 2-element subsets of {0..4} in lexicographic order;
    two vertices are adjacent exactly when the subsets are disjoint.
    """
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    index = {p: k for k, p in enumerate(pairs)}
    edges = set()
    for p in pairs:
        for q in pairs:
            if not set(p) & set(q):
                a, b = index[p], index[q]
                if a < b:
                    edges.add((a, b))
    return Graph(10, frozenset(edges))


def hypercube_graph(q: int) -> Graph:
    """q-dimensional hypercube: vertices are 0..2^q-1 read as bit strings,
    adjacent when they differ in exactly one bit."""
    if q < 1:
        raise GeneratorError(f"hypercube needs q >= 1, got {q}")
    n = 1 << q
    edges = set()
    for u in range(n):
        for bit in range(q):
            v = u ^ (1 << bit)
            if u < v:
                edges.add((u, v))
    return Graph(n, frozenset(edges))


FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
    "star": (star_graph, 1),
    "petersen": (petersen_graph, 0),
    "hypercube": (hypercube_graph, 1),
}


def generate(family: str, params=()) -> Graph:
    """Build a named graph family with the given integer parameters.

    Families and arities: path(k), cycle(k), complete(k),
    complete_bipartite(m, k), star(k), petersen(), hypercube(q).
    """
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise GeneratorError(f"unknown family {family!r} (known: {known})")
    func, arity = FAMILIES[family]
    params = tuple(int(p) for p in params)
    if len(params) != arity:
        raise GeneratorError(
            f"family {family!r} takes {arity} parameter(s), got {len(params)}"
        )
    return func(*params)


# ---------------------------------------------------------------------------
# Matrices and distance combinatorics
# ---------------------------------------------------------------------------

def laplacian_matrix(g: Graph) -> np.ndarray:
    """Laplacian matrix: degree on the diagonal, -1 per edge off-diagonal.

    Every row sums to 0 and the trace equals twice the edge count.
    """
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, v] = -1.0
        lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return lap


@dataclass(frozen=True)
class DistanceData:
    """Hop distances of a connected graph.

    dist: n x n integer matrix of shortest-path distances.
    diameter: max distance D.

    The pairs at distance exactly i are ``dist == i``, so vertex u has
    ``count_nonzero(dist[u] == i)`` vertices at distance i, none past D.
    """

    dist: np.ndarray
    diameter: int


def distance_data(g: Graph) -> DistanceData:
    """All-pairs hop distances by BFS from every vertex."""
    dist = np.empty((g.n, g.n), dtype=int)
    for s in range(g.n):
        dist[s] = _hop_distances(g.adj, s)
    return DistanceData(dist, int(dist.max()))
