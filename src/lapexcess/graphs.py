"""Graph representation, parsing, deterministic generators, and combinatorics.

Graphs are finite, simple, undirected, and connected, with vertices labeled
by the dense integers 0..n-1.  Connectivity is enforced at construction time,
by union-find over the edges, because everything downstream (the Laplacian
spectrum having a simple zero eigenvalue, the predistance machinery,
Seidel's distances) assumes it.

All types are immutable after construction (a graph's adjacency matrix is
built on first use, read-only) and every function is pure, so values can
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, product
from operator import index

import numpy as np


class GraphInputError(ValueError):
    """Unusable graph input: a malformed edge list, a vertex count or an
    endpoint that is not an integer, a loop, an endpoint out of range, an
    unknown family or bad parameters for a generator, or an input source
    that is missing, unreadable or given twice (a file and a generated
    family).  An integer given as text is read by :func:`parse_integer`,
    which refuses ``1_0``, ``+2`` and non-ASCII digits."""


class DisconnectedGraphError(GraphInputError):
    """The graph is not connected."""


def parse_integer(token: str) -> int | None:
    """``token`` read as an integer, or None if it is not one.

    The one rule for an integer given as text, in an edge list or a
    generator spec: an optional ``-`` followed by at most 640 of the ASCII
    digits 0-9.  Python's ``int`` also reads ``1_0`` as 10, ``+2`` as 2 and
    any Unicode decimal digit (``٢``, ``２``) as its ASCII twin; this
    refuses them all.  ``-`` is allowed only so that the checks for a
    negative index or count can name the input, and leading zeros are
    accepted."""
    digits = token.removeprefix("-")
    # 640 is the fewest digits int() may be limited to reading from text
    # (sys.set_int_max_str_digits), so int() reads every token passed here
    ok = digits.isdigit() and digits.isascii() and len(digits) <= 640
    return int(token) if ok else None


def _integer(value, what: str) -> int:
    """``value`` as an int by ``operator.index``, which also takes numpy
    integers and refuses floats and strings."""
    try:
        return index(value)
    except TypeError:
        raise GraphInputError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph on vertices 0..n-1.

    ``Graph(n, pairs)`` is the one constructor.  ``n`` and the endpoints of
    ``pairs``, any iterable of two-integer pairs, are read by
    ``operator.index``; each pair is stored as (u, v) with u < v, and
    repeated pairs collapse.  So a graph built from reversed, repeated or
    numpy-integer pairs equals, and hashes like, the one built from its
    canonical edges.  A non-integer, a loop, an endpoint outside 0..n-1 or
    a non-positive n raises :class:`GraphInputError`, and a disconnected
    graph :class:`DisconnectedGraphError`.  This is the one check of the
    vertex count and the endpoint range: the edge-list reader and the
    generators leave both to it.

    ``edges`` is the only stored view of the edge set, a frozenset of the
    normalized pairs.  The dense boolean ``adjacency_matrix`` is built from
    it on first use and then kept; it takes no part in equality, hashing or
    repr.
    """

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        n = _integer(self.n, "vertex count")
        if n < 1:
            raise GraphInputError(f"vertex count must be positive, got {n}")
        edges = set()
        add = edges.add
        for pair in self.edges:
            try:
                u, v = pair
                u, v = index(u), index(v)
            except (TypeError, ValueError):
                raise GraphInputError(
                    f"edge {pair!r} is not a pair of integer vertices"
                ) from None
            if u > v:
                u, v = v, u
            if not 0 <= u < v < n:
                if u == v:
                    raise GraphInputError(f"self-loop at vertex {u}")
                raise GraphInputError(f"edge {pair!r} has an endpoint outside 0..{n - 1}")
            add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(edges))
        # fewer than n - 1 edges cannot connect n vertices; checking that
        # first keeps a huge declared n from costing O(n) memory
        if len(edges) >= n - 1 and _joins(n, edges) == n - 1:
            return
        raise DisconnectedGraphError(
            f"graph on {n} vertices with {len(edges)} edges is not connected"
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        """Vertex degrees as an integer array of length n."""
        return self.adjacency_matrix.sum(axis=1)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Dense adjacency matrix as a read-only boolean array, one byte
        per entry; the n x n stages cast it to the dtype they compute in."""
        n = self.n
        # two byte stores per edge cost less than numpy's index machinery
        # on the small graphs that make up most inputs
        entries = bytearray(n * n)
        for u, v in self.edges:
            entries[u * n + v] = entries[v * n + u] = 1
        a = np.frombuffer(entries, dtype=bool).reshape(n, n)
        a.flags.writeable = False
        return a


def _joins(n: int, edges) -> int:
    """How many edges join two components, by union-find with path
    halving; the graph is connected exactly when that is n - 1."""
    parent = list(range(n))
    joins = 0
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            joins += 1
    return joins


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    Format: one edge per line as two nonnegative integers ``u v``.  An
    optional first (non-comment) line ``n <count>`` declares the vertex
    count; otherwise it is inferred as max index + 1.  ``#`` starts a
    comment; blank lines are ignored.  Duplicate edges collapse.  The count
    and the endpoints are read by :func:`parse_integer`: ASCII decimal
    digits, ``-`` allowed only so that a negative one can be named, and
    ``1_0``, ``+1`` or ``٢`` refused as not an integer.  Tokens are
    separated by ASCII spaces and tabs only, and a line ends only at LF,
    CR LF or CR: any other whitespace, such as a no-break space, U+2028 or
    a form feed, stays inside its token or line, which is then refused.

    Raises :class:`GraphInputError` naming the line for a malformed line,
    a count or endpoint that is not an integer, a negative index or a
    self-loop, and for empty input; :class:`Graph` refuses, with its own
    message, a count below 1, an endpoint outside 0..n-1 and a disconnected
    graph (:class:`DisconnectedGraphError`).
    """
    declared_n = None
    pairs = []
    # a vertex is named once per edge at it, so each distinct token goes
    # through the rule once and is looked up after that
    read = cache(parse_integer)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        parts = [p for p in raw.split("#", 1)[0].replace("\t", " ").split(" ") if p]
        if not parts:
            continue
        if parts[0] == "n" and declared_n is None and not pairs:
            if len(parts) != 2:
                raise GraphInputError(f"line {lineno}: malformed vertex-count line {raw!r}")
            declared_n = parse_integer(parts[1])
            if declared_n is None:
                raise GraphInputError(f"line {lineno}: bad vertex count {parts[1]!r}")
            continue
        if len(parts) != 2:
            raise GraphInputError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = read(parts[0]), read(parts[1])
        if u is None or v is None:
            raise GraphInputError(f"line {lineno}: non-integer vertex in {raw!r}")
        if u < 0 or v < 0:
            raise GraphInputError(f"line {lineno}: negative vertex index in {raw!r}")
        if u == v:
            raise GraphInputError(f"line {lineno}: self-loop at vertex {u}")
        pairs.append((u, v))

    if declared_n is not None:
        return Graph(declared_n, pairs)
    if not pairs:
        raise GraphInputError("empty input: no vertices or edges")
    return Graph(max(map(max, pairs)) + 1, pairs)


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text for ``g`` (inverse of :func:`parse_edge_list`).

    Emits sorted ``u v`` lines.  The single-vertex graph has no edges, so it
    is written as the header line ``n 1``.
    """
    if g.edge_count == 0:
        return f"n {g.n}\n"
    return "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------

def path_graph(k: int) -> Graph:
    """Path on k vertices: edges (i, i+1) for i = 0..k-2.  :class:`Graph`
    refuses k < 1."""
    k = _integer(k, "family 'path' parameter")
    return Graph(k, zip(range(k - 1), range(1, k)))


def cycle_graph(k: int) -> Graph:
    """Cycle on k >= 3 vertices: path edges plus (0, k-1)."""
    k = _integer(k, "family 'cycle' parameter")
    if k < 3:
        raise GraphInputError(f"cycle needs k >= 3, got {k}")
    return Graph(k, [*zip(range(k - 1), range(1, k)), (0, k - 1)])


def complete_graph(k: int) -> Graph:
    """Complete graph on k vertices.  :class:`Graph` refuses k < 1."""
    k = _integer(k, "family 'complete' parameter")
    return Graph(k, combinations(range(k), 2))


def complete_bipartite_graph(m: int, k: int) -> Graph:
    """Complete bipartite graph with parts {0..m-1} and {m..m+k-1}."""
    m, k = (_integer(p, "family 'complete_bipartite' parameter") for p in (m, k))
    if m < 1 or k < 1:
        raise GraphInputError(f"complete_bipartite needs both parts >= 1, got {m}, {k}")
    return Graph(m + k, product(range(m), range(m, m + k)))


def star_graph(k: int) -> Graph:
    """Star with center 0 and k >= 1 leaves 1..k (k+1 vertices total)."""
    k = _integer(k, "family 'star' parameter")
    if k < 1:
        raise GraphInputError(f"star needs k >= 1 leaves, got {k}")
    return Graph(k + 1, ((0, i) for i in range(1, k + 1)))


def petersen_graph() -> Graph:
    """Petersen graph as the Kneser graph K(5, 2).

    Vertices are the 2-element subsets of {0..4} in lexicographic order;
    two vertices are adjacent exactly when the subsets are disjoint.
    """
    subsets = enumerate(combinations(range(5), 2))
    return Graph(
        10, ((a, b) for (a, p), (b, q) in combinations(subsets, 2) if not set(p) & set(q))
    )


def hypercube_graph(q: int) -> Graph:
    """q-dimensional hypercube: vertices are 0..2^q-1 read as bit strings,
    adjacent when they differ in exactly one bit."""
    q = _integer(q, "family 'hypercube' parameter")
    if q < 1:
        raise GraphInputError(f"hypercube needs q >= 1, got {q}")
    n = 1 << q
    bits = [1 << i for i in range(q)]
    return Graph(n, ((u, u | bit) for u in range(n) for bit in bits if not u & bit))


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
    complete_bipartite(m, k), star(k), petersen(), hypercube(q).  Each
    generator reads its own parameters; this checks only their count.
    """
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise GraphInputError(f"unknown family {family!r} (known: {known})")
    func, arity = FAMILIES[family]
    params = tuple(params)
    if len(params) != arity:
        raise GraphInputError(
            f"family {family!r} takes {arity} parameter(s), got {len(params)}"
        )
    return func(*params)


# ---------------------------------------------------------------------------
# Matrices and distance combinatorics
# ---------------------------------------------------------------------------

def laplacian_matrix(g: Graph) -> np.ndarray:
    """Laplacian matrix diag(deg) - A: degree on the diagonal, -1 per edge
    off-diagonal.

    Every row sums to 0 and the trace equals twice the edge count.
    """
    lap = np.where(g.adjacency_matrix, -1.0, 0.0)
    lap.flat[:: g.n + 1] = g.degrees()
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


# Largest n for which distance_data counts in float32: its sums of
# distances stay below n^2 <= 2^24, where float32 is exact.
_FLOAT32_MAX_N = 4096


def distance_data(g: Graph) -> DistanceData:
    """All-pairs hop distances by Seidel's algorithm.

    With R_0 = A + I, the chain R_{j+1} = [R_j^2 > 0] joins the vertices
    within distance 2 of each other in R_j.  A Graph is connected, so after
    about log2(D) steps some R_K^2 has no zero entry: every distance in
    R_K is then 1 or 2, and D_K = 2 - R_K off the diagonal.  Distances in
    R_{j+1} are ceil(d_j / 2), and d_j(u, v) is odd exactly when the
    closed neighborhood N of v has sum_{w in N} d_{j+1}(u, w) <
    |N| d_{j+1}(u, v) (Seidel, "On the all-pairs-shortest-path problem in
    unweighted undirected graphs", JCSS 51, 1995), so
    D_j = 2 D_{j+1} - [D_{j+1} R_j < D_{j+1} o deg(R_j)].

    That is about 2 log2(D) n x n products, whatever the density.  They run
    in float32 while every count, at most n * D < n^2, is exact there
    (n <= 4096), and in float64 above.  The chain is kept as boolean
    matrices, with the column counts deg(R_j) that the diagonal of R_j^2
    already holds.
    """
    n = g.n
    dtype = np.float32 if n <= _FLOAT32_MAX_N else np.float64
    reach = g.adjacency_matrix.astype(dtype)
    reach.flat[:: n + 1] = 1.0
    chain = []
    while not (square := reach @ reach).all():
        chain.append((reach > 0, square.diagonal().copy()))
        reach = np.minimum(square, 1.0, out=square)
    dist = np.subtract(2.0, reach, out=reach)
    dist.flat[:: n + 1] = 0.0
    while chain:
        closed, counts = chain.pop()
        closed = closed.astype(dtype)
        odd = dist @ closed
        # D o deg(R_j) goes into the buffer the product is done with
        np.multiply(dist, counts, out=closed)
        np.less(odd, closed, out=odd)
        dist *= 2.0
        dist -= odd
    dist = dist.astype(int)
    return DistanceData(dist, int(dist.max()))
