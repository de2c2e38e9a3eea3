"""Small builders shared across test modules."""

import math
import random
from fractions import Fraction
from itertools import combinations, zip_longest
from types import SimpleNamespace

import networkx as nx
import numpy as np

from lapexcess import (
    DistanceData,
    Graph,
    IntersectionArray,
    OracleRefusal,
    PredistanceSystem,
    theorem,
)

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
    return Graph(n, edges)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each pair of vertices is an edge with
    probability p, drawn in lexicographic order from random.Random(seed)."""
    rng = random.Random(seed)
    return Graph(n, [pair for pair in combinations(range(n), 2) if rng.random() < p])


def paw_graph() -> Graph:
    """Triangle with a pendant vertex: diameter 2 but four distinct
    Laplacian eigenvalues, so d exceeds the diameter."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def permute_graph(g: Graph, perm) -> Graph:
    """Relabel vertices: vertex v becomes perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def adjacency(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix, built by networkx."""
    return nx.to_numpy_array(to_networkx(g), nodelist=range(g.n))


def poison_distance(monkeypatch, u: int, v: int, value: int) -> None:
    """Make theorem.distance_data return a distance matrix whose entry
    (u, v) alone reads value; the diameter is left as computed."""
    real = theorem.distance_data

    def poisoned(g):
        dd = real(g)
        dist = dd.dist.copy()
        dist[u, v] = value
        return DistanceData(dist, dd.diameter)

    monkeypatch.setattr(theorem, "distance_data", poisoned)


def poison_average_excess(monkeypatch, change) -> None:
    """Make theorem.per_vertex_excess return change(k) at every vertex,
    where k is the count it computes there; on a distance-regular graph,
    where every count is k̄_d, the average excess then reads change(k̄_d)."""
    real = theorem.per_vertex_excess

    def poisoned(dd, d):
        counts = real(dd, d)
        return np.broadcast_to(change(counts), counts.shape)

    monkeypatch.setattr(theorem, "per_vertex_excess", poisoned)


def poison_spectral_excess(monkeypatch) -> None:
    """Make theorem.predistance_system return a system whose spectral
    excess r_d(0) is NaN."""
    real = theorem.predistance_system

    def poisoned(mu):
        sys = real(mu)
        at_zero = sys.values_at_zero.copy()
        at_zero[-1] = math.nan
        return PredistanceSystem(at_zero, sys.alpha, sys.beta, sys.gamma)

    monkeypatch.setattr(theorem, "predistance_system", poisoned)


def reverse_measure(monkeypatch) -> None:
    """Make theorem.predistance_system run on the spectral measure with its
    nodes in descending order, so that the Lanczos basis reads each p_i at
    the largest eigenvalue where it should read p_i(0).  Every p_i is
    positive beyond its largest zero, so p_1(0) takes the wrong sign.  The
    measure is a stand-in, as SpectralMeasure refuses unsorted nodes."""
    real = theorem.predistance_system

    def reversed_nodes(mu):
        return real(SimpleNamespace(thetas=mu.thetas[::-1], weights=mu.weights[::-1], d=mu.d))

    monkeypatch.setattr(theorem, "predistance_system", reversed_nodes)


def perturb_eigenvectors(monkeypatch) -> None:
    """Make numpy.linalg.eigh return eigenvectors moved by 1e-6, so that
    L V = V diag(lambda) no longer holds to the certificate's threshold."""
    real = np.linalg.eigh

    def perturbed(m):
        values, vectors = real(m)
        return values, vectors + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", perturbed)


def shift_eigenvalues(monkeypatch) -> None:
    """Make numpy.linalg.eigh return petersen's top cluster, the four
    eigenvalues 5, moved up by 1e-6, with the eigenvectors unchanged.  They
    still cluster, and the verdict would still read distance_regular, but
    L V = V diag(lambda) no longer holds to the certificate's threshold."""
    real = np.linalg.eigh

    def shifted(m):
        values, vectors = real(m)
        values = values.copy()
        values[-4:] += 1e-6
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", shifted)


def overflow_polynomial(monkeypatch, which: str) -> None:
    """Make theorem.eval_matrix overflow on one residual's polynomial: the
    Hoffman polynomial, ones(d + 1) in the predistance basis
    (which="hoffman"), or r_1, the unit vector [0, 1] (which="identity").
    Its coefficients are scaled by 1e308, so its values at the eigenvalues
    overflow; r_d(0) is left alone."""
    real = theorem.eval_matrix

    def overflowing(c, basis):
        c = np.asarray(c, dtype=float)
        target = np.ones(len(basis[0])) if which == "hoffman" else np.array([0.0, 1.0])
        if c.shape == target.shape and np.array_equal(c, target):
            c = c * 1e308
        return real(c, basis)

    monkeypatch.setattr(theorem, "eval_matrix", overflowing)


def poison_basis(monkeypatch, value: float) -> None:
    """Make theorem.predistance_values put value (an infinity or a NaN)
    into one entry of r_1's row, the value of r_1 at the first eigenvalue.
    The system, r_d(0) and the verdict are left alone."""
    real = theorem.predistance_values

    def poisoned(system, x):
        out = real(system, x)
        out[1, 0] = value
        return out

    monkeypatch.setattr(theorem, "predistance_values", poisoned)


# ---------------------------------------------------------------------------
# References for the combinatorial stages: the Python loops that the
# package ran before its distance and oracle stages became matrix products.
# ---------------------------------------------------------------------------

def neighbors(g: Graph) -> list:
    """One sorted list of neighbors per vertex, read off ``g.edges``."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def hop_distances(adj, s: int) -> list:
    """Hop distance from s to every vertex of the neighbor lists adj, -1
    where unreachable."""
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


def reference_distances(g: Graph) -> DistanceData:
    """All-pairs hop distances by BFS from every vertex."""
    adj = neighbors(g)
    dist = np.empty((g.n, g.n), dtype=int)
    for s in range(g.n):
        dist[s] = hop_distances(adj, s)
    return DistanceData(dist, int(dist.max()))


def reference_oracle(g: Graph, dd: DistanceData):
    """Intersection numbers by scanning, for every ordered pair (u, v) in
    row-major order, the neighbors of v; returns an IntersectionArray or
    an OracleRefusal naming the first violating pair."""
    adj = neighbors(g)
    k = len(adj[0])
    for v in range(1, g.n):
        if len(adj[v]) != k:
            return OracleRefusal(
                f"not regular: vertex 0 has degree {k}, vertex {v} has degree {len(adj[v])}",
                u=0,
                v=v,
            )

    diam = dd.diameter
    expected = [None] * (diam + 1)
    first_pair = [None] * (diam + 1)
    for u in range(g.n):
        du = dd.dist[u].tolist()
        for v, i in enumerate(du):
            c = a = b = 0
            for w in adj[v]:
                dw = du[w]
                if dw == i - 1:
                    c += 1
                elif dw == i:
                    a += 1
                else:
                    b += 1
            triple = (c, a, b)
            if expected[i] is None:
                expected[i] = triple
                first_pair[i] = (u, v)
            elif expected[i] != triple:
                which = next(
                    name
                    for name, old, new in zip("cab", expected[i], triple)
                    if old != new
                )
                old = expected[i]["cab".index(which)]
                new = triple["cab".index(which)]
                return OracleRefusal(
                    f"{which}_{i} is not constant: pair {first_pair[i]} gives "
                    f"{old}, pair ({u}, {v}) gives {new}",
                    u=u,
                    v=v,
                    distance=i,
                )
    return IntersectionArray(
        b=tuple(expected[i][2] for i in range(diam)),
        c=tuple(expected[i][0] for i in range(1, diam + 1)),
    )


# ---------------------------------------------------------------------------
# References for the spectral stages: one exact reference from the integer
# Laplacian, with no eigenvalue and no tolerance, at O(m n) integer
# operations per degree (0.3 s on cycle:128, 13 s on G(50, .3)), and float
# ones that pin bits or evaluate monomial coefficients at a matrix.
# ---------------------------------------------------------------------------

def exact_excess(g: Graph) -> SimpleNamespace:
    """The predistance system of g by the Stieltjes procedure on its
    Laplacian L, with <p, q> = tr(p(L) q(L)) / n, in integers and Fractions.

    Each monic q_i(L) and its monomial coefficients are integers over one
    Fraction scale, divided by their gcd after each step; L q_i(L) is deg
    q_i(L) minus the neighbour rows, O(m n) integer operations.  d is the
    first i at which q_{i+1}(L) = 0.  r_i = c_i q_i, c_i = q_i(0) / <q_i, q_i>.

    Returns the int d and, as Fractions indexed like PredistanceSystem's
    arrays, at_zero (r_0(0)..r_d(0)), alpha, beta and gamma; polys, the
    ascending monomial coefficients of each r_i; and matrices, one pair
    (scale, M) per i with r_i(L) = scale * M, M an integer object array.
    """
    n = g.n
    adj = neighbors(g)
    deg = np.array([len(a) for a in adj], dtype=object)[:, None]
    # q_i = scale * (q, k): q_i(L) is scale * q, its coefficients scale * k
    q, k, scale = np.identity(n, dtype=int).astype(object), [1], Fraction(1)
    prev, prev_k, prev_scale = q, [], Fraction(0)
    terms, totals, norms, alpha = [], [], [], []
    while True:
        terms.append((scale, q, k))
        lq = deg * q - np.array([q[a].sum(axis=0) for a in adj])
        # q_i(L) is symmetric: tr(q_i(L)^2) sums its squared entries
        totals.append(int((q * q).sum()))
        norms.append(scale * scale * Fraction(totals[-1], n))
        alpha.append(Fraction(int((lq * q).sum()), totals[-1]))
        b = norms[-1] / norms[-2] if len(norms) > 1 else Fraction(0)
        # scale (x - alpha_i) q_i - b prev_scale q_{i-1} over one denominator
        coeffs = (scale, -scale * alpha[-1], -b * prev_scale)
        common = math.lcm(*(c.denominator for c in coeffs))
        x, y, z = (c.numerator * (common // c.denominator) for c in coeffs)
        new = x * lq + y * q + z * prev
        if not new.any():
            break
        new_k = [x * s + y * t + z * u for s, t, u in zip_longest([0, *k], k, prev_k, fillvalue=0)]
        div = math.gcd(*new.ravel().tolist(), *new_k)
        prev, prev_k, prev_scale = q, k, scale
        q, k, scale = new // div, [t // div for t in new_k], Fraction(div, common)
    d = len(norms) - 1
    # r_i = f_i * (q, k) with f_i = c_i scale_i
    f = [Fraction(n * k[0], total) for (_, _, k), total in zip(terms, totals)]
    c = [fi / s for fi, (s, _, _) in zip(f, terms)]
    return SimpleNamespace(
        d=d,
        at_zero=[fi * k[0] for fi, (_, _, k) in zip(f, terms)],
        alpha=alpha,
        beta=[c[i + 1] * (norms[i + 1] / norms[i]) / c[i] for i in range(d)],
        gamma=[c[i] / c[i + 1] for i in range(d)],
        polys=[[fi * t for t in k] for fi, (_, _, k) in zip(f, terms)],
        matrices=[(fi, m) for fi, (_, m, _) in zip(f, terms)],
    )


def exact_sum_is(terms, target) -> bool:
    """Whether sum(scale * M) over the (scale, M) pairs of exact_excess's
    matrices equals the integer matrix target, exactly."""
    den = math.lcm(*(s.denominator for s, _ in terms))
    total = sum(m * (s.numerator * (den // s.denominator)) for s, m in terms)
    return bool(np.all(total == np.asarray(target, dtype=object) * den))


def max_relative_error(got, exact) -> float:
    """max_i |got_i - exact_i| / |exact_i|, each difference taken exactly;
    an exact 0 counts as matched only by 0."""
    errors = [0.0]
    for g, e in zip(np.asarray(got).tolist(), exact, strict=True):
        errors.append(float(abs(Fraction(g) - e) / abs(e)) if e else 0.0 if g == 0 else math.inf)
    return max(errors)


def reference_phi_products(thetas: np.ndarray) -> np.ndarray:
    """phi_i = prod_{j != i} (theta_i - theta_j), one Python float product
    per i, left to right, the loop the package ran before its blocked numpy
    reduction.  Whenever a partial product leaves [2^-512, 2^512] its
    binary exponent is carried aside (math.frexp), so the bits are those
    of the plain product wherever that stays normal."""
    thetas = thetas.tolist()
    phis = []
    for i, t in enumerate(thetas):
        acc, exp = 1.0, 0
        for u in thetas[:i] + thetas[i + 1 :]:
            acc *= t - u
            if not 2.0**-512 < abs(acc) < 2.0**512:
                acc, e = math.frexp(acc)
                exp += e
        phis.append(math.ldexp(acc, exp))
    return np.array(phis)


def reference_eval_matrix(p, m: np.ndarray) -> np.ndarray:
    """Horner at a matrix with a c * I term added at every step,
    symmetrized."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    acc = np.zeros((n, n))
    eye = np.eye(n)
    for c in reversed(np.asarray(p, dtype=float)):
        acc = acc @ m + c * eye
    return (acc + acc.T) / 2.0
