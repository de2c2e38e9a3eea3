"""Small builders shared across test modules."""

import math
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import networkx as nx
import numpy as np

from lapexcess import (
    DistanceData,
    Graph,
    IntersectionArray,
    OracleRefusal,
    PredistanceSystem,
    SpectralMeasure,
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
    """Make theorem.average_excess return change(k), where k is the value
    it computes."""
    real = theorem.average_excess
    monkeypatch.setattr(theorem, "average_excess", lambda dd, d: change(real(dd, d)))


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
# References for the spectral stages: numpy versions that keep monomial
# coefficients, and an exact rational one for the predistance system.
# ---------------------------------------------------------------------------

def reference_predistance(mu):
    """(polys, alpha, beta, gamma) by the Stieltjes procedure on numpy
    arrays, keeping every node-value array."""
    thetas = mu.thetas
    w = mu.weights
    d = mu.d

    q_coeffs = [np.array([1.0])]
    q_vals = [np.ones(d + 1)]
    q_norm2 = [float(w.sum())]
    for i in range(d):
        a_i = float(np.sum(w * thetas * q_vals[i] ** 2)) / q_norm2[i]
        nxt = np.concatenate(([0.0], q_coeffs[i]))
        nxt[: i + 1] -= a_i * q_coeffs[i]
        vals = (thetas - a_i) * q_vals[i]
        if i > 0:
            b_i = q_norm2[i] / q_norm2[i - 1]
            nxt[:i] -= b_i * q_coeffs[i - 1]
            vals = vals - b_i * q_vals[i - 1]
        q_coeffs.append(nxt)
        q_vals.append(vals)
        q_norm2.append(float(np.sum(w * vals**2)))

    polys = []
    r_vals = []
    r_norm2 = []
    for i in range(d + 1):
        scale = q_coeffs[i][0] / q_norm2[i]
        polys.append(scale * q_coeffs[i])
        r_vals.append(scale * q_vals[i])
        r_norm2.append(scale * scale * q_norm2[i])

    alpha = np.zeros(d + 1)
    beta = np.zeros(d)
    gamma = np.zeros(d)
    for i in range(d + 1):
        x_ri = thetas * r_vals[i]
        alpha[i] = float(np.sum(w * x_ri * r_vals[i])) / r_norm2[i]
        if i < d:
            gamma[i] = float(np.sum(w * x_ri * r_vals[i + 1])) / r_norm2[i + 1]
            beta[i] = float(np.sum(w * (thetas * r_vals[i + 1]) * r_vals[i])) / r_norm2[i]
    return polys, alpha, beta, gamma


def exact_predistance(s: SpectralMeasure):
    """(values_at_zero, alpha, beta, gamma) as lists of Fractions: the
    Stieltjes procedure in exact rational arithmetic on the spectrum's
    float nodes, with the exact weights m_i / n.

    With the monic q_i and c_i = q_i(0) / <q_i, q_i>, r_i = c_i q_i, so
    r_i(0) = c_i q_i(0), alpha_i is the Stieltjes shift, gamma_{i+1} =
    c_i / c_{i+1} and beta_{i-1} = c_i b_i / c_{i-1}.

    The nodes are held as integers over their common power-of-two
    denominator, and each node-value vector of q_i as integers over one
    Fraction scale, reduced by their gcd, so every sum is an integer sum.
    """
    thetas = [Fraction(t) for t in s.thetas.tolist()]
    den = math.lcm(*(t.denominator for t in thetas))
    nodes = [t.numerator * (den // t.denominator) for t in thetas]
    mults = s.mults.tolist()

    q_at_0, vals, scale = [Fraction(1)], [1] * len(nodes), Fraction(1)
    prev_vals, prev_scale = [0] * len(nodes), Fraction(0)
    norms, shifts = [], []
    for i in range(s.d + 1):
        # <q_i, q_i> = scale^2 / n * sum m V^2; the shift does not see scale
        squares = [m * v * v for m, v in zip(mults, vals)]
        total = sum(squares)
        norms.append(scale * scale * Fraction(total, s.n))
        shifts.append(Fraction(sum(t * x for t, x in zip(nodes, squares)), den * total))
        if i == s.d:
            break
        b = norms[i] / norms[i - 1] if i else Fraction(0)
        # b and prev_scale are 0 at i = 0, where q_{i-1} does not exist
        q_at_0.append(-shifts[i] * q_at_0[i] - b * q_at_0[i - 1])
        # q_{i+1} = (x - shift_i) q_i - b q_{i-1}, over one denominator
        coeffs = (scale / den, -scale * shifts[i], -b * prev_scale)
        common = math.lcm(*(c.denominator for c in coeffs))
        at_x, at_v, at_u = (c.numerator * (common // c.denominator) for c in coeffs)
        new = [at_x * t * v + at_v * v + at_u * u for t, v, u in zip(nodes, vals, prev_vals)]
        g = math.gcd(*new)
        prev_vals, prev_scale = vals, scale
        vals, scale = [v // g for v in new], Fraction(g, common)
    c = [z / nrm for z, nrm in zip(q_at_0, norms)]
    at_zero = [ci * z for ci, z in zip(c, q_at_0)]
    gamma = [c[i] / c[i + 1] for i in range(s.d)]
    beta = [c[i + 1] * (norms[i + 1] / norms[i]) / c[i] for i in range(s.d)]
    return at_zero, shifts, beta, gamma


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


def reference_hoffman(mu, n: int) -> np.ndarray:
    """(n/phi_0) prod_{i>=1} (x - theta_i) by repeated np.convolve."""
    h = np.array([1.0])
    phi0 = 1.0
    for theta in mu.thetas[1:]:
        h = np.convolve(h, np.array([-theta, 1.0]))
        phi0 *= -theta
    return n / phi0 * h


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
