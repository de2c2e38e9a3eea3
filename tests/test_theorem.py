"""Verdict pipeline and combinatorial oracle."""

import math

import networkx as nx
import numpy as np
import pytest
from helpers import (
    adjacency,
    paw_graph,
    permute_graph,
    poison_spectral_excess,
    random_connected_graph,
    to_networkx,
)

from lapexcess import (
    Graph,
    IntersectionArray,
    InternalCheckError,
    MisclusteredSpectrumError,
    OracleRefusal,
    Verdict,
    analyze,
    average_excess,
    build_document,
    complete_graph,
    cycle_graph,
    distance_data,
    drg_oracle,
    eval_matrix,
    hypercube_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from lapexcess import theorem


def prism_graph() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching.

    Regular of degree 3 but not distance-regular, because adjacent vertices
    in a triangle share a neighbor while matched vertices do not.
    """
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


# ---------------------------------------------------------------------------
# Average excess
# ---------------------------------------------------------------------------

def test_average_excess_values():
    assert average_excess(distance_data(path_graph(4)), 3) == 0.5
    assert average_excess(distance_data(petersen_graph()), 2) == 6.0
    for n in (2, 4, 7):
        assert average_excess(distance_data(complete_graph(n)), 1) == n - 1


def test_average_excess_beyond_diameter_is_zero():
    assert average_excess(distance_data(path_graph(3)), 5) == 0.0


def test_average_excess_below_diameter_raises():
    with pytest.raises(MisclusteredSpectrumError):
        average_excess(distance_data(path_graph(4)), 2)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def test_oracle_petersen():
    g = petersen_graph()
    arr = drg_oracle(g, distance_data(g))
    assert isinstance(arr, IntersectionArray)
    assert arr.b == (3, 2)
    assert arr.c == (1, 1)
    assert arr.a == (0, 2)
    assert str(arr) == "{3,2;1,1}"


def test_oracle_cycle5():
    g = cycle_graph(5)
    arr = drg_oracle(g, distance_data(g))
    assert arr.b == (2, 1)
    assert arr.c == (1, 1)
    # at the diameter a_2 + c_2 = k, so a_2 = 1: the two neighbors of a
    # vertex at distance 2 from u sit at distances 1 and 2 from u
    assert arr.a == (0, 1)
    assert str(arr) == "{2,1;1,1}"


def test_oracle_complete4():
    g = complete_graph(4)
    arr = drg_oracle(g, distance_data(g))
    assert arr.b == (3,)
    assert arr.c == (1,)
    assert arr.a == (2,)


def test_oracle_refuses_irregular():
    g = path_graph(4)
    res = drg_oracle(g, distance_data(g))
    assert isinstance(res, OracleRefusal)
    assert (res.u, res.v) == (0, 1)
    assert res.distance is None
    assert res.reason == "not regular: vertex 0 has degree 1, vertex 1 has degree 2"


def test_oracle_refuses_prism():
    # regular, so the refusal must come from a varying intersection count
    g = prism_graph()
    res = drg_oracle(g, distance_data(g))
    assert isinstance(res, OracleRefusal)
    assert (res.u, res.v) == (0, 3)
    assert res.distance == 1
    assert res.reason == "a_1 is not constant: pair (0, 1) gives 1, pair (0, 3) gives 0"


def test_intersection_array_validation():
    with pytest.raises(ValueError):
        IntersectionArray(b=(3, 2), c=(1,), a=(0, 2))
    with pytest.raises(ValueError):
        IntersectionArray(b=(3, 2), c=(1, 1), a=(0, 1))
    with pytest.raises(ValueError):
        IntersectionArray(b=(3, -2), c=(1, 1), a=(0, 4))


# ---------------------------------------------------------------------------
# Theorem pipeline
# ---------------------------------------------------------------------------

def test_petersen_report():
    rep = analyze(petersen_graph())
    assert rep.verdict is Verdict.DISTANCE_REGULAR
    assert rep.spectrum.d == 2
    assert rep.distances.diameter == 2
    assert np.isclose(rep.spectral_excess, 6.0, atol=1e-9)
    assert rep.average_excess == 6.0
    assert np.all(theorem.per_vertex_excess(rep.distances, 2) == 6)
    assert build_document(rep)["excess"]["per_vertex"] == [6] * 10
    assert np.max(rep.identity_residuals) <= 1e-8
    assert rep.oracle is not None
    assert rep.oracle.b == (3, 2)


def test_star_not_distance_regular():
    rep = analyze(star_graph(3))
    assert rep.verdict is Verdict.NOT_DISTANCE_REGULAR
    assert rep.average_excess < rep.spectral_excess
    assert isinstance(rep.oracle, OracleRefusal)


def test_path4_quantities():
    rep = analyze(path_graph(4))
    assert rep.verdict is Verdict.NOT_DISTANCE_REGULAR
    assert np.isclose(rep.spectral_excess, 0.8, atol=1e-9)
    assert rep.average_excess == 0.5
    assert np.isclose(rep.relative_gap, 0.375, atol=1e-9)


def test_single_vertex_is_distance_regular():
    rep = analyze(Graph(1))
    assert rep.verdict is Verdict.DISTANCE_REGULAR
    assert rep.spectrum.d == 0
    assert rep.spectral_excess == 1.0
    assert rep.average_excess == 1.0


def test_paw_has_d_beyond_diameter():
    a = analyze(paw_graph())
    assert a.spectrum.d == 3
    assert a.distances.diameter == 2
    assert a.average_excess == 0.0
    assert build_document(a)["excess"]["per_vertex"] == [0, 0, 0, 0]
    assert a.verdict is Verdict.NOT_DISTANCE_REGULAR


def test_report_average_matches_per_vertex_mean():
    for g in (petersen_graph(), path_graph(5), prism_graph()):
        rep = analyze(g)
        per_vertex = build_document(rep)["excess"]["per_vertex"]
        assert rep.average_excess == pytest.approx(float(np.mean(per_vertex)))


def test_relabeling_invariance():
    rng = np.random.default_rng(314)
    base = [petersen_graph(), prism_graph(), random_connected_graph(rng, 9, 5)]
    for g in base:
        ref = analyze(g)
        for _ in range(3):
            perm = rng.permutation(g.n)
            rep = analyze(permute_graph(g, perm))
            assert rep.verdict is ref.verdict
            assert np.isclose(rep.average_excess, ref.average_excess, atol=1e-12)
            assert np.isclose(rep.spectral_excess, ref.spectral_excess, atol=1e-9)


def test_no_oracle_flag():
    a = analyze(petersen_graph(), run_oracle=False)
    assert a.oracle is None
    assert a.verdict is Verdict.DISTANCE_REGULAR


def test_oracle_size_cap(monkeypatch):
    monkeypatch.setattr(theorem, "ORACLE_MAX_N", 5)
    a = analyze(petersen_graph())
    assert a.oracle is None


def test_gray_zone_is_inconclusive():
    # path(4) has relative gap 0.375; a tolerance of 0.1 puts it between
    # tol and 10*tol
    rep = analyze(path_graph(4), tol_eq=0.1, run_oracle=False)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_sloppy_tolerance_trips_oracle_audit():
    # tol_eq = 0.5 would call path(4) distance-regular; the oracle
    # disagrees and the pipeline must refuse to return the report
    with pytest.raises(InternalCheckError):
        analyze(path_graph(4), tol_eq=0.5)
    rep = analyze(path_graph(4), tol_eq=0.5, run_oracle=False)
    assert rep.verdict is Verdict.DISTANCE_REGULAR  # unaudited, by request


def test_corpus_structural_invariants(analyzed_corpus):
    """Corpus-wide structure: the diameter never exceeds d, the reported
    average is the mean of the per-vertex counts, and a clean residual for
    r_d cascades down to every lower index."""
    for name, g, a in analyzed_corpus:
        d = a.spectrum.d
        assert a.distances.diameter <= d, name
        assert a.average_excess == pytest.approx(
            float(np.mean(build_document(a)["excess"]["per_vertex"]))
        ), name
        if a.identity_residuals[d] <= 1e-6:
            assert np.max(a.identity_residuals) <= 1e-6, name


# ---------------------------------------------------------------------------
# Regular graphs: distance polynomials in A, and the d = 2 case
# ---------------------------------------------------------------------------

def _adjacency_polys(a, k: int) -> list:
    """p_i(x) = r_i(k - x): on a k-regular graph L = kI - A, so p_i(A) = r_i(L)."""
    shift = np.polynomial.Polynomial([float(k), -1.0])
    return [np.polynomial.Polynomial(p)(shift).coef for p in a.system.polys]


def test_adjacency_polys_petersen():
    g = petersen_graph()
    a = analyze(g)
    polys = _adjacency_polys(a, 3)
    adj = adjacency(g)
    dd = a.distances
    assert np.allclose(eval_matrix(polys[0], adj), np.eye(g.n), atol=1e-8)
    for i in (1, 2):
        assert np.max(np.abs(eval_matrix(polys[i], adj) - (dd.dist == i))) <= 1e-8


def test_adjacency_polys_complete4():
    polys = _adjacency_polys(analyze(complete_graph(4)), 3)
    assert np.allclose(polys[0], [1.0])
    assert np.allclose(polys[1], [0.0, 1.0], atol=1e-12)


def _degree_stats(g):
    deg = g.degrees().astype(float)
    return float(deg.mean()), float((deg**2).mean())


def test_three_eigenvalue_star():
    # d = 2, so distance-regular exactly when regular; the star is not
    a = analyze(star_graph(3))
    assert a.spectrum.d == 2
    kbar, ksq = _degree_stats(star_graph(3))
    assert (kbar, ksq) == (1.5, 3.0)
    assert np.isclose(ksq - kbar * kbar, 0.75)
    assert a.verdict is Verdict.NOT_DISTANCE_REGULAR


def test_three_eigenvalue_regular_cases():
    for g in (petersen_graph(), cycle_graph(4), hypercube_graph(2)):
        a = analyze(g)
        assert a.spectrum.d == 2
        assert len(set(g.degrees().tolist())) == 1
        assert a.verdict is Verdict.DISTANCE_REGULAR


def test_three_eigenvalue_gamma_matches_system():
    # gamma_1 = -1 + mean(k) - mean(k^2) / mean(k)
    for g in (petersen_graph(), star_graph(3), cycle_graph(5)):
        a = analyze(g)
        assert a.spectrum.d == 2
        kbar, ksq = _degree_stats(g)
        assert np.isclose(a.system.gamma[0], -1.0 + kbar - ksq / kbar, atol=1e-8)


# ---------------------------------------------------------------------------
# Non-finite spectral quantities fail closed
# ---------------------------------------------------------------------------

def test_nan_closed_form_raises(monkeypatch):
    monkeypatch.setattr(theorem, "spectral_excess_closed_form", lambda mu, phis, n: math.nan)
    with pytest.raises(InternalCheckError, match="disagrees between routes"):
        analyze(petersen_graph())


def test_nan_spectral_excess_raises(monkeypatch):
    poison_spectral_excess(monkeypatch)
    with pytest.raises(InternalCheckError, match="not finite"):
        analyze(petersen_graph())


# ---------------------------------------------------------------------------
# Cospectral mates
# ---------------------------------------------------------------------------

def _torus_cayley_graph(connection) -> Graph:
    """Cayley graph on Z4 x Z4, vertex (x, y) numbered 4x + y."""
    edges = set()
    for x in range(4):
        for y in range(4):
            for dx, dy in connection:
                u, v = 4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(16, edges)


def test_shrikhande_and_rook_graph_are_cospectral_and_distance_regular():
    # The Shrikhande graph and the 4 x 4 rook's graph (same row or same
    # column) are both srg(16, 6, 2, 2) and not isomorphic.
    shrikhande = _torus_cayley_graph([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
    rook = Graph.from_edges(
        16,
        [(u, v) for u in range(16) for v in range(u + 1, 16) if u // 4 == v // 4 or u % 4 == v % 4],
    )
    assert not nx.is_isomorphic(to_networkx(shrikhande), to_networkx(rook))
    for g in (shrikhande, rook):
        a = analyze(g)
        assert np.allclose(a.spectrum.thetas, [0.0, 4.0, 8.0], atol=1e-9)
        assert a.spectrum.mults.tolist() == [1, 6, 9]
        assert a.verdict is Verdict.DISTANCE_REGULAR
        assert str(a.oracle) == "{6,3;1,2}"


def test_hoffman_graph_is_cospectral_with_q4_but_not_distance_regular():
    # Godsil-McKay switching of Q4 on C = {0, 3, 5, 9}: every vertex outside
    # C with exactly two neighbours in C swaps its edges to C for non-edges.
    # The result is the Hoffman graph, 4-regular and Laplacian-cospectral
    # with Q4; the spectral excess is the same and only the average differs.
    q4 = hypercube_graph(4)
    switch = {0, 3, 5, 9}
    edges = set(q4.edges)
    for v in range(q4.n):
        if v in switch:
            continue
        into = {c for c in switch if (min(v, c), max(v, c)) in q4.edges}
        if len(into) == 2:
            edges ^= {(min(v, c), max(v, c)) for c in switch}
    hoffman = Graph(q4.n, frozenset(edges))
    assert hoffman.edge_count == 32
    assert set(hoffman.degrees().tolist()) == {4}
    h = to_networkx(hoffman)
    assert not nx.is_isomorphic(h, to_networkx(q4))
    assert sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h)) == 48

    a, q = analyze(hoffman), analyze(q4)
    for spectrum in (a.spectrum, q.spectrum):
        assert np.allclose(spectrum.thetas, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-9)
        assert spectrum.mults.tolist() == [1, 4, 6, 4, 1]
    assert a.spectral_excess == pytest.approx(1.0, abs=1e-9)
    assert a.average_excess == 0.5
    assert a.verdict is Verdict.NOT_DISTANCE_REGULAR
    assert isinstance(a.oracle, OracleRefusal)
    assert a.oracle.reason.startswith("c_2 ")
    assert q.verdict is Verdict.DISTANCE_REGULAR
    assert str(q.oracle) == "{4,3,2,1;1,2,3,4}"


# ---------------------------------------------------------------------------
# Differential test against networkx
# ---------------------------------------------------------------------------

def test_verdicts_and_arrays_match_networkx(analyzed_corpus):
    """The verdict is distance_regular exactly where networkx says so, and
    the oracle's array is networkx's, on the atlas and the named families."""
    for name, g, a in analyzed_corpus:
        h = to_networkx(g)
        drg = nx.is_distance_regular(h)
        assert (a.verdict is Verdict.DISTANCE_REGULAR) == drg, name
        if drg:
            assert (list(a.oracle.b), list(a.oracle.c)) == nx.intersection_array(h), name



def random_regular_samples(count=30):
    """(k, networkx graph) for count seeded connected k-regular graphs on
    4..30 vertices with 2 <= k <= 6."""
    rng = np.random.default_rng(7)
    samples, seed = [], 0
    while len(samples) < count:
        n = int(rng.integers(4, 31))
        k = int(rng.integers(2, min(n - 1, 6) + 1))
        if n * k % 2:
            continue
        h = nx.random_regular_graph(k, n, seed=seed)
        seed += 1
        while not nx.is_connected(h):
            h = nx.random_regular_graph(k, n, seed=seed)
            seed += 1
        samples.append((k, h))
    return samples


# Known fault: these samples have n distinct Laplacian eigenvalues and a
# spectral excess below 1e-24.  The Stieltjes route computes r_d(0) with an
# absolute error above 1e-6 there (the closed form is right), so the route
# cross-check trips and analyze fails closed with exit 70.
_ROUTE_FAULT = pytest.mark.xfail(
    raises=InternalCheckError, strict=True, reason="r_d(0) loses precision when tiny"
)
_ROUTE_FAULT_SAMPLES = {0, 8, 19, 20, 27}


@pytest.mark.parametrize(
    "k, h",
    [
        pytest.param(
            k, h,
            id=f"{i}-n{h.number_of_nodes()}-k{k}",
            marks=_ROUTE_FAULT if i in _ROUTE_FAULT_SAMPLES else (),
        )
        for i, (k, h) in enumerate(random_regular_samples())
    ],
)
def test_random_regular_graph_matches_networkx(k, h):
    """On a random regular graph the verdict is networkx's, and so is the
    oracle's array wherever networkx finds one.  A connected 2-regular
    graph is a cycle, which is distance-regular; networkx stops its search
    at diameter 8 log2(n) / 3, a bound that holds only for valency >= 3, so
    for cycles the expected array is C_n's own."""
    n = h.number_of_nodes()
    a = analyze(Graph.from_edges(n, h.edges()))
    if k == 2:
        diam = n // 2
        drg = True
        array = ([2] + [1] * (diam - 1), [1] * (diam - 1) + [2 - n % 2])
    else:
        drg = nx.is_distance_regular(h)
        array = nx.intersection_array(h) if drg else None
    assert a.verdict is not Verdict.INCONCLUSIVE
    assert (a.verdict is Verdict.DISTANCE_REGULAR) == drg
    if drg:
        assert (list(a.oracle.b), list(a.oracle.c)) == array
