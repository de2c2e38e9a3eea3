"""Verdict pipeline and combinatorial oracle."""

import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from helpers import (
    adjacency,
    gnp_graph,
    overflow_polynomial,
    paw_graph,
    perturb_eigenvectors,
    permute_graph,
    poison_basis,
    poison_spectral_excess,
    random_connected_graph,
    reverse_measure,
    reference_distances,
    reference_eval_matrix,
    reference_oracle,
    reference_predistance,
    shift_eigenvalues,
    to_networkx,
)

from lapexcess import (
    DistanceData,
    Graph,
    IntersectionArray,
    InternalCheckError,
    OracleRefusal,
    Verdict,
    analyze,
    average_excess,
    build_document,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance_data,
    drg_oracle,
    eigenvalues_sym,
    eval_matrix,
    hypercube_graph,
    laplacian_matrix,
    path_graph,
    petersen_graph,
    predistance_values,
    star_graph,
)
from lapexcess import format_edge_list, graphs, theorem
from lapexcess.cli import main
from lapexcess.theorem import CROSS_CHECK_TOL, EQUALITY_TOL


def prism_graph() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching.

    Regular of degree 3 but not distance-regular, because adjacent vertices
    in a triangle share a neighbor while matched vertices do not.
    """
    return Graph(
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
    with pytest.raises(InternalCheckError, match="diameter 3 exceeds d = 2: distinct eigenvalues were merged"):
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
    # a is derived from b and c, a_i = b_0 - b_i - c_i with b_D = 0
    assert IntersectionArray(b=(3, 2), c=(1, 1)).a == (0, 2)
    assert IntersectionArray(b=(), c=()).a == ()
    with pytest.raises(ValueError, match="length"):
        IntersectionArray(b=(3, 2), c=(1,))
    with pytest.raises(ValueError, match="nonnegative"):
        IntersectionArray(b=(3, -2), c=(1, 1))
    # b_i + c_i > b_0 leaves a_i negative, at i < D and at i = D
    with pytest.raises(ValueError, match="nonnegative"):
        IntersectionArray(b=(3, 2), c=(2, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        IntersectionArray(b=(2, 1), c=(1, 3))


@pytest.mark.parametrize("value, counts", [
    (1, "c = 0, a = 1, b = 2"),
    (4, "c = 12, a = -14, b = 5"),
], ids=["c-zero", "out-of-range"])
def test_oracle_fails_closed_on_impossible_counts(value, counts):
    # petersen's vertices 0 and 1 are at distance 2; no true distance
    # matrix gives these counts at that pair
    g = petersen_graph()
    dd = distance_data(g)
    dist = dd.dist.copy()
    dist[0, 1] = value
    with pytest.raises(
        InternalCheckError,
        match=rf"impossible at pair \(0, 1\), distance {value}: {counts} with valency 3;",
    ):
        drg_oracle(g, DistanceData(dist, dd.diameter))


# ---------------------------------------------------------------------------
# Distances and oracle against the Python references in helpers.py
# ---------------------------------------------------------------------------

def _matches_references(g, name):
    """Assert equal distances and an equal oracle result, witness included;
    return the oracle result."""
    dd, ref = distance_data(g), reference_distances(g)
    assert dd.dist.dtype.kind == "i", name
    assert np.array_equal(dd.dist, ref.dist), name
    assert dd.diameter == ref.diameter, name
    result = drg_oracle(g, dd)
    assert result == reference_oracle(g, ref), name
    return result


def test_distances_and_oracle_match_references_on_the_relabelled_atlas(atlas_corpus):
    rng = np.random.default_rng(2718)
    for name, g in atlas_corpus:
        _matches_references(permute_graph(g, rng.permutation(g.n)), name)


def test_distances_and_oracle_match_references_on_random_regular_graphs():
    # regular and mostly not distance-regular, so the oracle gets past its
    # degree check and names a witness pair
    rng = np.random.default_rng(1729)
    seed = witnesses = 0
    for _ in range(32):
        n, k = int(rng.integers(8, 61)), int(rng.integers(3, 7))
        n += n * k % 2
        h = nx.random_regular_graph(k, n, seed=seed)
        while not nx.is_connected(h):
            seed += 1
            h = nx.random_regular_graph(k, n, seed=seed)
        seed += 1
        g = permute_graph(Graph(n, h.edges()), rng.permutation(n))
        result = _matches_references(g, f"n={n} k={k} seed={seed - 1}")
        witnesses += isinstance(result, OracleRefusal) and result.distance is not None
    assert witnesses >= 30


_NAMED = (
    [(f"C{k}", cycle_graph(k)) for k in range(3, 13)]
    + [("Q3", hypercube_graph(3)), ("Q4", hypercube_graph(4)), ("petersen", petersen_graph())]
    + [(f"K{m},{m}", complete_bipartite_graph(m, m)) for m in range(1, 6)]
    + [("n=1", Graph(1)), ("n=2", path_graph(2))]
)


@pytest.mark.parametrize("name, g", _NAMED, ids=[name for name, _ in _NAMED])
def test_distances_and_oracle_match_references_on_named_graphs(name, g):
    assert isinstance(_matches_references(g, name), IntersectionArray)


def test_distances_in_float64_match_references(monkeypatch):
    # past 4096 vertices the same products run in float64; the lollipop's
    # sums of distances over a clique pass 2^11, where float16 stops being
    # exact
    monkeypatch.setattr(graphs, "_FLOAT32_MAX_N", 0)
    lollipop = Graph(400, nx.lollipop_graph(200, 200).edges())
    for name, g in _NAMED + [("lollipop", lollipop)]:
        _matches_references(g, name)


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [
    lambda: cycle_graph(128),
    lambda: hypercube_graph(10),
    lambda: complete_bipartite_graph(300, 300),
], ids=["C128", "Q10", "K300,300"])
def test_distance_and_oracle_peaks_stay_within_five_n_by_n_arrays(make):
    # about the peak of eigenvalues_sym, so neither stage raises the
    # process peak; each graph is fresh, so its adjacency matrix is built
    # inside the stage and counted
    g = make()
    bound = 5 * 8 * g.n**2
    dd = distance_data(g)
    assert _peak_bytes(distance_data, make()) <= bound
    assert _peak_bytes(drg_oracle, make(), dd) <= bound


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


def test_gray_zone_is_inconclusive(monkeypatch):
    # path(4) has relative gap 0.375; a band injected at 0.1 puts it
    # between the band and ten times it
    monkeypatch.setattr(theorem, "EQUALITY_TOL", 0.1)
    rep = analyze(path_graph(4))
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert build_document(rep)["tolerances"]["equality"] == 0.1


def test_sloppy_tolerance_trips_oracle_audit(monkeypatch):
    # a band injected at 0.5 would call path(4) distance-regular; the
    # oracle disagrees and the pipeline must refuse to return the report
    monkeypatch.setattr(theorem, "EQUALITY_TOL", 0.5)
    with pytest.raises(InternalCheckError):
        analyze(path_graph(4))


def test_corpus_structural_invariants(analyzed_corpus):
    """Corpus-wide structure: the diameter never exceeds d, the reported
    average is the mean of the per-vertex counts, and a clean residual for
    r_d cascades down to every lower index.  A not-distance-regular verdict
    carries no identity residuals; there r_d(L) != A_d, which is the
    theorem itself, so r_d(L) is still evaluated on every graph."""
    for name, g, a in analyzed_corpus:
        d = a.spectrum.d
        assert a.distances.diameter <= d, name
        assert a.average_excess == pytest.approx(
            float(np.mean(build_document(a)["excess"]["per_vertex"]))
        ), name
        if a.verdict is Verdict.NOT_DISTANCE_REGULAR:
            assert a.identity_residuals is None, name
            raw, vectors = eigenvalues_sym(laplacian_matrix(g))
            basis = (predistance_values(a.system, raw), vectors)
            r_d = eval_matrix(np.eye(1, d + 1, d)[0], basis)
            assert np.max(np.abs(r_d - (a.distances.dist == d))) > 1e-6, name
        elif a.identity_residuals[d] <= 1e-6:
            assert np.max(a.identity_residuals) <= 1e-6, name


# ---------------------------------------------------------------------------
# Regular graphs: distance polynomials in A, and the d = 2 case
# ---------------------------------------------------------------------------

def _adjacency_polys(a, k: int) -> list:
    """p_i(x) = r_i(k - x): on a k-regular graph L = kI - A, so p_i(A) = r_i(L).
    The r_i are the monomial reference's, on the analysis' spectral measure."""
    shift = np.polynomial.Polynomial([float(k), -1.0])
    polys = reference_predistance(a.spectrum)[0]
    return [np.polynomial.Polynomial(p)(shift).coef for p in polys]


def test_adjacency_polys_petersen():
    g = petersen_graph()
    a = analyze(g)
    polys = _adjacency_polys(a, 3)
    adj = adjacency(g)
    dd = a.distances
    assert np.allclose(reference_eval_matrix(polys[0], adj), np.eye(g.n), atol=1e-8)
    for i in (1, 2):
        assert np.max(np.abs(reference_eval_matrix(polys[i], adj) - (dd.dist == i))) <= 1e-8


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
    monkeypatch.setattr(theorem, "spectral_excess_closed_form", lambda spectrum, phis: math.nan)
    for band in (EQUALITY_TOL, 0.5):
        monkeypatch.setattr(theorem, "EQUALITY_TOL", band)
        with pytest.raises(InternalCheckError, match="disagrees between routes"):
            analyze(petersen_graph())


@pytest.mark.parametrize("band", [2.0**-52, EQUALITY_TOL, 0.5])
def test_route_check_reads_its_own_bound(monkeypatch, band):
    # the closed form moved by a tenth of CROSS_CHECK_TOL passes the route
    # check and by ten times it fails, whatever the verdict band
    monkeypatch.setattr(theorem, "EQUALITY_TOL", band)
    closed_form = theorem.spectral_excess_closed_form
    for factor, fails in ((0.1, False), (10.0, True)):
        monkeypatch.setattr(
            theorem,
            "spectral_excess_closed_form",
            lambda spectrum, phis: closed_form(spectrum, phis) * (1 + factor * CROSS_CHECK_TOL),
        )
        if fails:
            with pytest.raises(InternalCheckError, match="disagrees between routes"):
                analyze(petersen_graph())
        else:
            assert analyze(petersen_graph()).verdict is Verdict.DISTANCE_REGULAR


def test_nan_spectral_excess_raises(monkeypatch):
    poison_spectral_excess(monkeypatch)
    with pytest.raises(InternalCheckError, match="not finite"):
        analyze(petersen_graph())


def test_predistance_breakdown_raises(monkeypatch):
    reverse_measure(monkeypatch)
    with pytest.raises(
        InternalCheckError,
        match=r"orthonormal polynomial of degree 1 has value \S+ at 0, where its sign must be \(-1\)\^1;",
    ):
        analyze(petersen_graph())


@pytest.mark.parametrize("which, name", [
    ("hoffman", r"Hoffman residual max\|H\(L\) - J\|"),
    ("identity", r"identity residual max\|r_1\(L\) - A_1\|"),
])
def test_overflowing_residual_raises(monkeypatch, which, name):
    # no RuntimeWarning first: the suite turns warnings into errors
    overflow_polynomial(monkeypatch, which)
    with pytest.raises(InternalCheckError, match=name + " is not finite"):
        analyze(petersen_graph())


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("n", [4, 128])
def test_non_finite_basis_trips_hoffman_on_not_distance_regular(monkeypatch, n, value):
    # the identity residuals do not run on this verdict; the Hoffman
    # polynomial sums every row of the basis, so it alone must trip
    poison_basis(monkeypatch, value)
    with pytest.raises(InternalCheckError, match=r"Hoffman residual max\|H\(L\) - J\| is not finite"):
        analyze(path_graph(n))


@pytest.mark.parametrize("perturb", [perturb_eigenvectors, shift_eigenvalues])
@pytest.mark.parametrize("stage", [
    analyze,
    lambda g: eigenvalues_sym(laplacian_matrix(g)),
], ids=["analyze", "spectrum"])
def test_bad_eigendecomposition_raises(monkeypatch, perturb, stage):
    # the certificate covers the eigenvalues the verdict reads as well as
    # the eigenvectors the residuals read
    perturb(monkeypatch)
    with pytest.raises(InternalCheckError, match="backward error max"):
        stage(petersen_graph())


# ---------------------------------------------------------------------------
# Cost of the residual stage
# ---------------------------------------------------------------------------

def test_residuals_share_one_eigendecomposition(monkeypatch):
    calls = {}
    evaluated_at = []
    bases = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def values_recorded(system, x):
        evaluated_at.append(x)
        bases.append(real_values(system, x))
        return bases[-1]

    def matrix_recorded(c, basis):
        assert basis[0] is bases[-1]
        return real_eval_matrix(c, basis)

    real_values, real_eval_matrix = theorem.predistance_values, theorem.eval_matrix
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(theorem, "predistance_values", counted("predistance_values", values_recorded))
    monkeypatch.setattr(theorem, "eval_matrix", counted("eval_matrix", matrix_recorded))
    for g, verdict, products in (
        # distance-regular, d = 64: the Hoffman polynomial and r_0..r_d
        (cycle_graph(128), Verdict.DISTANCE_REGULAR, 64 + 2),
        # not distance-regular, d = 127: the Hoffman polynomial alone
        (path_graph(128), Verdict.NOT_DISTANCE_REGULAR, 1),
    ):
        calls.update(eigvalsh=0, eigh=0, predistance_values=0, eval_matrix=0)
        evaluated_at.clear()
        a = analyze(g)
        assert a.verdict is verdict
        assert (a.identity_residuals is None) == (verdict is Verdict.NOT_DISTANCE_REGULAR)
        # L factored once, by eigh alone; r_0..r_d evaluated once; one
        # product per residual
        assert calls == {
            "eigvalsh": 0, "eigh": 1, "predistance_values": 1, "eval_matrix": products,
        }
        # every residual reads the basis evaluated at the eigenvalues the
        # verdict reads
        assert [x.tobytes() for x in evaluated_at] == [a.raw_eigenvalues.tobytes()]


def test_residuals_read_the_raw_product():
    # Each reported residual is max|X - T| on the unsymmetrized product
    # X = V diag(p(lambda)) V^T.  T is symmetric, so that is never below the
    # residual of (X + X^T) / 2, and on cycle:128 some are strictly above.
    above = 0
    for g in (cycle_graph(128), path_graph(128), hypercube_graph(6), petersen_graph()):
        a = analyze(g)
        lam, v = eigenvalues_sym(laplacian_matrix(g))
        values = predistance_values(a.system, lam)
        checks = [(a.hoffman_residual, np.ones(a.spectrum.d + 1), 1.0)]
        if a.identity_residuals is not None:
            checks += [
                (r, np.eye(1, i + 1, i)[0], a.distances.dist == i)
                for i, r in enumerate(a.identity_residuals.tolist())
            ]
        for got, c, target in checks:
            x = (v * (c @ values[: len(c)])) @ v.T
            assert got == np.abs(x - target).max(), g
            symmetrized = np.abs((x + x.T) / 2.0 - target).max()
            assert got >= symmetrized, g
            above += got > symmetrized
    assert above > 0


def test_cycle_400_is_distance_regular():
    # d = 200: about 1 s, and no overflow warning (the suite turns warnings
    # into errors)
    a = analyze(cycle_graph(400))
    assert a.verdict is Verdict.DISTANCE_REGULAR
    assert a.hoffman_residual <= 1e-8
    assert np.max(a.identity_residuals) <= 1e-8


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
    return Graph(16, edges)


def test_shrikhande_and_rook_graph_are_cospectral_and_distance_regular():
    # The Shrikhande graph and the 4 x 4 rook's graph (same row or same
    # column) are both srg(16, 6, 2, 2) and not isomorphic.
    shrikhande = _torus_cayley_graph([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
    rook = Graph(
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


@pytest.mark.parametrize(
    "k, h",
    [
        pytest.param(k, h, id=f"{i}-n{h.number_of_nodes()}-k{k}")
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
    a = analyze(Graph(n, h.edges()))
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


@pytest.mark.xfail(
    raises=InternalCheckError,
    strict=True,
    reason="ROADMAP item 1: p_i(0) of a generic graph falls below the ~1e-16 "
    "absolute error Lanczos leaves, so predistance_system's sign check trips",
)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, p", [(30, 0.5), (50, 0.5), (120, 0.3)])
def test_generic_random_graph_is_decided(tmp_path, capsys, n, p, seed):
    """Each of these graphs has a simple spectrum and diameter 2, so d =
    n - 1 exceeds the diameter, no vertex has anything at distance d, and
    the graph is not distance-regular with relative gap exactly 1."""
    g = gnp_graph(n, p, seed)
    a = analyze(g)
    assert (a.spectrum.d, a.distances.diameter) == (n - 1, 2)
    assert a.relative_gap == 1.0
    assert a.verdict is Verdict.NOT_DISTANCE_REGULAR
    assert isinstance(a.oracle, OracleRefusal)
    target = tmp_path / "gnp.txt"
    target.write_text(format_edge_list(g))
    assert main(["analyze", str(target)]) == 1
    capsys.readouterr()
