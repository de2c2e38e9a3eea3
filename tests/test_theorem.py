"""Verdict pipeline, combinatorial oracle, and the special-case reports."""

import numpy as np
import pytest
from helpers import permute_graph, random_connected_graph

from lapexcess import (
    Graph,
    IntersectionArray,
    InternalCheckError,
    MisclusteredSpectrumError,
    OracleRefusal,
    Verdict,
    adjacency_distance_polys,
    adjacency_matrix,
    analyze,
    average_excess,
    complete_graph,
    cycle_graph,
    distance_data,
    drg_oracle,
    eval_matrix,
    evaluate_theorem,
    hypercube_graph,
    path_graph,
    petersen_graph,
    star_graph,
    three_eigenvalue_diagnostic,
)


def prism_graph() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching.

    Regular of degree 3 but not distance-regular, because adjacent vertices
    in a triangle share a neighbor while matched vertices do not.
    """
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def paw_graph() -> Graph:
    """Triangle with a pendant vertex: diameter 2 but four distinct
    Laplacian eigenvalues, so d exceeds the diameter."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


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
    assert arr.degree == 3
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
    assert "not regular" in res.reason


def test_oracle_refuses_prism():
    # regular, so the refusal must come from a varying intersection count
    g = prism_graph()
    res = drg_oracle(g, distance_data(g))
    assert isinstance(res, OracleRefusal)
    assert res.distance == 1
    assert "not constant" in res.reason


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
    rep = evaluate_theorem(petersen_graph())
    assert rep.verdict is Verdict.DISTANCE_REGULAR
    assert rep.d == 2
    assert rep.diameter == 2
    assert np.isclose(rep.spectral_excess, 6.0, atol=1e-9)
    assert rep.average_excess == 6.0
    assert np.all(rep.per_vertex_excess == 6)
    assert np.max(rep.identity_residuals) <= 1e-8
    assert rep.oracle is not None
    assert rep.oracle.b == (3, 2)


def test_star_not_distance_regular():
    rep = evaluate_theorem(star_graph(3))
    assert rep.verdict is Verdict.NOT_DISTANCE_REGULAR
    assert rep.average_excess < rep.spectral_excess
    assert rep.oracle is None


def test_path4_quantities():
    rep = evaluate_theorem(path_graph(4))
    assert rep.verdict is Verdict.NOT_DISTANCE_REGULAR
    assert np.isclose(rep.spectral_excess, 0.8, atol=1e-9)
    assert rep.average_excess == 0.5
    assert np.isclose(rep.relative_gap, 0.375, atol=1e-9)


def test_single_vertex_is_distance_regular():
    rep = evaluate_theorem(Graph(1))
    assert rep.verdict is Verdict.DISTANCE_REGULAR
    assert rep.d == 0
    assert rep.spectral_excess == 1.0
    assert rep.average_excess == 1.0


def test_paw_has_d_beyond_diameter():
    a = analyze(paw_graph())
    assert a.spectrum.d == 3
    assert a.report.diameter == 2
    assert a.report.average_excess == 0.0
    assert np.all(a.report.per_vertex_excess == 0)
    assert a.report.verdict is Verdict.NOT_DISTANCE_REGULAR


def test_report_average_matches_per_vertex_mean():
    for g in (petersen_graph(), path_graph(5), prism_graph()):
        rep = evaluate_theorem(g)
        assert rep.average_excess == pytest.approx(float(np.mean(rep.per_vertex_excess)))


def test_relabeling_invariance():
    rng = np.random.default_rng(314)
    base = [petersen_graph(), prism_graph(), random_connected_graph(rng, 9, 5)]
    for g in base:
        ref = evaluate_theorem(g)
        for _ in range(3):
            perm = rng.permutation(g.n)
            rep = evaluate_theorem(permute_graph(g, perm))
            assert rep.verdict is ref.verdict
            assert np.isclose(rep.average_excess, ref.average_excess, atol=1e-12)
            assert np.isclose(rep.spectral_excess, ref.spectral_excess, atol=1e-9)


def test_no_oracle_flag():
    a = analyze(petersen_graph(), run_oracle=False)
    assert a.oracle is None
    assert a.report.oracle is None
    assert a.report.verdict is Verdict.DISTANCE_REGULAR


def test_oracle_size_cap():
    a = analyze(petersen_graph(), oracle_max_n=5)
    assert a.oracle is None


def test_gray_zone_is_inconclusive():
    # path(4) has relative gap 0.375; a tolerance of 0.1 puts it between
    # tol and 10*tol
    rep = evaluate_theorem(path_graph(4), tol_eq=0.1, run_oracle=False)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_sloppy_tolerance_trips_oracle_audit():
    # tol_eq = 0.5 would call path(4) distance-regular; the oracle
    # disagrees and the pipeline must refuse to return the report
    with pytest.raises(InternalCheckError):
        analyze(path_graph(4), tol_eq=0.5)
    rep = evaluate_theorem(path_graph(4), tol_eq=0.5, run_oracle=False)
    assert rep.verdict is Verdict.DISTANCE_REGULAR  # unaudited, by request


def test_corpus_structural_invariants(analyzed_corpus):
    """Corpus-wide structure: the diameter never exceeds d, the reported
    average is the mean of the per-vertex counts, and a clean residual for
    r_d cascades down to every lower index."""
    for name, g, a in analyzed_corpus:
        rep = a.report
        assert rep.diameter <= rep.d, name
        assert rep.average_excess == pytest.approx(
            float(np.mean(rep.per_vertex_excess))
        ), name
        if rep.identity_residuals[rep.d] <= 1e-6:
            assert np.max(rep.identity_residuals) <= 1e-6, name


# ---------------------------------------------------------------------------
# Regular-graph conversion and the d = 2 diagnostic
# ---------------------------------------------------------------------------

def test_adjacency_polys_petersen():
    g = petersen_graph()
    a = analyze(g)
    polys = adjacency_distance_polys(a.system, 3)
    adj = adjacency_matrix(g)
    dd = a.distances
    assert np.allclose(eval_matrix(polys[0], adj), np.eye(g.n), atol=1e-8)
    for i in (1, 2):
        assert np.max(np.abs(eval_matrix(polys[i], adj) - (dd.dist == i))) <= 1e-8


def test_adjacency_polys_complete4():
    a = analyze(complete_graph(4))
    polys = adjacency_distance_polys(a.system, 3)
    assert np.allclose(polys[0], [1.0])
    assert np.allclose(polys[1], [0.0, 1.0], atol=1e-12)


def test_three_eigenvalue_star():
    rep = three_eigenvalue_diagnostic(star_graph(3))
    assert rep.mean_degree == 1.5
    assert rep.mean_square_degree == 3.0
    assert np.isclose(rep.variance_gap, 0.75)
    assert not rep.regular
    assert rep.verdict is Verdict.NOT_DISTANCE_REGULAR
    assert rep.spectral_verdict is Verdict.NOT_DISTANCE_REGULAR


def test_three_eigenvalue_regular_cases():
    for g in (petersen_graph(), cycle_graph(4), hypercube_graph(2)):
        rep = three_eigenvalue_diagnostic(g)
        assert rep.regular
        assert rep.variance_gap == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict is Verdict.DISTANCE_REGULAR


def test_three_eigenvalue_gamma_matches_system():
    for g in (petersen_graph(), star_graph(3), cycle_graph(5)):
        a = analyze(g)
        if a.spectrum.d != 2:
            continue
        rep = three_eigenvalue_diagnostic(g)
        assert np.isclose(rep.gamma_1, a.system.gamma[0], atol=1e-8)


def test_three_eigenvalue_wrong_d():
    with pytest.raises(ValueError):
        three_eigenvalue_diagnostic(path_graph(4))
