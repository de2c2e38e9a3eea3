"""Eigensolver and spectrum clustering, cross-checked against numpy.

numpy.linalg.eigvalsh is the independent reference route; the package's own
solver never calls it.
"""

import math

import numpy as np
import pytest
from helpers import (
    idempotent,
    permute_graph,
    random_connected_graph,
    reference_phi_products,
)

from lapexcess import (
    DistinctSpectrum,
    EigenConvergenceError,
    SpectrumClusterError,
    cluster_spectrum,
    cycle_graph,
    eigenvalues_sym,
    generate,
    laplacian_matrix,
    petersen_graph,
    phi_products,
)
from lapexcess import eigen


def assert_matches_eigvalsh(m):
    """eigenvalues_sym agrees with LAPACK within 1e-12 max(1, rho)."""
    got = eigenvalues_sym(m)
    want = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Householder + implicit QL eigenvalues vs numpy
# ---------------------------------------------------------------------------

def test_random_symmetric_matches_eigvalsh():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        m = rng.standard_normal((n, n))
        assert_matches_eigvalsh((m + m.T) / 2.0)


def test_laplacians_match_eigvalsh():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 20)), int(rng.integers(0, 8)))
        assert_matches_eigvalsh(laplacian_matrix(g))


def test_relabelled_atlas_laplacians_match_eigvalsh(atlas_corpus):
    rng = np.random.default_rng(2014)
    for _, g in atlas_corpus:
        assert_matches_eigvalsh(laplacian_matrix(permute_graph(g, rng.permutation(g.n))))


@pytest.mark.parametrize(
    "family, params",
    [
        ("cycle", (128,)),
        ("path", (128,)),
        ("hypercube", (7,)),
        ("complete_bipartite", (60, 100)),
        ("complete_bipartite", (10, 150)),
    ],
)
def test_relabelled_families_match_eigvalsh(family, params):
    # the graphs whose cost and overflow once depended on the labelling
    g = generate(family, params)
    perm = np.random.default_rng(sum(params)).permutation(g.n)
    assert_matches_eigvalsh(laplacian_matrix(permute_graph(g, perm)))


def _wilkinson_w21_plus():
    # diagonal 10, 9, ..., 1, 0, 1, ..., 10 with unit off-diagonal: its
    # largest eigenvalues come in pairs that agree to ~1e-14
    return np.diag(np.abs(np.arange(-10.0, 11.0))) + np.eye(21, k=1) + np.eye(21, k=-1)


def _block_diagonal():
    # a zero off-diagonal in the tridiagonal form splits the QL iteration
    rng = np.random.default_rng(3)
    m = np.zeros((12, 12))
    for lo, hi in ((0, 5), (5, 6), (6, 12)):
        b = rng.standard_normal((hi - lo, hi - lo))
        m[lo:hi, lo:hi] = b + b.T
    return m


def _indefinite():
    m = np.random.default_rng(5).standard_normal((60, 60))
    return m + m.T


@pytest.mark.parametrize(
    "m",
    [_block_diagonal(), _wilkinson_w21_plus(), 3.5 * np.eye(9), _indefinite()],
    ids=["block_diagonal", "wilkinson_w21_plus", "scaled_identity", "indefinite"],
)
def test_structured_matrices_match_eigvalsh(m):
    assert_matches_eigvalsh(m)


def test_diagonal_and_trivial_cases():
    assert np.array_equal(eigenvalues_sym(np.array([[5.0]])), [5.0])
    d = np.diag([3.0, -1.0, 2.0])
    assert np.array_equal(eigenvalues_sym(d), [-1.0, 2.0, 3.0])


def test_eigenvalues_sorted_and_deterministic():
    lap = laplacian_matrix(petersen_graph())
    a = eigenvalues_sym(lap)
    b = eigenvalues_sym(lap)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_sym(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_tolerates_rounding_level_asymmetry():
    m = np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])
    got = eigenvalues_sym(m)
    assert np.allclose(got, [1.0, 3.0], atol=1e-12)


def test_iteration_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(eigen, "_QL_MAX_ITERATIONS", 0)
    m = np.ones((6, 6)) + np.eye(6)
    with pytest.raises(EigenConvergenceError):
        eigenvalues_sym(m)


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def test_cluster_exact_multiplicities():
    # C4 Laplacian spectrum is 0, 2, 2, 4
    raw = eigenvalues_sym(laplacian_matrix(cycle_graph(4)))
    s = cluster_spectrum(raw)
    assert np.allclose(s.thetas, [0.0, 2.0, 4.0], atol=1e-12)
    assert list(s.mults) == [1, 2, 1]
    assert s.thetas[0] == 0.0
    assert s.d == 2
    assert s.n == 4


def test_cluster_merges_jittered_values():
    raw = np.array([1e-13, 1.0 - 3e-9, 1.0 + 3e-9, 2.5])
    s = cluster_spectrum(raw, tol=1e-8)
    assert list(s.mults) == [1, 2, 1]
    assert abs(s.thetas[1] - 1.0) <= 1e-8


def test_cluster_is_gap_chaining():
    # each consecutive gap is below tolerance, so the chain merges even
    # though the endpoints are farther apart than the tolerance
    raw = np.array([0.0, 1.0, 1.0 + 0.9e-8, 1.0 + 1.8e-8])
    s = cluster_spectrum(raw, tol=1e-8)
    assert list(s.mults) == [1, 3]


def test_cluster_rejections():
    with pytest.raises(SpectrumClusterError):
        cluster_spectrum(np.array([0.5, 1.0, 2.0]))  # no zero eigenvalue
    with pytest.raises(SpectrumClusterError):
        cluster_spectrum(np.array([0.0, 1e-12, 1.0]))  # zero repeated
    with pytest.raises(SpectrumClusterError):
        cluster_spectrum(np.array([-0.5, 1.0, 2.0]))
    with pytest.raises(ValueError):
        cluster_spectrum(np.array([1.0, 0.0]))  # unsorted
    with pytest.raises(ValueError):
        cluster_spectrum(np.array([]))
    with pytest.raises(ValueError):
        cluster_spectrum(np.array([0.0, 1.0]), tol=0.0)


def test_min_gap():
    s = cluster_spectrum(np.array([0.0, 0.4, 2.0]), tol=1e-10)
    assert math.isclose(s.min_gap, 0.4)
    assert DistinctSpectrum(np.array([0.0]), np.array([1])).min_gap == math.inf


# ---------------------------------------------------------------------------
# Gap products and idempotents
# ---------------------------------------------------------------------------

def test_phi_products_direct():
    s = DistinctSpectrum(np.array([0.0, 1.0, 3.0]), np.array([1, 2, 1]))
    # phi_0 = (0-1)(0-3) = 3, phi_1 = (1-0)(1-3) = -2, phi_2 = (3-0)(3-1) = 6
    assert np.allclose(phi_products(s), [3.0, -2.0, 6.0])


def test_phi_sign_alternation():
    rng = np.random.default_rng(11)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 12)), 2)
        raw = eigenvalues_sym(laplacian_matrix(g))
        s = cluster_spectrum(raw)
        phis = phi_products(s)
        for i, phi in enumerate(phis):
            assert (-1.0) ** (s.d - i) * phi > 0


def test_phi_products_match_reference_bitwise(atlas_corpus):
    # The same products in the same order as the numpy reference, at any d.
    graphs = [g for _, g in atlas_corpus]
    graphs += [generate("path", (128,)), generate("cycle", (128,)), generate("hypercube", (7,))]
    for g in graphs:
        s = cluster_spectrum(eigenvalues_sym(laplacian_matrix(g)))
        assert phi_products(s).tobytes() == reference_phi_products(s.thetas).tobytes(), g


def test_phi_single_eigenvalue():
    s = DistinctSpectrum(np.array([0.0]), np.array([1]))
    assert np.array_equal(phi_products(s), [1.0])


def test_idempotents_are_projectors():
    g = petersen_graph()
    lap = laplacian_matrix(g)
    s = cluster_spectrum(eigenvalues_sym(lap))
    n = g.n
    total = np.zeros((n, n))
    for i in range(s.d + 1):
        f = idempotent(lap, s, i)
        assert np.allclose(f @ f, f, atol=1e-10)
        assert np.allclose(lap @ f, s.thetas[i] * f, atol=1e-9)
        total += f
    assert np.allclose(total, np.eye(n), atol=1e-10)
    assert np.allclose(idempotent(lap, s, 0), np.full((n, n), 1.0 / n), atol=1e-10)


def test_idempotent_index_range():
    lap = laplacian_matrix(cycle_graph(4))
    s = cluster_spectrum(eigenvalues_sym(lap))
    with pytest.raises(IndexError):
        idempotent(lap, s, 3)
