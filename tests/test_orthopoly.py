"""Polynomial helpers and the predistance system.

Structural invariants (orthogonality, normalization, recurrence, Hoffman
identity) are swept over seeded random connected graphs; numpy's polynomial
routines serve as the reference for the coefficient arithmetic.
"""

import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    inner_product,
    random_connected_graph,
    reference_eval_matrix,
    reference_hoffman,
    reference_predistance,
    trim,
)
from numpy.polynomial import polynomial as P

from lapexcess import (
    DistinctSpectrum,
    SpectralMeasure,
    analyze,
    cluster_spectrum,
    cycle_graph,
    eigenvalues_sym,
    eval_matrix,
    hoffman_polynomial,
    hypercube_graph,
    laplacian_matrix,
    path_graph,
    petersen_graph,
    phi_products,
    predistance_system,
    spectral_excess_closed_form,
)


def _measure_for(g):
    raw = eigenvalues_sym(laplacian_matrix(g))[0]
    spectrum = cluster_spectrum(raw)
    return spectrum, SpectralMeasure.from_spectrum(spectrum)


# ---------------------------------------------------------------------------
# Coefficient arithmetic
# ---------------------------------------------------------------------------

def test_trim():
    assert np.array_equal(trim([1.0, 2.0, 0.0, 0.0]), [1.0, 2.0])
    assert len(trim([0.0, 0.0])) == 0
    assert len(trim([])) == 0


def test_eval_routes_agree():
    # at a diagonal matrix, eval_matrix is the polynomial at each entry,
    # exactly: the eigenvectors are signed unit vectors
    rng = np.random.default_rng(17)
    p = rng.standard_normal(5)
    xs = rng.standard_normal(7)
    assert np.array_equal(eval_matrix(p, np.linalg.eigh(np.diag(xs))), np.diag(P.polyval(xs, p)))


def test_eval_matrix_symmetric():
    lap = laplacian_matrix(path_graph(4))
    p = np.array([2.0, -1.0, 0.5])
    got = eval_matrix(p, np.linalg.eigh(lap))
    want = 2.0 * np.eye(4) - lap + 0.5 * (lap @ lap)
    assert np.allclose(got, want)
    assert np.array_equal(got, got.T)


def test_eval_empty_polynomial_is_zero():
    assert np.array_equal(eval_matrix([], np.linalg.eigh(np.eye(2))), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# The measure
# ---------------------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        SpectralMeasure(np.array([0.0, 1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        SpectralMeasure(np.array([0.5, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SpectralMeasure(np.array([0.0, 2.0, 1.0]), np.array([0.2, 0.4, 0.4]))
    with pytest.raises(ValueError):
        SpectralMeasure(np.array([0.0, 1.0]), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        SpectralMeasure(np.array([0.0, 1.0]), np.array([0.3, 0.3]))


def test_inner_product_of_ones_is_one():
    _, mu = _measure_for(petersen_graph())
    assert np.isclose(inner_product([1.0], [1.0], mu), 1.0)


# ---------------------------------------------------------------------------
# Predistance system invariants
# ---------------------------------------------------------------------------

def _random_cases():
    # Random graphs stay at n <= 13: their spectra are typically all
    # distinct, and monomial coefficient arrays of degree ~n lose accuracy
    # quickly beyond that (the larger structured members below have small d
    # and well-separated eigenvalues, so they stay well-conditioned).
    rng = np.random.default_rng(2024)
    cases = [path_graph(2), path_graph(4), petersen_graph()]
    cases += [hypercube_graph(4), cycle_graph(20), cycle_graph(12)]
    for _ in range(22):
        n = int(rng.integers(2, 14))
        cases.append(random_connected_graph(rng, n, int(rng.integers(0, n))))
    return cases


@pytest.fixture(scope="module")
def random_systems():
    out = []
    for g in _random_cases():
        spectrum, mu = _measure_for(g)
        out.append((g, spectrum, mu, predistance_system(mu)))
    return out


def test_degrees_are_exact(random_systems):
    for _, _, _, sys in random_systems:
        for i, p in enumerate(sys.polys):
            assert len(p) == i + 1
            assert p[-1] != 0.0


def test_orthogonality_and_normalization(random_systems):
    for g, _, mu, sys in random_systems:
        for i in range(sys.d + 1):
            for j in range(i + 1, sys.d + 1):
                assert abs(inner_product(sys.polys[i], sys.polys[j], mu)) <= 1e-8
            norm2 = inner_product(sys.polys[i], sys.polys[i], mu)
            at_zero = P.polyval(0.0, sys.polys[i])
            assert np.isclose(norm2, at_zero, rtol=1e-8, atol=1e-10)
            assert at_zero > 0


def test_recurrence_coefficient_identity(random_systems):
    """x r_i = beta_{i-1} r_{i-1} + alpha_i r_i + gamma_{i+1} r_{i+1} holds
    as a coefficient identity for i < d; at i = d the right side lacks the
    degree-(d+1) term, so the identity is checked on the spectrum nodes,
    where the missing node polynomial vanishes."""
    for g, spectrum, mu, sys in random_systems:
        d = sys.d
        scale = max(1.0, float(spectrum.thetas[-1]))
        for i in range(d + 1):
            lhs = P.polymul([0.0, 1.0], sys.polys[i])
            rhs = sys.alpha[i] * np.asarray(sys.polys[i])
            if i > 0:
                rhs = P.polyadd(rhs, sys.beta[i - 1] * np.asarray(sys.polys[i - 1]))
            if i < d:
                rhs = P.polyadd(rhs, sys.gamma[i] * np.asarray(sys.polys[i + 1]))
                diff = P.polysub(lhs, rhs)
                assert float(np.max(np.abs(diff))) <= 1e-6 * scale
            else:
                err = P.polyval(mu.thetas, lhs) - P.polyval(mu.thetas, rhs)
                assert float(np.max(np.abs(err))) <= 1e-6 * scale


def test_coefficient_sum_and_signs(random_systems):
    for _, _, _, sys in random_systems:
        d = sys.d
        if d == 0:
            assert sys.alpha[0] == pytest.approx(0.0, abs=1e-12)
            continue
        beta_full = np.concatenate((sys.beta, [0.0]))
        gamma_full = np.concatenate(([0.0], sys.gamma))
        assert np.max(np.abs(sys.alpha + beta_full + gamma_full)) <= 1e-8
        assert np.all(sys.beta < 0)
        assert np.all(sys.gamma < 0)


def test_hoffman_identity(random_systems):
    for g, spectrum, mu, sys in random_systems:
        h = hoffman_polynomial(mu, g.n)
        assert np.isclose(P.polyval(0.0, h), g.n, rtol=1e-9)
        # H equals the sum of all predistance polynomials
        total = np.zeros(1)
        for p in sys.polys:
            total = P.polyadd(total, p)
        assert np.allclose(h, total, rtol=1e-7, atol=1e-8)
        # H(L) is the all-ones matrix
        residual = np.max(np.abs(eval_matrix(h, np.linalg.eigh(laplacian_matrix(g))) - 1.0))
        assert residual <= 1e-8


def test_closed_form_matches_evaluation(random_systems):
    for g, spectrum, mu, sys in random_systems:
        phis = phi_products(spectrum)
        closed = spectral_excess_closed_form(mu, phis, g.n)
        direct = P.polyval(0.0, sys.polys[-1])
        assert np.isclose(closed, direct, rtol=1e-8, atol=1e-12)


def test_path_900_spectral_excess_from_normalization():
    # P_n has Laplacian eigenvalues 2 - 2 cos(pi j / n), each simple.  At
    # n = 900 some monomial coefficients of r_d overflow, so Horner at 0
    # gives inf * 0 = NaN; the constant coefficient, which the
    # normalization <r_d, r_d> = r_d(0) fixes, stays finite.
    n = 900
    thetas = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
    mu = SpectralMeasure(thetas, np.full(n, 1.0 / n))
    sys = predistance_system(mu)
    r_d0 = float(sys.polys[-1][0])
    assert not np.all(np.isfinite(sys.polys[-1]))
    assert math.isfinite(r_d0)
    phis = phi_products(DistinctSpectrum(thetas, np.ones(n, dtype=int)))
    closed = spectral_excess_closed_form(mu, phis, n)
    assert abs(r_d0 - closed) <= 1e-8 * closed


@pytest.mark.parametrize("g", [petersen_graph(), path_graph(5), cycle_graph(9), hypercube_graph(3)],
                         ids=["petersen", "path_5", "cycle_9", "hypercube_3"])
def test_spectral_excess_is_the_stored_constant_coefficient(g):
    # Horner at 0 ends in acc * 0.0 + c_0, which is c_0 bit for bit when
    # every coefficient is finite.
    a = analyze(g)
    r_d = a.system.polys[a.spectrum.d]
    assert a.spectral_excess == r_d[0] == P.polyval(0.0, r_d)
    assert type(a.spectral_excess) is float


def test_single_vertex_system():
    g = path_graph(1)
    spectrum, mu = _measure_for(g)
    sys = predistance_system(mu)
    assert sys.d == 0
    assert np.array_equal(sys.polys[0], [1.0])
    assert len(sys.beta) == 0
    assert len(sys.gamma) == 0
    assert np.array_equal(hoffman_polynomial(mu, 1), [1.0])


def test_two_vertex_system():
    # K2: thetas (0, 2) with equal weights give monic q_1 = x - 1, norm 1,
    # q_1(0) = -1, hence r_1 = 1 - x, which indeed sends L to the adjacency
    # matrix.
    g = path_graph(2)
    spectrum, mu = _measure_for(g)
    sys = predistance_system(mu)
    assert np.allclose(sys.polys[1], [1.0, -1.0], atol=1e-12)
    assert np.isclose(sys.alpha[0], 1.0)
    assert np.isclose(sys.beta[0], -1.0)
    assert np.isclose(sys.gamma[0], -1.0)


# ---------------------------------------------------------------------------
# Agreement with the numpy references of tests/helpers.py
# ---------------------------------------------------------------------------

def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_small_systems_match_reference_bitwise(atlas_corpus):
    # At most 7 distinct eigenvalues each, so every inner product is a sum
    # of fewer than 8 terms, which np.sum also adds left to right.
    small = [cycle_graph(k) for k in range(3, 9)] + [path_graph(k) for k in range(1, 8)]
    for g in [g for _, g in atlas_corpus] + small:
        _, mu = _measure_for(g)
        sys = predistance_system(mu)
        polys, alpha, beta, gamma = reference_predistance(mu)
        assert len(sys.polys) == len(polys)
        assert all(_same_bits(p, q) for p, q in zip(sys.polys, polys)), g
        assert _same_bits(sys.alpha, alpha) and _same_bits(sys.beta, beta), g
        assert _same_bits(sys.gamma, gamma), g
        assert _same_bits(hoffman_polynomial(mu, g.n), reference_hoffman(mu, g.n)), g


@pytest.mark.parametrize("g", [path_graph(8), cycle_graph(128), path_graph(128), hypercube_graph(7)],
                         ids=["path_8", "cycle_128", "path_128", "hypercube_7"])
def test_large_systems_match_reference(g):
    # From 8 terms on np.sum adds pairwise and the package left to right,
    # so the recurrence data agree to rounding only; the Hoffman product
    # adds two terms per coefficient and stays bitwise equal.
    _, mu = _measure_for(g)
    sys = predistance_system(mu)
    polys, alpha, beta, gamma = reference_predistance(mu)
    for got, want in zip(sys.polys, polys):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    for got, want in ((sys.alpha, alpha), (sys.beta, beta), (sys.gamma, gamma)):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert _same_bits(hoffman_polynomial(mu, g.n), reference_hoffman(mu, g.n))


def _rounding_bound(p, m) -> float:
    """Four times (n + len p) unit roundoffs on sum_k |p_k| rho^k, rho the
    spectral radius of m.  Matrix Horner and the eigenbasis route each err
    by a small multiple of (n + len p) u on those terms; over the atlas
    polynomials the two differ by at most 1.25 such units."""
    rho = float(np.abs(np.linalg.eigvalsh(m)).max())
    terms = sum(abs(c) * rho**k for k, c in enumerate(np.asarray(p, dtype=float).tolist()))
    return 4.0 * (m.shape[0] + len(p)) * np.finfo(float).eps * terms


def _assert_agrees_with_horner(p, m):
    eig = np.linalg.eigh(m)
    got = eval_matrix(p, eig)
    assert _same_bits(got, eval_matrix(p, eig))  # deterministic
    assert np.abs(got - reference_eval_matrix(p, m)).max() <= _rounding_bound(p, m)


def test_eval_matrix_matches_horner_reference(atlas_corpus):
    for _, g in atlas_corpus:
        lap = laplacian_matrix(g)
        _, mu = _measure_for(g)
        for p in predistance_system(mu).polys + [hoffman_polynomial(mu, g.n)]:
            _assert_agrees_with_horner(p, lap)
    rng = np.random.default_rng(31)
    m = rng.standard_normal((9, 9))
    m = m + m.T
    for degree in range(-1, 7):
        p = rng.standard_normal(degree + 1)
        _assert_agrees_with_horner(p, m)
        # at a diagonal matrix both routes are exact
        diag = np.diag(np.diag(m))
        assert np.array_equal(eval_matrix(p, np.linalg.eigh(diag)), reference_eval_matrix(p, diag)), degree


def test_predistance_system_streams_node_values():
    # The returned coefficient arrays are O(d^2); the node values must stay
    # O(d), not one list per degree.
    _, mu = _measure_for(path_graph(128))
    tracemalloc.start()
    try:
        sys = predistance_system(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(p.nbytes for p in sys.polys)
    assert peak <= 4 * held, (peak, held)
