"""The predistance system and evaluation in its basis.

Structural invariants (orthogonality, normalization, recurrence, Hoffman
identity) are swept over seeded random connected graphs.  The package keeps
only the recurrence; the numpy references of tests/helpers.py, which keep
monomial coefficients and evaluate them with numpy's polynomial routines,
serve as the reference for it.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from helpers import (
    exact_predistance,
    max_relative_error,
    random_connected_graph,
    reference_eval_matrix,
    reference_hoffman,
    reference_predistance,
)
from numpy.polynomial import polynomial as P

from lapexcess import (
    SpectralMeasure,
    Verdict,
    analyze,
    cycle_graph,
    eigenvalues_sym,
    eval_matrix,
    hypercube_graph,
    laplacian_matrix,
    path_graph,
    petersen_graph,
    phi_products,
    predistance_system,
    predistance_values,
    spectral_excess_closed_form,
)


def _measure_for(g):
    return SpectralMeasure.from_spectrum(eigenvalues_sym(laplacian_matrix(g))[0])


# ---------------------------------------------------------------------------
# Evaluation in the predistance basis
# ---------------------------------------------------------------------------

def test_eval_routes_agree():
    # at a diagonal matrix, eval_matrix is the polynomial at each entry,
    # exactly: the eigenvectors are signed unit vectors
    rng = np.random.default_rng(17)
    mu = _measure_for(path_graph(5))
    sys = predistance_system(mu)
    c = rng.standard_normal(4)
    xs = rng.standard_normal(7)
    lam, v = np.linalg.eigh(np.diag(xs))
    got = eval_matrix(c, (predistance_values(sys, lam), v))
    assert np.array_equal(got, np.diag(c @ predistance_values(sys, xs)[:4]))


def test_eval_matrix_symmetric():
    g = path_graph(4)
    lap = laplacian_matrix(g)
    mu = _measure_for(g)
    polys = reference_predistance(mu)[0]
    c = np.array([2.0, -1.0, 0.5])
    lam, v = np.linalg.eigh(lap)
    got = eval_matrix(c, (predistance_values(predistance_system(mu), lam), v))
    p = P.polyadd(P.polyadd(2.0 * polys[0], -1.0 * polys[1]), 0.5 * polys[2])
    assert np.allclose(got, reference_eval_matrix(p, lap))
    # the raw product, not symmetrized: symmetric up to rounding
    assert np.abs(got - got.T).max() <= 4 * g.n * np.finfo(float).eps * np.abs(got).max()


def test_eval_empty_polynomial_is_zero():
    assert np.array_equal(eval_matrix([], (np.ones((1, 2)), np.eye(2))), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# The measure
# ---------------------------------------------------------------------------

def test_measure_validation():
    # each (thetas, mults) breaks one rule; the weights sum to 1 by
    # construction, so there is no sum to refuse
    cases = [
        ([0.0, 1.0], [1], "thetas and mults must have equal length"),
        ([0.5, 1.0], [1, 1], "first node must be 0, got 0.5"),
        ([], [], "first node must be 0, got None"),
        ([0.0, 2.0, 1.0], [1, 2, 2], "nodes must be strictly ascending"),
        ([0.0, 1.0, 1.0], [1, 2, 2], "nodes must be strictly ascending"),
        ([0.0, 1.0], [1, 0], "multiplicities must be at least 1"),
        ([0.0, 1.0], [2, -1], "multiplicities must be at least 1"),
    ]
    for thetas, mults, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpectralMeasure(np.array(thetas), np.array(mults))
    mu = SpectralMeasure(np.array([0.0, 2.0, 4.0]), np.array([1, 2, 1]))
    assert (mu.d, mu.n) == (2, 4)
    assert np.array_equal(mu.weights, [0.25, 0.5, 0.25])


# ---------------------------------------------------------------------------
# Predistance system invariants
# ---------------------------------------------------------------------------

def _random_cases():
    # Random graphs stay at n <= 13: their spectra are typically all
    # distinct, and the references' monomial coefficient arrays of degree ~n
    # lose accuracy quickly beyond that (the larger structured members below
    # have small d and well-separated eigenvalues, so they stay
    # well-conditioned).
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
        mu = _measure_for(g)
        out.append((g, mu, predistance_system(mu), reference_predistance(mu)[0]))
    return out


def test_degrees_are_exact(random_systems):
    # r_i has leading coefficient 1 / (gamma_1 ... gamma_i), which the
    # reference's degree-i coefficient matches
    for _, _, sys, polys in random_systems:
        assert len(polys) == sys.d + 1
        assert np.all(sys.gamma != 0.0)
        for i, p in enumerate(polys):
            assert len(p) == i + 1
            assert p[-1] != 0.0
            assert np.isclose(p[-1] * np.prod(sys.gamma[:i]), 1.0, rtol=1e-8)


def test_orthogonality_and_normalization(random_systems):
    # on the node values the recurrence gives, theta_0 = 0 among them
    for g, mu, sys, _ in random_systems:
        values = predistance_values(sys, mu.thetas)
        gram = (values * mu.weights) @ values.T
        for i in range(sys.d + 1):
            for j in range(i + 1, sys.d + 1):
                assert abs(gram[i, j]) <= 1e-8
            norm2 = gram[i, i]
            at_zero = sys.values_at_zero[i]
            assert np.isclose(norm2, at_zero, rtol=1e-8, atol=1e-10)
            assert np.isclose(values[i, 0], at_zero, rtol=1e-8, atol=1e-10)
            assert at_zero > 0


def test_recurrence_coefficient_identity(random_systems):
    """x r_i = beta_{i-1} r_{i-1} + alpha_i r_i + gamma_{i+1} r_{i+1} holds
    as a coefficient identity on the reference polynomials for i < d; at
    i = d the right side lacks the degree-(d+1) term, so the identity is
    checked on the spectrum nodes, where the missing node polynomial
    vanishes."""
    for g, mu, sys, polys in random_systems:
        d = sys.d
        scale = max(1.0, float(mu.thetas[-1]))
        for i in range(d + 1):
            lhs = P.polymul([0.0, 1.0], polys[i])
            rhs = sys.alpha[i] * np.asarray(polys[i])
            if i > 0:
                rhs = P.polyadd(rhs, sys.beta[i - 1] * np.asarray(polys[i - 1]))
            if i < d:
                rhs = P.polyadd(rhs, sys.gamma[i] * np.asarray(polys[i + 1]))
                diff = P.polysub(lhs, rhs)
                assert float(np.max(np.abs(diff))) <= 1e-6 * scale
            else:
                err = P.polyval(mu.thetas, lhs) - P.polyval(mu.thetas, rhs)
                assert float(np.max(np.abs(err))) <= 1e-6 * scale


def test_coefficient_sum_and_signs(random_systems):
    for _, _, sys, _ in random_systems:
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
    for g, mu, sys, polys in random_systems:
        h = reference_hoffman(mu, g.n)
        assert np.isclose(P.polyval(0.0, h), g.n, rtol=1e-9)
        assert np.isclose(sys.values_at_zero.sum(), g.n, rtol=1e-9)
        # H equals the sum of all predistance polynomials
        total = np.zeros(1)
        for p in polys:
            total = P.polyadd(total, p)
        assert np.allclose(h, total, rtol=1e-7, atol=1e-8)
        # H(L) is the all-ones matrix
        lam, v = np.linalg.eigh(laplacian_matrix(g))
        hoffman = eval_matrix(np.ones(sys.d + 1), (predistance_values(sys, lam), v))
        residual = np.max(np.abs(hoffman - 1.0))
        assert residual <= 1e-8
    # At d = 64 and d = 127 monomial coefficients read 1e31 and 4e79 here;
    # the recurrence keeps both residuals of the cycle and the Hoffman
    # residual of the path (not distance-regular, so r_i(L) != A_i) small.
    for g, verdict in ((cycle_graph(128), Verdict.DISTANCE_REGULAR),
                       (path_graph(128), Verdict.NOT_DISTANCE_REGULAR)):
        a = analyze(g)
        assert a.verdict is verdict
        assert a.hoffman_residual <= 1e-8
        if verdict is Verdict.DISTANCE_REGULAR:
            assert np.max(a.identity_residuals) <= 1e-8
    # path:900 end to end in about 1 s, since a not-distance-regular verdict
    # skips the d + 1 identity residuals: 6.9e-11 (1.6e-8 with the
    # Stieltjes system)
    a = analyze(path_graph(900))
    assert a.verdict is Verdict.NOT_DISTANCE_REGULAR
    assert a.hoffman_residual <= 1e-8
    assert a.identity_residuals is None


def test_closed_form_matches_evaluation(random_systems):
    for g, mu, sys, _ in random_systems:
        phis = phi_products(mu)
        closed = spectral_excess_closed_form(mu, phis)
        direct = predistance_values(sys, [0.0])[-1, 0]
        assert np.isclose(closed, sys.values_at_zero[-1], rtol=1e-8, atol=1e-12)
        assert np.isclose(closed, direct, rtol=1e-8, atol=1e-12)


def test_path_900_spectral_excess_from_normalization():
    # P_n has Laplacian eigenvalues 2 - 2 cos(pi j / n), each simple.  At
    # n = 900 some monomial coefficients of r_d overflow (the reference
    # shows it); r_d(0), which the normalization <r_d, r_d> = r_d(0) fixes,
    # and the values the recurrence gives at the nodes stay finite.
    n = 900
    thetas = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
    mu = SpectralMeasure(thetas, np.ones(n, dtype=int))
    sys = predistance_system(mu)
    r_d0 = float(sys.values_at_zero[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(reference_predistance(mu)[0][-1]))
    assert math.isfinite(r_d0)
    assert np.all(np.isfinite(predistance_values(sys, thetas)))
    closed = spectral_excess_closed_form(mu, phi_products(mu))
    assert abs(r_d0 - closed) <= 1e-11 * closed


@pytest.mark.parametrize("g", [petersen_graph(), path_graph(5), cycle_graph(9), hypercube_graph(3)],
                         ids=["petersen", "path_5", "cycle_9", "hypercube_3"])
def test_spectral_excess_is_the_stored_constant_coefficient(g):
    # the verdict reads the stored r_d(0), a float, and it is the
    # reference's constant coefficient, and the exact one, to rounding
    a = analyze(g)
    d = a.spectrum.d
    r_d = reference_predistance(a.spectrum)[0][d]
    assert a.spectral_excess == a.system.values_at_zero[d]
    assert type(a.spectral_excess) is float
    assert r_d[0] == P.polyval(0.0, r_d)
    assert math.isclose(a.spectral_excess, r_d[0], rel_tol=1e-12)
    assert max_relative_error([a.spectral_excess], exact_predistance(a.spectrum)[0][d:]) <= 1e-12


def test_single_vertex_system():
    g = path_graph(1)
    mu = _measure_for(g)
    sys = predistance_system(mu)
    assert sys.d == 0
    assert np.array_equal(sys.values_at_zero, [1.0])
    assert len(sys.beta) == 0
    assert len(sys.gamma) == 0
    assert np.array_equal(predistance_values(sys, [0.0]), [[1.0]])
    assert np.array_equal(eval_matrix(np.ones(1), (predistance_values(sys, [0.0]), np.eye(1))), [[1.0]])


def test_two_vertex_system():
    # K2: thetas (0, 2) with equal weights give monic q_1 = x - 1, norm 1,
    # q_1(0) = -1, hence r_1 = 1 - x, which indeed sends L to the adjacency
    # matrix.
    g = path_graph(2)
    mu = _measure_for(g)
    sys = predistance_system(mu)
    assert np.allclose(predistance_values(sys, [0.0, 1.0, 2.0]), [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]], atol=1e-12)
    assert np.allclose(sys.values_at_zero, [1.0, 1.0], atol=1e-12)
    assert np.isclose(sys.alpha[0], 1.0)
    assert np.isclose(sys.beta[0], -1.0)
    assert np.isclose(sys.gamma[0], -1.0)


# ---------------------------------------------------------------------------
# Agreement with the numpy references of tests/helpers.py
# ---------------------------------------------------------------------------

def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_small_systems_match_exact_reference(atlas_corpus):
    # Exact rational Stieltjes on the same float nodes: the worst relative
    # error over the atlas reads 1.3e-13 (Stieltjes in floats: 1.9e-9).
    small = [cycle_graph(k) for k in range(3, 9)] + [path_graph(k) for k in range(1, 8)]
    for g in [g for _, g in atlas_corpus] + small:
        mu = _measure_for(g)
        sys = predistance_system(mu)
        exact = exact_predistance(mu)
        for got, want in zip((sys.values_at_zero, sys.alpha, sys.beta, sys.gamma), exact, strict=True):
            assert max_relative_error(got, want) <= 1e-12, g


@pytest.mark.parametrize("g", [path_graph(8), cycle_graph(128), path_graph(128), hypercube_graph(7)],
                         ids=["path_8", "cycle_128", "path_128", "hypercube_7"])
def test_large_systems_match_reference(g):
    # Lanczos and the reference's Stieltjes procedure in floats agree to
    # rounding on these spectra.
    mu = _measure_for(g)
    sys = predistance_system(mu)
    polys, alpha, beta, gamma = reference_predistance(mu)
    assert np.allclose(sys.values_at_zero, [p[0] for p in polys], rtol=1e-12, atol=0.0)
    for got, want in ((sys.alpha, alpha), (sys.beta, beta), (sys.gamma, gamma)):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def _rounding_bound(p, m) -> float:
    """Four times (n + len p) unit roundoffs on sum_k |p_k| rho^k, p the
    monomial coefficients and rho the spectral radius of m.  Matrix Horner
    and the eigenbasis route each err by a small multiple of (n + len p) u
    on those terms."""
    rho = float(np.abs(np.linalg.eigvalsh(m)).max())
    terms = sum(abs(c) * rho**k for k, c in enumerate(np.asarray(p, dtype=float).tolist()))
    return 4.0 * (m.shape[0] + len(p)) * np.finfo(float).eps * terms


def _assert_agrees_with_horner(c, basis, p, m):
    """eval_matrix(c, basis) against matrix Horner on the monomial
    coefficients p of the same polynomial."""
    got = eval_matrix(c, basis)
    assert _same_bits(got, eval_matrix(c, basis))  # deterministic
    assert np.abs(got - reference_eval_matrix(p, m)).max() <= _rounding_bound(p, m)


def test_eval_matrix_matches_horner_reference(atlas_corpus):
    for _, g in atlas_corpus:
        lap = laplacian_matrix(g)
        mu = _measure_for(g)
        sys = predistance_system(mu)
        lam, v = np.linalg.eigh(lap)
        basis = (predistance_values(sys, lam), v)
        for i, p in enumerate(reference_predistance(mu)[0]):
            _assert_agrees_with_horner(np.eye(i + 1)[i], basis, p, lap)
        _assert_agrees_with_horner(np.ones(sys.d + 1), basis, reference_hoffman(mu, g.n), lap)
    # eval_matrix takes any basis: rows x^0, x^1, ... make c the monomial
    # coefficients
    rng = np.random.default_rng(31)
    m = rng.standard_normal((9, 9))
    m = m + m.T
    for degree in range(-1, 7):
        p = rng.standard_normal(degree + 1)
        for mat in (m, np.diag(np.diag(m))):
            lam, v = np.linalg.eigh(mat)
            powers = np.vander(lam, max(degree + 1, 1), increasing=True).T
            _assert_agrees_with_horner(p, (powers, v), p, mat)


def test_predistance_system_holds_one_square_basis():
    # The Lanczos basis is (d + 1)^2 floats, 2.1 MB at d = 512, and the peak
    # stays within half a basis of it: no second basis and no per-degree
    # copy.
    for n in (128, 512):
        mu = _measure_for(path_graph(n))
        tracemalloc.start()
        try:
            predistance_system(mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n**2, (n, peak)
