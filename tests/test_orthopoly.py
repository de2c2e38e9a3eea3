"""The predistance system and evaluation in its basis.

Structural invariants (orthogonality, normalization, recurrence, Hoffman
identity) are swept over seeded random connected graphs.  The package keeps
only the recurrence.  Its one reference, tests/helpers.exact_excess, is
exact from the integer Laplacian, with no eigenvalue and no tolerance; it
costs O(m n) integer operations per degree, about 1 s over the atlas.
"""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    exact_excess,
    exact_sum_is,
    max_relative_error,
    random_connected_graph,
    reference_eval_matrix,
)
from numpy.polynomial import polynomial as P

from lapexcess import (
    SpectralMeasure,
    Verdict,
    analyze,
    complete_bipartite_graph,
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
    polys = [np.array(p, dtype=float) for p in exact_excess(g).polys]
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
    # distinct, and the exact monomial coefficients of degree ~n, read as
    # floats, lose accuracy quickly beyond that (the structured members
    # below have small d and well-separated eigenvalues).
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
        out.append((g, mu, predistance_system(mu), exact_excess(g)))
    return out


def test_degrees_are_exact(random_systems):
    # r_i has leading coefficient 1 / (gamma_1 ... gamma_i), which the
    # exact reference's degree-i coefficient matches
    for _, _, sys, exact in random_systems:
        assert exact.d == sys.d
        assert np.all(sys.gamma != 0.0)
        for i, p in enumerate(exact.polys):
            assert len(p) == i + 1
            assert p[-1] != 0
            assert np.isclose(float(p[-1]) * np.prod(sys.gamma[:i]), 1.0, rtol=1e-8)


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
    as a coefficient identity on the exact polynomials for i < d; at
    i = d the right side lacks the degree-(d+1) term, so the identity is
    checked on the spectrum nodes, where the missing node polynomial
    vanishes."""
    for g, mu, sys, exact in random_systems:
        polys = [np.array(p, dtype=float) for p in exact.polys]
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
    for g, mu, sys, exact in random_systems:
        # H = r_0 + ... + r_d has H(0) = n and H(L) = J, exactly
        assert sum(exact.at_zero) == g.n
        assert exact_sum_is(exact.matrices, np.ones((g.n, g.n), dtype=int))
        assert np.isclose(sys.values_at_zero.sum(), g.n, rtol=1e-9)
        # and to rounding through eval_matrix
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
    # n = 900 some monomial coefficients of r_d overflow a float; r_d(0),
    # which the normalization <r_d, r_d> = r_d(0) fixes, and the values the
    # recurrence gives at the nodes stay finite.
    n = 900
    thetas = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
    mu = SpectralMeasure(thetas, np.ones(n, dtype=int))
    sys = predistance_system(mu)
    r_d0 = float(sys.values_at_zero[-1])
    assert math.isfinite(r_d0)
    assert np.all(np.isfinite(predistance_values(sys, thetas)))
    closed = spectral_excess_closed_form(mu, phi_products(mu))
    assert abs(r_d0 - closed) <= 1e-11 * closed


@pytest.mark.parametrize("g", [petersen_graph(), path_graph(5), cycle_graph(9), hypercube_graph(3)],
                         ids=["petersen", "path_5", "cycle_9", "hypercube_3"])
def test_spectral_excess_is_the_stored_constant_coefficient(g):
    # the verdict reads the stored r_d(0), a float, and it is the exact
    # constant coefficient of r_d to rounding
    a, exact = analyze(g), exact_excess(g)
    d = a.spectrum.d
    assert exact.d == d and exact.polys[d][0] == exact.at_zero[d]
    assert a.spectral_excess == a.system.values_at_zero[d]
    assert type(a.spectral_excess) is float
    assert max_relative_error([a.spectral_excess], exact.at_zero[d:]) <= 1e-12


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
# Agreement with the exact reference, tests/helpers.exact_excess
# ---------------------------------------------------------------------------

def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def exact_corpus(corpus):
    # in the corpus' order, which starts with the atlas
    return [exact_excess(g) for _, g in corpus]


def test_corpus_matches_exact_reference(analyzed_corpus, exact_corpus):
    """d, the verdict as the exact equality k_d = r_d(0), H(L) = J and, if
    distance-regular, r_i(L) = A_i; the float r_i(0), alpha, beta and gamma
    within 1e-12 relative (worst: 2.9e-13, 2.2e-14, 8.1e-14, 7.0e-14)."""
    larger = [cycle_graph(k) for k in (16, 32, 64)] + [path_graph(k) for k in (16, 32, 64)]
    larger += [hypercube_graph(6), complete_bipartite_graph(32, 32)]
    cases = [(g, a, exact) for (_, g, a), exact in zip(analyzed_corpus, exact_corpus, strict=True)]
    cases += [(g, analyze(g), exact_excess(g)) for g in larger]
    for g, a, exact in cases:
        d = exact.d
        assert d == a.spectrum.d, g
        dist = a.distances.dist
        k_d = Fraction(int(np.count_nonzero(dist == d)), g.n)
        assert (k_d == exact.at_zero[d]) is (a.verdict is Verdict.DISTANCE_REGULAR), g
        assert exact_sum_is(exact.matrices, np.ones((g.n, g.n), dtype=int)), g
        for i, r_i in enumerate(exact.matrices if a.verdict is Verdict.DISTANCE_REGULAR else ()):
            assert exact_sum_is([r_i], dist == i), (g, i)
        sys = a.system
        for got, want in zip((sys.values_at_zero, sys.alpha, sys.beta, sys.gamma),
                             (exact.at_zero, exact.alpha, exact.beta, exact.gamma), strict=True):
            assert max_relative_error(got, want) <= 1e-12, g


_LARGE = {"path_8": path_graph(8), "cycle_128": cycle_graph(128),
          "path_128": path_graph(128), "hypercube_7": hypercube_graph(7)}


@pytest.fixture(scope="module")
def large_systems():
    return {name: (predistance_system(_measure_for(g)), exact_excess(g)) for name, g in _LARGE.items()}


@pytest.mark.parametrize("name", list(_LARGE))
def test_large_systems_match_reference(large_systems, name):
    # the worst error, 4.4e-14, is path_128's
    sys, exact = large_systems[name]
    assert sys.d == exact.d
    for got, want in ((sys.alpha, exact.alpha), (sys.beta, exact.beta), (sys.gamma, exact.gamma)):
        assert max_relative_error(got, want) <= 1e-12


@pytest.mark.parametrize("name", ["path_8", "cycle_128", pytest.param("path_128", marks=pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: Lanczos r_127(0) on path:128 is 1.09e-12 off the exact value in "
    "relative terms (float Stieltjes: 6.9e-13); the two float routes agree to 4.0e-13",
)), "hypercube_7"])
def test_large_systems_values_at_zero_match_exact_reference(large_systems, name):
    sys, exact = large_systems[name]
    assert max_relative_error(sys.values_at_zero, exact.at_zero) <= 1e-12


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


def test_eval_matrix_matches_horner_reference(atlas_corpus, exact_corpus):
    for (_, g), exact in zip(atlas_corpus, exact_corpus):
        lap = laplacian_matrix(g)
        sys = predistance_system(_measure_for(g))
        lam, v = np.linalg.eigh(lap)
        basis = (predistance_values(sys, lam), v)
        for i, p in enumerate(exact.polys):
            _assert_agrees_with_horner(np.eye(i + 1)[i], basis, np.array(p, dtype=float), lap)
        hoffman = [sum(p[k] for p in exact.polys[k:]) for k in range(sys.d + 1)]
        _assert_agrees_with_horner(np.ones(sys.d + 1), basis, np.array(hoffman, dtype=float), lap)
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
