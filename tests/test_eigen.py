"""Eigenvalues and spectrum clustering, checked against references that do
not come from LAPACK: closed-form spectra of the generator families and the
trace identities of a graph Laplacian.
"""

import math
import re
import warnings

import numpy as np
import pytest
from helpers import (
    permute_graph,
    perturb_eigenvectors,
    random_connected_graph,
    reference_phi_products,
)

from lapexcess import (
    InternalCheckError,
    SpectralMeasure,
    cycle_graph,
    eigenvalues_sym,
    generate,
    laplacian_matrix,
    petersen_graph,
    phi_products,
)
from lapexcess.eigen import absolute_tol


def closed_form_laplacian_spectrum(family, params) -> np.ndarray:
    """The Laplacian spectrum of a generator family, ascending, from its
    textbook formula."""
    if family == "path":
        (k,) = params
        values = [2.0 - 2.0 * math.cos(math.pi * j / k) for j in range(k)]
    elif family == "cycle":
        (k,) = params
        values = [2.0 - 2.0 * math.cos(2.0 * math.pi * j / k) for j in range(k)]
    elif family == "complete":
        (k,) = params
        values = [0.0] + [float(k)] * (k - 1)
    elif family == "complete_bipartite":
        m, k = params
        values = [0.0] + [float(m)] * (k - 1) + [float(k)] * (m - 1) + [float(m + k)]
    elif family == "star":
        (k,) = params
        values = [0.0] + [1.0] * (k - 1) + [float(k + 1)]
    elif family == "petersen":
        values = [0.0] + [2.0] * 5 + [5.0] * 4
    elif family == "hypercube":
        (q,) = params
        values = [2.0 * i for i in range(q + 1) for _ in range(math.comb(q, i))]
    else:
        raise ValueError(family)
    return np.sort(values)


# ---------------------------------------------------------------------------
# Eigenvalues against closed forms and trace identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [
        "path:1",
        "path:128",
        "cycle:128",
        "complete:40",
        "complete_bipartite:60:100",
        "complete_bipartite:10:150",
        "star:50",
        "petersen",
        "hypercube:7",
        "hypercube:10",
    ],
)
def test_relabelled_families_match_closed_form(spec):
    # a seeded relabelling, so the spectrum cannot lean on the generator's
    # vertex order
    family, *rest = spec.split(":")
    params = tuple(int(p) for p in rest)
    g = generate(family, params)
    perm = np.random.default_rng(sum(params)).permutation(g.n)
    lap = laplacian_matrix(permute_graph(g, perm))
    got, vectors = eigenvalues_sym(lap)
    want = closed_form_laplacian_spectrum(family, params)
    scale = max(1.0, float(want[-1]))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert_certified_basis(lap, got, vectors)


def test_relabelled_atlas_spectra_satisfy_trace_identities(atlas_corpus):
    # trace(L) = 2m and trace(L^2) = sum of squared degrees + 2m
    rng = np.random.default_rng(2014)
    for name, g in atlas_corpus:
        raw = eigenvalues_sym(laplacian_matrix(permute_graph(g, rng.permutation(g.n))))[0]
        degrees = g.degrees().astype(float)
        traces = (float(raw.sum()), float((raw * raw).sum()))
        wants = (2.0 * g.edge_count, float(degrees @ degrees) + 2.0 * g.edge_count)
        for got, want in zip(traces, wants):
            assert abs(got - want) <= 1e-12 * max(1.0, want), name


def assert_power_traces(m, got):
    """sum(lambda^k) = trace(m^k) for k = 1, 2, 3, within 1e-12 of the scale."""
    power = np.eye(len(m))
    rho = max(1.0, float(np.abs(got).max()))
    for k in (1, 2, 3):
        power = power @ m
        assert abs(float((got**k).sum()) - float(np.trace(power))) <= 1e-12 * len(m) * rho**k


def assert_certified_basis(m, values, vectors):
    """The backward error max|m V - V diag(values)| is within the bound the
    certificate allows, and V is orthonormal to rounding level."""
    assert np.abs(m @ vectors - vectors * values).max() <= absolute_tol(values)
    assert np.abs(vectors.T @ vectors - np.eye(len(m))).max() <= 10 * len(m) * np.finfo(float).eps


def sturm_count_below(diag, off, x) -> int:
    """Eigenvalues below x of a symmetric tridiagonal matrix, by the signs
    of its LDL^T pivots at shift x (Sylvester's law of inertia)."""
    count, pivot = 0, 1.0
    for i, a in enumerate(diag):
        pivot = a - x - (off[i - 1] ** 2 / pivot if i else 0.0)
        if pivot == 0.0:
            pivot = 1e-300
        count += pivot < 0.0
    return count


def _wilkinson_w21_plus():
    # diagonal 10, 9, ..., 1, 0, 1, ..., 10 with unit off-diagonal: its
    # largest eigenvalues come in pairs that agree to ~1e-14
    return np.diag(np.abs(np.arange(-10.0, 11.0))) + np.eye(21, k=1) + np.eye(21, k=-1)


def _check_wilkinson(m, got):
    # every gap of the computed spectrum wider than 1e-10 must hold exactly
    # as many eigenvalues below it as the Sturm count says
    diag, off = np.diag(m), np.diag(m, k=1)
    for i in np.flatnonzero(np.diff(got) > 1e-10):
        assert sturm_count_below(diag, off, (got[i] + got[i + 1]) / 2.0) == i + 1
    # the top pair, close to the published value 10.7461941829034
    assert abs(got[-1] - got[-2]) <= 1e-12
    assert abs(got[-1] - 10.7461941829034) <= 1e-12


_BLOCKS = ((0, 5), (5, 6), (6, 12))


def _block_diagonal():
    # a zero off-diagonal in the tridiagonal form splits the iteration
    rng = np.random.default_rng(3)
    m = np.zeros((12, 12))
    for lo, hi in _BLOCKS:
        b = rng.standard_normal((hi - lo, hi - lo))
        m[lo:hi, lo:hi] = b + b.T
    return m


def _check_block_diagonal(m, got):
    # the spectrum is the union of the blocks' spectra
    want = np.sort(np.concatenate([eigenvalues_sym(m[lo:hi, lo:hi])[0] for lo, hi in _BLOCKS]))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.abs(want).max()))


def _check_scaled_identity(m, got):
    assert np.allclose(got, np.full(9, 3.5), rtol=0, atol=1e-14)


def _indefinite():
    m = np.random.default_rng(5).standard_normal((60, 60))
    return m + m.T


def _check_indefinite(m, got):
    # both signs present, and the sorted order holds
    assert got[0] < 0.0 < got[-1]
    assert np.all(np.diff(got) >= 0)


@pytest.mark.parametrize(
    "m, check",
    [
        (_block_diagonal(), _check_block_diagonal),
        (_wilkinson_w21_plus(), _check_wilkinson),
        (3.5 * np.eye(9), _check_scaled_identity),
        (_indefinite(), _check_indefinite),
    ],
    ids=["block_diagonal", "wilkinson_w21_plus", "scaled_identity", "indefinite"],
)
def test_structured_matrices_match_eigvalsh(m, check):
    # the same matrices the earlier hand-written solver was held to, now
    # checked against the power-trace identities and a per-matrix reference
    got, vectors = eigenvalues_sym(m)
    assert_power_traces(m, got)
    check(m, got)
    assert_certified_basis(m, got, vectors)


def test_failed_certificate_raises(monkeypatch):
    # eigenvectors moved by 1e-6 leave a backward error far above the
    # threshold, 1e-8 times the spectral radius
    perturb_eigenvectors(monkeypatch)
    with pytest.raises(InternalCheckError, match="backward error max"):
        eigenvalues_sym(_indefinite())


def test_diagonal_and_trivial_cases():
    assert np.array_equal(eigenvalues_sym(np.array([[5.0]]))[0], [5.0])
    d = np.diag([3.0, -1.0, 2.0])
    assert np.array_equal(eigenvalues_sym(d)[0], [-1.0, 2.0, 3.0])


def test_eigenvalues_sorted_and_deterministic():
    lap = laplacian_matrix(petersen_graph())
    a = eigenvalues_sym(lap)[0]
    b = eigenvalues_sym(lap)[0]
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_sym(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_refuses_rounding_level_asymmetry():
    # the certificate attests the matrix given, so a matrix is refused, not
    # symmetrized, however small its asymmetry
    m = np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])
    message = "matrix is not symmetric (max asymmetry 1.11022e-15)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eigenvalues_sym(m)


@pytest.mark.parametrize(
    "function, values, message",
    [
        pytest.param(SpectralMeasure.from_spectrum, [math.nan], "raw spectrum entry 0 is nan, not finite",
                     id="from_spectrum-values0"),
        pytest.param(SpectralMeasure.from_spectrum, [0.0, math.nan, 2.0], "raw spectrum entry 1 is nan, not finite",
                     id="from_spectrum-values1"),
        pytest.param(SpectralMeasure.from_spectrum, [0.0, 1.0, math.inf], "raw spectrum entry 2 is inf, not finite",
                     id="from_spectrum-values2"),
        (eigenvalues_sym, [[math.nan]], "matrix entry (0, 0) is nan, not finite"),
        (
            eigenvalues_sym,
            [[2.0, -math.inf], [-math.inf, 2.0]],
            "matrix entry (0, 1) is -inf, not finite",
        ),
    ],
)
def test_refuses_non_finite_input(function, values, message):
    # a NaN fails every comparison and an infinity poisons the threshold
    # and the certificate, so neither gets past the argument checks; the
    # refusal comes before any arithmetic that would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            function(np.array(values))


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def test_cluster_exact_multiplicities():
    # C4 Laplacian spectrum is 0, 2, 2, 4
    raw = eigenvalues_sym(laplacian_matrix(cycle_graph(4)))[0]
    s = SpectralMeasure.from_spectrum(raw)
    assert np.allclose(s.thetas, [0.0, 2.0, 4.0], atol=1e-12)
    assert list(s.mults) == [1, 2, 1]
    assert s.thetas[0] == 0.0
    assert s.d == 2
    assert s.n == 4


def test_cluster_merges_jittered_values():
    raw = np.array([1e-13, 1.0 - 3e-9, 1.0 + 3e-9, 2.5])
    s = SpectralMeasure.from_spectrum(raw)
    assert list(s.mults) == [1, 2, 1]
    assert abs(s.thetas[1] - 1.0) <= 1e-8


def test_cluster_is_gap_chaining():
    # each consecutive gap is below tolerance, so the chain merges even
    # though the endpoints are farther apart than the tolerance
    raw = np.array([0.0, 1.0, 1.0 + 0.9e-8, 1.0 + 1.8e-8])
    s = SpectralMeasure.from_spectrum(raw)
    assert list(s.mults) == [1, 3]


def test_cluster_rejections():
    with pytest.raises(
        InternalCheckError, match="smallest eigenvalue 0.5 is not zero within tolerance 2e-08"
    ):
        SpectralMeasure.from_spectrum(np.array([0.5, 1.0, 2.0]))  # no zero eigenvalue
    # zero repeated: the message names the multiplicity, the absolute
    # threshold and the largest gap merged
    message = (
        "the smallest eigenvalue cluster has multiplicity 3: the clustering "
        "tolerance 3e-08 merged eigenvalues up to 7e-09 apart, but a "
        "connected graph has a simple zero eigenvalue"
    )
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        SpectralMeasure.from_spectrum(np.array([0.0, 5e-9, 1.2e-8, 3.0]))
    with pytest.raises(InternalCheckError, match="smallest eigenvalue -0.5 is not zero"):
        SpectralMeasure.from_spectrum(np.array([-0.5, 1.0, 2.0]))
    with pytest.raises(ValueError):
        SpectralMeasure.from_spectrum(np.array([1.0, 0.0]))  # unsorted
    with pytest.raises(ValueError):
        SpectralMeasure.from_spectrum(np.array([]))


def test_min_gap():
    s = SpectralMeasure.from_spectrum(np.array([0.0, 0.4, 2.0]))
    assert math.isclose(s.min_gap, 0.4)
    assert SpectralMeasure(np.array([0.0]), np.array([1])).min_gap == math.inf


# ---------------------------------------------------------------------------
# Gap products
# ---------------------------------------------------------------------------

def test_phi_products_direct():
    s = SpectralMeasure(np.array([0.0, 1.0, 3.0]), np.array([1, 2, 1]))
    # phi_0 = (0-1)(0-3) = 3, phi_1 = (1-0)(1-3) = -2, phi_2 = (3-0)(3-1) = 6
    assert np.allclose(phi_products(s), [3.0, -2.0, 6.0])


def test_phi_sign_alternation():
    # Signs alternate, and log|phi_i| matches the sum of the log gaps.  The
    # path:1500 spectrum (closed form, no eigensolve) has every |phi_i|
    # below 7e8 but partial products past 1e308; there the two logs differ
    # by 1.1e-14 at most, and 1500 roundings bound it by about 3.3e-13.
    rng = np.random.default_rng(11)
    spectra = []
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 12)), 2)
        spectra.append(SpectralMeasure.from_spectrum(eigenvalues_sym(laplacian_matrix(g))[0]))
    n = 1500
    spectra.append(SpectralMeasure(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n), np.ones(n, dtype=int)))
    for s in spectra:
        phis = phi_products(s)
        thetas = s.thetas.tolist()
        for i, phi in enumerate(phis.tolist()):
            assert math.isfinite(phi)
            assert (-1.0) ** (s.d - i) * phi > 0
            log_gaps = math.fsum(math.log(abs(thetas[i] - u)) for j, u in enumerate(thetas) if j != i)
            assert abs(math.log(abs(phi)) - log_gaps) <= 1e-12


def test_phi_products_match_reference_bitwise(atlas_corpus):
    # The same products in the same order as the numpy reference, at any d.
    graphs = [g for _, g in atlas_corpus]
    graphs += [generate("path", (128,)), generate("cycle", (128,)), generate("hypercube", (7,))]
    for g in graphs:
        s = SpectralMeasure.from_spectrum(eigenvalues_sym(laplacian_matrix(g))[0])
        assert phi_products(s).tobytes() == reference_phi_products(s.thetas).tobytes(), g


def test_phi_products_match_reference_bitwise_across_blocks():
    # Spectra that need several blocks of the reduction: the path:1500
    # spectrum (closed form, no eigensolve), whose partial products pass
    # 1e308, and gaps near 1e-200, where two gaps in a row underflow.
    # Each block must continue from the previous block's mantissa; a
    # block started afresh rounds differently.
    n = 1500
    spectra = [2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)]
    spectra.append(np.concatenate([[0.0], 1e-200 * np.arange(1, 6), [1.0, 2.0, 3.5]]))
    for thetas in spectra:
        s = SpectralMeasure(thetas, np.ones(len(thetas), dtype=int))
        assert phi_products(s).tobytes() == reference_phi_products(thetas).tobytes()


def test_phi_past_the_float_range_raises():
    # every phi_i of 0, 1, ..., 400 is i! (400 - i)! in magnitude, at least
    # (200!)^2, about 1e749: it must fail closed, not come back as inf
    # (spectrum's text report would print it), and name the first one
    s = SpectralMeasure(np.arange(401.0), np.ones(401, dtype=int))
    with pytest.raises(
        InternalCheckError,
        match=r"phi_0 is past the float range: its binary exponent 2887 exceeds 1024$",
    ):
        phi_products(s)
    # of 0, 1, 2, 1e200 only phi_3, about 2e600, is past the range
    s = SpectralMeasure(np.array([0.0, 1.0, 2.0, 1e200]), np.ones(4, dtype=int))
    with pytest.raises(
        InternalCheckError,
        match=r"phi_3 is past the float range: its binary exponent 1994 exceeds 1024$",
    ):
        phi_products(s)


def test_phi_single_eigenvalue():
    s = SpectralMeasure(np.array([0.0]), np.array([1]))
    assert np.array_equal(phi_products(s), [1.0])
