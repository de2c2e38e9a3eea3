"""Laplacian spectrum and spectral bookkeeping.

The Laplacian is factored once, by ``eigenvalues_sym``: one
``numpy.linalg.eigh`` call (LAPACK; Anderson et al., *LAPACK Users' Guide*,
1999) gives the eigenvalues and an eigenbasis, certified together by their
backward error.  ``SpectralMeasure.from_spectrum`` then clusters the
eigenvalues into distinct values with multiplicities, the one spectral
type the rest of the pipeline reads.  The matrix must be exactly
symmetric; it is refused, not symmetrized, so the certificate is about the
matrix given.  The bits are deterministic for a fixed BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative threshold of the certificate and the clustering, scaled by
# max(1, spectral radius); on the graphs measured it sits at least two
# decades below the smallest gap between distinct eigenvalues (path:900)
# and five above the largest spread within a cluster or backward error
CLUSTER_TOL = 1e-8


class InternalCheckError(RuntimeError):
    """A quantity violated a theorem that cannot fail, so the computation
    itself is wrong (bad clustering, lost precision, or a bug).  Every
    such check in the package raises this one type."""


def absolute_tol(raw) -> float:
    """CLUSTER_TOL * max(1, spectral radius of the ascending raw
    eigenvalues), the one threshold of the certificate and the clustering."""
    return CLUSTER_TOL * max(1.0, abs(float(raw[0])), abs(float(raw[-1])))


def _refuse_non_finite(a: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first non-finite entry of a and its index."""
    finite = np.isfinite(a)
    if not finite.all():
        index = np.unravel_index(int(np.argmin(finite)), a.shape)
        where = int(index[0]) if a.ndim == 1 else tuple(map(int, index))
        raise ValueError(f"{name} entry {where} is {float(a[index])}, not finite")


def eigenvalues_sym(m: np.ndarray):
    """(values, V) of a dense symmetric matrix m: eigh's ascending
    eigenvalues and orthonormal eigenbasis, certified by
    max|m V - V diag(values)| <= absolute_tol(values).  m must be
    exactly symmetric, so the certificate attests m itself: any asymmetry,
    however small, raises ValueError, as does a non-square m or a
    non-finite entry.  Raises InternalCheckError if the certificate fails,
    and numpy.linalg.LinAlgError if LAPACK does not converge.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _refuse_non_finite(a, "matrix")
    if not np.array_equal(a, a.T):
        asym = float(np.abs(a - a.T).max())
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:g})")
    values, vectors = np.linalg.eigh(a)
    bound = absolute_tol(values)
    backward = float(np.abs(a @ vectors - vectors * values).max())
    if not backward <= bound:
        raise InternalCheckError(
            f"eigendecomposition backward error max|L V - V diag(lambda)| = "
            f"{backward!r} exceeds the eigenvalue tolerance {bound!r}"
        )
    return values, vectors


@dataclass(frozen=True)
class SpectralMeasure:
    """The spectral measure of a connected graph Laplacian: weight m_i/n
    at each distinct eigenvalue theta_i.  thetas is strictly ascending from
    exactly 0; mults holds integers of at least 1, summing to n.  d is the
    number of distinct eigenvalues minus one; min_gap, the smallest gap
    between consecutive ones (inf when d = 0), lets the clustering
    tolerance be audited against the actual spectrum."""

    thetas: np.ndarray
    mults: np.ndarray

    def __post_init__(self):
        thetas, mults = self.thetas.tolist(), self.mults.tolist()
        if len(thetas) != len(mults):
            raise ValueError("thetas and mults must have equal length")
        first = thetas[0] if thetas else None
        if first != 0.0:
            raise ValueError(f"first node must be 0, got {first}")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("nodes must be strictly ascending")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be at least 1")

    @classmethod
    def from_spectrum(cls, raw) -> SpectralMeasure:
        """The measure of raw ascending eigenvalues, grouped into distinct
        values with multiplicities.

        Greedy left-to-right: a value joins the current cluster when its
        gap to the previous value is at most ``absolute_tol(raw)``, and a
        cluster's value is the mean of its members.  The smallest cluster
        must be the simple zero eigenvalue of a connected Laplacian and is
        snapped to exactly 0; every later cluster is then positive.  Raises
        :class:`InternalCheckError` when it holds more than one eigenvalue
        (the threshold merged distinct ones, as the graphs this package
        builds are connected) or is not zero within the threshold, and
        ValueError for a raw that is empty, not 1-d, not finite or not
        ascending.
        """
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 1 or len(raw) == 0:
            raise ValueError("raw spectrum must be a nonempty 1-d array")
        _refuse_non_finite(raw, "raw spectrum")
        values = raw.tolist()
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("raw spectrum must be sorted ascending")

        tol_abs = absolute_tol(values)

        thetas = []
        mults = []
        start = 0
        for i in range(1, len(values) + 1):
            if i == len(values) or values[i] - values[i - 1] > tol_abs:
                thetas.append(values[start] if i - start == 1 else float(raw[start:i].mean()))
                mults.append(i - start)
                start = i

        if mults[0] != 1:
            merged = values[: mults[0]]
            gap = max(b - a for a, b in zip(merged, merged[1:]))
            raise InternalCheckError(
                f"the smallest eigenvalue cluster has multiplicity {mults[0]}: the "
                f"clustering tolerance {tol_abs:g} merged eigenvalues up to {gap:g} "
                "apart, but a connected graph has a simple zero eigenvalue"
            )
        if abs(thetas[0]) > tol_abs:
            raise InternalCheckError(
                f"smallest eigenvalue {thetas[0]:g} is not zero within tolerance "
                f"{tol_abs:g}; not a connected-graph Laplacian spectrum"
            )
        thetas[0] = 0.0
        return cls(np.array(thetas), np.array(mults, dtype=int))

    @property
    def d(self) -> int:
        return len(self.thetas) - 1

    @property
    def n(self) -> int:
        return int(self.mults.sum())

    @property
    def weights(self) -> np.ndarray:
        return self.mults / self.n

    @property
    def min_gap(self) -> float:
        if self.d == 0:
            return math.inf
        return float(np.diff(self.thetas).min())


def phi_products(s: SpectralMeasure) -> np.ndarray:
    """For each distinct eigenvalue, the product of its gaps to all others:
    phi_i = prod_{j != i} (theta_i - theta_j).

    Signs alternate as (-1)^(d-i) because the values are strictly
    increasing.  d = 0 gives the empty product [1].  All d + 1 products
    run left to right at once, as one reduction of the gap matrix, with
    1.0 on its diagonal, over blocks of rows.  After each block np.frexp
    splits every partial product into a mantissa in [1/2, 1), which starts
    the next block, and a binary exponent, which is carried aside.  A
    block is short enough that a mantissa times that many gaps, each of
    magnitude in [min(1, min_gap), max(1, theta_max)], stays in the normal
    range, so no partial product overflows or underflows.  Scaling by
    powers of two is exact, so the bits are those of the plain product
    wherever that stays normal.  A phi_i beyond the float range raises
    InternalCheckError naming it.
    """
    # gaps[j, i] = theta_i - theta_j: a block of rows is contiguous, and
    # reducing it down its columns multiplies every product at once
    gaps = s.thetas - s.thetas[:, None]
    gaps.flat[:: len(gaps) + 1] = 1.0
    # a start of magnitude in [2^-1, 1] times `step` factors of magnitude
    # in [2^(low - 1), 2^high) stays in [2^-1022, 2^1021]
    low = math.frexp(gaps.diagonal(1).min(initial=1.0))[1]
    high = math.frexp(max(1.0, s.thetas[-1]))[1]
    step = 1021 // max(high, 1 - low)
    phis, exps = np.frexp(np.multiply.reduce(gaps[:step]))
    for start in range(step, len(gaps), step):
        gaps[start] *= phis
        phis, e = np.frexp(np.multiply.reduce(gaps[start : start + step]))
        exps += e
    # m * 2^e with m in [1/2, 1) is finite exactly when e <= 1024
    past = exps > 1024
    if past.any():
        i = int(np.argmax(past))
        raise InternalCheckError(
            f"phi product phi_{i} is past the float range: its binary "
            f"exponent {int(exps[i])} exceeds 1024"
        )
    return np.ldexp(phis, exps)
