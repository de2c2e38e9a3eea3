"""Laplacian spectrum and spectral bookkeeping.

The eigenvalues come from ``numpy.linalg.eigvalsh``, LAPACK's symmetric
driver (Anderson et al., *LAPACK Users' Guide*, 1999).  For a fixed BLAS
thread count its output is deterministic; the bits at n of about 1000 can
differ between thread counts.

Raw eigenvalues are then clustered into distinct values with
multiplicities, which is the form the rest of the pipeline consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CLUSTER_TOL = 1e-8


class SpectrumClusterError(ValueError):
    """The clustered spectrum is not a valid connected-graph Laplacian
    spectrum (zero eigenvalue missing or repeated, or a negative value)."""


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, sorted ascending.

    Asymmetry at rounding level is averaged away; raises ValueError if the
    input is not square and symmetric, and numpy.linalg.LinAlgError if
    LAPACK does not converge.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        asym = float(np.abs(a - a.T).max())
        if asym > 1e-12 * max(1.0, float(np.abs(a).max())):
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:g})")
        a = (a + a.T) / 2.0
    return np.linalg.eigvalsh(a)


@dataclass(frozen=True)
class DistinctSpectrum:
    """Distinct eigenvalues with multiplicities, ascending.

    For a connected graph Laplacian: thetas[0] is exactly 0 with
    multiplicity 1 and all other values are positive.  ``d`` is the number
    of distinct eigenvalues minus one.  ``min_gap`` is the smallest gap
    between consecutive distinct values (inf when d = 0), recorded so the
    clustering tolerance can be audited against the actual spectrum.
    """

    thetas: np.ndarray
    mults: np.ndarray

    @property
    def d(self) -> int:
        return len(self.thetas) - 1

    @property
    def n(self) -> int:
        return int(self.mults.sum())

    @property
    def min_gap(self) -> float:
        if self.d == 0:
            return math.inf
        return float(np.diff(self.thetas).min())


def cluster_spectrum(raw: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL) -> DistinctSpectrum:
    """Group raw ascending eigenvalues into distinct values with multiplicities.

    Greedy left-to-right: a value joins the current cluster when its gap to
    the previous value is at most ``tol * max(1, spectral radius)``.  Each
    cluster's value is the mean of its members.  The smallest cluster is
    then validated as the simple zero eigenvalue of a connected Laplacian
    and snapped to exactly 0.

    Raises :class:`SpectrumClusterError` when the smallest cluster holds
    more than one eigenvalue (for a graph built by this package, which is
    connected, that means the tolerance merged distinct eigenvalues), when
    it is not zero, or when a value is negative beyond tolerance.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or len(raw) == 0:
        raise ValueError("raw spectrum must be a nonempty 1-d array")
    if tol <= 0:
        raise ValueError(f"clustering tolerance must be positive, got {tol}")
    values = raw.tolist()
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("raw spectrum must be sorted ascending")

    radius = max(abs(values[0]), abs(values[-1]))
    tol_abs = tol * max(1.0, radius)

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
        raise SpectrumClusterError(
            f"the smallest eigenvalue cluster has multiplicity {mults[0]}: the "
            f"clustering tolerance {tol_abs:g} merged eigenvalues up to {gap:g} "
            "apart, but a connected graph has a simple zero eigenvalue; lower "
            "--tol-eig"
        )
    if abs(thetas[0]) > tol_abs:
        raise SpectrumClusterError(
            f"smallest eigenvalue {thetas[0]:g} is not zero within tolerance "
            f"{tol_abs:g}; not a connected-graph Laplacian spectrum"
        )
    if raw[0] < -tol_abs:
        raise SpectrumClusterError(
            f"negative eigenvalue {raw[0]:g} below -{tol_abs:g}"
        )
    thetas[0] = 0.0
    return DistinctSpectrum(np.array(thetas), np.array(mults, dtype=int))


def phi_products(s: DistinctSpectrum) -> np.ndarray:
    """For each distinct eigenvalue, the product of its gaps to all others:
    phi_i = prod_{j != i} (theta_i - theta_j).

    Signs alternate as (-1)^(d-i) because the values are strictly
    increasing.  d = 0 gives the empty product [1].
    """
    thetas = s.thetas.tolist()
    return np.array([
        math.prod((t - u for j, u in enumerate(thetas) if j != i), start=1.0)
        for i, t in enumerate(thetas)
    ])
