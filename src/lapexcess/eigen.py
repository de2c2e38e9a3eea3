"""Dense symmetric eigensolver and spectral bookkeeping.

The solver works in two stages.  Householder reflections reduce the matrix
to a symmetric tridiagonal one (Golub & Van Loan, *Matrix Computations*,
section 8.3), and the implicit QL algorithm with Wilkinson shifts finds the
eigenvalues of that tridiagonal (Dubrulle, Martin & Wilkinson, "The
implicit QL algorithm", 1968; EISPACK ``imtql1``).  numpy serves only as
storage and for the matrix-vector and rank-one updates of the reduction;
no LAPACK routine is called.  The QL stage runs on Python floats in
O(n^2) operations, so the 4n^3/3 flops of the reduction set the cost
whatever the vertex labelling.

Raw eigenvalues are then clustered into distinct values with
multiplicities, which is the form the rest of the pipeline consumes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# EISPACK's budget of QL iterations per eigenvalue.
_QL_MAX_ITERATIONS = 30
_EPS = sys.float_info.epsilon

DEFAULT_CLUSTER_TOL = 1e-8


class EigenConvergenceError(RuntimeError):
    """The QL iteration budget for one eigenvalue ran out."""


class SpectrumClusterError(ValueError):
    """The clustered spectrum is not a valid connected-graph Laplacian
    spectrum (zero eigenvalue missing or repeated, or a negative value)."""


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix, sorted ascending.

    Householder tridiagonalization followed by implicit QL with Wilkinson
    shifts.  Deterministic: identical input yields bit-identical output.

    Raises :class:`EigenConvergenceError` if one eigenvalue needs more than
    ``_QL_MAX_ITERATIONS`` QL iterations and ValueError if the input is not
    square and symmetric.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not np.array_equal(a, a.T):
        asym = float(np.abs(a - a.T).max())
        if asym > 1e-12 * max(1.0, float(np.abs(a).max())):
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:g})")
        a = (a + a.T) / 2.0
    if n == 1:
        return a[0, :1].copy()
    d, e = _tridiagonalize(a)
    _implicit_ql(d, e)
    return np.sort(np.array(d))


def _tridiagonalize(a: np.ndarray) -> tuple[list[float], list[float]]:
    """Reduce the symmetric work matrix ``a`` in place by n - 2 Householder
    reflections; return the diagonal and the off-diagonal (e[k] couples
    rows k and k + 1) as Python float lists.

    Step k reflects x = a[k+1:, k] onto a multiple of the first unit
    vector with H = I - beta v v^T, and updates only the trailing block,
    A <- A - v w^T - w v^T with p = beta A v and w = p - (beta p.v / 2) v.
    """
    n = a.shape[0]
    e = []
    for k in range(n - 2):
        x = a[k + 1:, k]
        x0 = float(x[0])
        sigma = float(x[1:] @ x[1:])
        if sigma == 0.0:
            e.append(x0)
            continue
        alpha = -math.copysign(math.sqrt(x0 * x0 + sigma), x0)
        v = x.copy()
        v[0] = x0 - alpha
        beta = 2.0 / (v[0] * v[0] + sigma)
        sub = a[k + 1:, k + 1:]
        p = beta * (sub @ v)
        w = p - (0.5 * beta * float(p @ v)) * v
        sub -= v[:, None] * w
        sub -= w[:, None] * v
        e.append(alpha)
    e.append(float(a[n - 1, n - 2]))
    return a.diagonal().tolist(), e


def _implicit_ql(d: list[float], e: list[float]) -> None:
    """Overwrite ``d`` with the eigenvalues of the symmetric tridiagonal
    with diagonal d and off-diagonal e (len(e) == len(d) - 1); ``e`` is
    destroyed.

    For each l, the first m >= l whose e[m] is negligible,
    |e[m]| <= eps (|d[m]| + |d[m+1]|), splits off the block l..m; when
    m == l, d[l] has converged.  Otherwise one implicit QL step with the
    Wilkinson shift from the leading 2 x 2 chases the bulge from m up to l.
    """
    n = len(d)
    e.append(0.0)
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if iterations >= _QL_MAX_ITERATIONS:
                raise EigenConvergenceError(
                    f"eigenvalue {l} of {n} not converged after {iterations} "
                    f"QL iterations (off-diagonal {e[l]:g})"
                )
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # Underflow: the block splits at i + 1; retry from l.
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


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

    Raises :class:`SpectrumClusterError` when the zero eigenvalue is
    missing or repeated (disconnected input, unreachable for graphs built
    by this package) or when a value is negative beyond tolerance.
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

    if abs(thetas[0]) > tol_abs:
        raise SpectrumClusterError(
            f"smallest eigenvalue {thetas[0]:g} is not zero within tolerance "
            f"{tol_abs:g}; not a connected-graph Laplacian spectrum"
        )
    if raw[0] < -tol_abs:
        raise SpectrumClusterError(
            f"negative eigenvalue {raw[0]:g} below -{tol_abs:g}"
        )
    if mults[0] != 1:
        raise SpectrumClusterError(
            f"zero eigenvalue has multiplicity {mults[0]}; the graph is not "
            "connected"
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
