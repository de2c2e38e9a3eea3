"""Discrete orthogonal polynomials on the Laplacian spectrum.

The measure places weight m_i/n on each distinct Laplacian eigenvalue
theta_i, defining

    <p, q> = sum_i w_i p(theta_i) q(theta_i).

The predistance polynomials r_0..r_d are the orthogonal sequence for this
measure normalized so that <r_i, r_i> = r_i(0); they satisfy the three-term
recurrence

    x r_i = beta_{i-1} r_{i-1} + alpha_i r_i + gamma_{i+1} r_{i+1}

with beta_{-1} = gamma_{d+1} = 0, all betas and gammas negative, and
alpha_i + beta_i + gamma_i = 0.  The degree-d value at zero, r_d(0), is the
spectral excess; the Hoffman polynomial H = sum_i r_i satisfies H(L) = J.

The recurrence is the only representation: a polynomial is a coefficient
vector in the basis r_0, r_1, ..., evaluated by running the recurrence at
the points (Gautschi, *Orthogonal Polynomials: Computation and
Approximation*, 2004, sections 2.1-2.2).  Monomial coefficients would lose
all accuracy to cancellation once d passes about 25.

Construction uses the Stieltjes recurrence for the monic sequence (never a
Gram matrix on the monomial basis, which is ill-conditioned) and all inner
products are taken on node values propagated through the same recurrence,
two degrees at a time.  It sees only the d+1 nodes (at most 7 up to 7
vertices) and runs on Python floats, cheaper than numpy calls on arrays
that small.  Its sums run left to right, as np.sum does below 8 terms
(pairwise from 8 on, so an array version differs there in the last digits).

``eval_matrix`` evaluates at a symmetric matrix through its
eigendecomposition, one n x n product per polynomial, so the residual
checks of d + 2 polynomials cost d + 2 products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import DistinctSpectrum

# Guard for the theoretically impossible q_i(0) = 0 breakdown.
_BREAKDOWN_TOL = 1e-12


class OrthopolyBreakdownError(RuntimeError):
    """A constructed orthogonal polynomial vanished at 0, which cannot
    happen for a valid spectral measure; signals a numerical breakdown or a
    misclustered spectrum."""


# ---------------------------------------------------------------------------
# Evaluation in the predistance basis
# ---------------------------------------------------------------------------

def predistance_values(system: PredistanceSystem, x) -> np.ndarray:
    """r_0..r_d at the points x, as a (d+1) x len(x) array, by the
    recurrence r_{i+1} = ((x - alpha_i) r_i - beta_{i-1} r_{i-1}) / gamma_{i+1}.
    """
    x = np.asarray(x, dtype=float)
    alpha, beta, gamma = system.alpha.tolist(), system.beta.tolist(), system.gamma.tolist()
    out = np.empty((system.d + 1, len(x)))
    out[0] = 1.0
    for i in range(system.d):
        nxt = (x - alpha[i]) * out[i]
        if i:
            nxt -= beta[i - 1] * out[i - 1]
        out[i + 1] = nxt / gamma[i]
    return out


def eval_matrix(c, basis) -> np.ndarray:
    """p(M) for p = sum_i c_i r_i and a symmetric matrix M = V diag(lam) V^T,
    given basis = (R, V) with R = predistance_values(system, lam).

    The result is V diag(p(lam)) V^T (Higham, *Functions of Matrices*,
    2008, section 4.5), p(lam) = c @ R[:len(c)], so a call costs one n x n
    product whatever the degree of p.  The exact result is symmetric; the
    product strays by rounding only, so the output is symmetrized.
    """
    values, v = basis
    c = np.asarray(c, dtype=float)
    out = (v * (c @ values[: len(c)])) @ v.T
    return (out + out.T) / 2.0


# ---------------------------------------------------------------------------
# The spectral measure and its orthogonal system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralMeasure:
    """Discrete probability measure on the distinct Laplacian eigenvalues:
    weight m_i/n at node theta_i, with theta_0 = 0."""

    thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        thetas, weights = self.thetas.tolist(), self.weights.tolist()
        if len(thetas) != len(weights):
            raise ValueError("thetas and weights must have equal length")
        if thetas[0] != 0.0:
            raise ValueError(f"first node must be 0, got {thetas[0]}")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("nodes must be strictly ascending")
        if any(x <= 0 for x in weights):
            raise ValueError("weights must be positive")
        total = sum(weights)
        if abs(total - 1.0) > 1e-12 * len(weights):
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def from_spectrum(cls, s: DistinctSpectrum) -> "SpectralMeasure":
        return cls(s.thetas.copy(), s.mults / s.n)

    @property
    def d(self) -> int:
        return len(self.thetas) - 1


@dataclass(frozen=True)
class PredistanceSystem:
    """The polynomials r_0..r_d, held as their recurrence coefficients and
    their values at zero.

    values_at_zero and alpha have d+1 entries (r_0(0)..r_d(0) and
    alpha_0..alpha_d); beta holds beta_0..beta_{d-1} and gamma holds
    gamma_1..gamma_d, both empty when d = 0.
    """

    values_at_zero: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    @property
    def d(self) -> int:
        return len(self.alpha) - 1


def predistance_system(mu: SpectralMeasure) -> PredistanceSystem:
    """Build the predistance polynomials' recurrence coefficients and
    values at zero.

    Stieltjes procedure for the monic orthogonal sequence q_i (tracking
    its node values and q_i(0)), each q_i rescaled as soon as it is
    produced to r_i = (q_i(0)/<q_i, q_i>) q_i so that <r_i, r_i> = r_i(0).
    The recurrence coefficients are read off by projecting x*r_i onto the
    r-basis:

        alpha_i    = <x r_i, r_i>   / <r_i, r_i>
        gamma_{i+1} = <x r_i, r_{i+1}> / <r_{i+1}, r_{i+1}>
        beta_i     = <x r_{i+1}, r_i> / <r_i, r_i>
    """
    thetas = mu.thetas.tolist()
    w = mu.weights.tolist()
    wt = [a * t for a, t in zip(w, thetas)]
    d = mu.d
    at_zero, alpha, beta, gamma = np.zeros(d + 1), np.zeros(d + 1), np.zeros(d), np.zeros(d)
    # monic q_i, q_{i-1}: value at 0, node values, squared norm; q_{-1} = 0.
    # q_xn is <x q_i, q_i>, the numerator of the next Stieltjes shift.
    q_0, q_v = 1.0, [1.0] * (d + 1)
    q_n, q_xn = _dot(w, q_v), _dot(wt, q_v)
    p_0, p_v, p_n = 0.0, [0.0] * (d + 1), q_n
    for i in range(d + 1):
        if abs(q_0) <= _BREAKDOWN_TOL * math.sqrt(q_n):
            raise OrthopolyBreakdownError(
                f"orthogonal polynomial of degree {i} vanishes at 0 "
                f"(value {q_0:g}); misclustered spectrum suspected"
            )
        scale = q_0 / q_n
        at_zero[i] = scale * q_0
        r = [scale * x for x in q_v]
        rn = scale * scale * q_n
        wxr = [a * (t * x) for a, t, x in zip(w, thetas, r)]
        alpha[i] = _dot(wxr, r) / rn
        if i:
            gamma[i - 1] = _dot(wxr_prev, r) / rn
            beta[i - 1] = _dot(wxr, r_prev) / rn_prev
        if i == d:
            break
        r_prev, wxr_prev, rn_prev = r, wxr, rn
        # Stieltjes step q_{i+1} = (x - a) q_i - b q_{i-1}, at 0 and at the
        # nodes; the sums w_j (v_j v_j) and (w_j theta_j) (v_j v_j) run in
        # the same pass, left to right
        a = q_xn / q_n
        b = q_n / p_n
        nxt_0 = (0.0 - a * q_0) - b * p_0
        vals, norm, xnorm = [], 0.0, 0.0
        for t, x, y, c, ct in zip(thetas, q_v, p_v, w, wt):
            v = (t - a) * x - b * y
            vals.append(v)
            v *= v
            norm += c * v
            xnorm += ct * v
        p_0, p_v, p_n = q_0, q_v, q_n
        q_0, q_v, q_n, q_xn = nxt_0, vals, norm, xnorm
    return PredistanceSystem(at_zero, alpha, beta, gamma)


def _dot(a, b) -> float:
    """sum_j a_j b_j left to right (sum() compensates from Python 3.12 on)."""
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def spectral_excess_closed_form(mu: SpectralMeasure, phis: np.ndarray, n: int) -> float:
    """r_d(0) directly from the spectrum:

        n * ( sum_i phi_0^2 / (m_i phi_i^2) )^(-1)

    with m_i the eigenvalue multiplicities (n * weights).
    """
    mults = mu.weights * n
    total = float(np.sum(phis[0] ** 2 / (mults * phis**2)))
    return n / total
