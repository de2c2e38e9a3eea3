"""Discrete orthogonal polynomials on the Laplacian spectrum.

The spectral measure, ``eigen.SpectralMeasure``, places weight m_i/n on
each distinct Laplacian eigenvalue theta_i, defining

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

Construction is Lanczos with full reorthogonalization on diag(theta)
from sqrt(w), never a Gram matrix on the monomial basis (ill-conditioned)
nor the Stieltjes procedure (it loses accuracy on a discrete measure once
the degree nears the node count; Gautschi, section 2.2.3).  It holds one
(d+1) x (d+1) basis and reads each p_i(0) from its first column, to an
absolute error near rounding level however small p_i(0) is.

``eval_matrix`` evaluates at a symmetric matrix through its
eigendecomposition, one n x n product per polynomial, and returns that
product as it is, without symmetrizing it, so that a residual costs about
its matrix multiply and one pass to compare it.  The residual checks
cost d + 2 products (the Hoffman polynomial and r_0..r_d) on a
distance-regular or inconclusive verdict, and 1 (the Hoffman polynomial
alone) on a not-distance-regular one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import InternalCheckError, SpectralMeasure


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
    product whatever the degree of p and nothing besides.  The exact result
    is symmetric; the raw product strays from symmetry by rounding only and
    is returned as it is.  For a symmetric target T, max|X - T| on the raw
    product X is never below max|(X + X^T)/2 - T|, so a residual read from
    it is at least as strict.
    """
    values, v = basis
    c = np.asarray(c, dtype=float)
    return (v * (c @ values[: len(c)])) @ v.T


# ---------------------------------------------------------------------------
# The orthogonal system
# ---------------------------------------------------------------------------

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

    Lanczos on diag(theta) from the unit vector sqrt(w), with every new
    vector orthogonalized twice against all earlier ones, gives the
    orthonormal polynomials p_i through their node values: row i of the
    basis Q holds sqrt(w_j) p_i(theta_j), the Rayleigh quotients a_i and
    the norms s_{i+1} > 0 are their recurrence
    x p_i = s_i p_{i-1} + a_i p_i + s_{i+1} p_{i+1}.  Since theta_0 = 0,
    p_i(0) = Q[i, 0] / Q[0, 0] (Golub & Welsch, Math. Comp. 23, 1969), and
    r_i = p_i(0) p_i, so that

        r_i(0)      = p_i(0)^2
        alpha_i     = a_i
        beta_{i-1}  = s_i p_i(0) / p_{i-1}(0)
        gamma_{i+1} = s_{i+1} p_i(0) / p_{i+1}(0)

    p_i(0) has the sign (-1)^i, which makes every beta and gamma negative;
    a p_i(0) that is not finite, is zero or has the other sign raises
    InternalCheckError.
    """
    thetas = mu.thetas
    d = mu.d
    q = np.empty((d + 1, d + 1))
    q[0] = np.sqrt(mu.weights)
    a, s = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(d + 1):
            # h[i] = <x p_i, p_i>; subtracting h @ basis and then the
            # rounding left over keeps the basis orthonormal
            basis = q[: i + 1]
            v = thetas * q[i]
            h = basis @ v
            a.append(h[i])
            if i == d:
                break
            v -= h @ basis
            v -= (basis @ v) @ basis
            s.append(math.sqrt(v @ v))
            q[i + 1] = v / s[i]
    p0 = q[:, 0] / q[0, 0]
    for i, z in enumerate(p0.tolist()):
        # finite and of the sign (-1)^i; NaN fails every comparison
        if not 0.0 < (-z if i % 2 else z) < math.inf:
            raise InternalCheckError(
                f"orthonormal polynomial of degree {i} has value {z!r} at 0, "
                f"where its sign must be (-1)^{i}; misclustered spectrum "
                "suspected"
            )
    s = np.array(s)
    ratio = p0[1:] / p0[:-1]
    return PredistanceSystem(p0 * p0, np.array(a), s * ratio, s / ratio)


def spectral_excess_closed_form(spectrum: SpectralMeasure, phis: np.ndarray) -> float:
    """r_d(0) directly from the spectral measure:

        n * ( sum_i phi_0^2 / (m_i phi_i^2) )^(-1)

    with m_i the integer multiplicities the spectrum holds and n their sum.
    """
    total = float(np.sum(phis[0] ** 2 / (spectrum.mults * phis**2)))
    return spectrum.n / total
