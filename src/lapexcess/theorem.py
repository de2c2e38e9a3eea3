"""Distance-regularity verdict from the Laplacian spectrum.

A connected graph on n vertices with d+1 distinct Laplacian eigenvalues is
distance-regular exactly when its average excess (the mean number of
vertices at distance d from a vertex) equals its spectral excess r_d(0),
the value at zero of the highest predistance polynomial.  The average never
exceeds the spectral excess, so the verdict reduces to an equality test.
It and the residual checks read one spectrum, the certified eigenvalues and
eigenbasis of ``eigen.eigenvalues_sym``; the verdict reads them as one
``eigen.SpectralMeasure``, the distinct eigenvalues with multiplicities.

Because equality of two floats is the hinge, the verdict is three-way:
``distance_regular`` when the relative gap is within ``EQUALITY_TOL``,
``not_distance_regular`` when it is at least ten times that, and
``inconclusive`` in the gray zone between.  A significantly negative gap is
impossible mathematically and is reported as an internal error, as is any
disagreement with the combinatorial oracle (the intersection numbers read
off the distance matrix), which runs on every graph and double-checks
every decisive verdict.  ``EQUALITY_TOL`` sets the band only; the route
check and the excess guard read their own fixed bound, ``CROSS_CHECK_TOL``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .eigen import (
    InternalCheckError,
    SpectralMeasure,
    eigenvalues_sym,
    phi_products,
)
from .graphs import DistanceData, Graph, distance_data, laplacian_matrix
from .orthopoly import (
    PredistanceSystem,
    eval_matrix,
    predistance_system,
    predistance_values,
    spectral_excess_closed_form,
)

# the verdict band on the relative gap: at most EQUALITY_TOL is equality,
# at least 10 * EQUALITY_TOL is not; distance-regular atlas graphs read at
# most 8.9e-16 and cycle:1000 2.5e-12, and the smallest gap known on a
# graph that is not distance-regular is 1.0e-3, on K_{499x2,1} (n = 999)
EQUALITY_TOL = 1e-6
# relative bound of the route cross-check and of the k̄_d <= r_d(0) guard;
# the largest route gap measured is 2.0e-12, on path:900
CROSS_CHECK_TOL = 1e-6


class Verdict(enum.Enum):
    DISTANCE_REGULAR = "distance_regular"
    NOT_DISTANCE_REGULAR = "not_distance_regular"
    INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# Combinatorial oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionArray:
    """Intersection numbers of a distance-regular graph.

    b holds b_0..b_{D-1} and c holds c_1..c_D, where for any vertices u, v
    at distance i the neighbors of v split into c_i at distance i-1 from u,
    a_i at distance i, and b_i at distance i+1.  a is derived, never
    stored, so it cannot disagree with the valency b_0.
    """

    b: tuple
    c: tuple

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise ValueError("b and c must both have length equal to the diameter")
        if any(x < 0 for seq in (self.b, self.c, self.a) for x in seq):
            raise ValueError("intersection numbers must be nonnegative")

    @property
    def a(self) -> tuple:
        """a_1..a_D, from a_i = b_0 - b_i - c_i with b_D = 0."""
        return tuple(self.b[0] - b - c for b, c in zip((*self.b[1:], 0), self.c))

    def __str__(self) -> str:
        bs = ",".join(str(x) for x in self.b)
        cs = ",".join(str(x) for x in self.c)
        return "{" + bs + ";" + cs + "}"


@dataclass(frozen=True)
class OracleRefusal:
    """Why the graph is not distance-regular: either it is not regular, or
    some intersection count varies across pairs at the same distance.  The
    witness fields name the first violation found."""

    reason: str
    u: int | None = None
    v: int | None = None
    distance: int | None = None


def drg_oracle(g: Graph, dd: DistanceData):
    """Distance-regularity check from the distance matrix, independent of
    any spectral computation.

    The graph is distance-regular iff it is regular and, for every ordered
    pair (u, v) at distance i, the neighbors of v split into counts c, a
    and b at distance i-1, i and i+1 from u that depend on i alone.  On a
    k-regular graph with distance matrix D and adjacency matrix A, two
    n x n products give every count at once: |d(u, w) - d(u, v)| <= 1 for
    every neighbor w of v, so

        s1 = D A - k D                             = b - c
        s2 = (D o D) A - 2 D o (D A) + k D o D     = b + c

    and a = k - b - c.  The products run in float64, where they are exact
    while k n^2 < 2^53.  Counts outside [0, k], or c = 0 at a distance of
    at least 1, cannot come from a true distance matrix and raise
    InternalCheckError naming the pair.

    Returns an IntersectionArray on success.  Otherwise returns an
    OracleRefusal naming the first violating pair in row-major order: its
    counts differ from those of the first pair at the same distance.
    """
    # a Python scan costs less than numpy's reductions on the small graphs
    # that make up most inputs
    k, *rest = g.degrees().tolist()
    for v, deg in enumerate(rest, start=1):
        if deg != k:
            return OracleRefusal(
                f"not regular: vertex 0 has degree {k}, vertex {v} has degree {deg}",
                u=0,
                v=v,
            )

    # s1 and s2 as above, in place around one work array
    n = g.n
    dist = dd.dist
    work = dist.astype(float)
    s1 = work @ g.adjacency_matrix
    work *= work
    s2 = work @ g.adjacency_matrix
    work *= k
    s2 += work
    np.multiply(dist, s1, out=work)
    work *= 2.0
    s2 -= work
    np.multiply(dist, k, out=work)
    s1 -= work

    # 2c = s2 - s1 >= 2 off the diagonal, 2b = s2 + s1 >= 0 and a = k - s2
    # >= 0; with a + b + c = k no count then exceeds k
    np.subtract(s2, s1, out=work)
    impossible = (work < 0) | ((work < 2) & (dist != 0))
    np.add(s2, s1, out=work)
    impossible |= work < 0
    impossible |= s2 > k
    if impossible.any():
        u, v = divmod(int(np.argmax(impossible)), n)
        c, a, b = _counts(s1[u, v], s2[u, v], k)
        raise InternalCheckError(
            f"oracle counts are impossible at pair ({u}, {v}), distance "
            f"{dist[u, v]}: c = {c:g}, a = {a:g}, b = {b:g} with valency {k}; "
            "the distance matrix is wrong"
        )

    # the first pair at distance i in row-major order is in the first row
    # whose eccentricity reaches i, at its first column at distance i
    levels = np.arange(dd.diameter + 1)
    rows = np.searchsorted(np.maximum.accumulate(dist.max(axis=1)), levels)
    cols = np.argmax(dist[rows] == levels[:, None], axis=1)
    e1, e2 = s1[rows, cols], s2[rows, cols]
    np.take(e1, dist, out=work, mode="clip")
    differs = s1 != work
    np.take(e2, dist, out=work, mode="clip")
    differs |= s2 != work
    if differs.any():
        u, v = divmod(int(np.argmax(differs)), n)
        i = int(dist[u, v])
        old = [int(x) for x in _counts(e1[i], e2[i], k)]
        new = [int(x) for x in _counts(s1[u, v], s2[u, v], k)]
        which = next(j for j in range(3) if old[j] != new[j])
        return OracleRefusal(
            f"{'cab'[which]}_{i} is not constant: pair ({rows[i]}, {cols[i]}) "
            f"gives {old[which]}, pair ({u}, {v}) gives {new[which]}",
            u=u,
            v=v,
            distance=i,
        )
    c, _, b = (x.astype(int).tolist() for x in _counts(e1, e2, k))
    return IntersectionArray(b=tuple(b[:-1]), c=tuple(c[1:]))


def _counts(s1, s2, k):
    """(c, a, b) from s1 = b - c and s2 = b + c."""
    return (s2 - s1) / 2, k - s2, (s2 + s1) / 2


# ---------------------------------------------------------------------------
# Average excess and the verdict pipeline
# ---------------------------------------------------------------------------

def per_vertex_excess(dd: DistanceData, d: int) -> np.ndarray:
    """k_d(u) for every vertex u: the number of vertices at distance d from
    u.  All zeros when d exceeds the diameter."""
    return np.count_nonzero(dd.dist == d, axis=1)


def _residual(name: str, value: np.ndarray, target) -> float:
    """max |value - target|, raising InternalCheckError when it is not
    finite.  value is overwritten with the difference, so the comparison
    allocates no n x n temporary; a NaN or an infinity in it still reaches
    the finiteness check."""
    np.subtract(value, target, out=value)
    r = max(float(value.max()), -float(value.min()))
    if not math.isfinite(r):
        raise InternalCheckError(f"{name} is not finite: {r!r}")
    return r


@dataclass(frozen=True)
class Analysis:
    """What the pipeline computed for one graph: the verdict with the two
    excesses it compares, and everything the reports show, kept so they
    need not recompute it."""

    graph: Graph
    raw_eigenvalues: np.ndarray
    spectrum: SpectralMeasure
    system: PredistanceSystem
    phis: np.ndarray
    spectral_excess_closed: float
    hoffman_residual: float
    distances: DistanceData
    spectral_excess: float
    average_excess: float
    per_vertex_excess: np.ndarray
    relative_gap: float
    verdict: Verdict
    identity_residuals: np.ndarray | None
    oracle: IntersectionArray | OracleRefusal


def analyze(g: Graph) -> Analysis:
    """Run the full pipeline on a connected graph.

    Laplacian, its certified eigendecomposition, its spectral measure
    (``SpectralMeasure.from_spectrum``, the clustering), predistance
    system, spectral excess by both routes (r_d(0), which the
    normalization <r_d, r_d> = r_d(0) fixes, and the closed form from the
    eigenvalues), all-pairs distances, average excess, verdict, the Hoffman
    residual and, unless the verdict is not distance-regular, the identity
    residuals max|r_i(L) - A_i| (every polynomial evaluated at L by its
    recurrence at the certified eigenvalues, through the certified
    eigenbasis), and the combinatorial oracle, which runs on every graph.

    On a not-distance-regular verdict ``identity_residuals`` is None:
    r_i(L) = A_i holds for every i exactly when the graph is
    distance-regular, so there the d + 1 n x n products would only restate
    the theorem.  The Hoffman residual runs on every verdict.

    The verdict band is the fixed ``EQUALITY_TOL``.  The route cross-check
    and the guard against a relative gap below -10 * CROSS_CHECK_TOL read
    their own fixed bound, 1e-6, five decades above the largest route gap
    measured.  The certificate and the clustering read the fixed
    ``eigen.CLUSTER_TOL``.  No caller sets any of the three.

    Every cross-check fails closed: a failed eigendecomposition
    certificate, a non-finite spectral quantity or residual, a disagreement
    between the two routes, oracle counts that no distance matrix can
    give, or a decisive verdict the oracle contradicts raises
    InternalCheckError rather than returning a report that contradicts the
    theorem.
    """
    raw, vectors = eigenvalues_sym(laplacian_matrix(g))
    spectrum = SpectralMeasure.from_spectrum(raw)
    system = predistance_system(spectrum)
    d = spectrum.d

    # r_d(0) = <r_d, r_d>, as the Lanczos basis gave it
    r_d0 = float(system.values_at_zero[d])
    if not math.isfinite(r_d0):
        raise InternalCheckError(f"spectral excess r_d(0) is not finite: {r_d0!r}")
    phis = phi_products(spectrum)
    closed = spectral_excess_closed_form(spectrum, phis)
    # written so that a NaN on either side trips it
    if not abs(closed - r_d0) <= CROSS_CHECK_TOL * max(1.0, abs(r_d0)):
        raise InternalCheckError(
            f"spectral excess disagrees between routes: polynomial gives "
            f"{r_d0!r}, closed form gives {closed!r}"
        )

    # d, the count of distinct eigenvalues minus one, is at least the
    # diameter, so a smaller d can only come from distinct eigenvalues
    # merged by the clustering; past the diameter every k_d(u) is 0
    dd = distance_data(g)
    if d < dd.diameter:
        raise InternalCheckError(
            f"diameter {dd.diameter} exceeds d = {d}: distinct eigenvalues "
            "were merged during clustering"
        )
    counts = per_vertex_excess(dd, d)
    kbar = float(counts.mean())
    rel = (r_d0 - kbar) / r_d0
    if not math.isfinite(rel):
        raise InternalCheckError(
            f"relative gap is not finite: ({r_d0!r} - {kbar!r}) / {r_d0!r} = {rel!r}"
        )
    if rel < -10.0 * CROSS_CHECK_TOL:
        raise InternalCheckError(
            f"average excess {kbar!r} exceeds spectral excess {r_d0!r} by "
            "more than tolerance; this bound cannot fail, so the spectrum "
            "or clustering is wrong"
        )
    if rel <= EQUALITY_TOL:
        verdict = Verdict.DISTANCE_REGULAR
    elif rel >= 10.0 * EQUALITY_TOL:
        verdict = Verdict.NOT_DISTANCE_REGULAR
    else:
        verdict = Verdict.INCONCLUSIVE

    # r_0..r_d at the certified eigenvalues by their recurrence, then one
    # n x n product per residual: H = r_0 + ... + r_d is ones(d + 1) in that
    # basis and r_i is e_i.  r_0's residual is V's orthogonality.  A
    # non-finite residual fails closed, with no RuntimeWarning before it.
    # H sums every row of the basis, so a non-finite value anywhere in
    # r_0..r_d trips the Hoffman residual, which runs on every verdict.
    residuals = None
    with np.errstate(over="ignore", invalid="ignore"):
        basis = (predistance_values(system, raw), vectors)
        hoffman = eval_matrix(np.ones(d + 1), basis)
        hoffman_residual = _residual("Hoffman residual max|H(L) - J|", hoffman, 1.0)
        if verdict is not Verdict.NOT_DISTANCE_REGULAR:
            # dist == i is all False past the diameter, and x - False == x - 0.0
            residuals = np.array([
                _residual(
                    f"identity residual max|r_{i}(L) - A_{i}|",
                    eval_matrix(np.eye(1, i + 1, i)[0], basis),
                    dd.dist == i,
                )
                for i in range(d + 1)
            ])
    # the oracle's n x n arrays need not stack on the spectral ones
    del vectors, basis, hoffman

    oracle = drg_oracle(g, dd)
    if verdict is Verdict.DISTANCE_REGULAR and isinstance(oracle, OracleRefusal):
        raise InternalCheckError(
            "spectral verdict says distance-regular but the "
            f"combinatorial oracle refused: {oracle.reason}"
        )
    if verdict is Verdict.NOT_DISTANCE_REGULAR and isinstance(oracle, IntersectionArray):
        raise InternalCheckError(
            "spectral verdict says not distance-regular but the "
            f"combinatorial oracle found intersection array {oracle}"
        )

    return Analysis(
        graph=g,
        raw_eigenvalues=raw,
        spectrum=spectrum,
        system=system,
        phis=phis,
        spectral_excess_closed=closed,
        hoffman_residual=hoffman_residual,
        distances=dd,
        spectral_excess=r_d0,
        average_excess=kbar,
        per_vertex_excess=counts,
        relative_gap=rel,
        verdict=verdict,
        identity_residuals=residuals,
        oracle=oracle,
    )
