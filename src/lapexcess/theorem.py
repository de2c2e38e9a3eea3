"""Distance-regularity verdict from the Laplacian spectrum.

A connected graph on n vertices with d+1 distinct Laplacian eigenvalues is
distance-regular exactly when its average excess (the mean number of
vertices at distance d from a vertex) equals its spectral excess r_d(0),
the value at zero of the highest predistance polynomial.  The average never
exceeds the spectral excess, so the verdict reduces to an equality test.

Because equality of two floats is the hinge, the verdict is three-way:
``distance_regular`` when the relative gap is within ``tol_eq``,
``not_distance_regular`` when it is at least ten times that, and
``inconclusive`` in the gray zone between.  A significantly negative gap is
impossible mathematically and is reported as an internal error, as is any
disagreement with the combinatorial oracle (a brute-force intersection
number check), which double-checks decisive verdicts on small graphs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .eigen import (
    DEFAULT_CLUSTER_TOL,
    DistinctSpectrum,
    cluster_spectrum,
    eigenvalues_sym,
    phi_products,
)
from .graphs import DistanceData, Graph, distance_data, laplacian_matrix
from .orthopoly import (
    PredistanceSystem,
    SpectralMeasure,
    eval_matrix,
    hoffman_polynomial,
    predistance_system,
    spectral_excess_closed_form,
)

DEFAULT_EQUALITY_TOL = 1e-6

# The intersection-number oracle is quadratic in n with a neighbor scan per
# pair; past this size it is skipped rather than stalling the pipeline.
ORACLE_MAX_N = 2000


class MisclusteredSpectrumError(RuntimeError):
    """The graph's diameter exceeds the resolved d, which is impossible for
    a correctly clustered spectrum (D <= d always holds)."""


class InternalCheckError(RuntimeError):
    """A quantity violated a theorem that cannot fail, so the computation
    itself is wrong (bad clustering, lost precision, or a bug)."""


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

    b holds b_0..b_{D-1}, c holds c_1..c_D, a holds a_1..a_D, where for any
    vertices u, v at distance i the neighbors of v split into c_i at
    distance i-1 from u, a_i at distance i, and b_i at distance i+1.
    """

    b: tuple
    c: tuple
    a: tuple

    def __post_init__(self):
        if not (len(self.b) == len(self.c) == len(self.a)):
            raise ValueError("b, c, a must all have length equal to the diameter")
        if any(x < 0 for seq in (self.b, self.c, self.a) for x in seq):
            raise ValueError("intersection numbers must be nonnegative")
        if self.diameter >= 1:
            k = self.b[0]
            for i in range(1, self.diameter + 1):
                b_i = self.b[i] if i < self.diameter else 0
                if self.c[i - 1] + self.a[i - 1] + b_i != k:
                    raise ValueError(f"c_{i} + a_{i} + b_{i} != {k}")

    @property
    def diameter(self) -> int:
        return len(self.b)

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
    """Brute-force distance-regularity check, independent of any spectral
    computation.

    Counts, for every ordered pair (u, v) at distance i, how many neighbors
    of v lie at distance i-1, i, i+1 from u.  The graph is distance-regular
    iff it is regular and these counts depend on i alone.  Returns an
    IntersectionArray on success and an OracleRefusal naming the first
    violating pair otherwise.
    """
    adj = g.adj
    k = len(adj[0])
    for v in range(1, g.n):
        if len(adj[v]) != k:
            return OracleRefusal(
                f"not regular: vertex 0 has degree {k}, vertex {v} has degree {len(adj[v])}",
                u=0,
                v=v,
            )

    diam = dd.diameter
    expected = [None] * (diam + 1)
    first_pair = [None] * (diam + 1)
    for u in range(g.n):
        du = dd.dist[u].tolist()
        for v, i in enumerate(du):
            c = a = b = 0
            for w in adj[v]:
                dw = du[w]
                if dw == i - 1:
                    c += 1
                elif dw == i:
                    a += 1
                else:
                    b += 1
            triple = (c, a, b)
            if expected[i] is None:
                expected[i] = triple
                first_pair[i] = (u, v)
            elif expected[i] != triple:
                which = next(
                    name
                    for name, old, new in zip("cab", expected[i], triple)
                    if old != new
                )
                old = expected[i]["cab".index(which)]
                new = triple["cab".index(which)]
                return OracleRefusal(
                    f"{which}_{i} is not constant: pair {first_pair[i]} gives "
                    f"{old}, pair ({u}, {v}) gives {new}",
                    u=u,
                    v=v,
                    distance=i,
                )
    return IntersectionArray(
        b=tuple(expected[i][2] for i in range(diam)),
        c=tuple(expected[i][0] for i in range(1, diam + 1)),
        a=tuple(expected[i][1] for i in range(1, diam + 1)),
    )


# ---------------------------------------------------------------------------
# Average excess and the verdict pipeline
# ---------------------------------------------------------------------------

def per_vertex_excess(dd: DistanceData, d: int) -> np.ndarray:
    """k_d(u) for every vertex u: the number of vertices at distance d from
    u.  All zeros when d exceeds the diameter."""
    return np.count_nonzero(dd.dist == d, axis=1)


def average_excess(dd: DistanceData, d: int) -> float:
    """Mean over all vertices of the number of vertices at distance d.

    d is the count of distinct Laplacian eigenvalues minus one, which is
    always at least the diameter; when it is strictly larger no vertex has
    anything at distance d and the average is 0.  A d below the diameter
    can only come from eigenvalues merged by too loose a clustering
    tolerance, so that raises instead of returning a wrong number.
    """
    if d < dd.diameter:
        raise MisclusteredSpectrumError(
            f"diameter {dd.diameter} exceeds d = {d}: distinct eigenvalues "
            "were merged during clustering; tighten the eigenvalue tolerance"
        )
    return float(per_vertex_excess(dd, d).mean())


@dataclass(frozen=True)
class Analysis:
    """What the pipeline computed for one graph: the verdict with the two
    excesses it compares, and everything the reports show, kept so they
    need not recompute it."""

    graph: Graph
    raw_eigenvalues: np.ndarray
    spectrum: DistinctSpectrum
    system: PredistanceSystem
    phis: np.ndarray
    spectral_excess_closed: float
    hoffman_residual: float
    distances: DistanceData
    spectral_excess: float
    average_excess: float
    relative_gap: float
    verdict: Verdict
    identity_residuals: np.ndarray
    oracle: IntersectionArray | OracleRefusal | None
    tol_eig: float
    tol_eq: float


def analyze(
    g: Graph,
    *,
    tol_eig: float = DEFAULT_CLUSTER_TOL,
    tol_eq: float = DEFAULT_EQUALITY_TOL,
    run_oracle: bool = True,
) -> Analysis:
    """Run the full pipeline on a connected graph.

    Laplacian, spectrum, clustering, predistance system, spectral excess by
    both routes (the constant coefficient of r_d, which the normalization
    <r_d, r_d> = r_d(0) fixes, and the closed form from the eigenvalues),
    Hoffman identity residual, BFS distance data, average excess, verdict,
    and (when enabled and the graph has at most ORACLE_MAX_N vertices) the
    combinatorial oracle.  Every cross-check fails closed: a non-finite
    spectral quantity, a disagreement between the two routes, or a decisive
    verdict the oracle contradicts raises InternalCheckError rather than
    returning a report that contradicts the theorem.
    """
    lap = laplacian_matrix(g)
    raw = eigenvalues_sym(lap)
    spectrum = cluster_spectrum(raw, tol_eig)
    measure = SpectralMeasure.from_spectrum(spectrum)
    system = predistance_system(measure)
    d = spectrum.d

    # r_d(0) = <r_d, r_d> is the constant coefficient the Stieltjes loop
    # stored; Horner at 0 gives the same bits, but turns an overflowed
    # higher coefficient into NaN (inf * 0).
    r_d0 = float(system.polys[d][0])
    if not math.isfinite(r_d0):
        raise InternalCheckError(f"spectral excess r_d(0) is not finite: {r_d0!r}")
    phis = phi_products(spectrum)
    closed = spectral_excess_closed_form(measure, phis, g.n)
    # written so that a NaN on either side trips it
    if not abs(closed - r_d0) <= tol_eq * max(1.0, abs(r_d0)):
        raise InternalCheckError(
            f"spectral excess disagrees between routes: polynomial gives "
            f"{r_d0!r}, closed form gives {closed!r}"
        )

    hoffman = hoffman_polynomial(measure, g.n)
    hoffman_residual = float(np.max(np.abs(eval_matrix(hoffman, lap) - 1.0)))

    dd = distance_data(g)
    kbar = average_excess(dd, d)
    rel = (r_d0 - kbar) / r_d0
    if not math.isfinite(rel):
        raise InternalCheckError(
            f"relative gap is not finite: ({r_d0!r} - {kbar!r}) / {r_d0!r} = {rel!r}"
        )
    if rel < -10.0 * tol_eq:
        raise InternalCheckError(
            f"average excess {kbar!r} exceeds spectral excess {r_d0!r} by "
            "more than tolerance; this bound cannot fail, so the spectrum "
            "or clustering is wrong"
        )
    if rel <= tol_eq:
        verdict = Verdict.DISTANCE_REGULAR
    elif rel >= 10.0 * tol_eq:
        verdict = Verdict.NOT_DISTANCE_REGULAR
    else:
        verdict = Verdict.INCONCLUSIVE

    residuals = np.empty(d + 1)
    for i in range(d + 1):
        # all False past the diameter, and x - False == x - 0.0
        target = dd.dist == i
        residuals[i] = float(np.max(np.abs(eval_matrix(system.polys[i], lap) - target)))

    oracle = None
    if run_oracle and g.n <= ORACLE_MAX_N:
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
        relative_gap=rel,
        verdict=verdict,
        identity_residuals=residuals,
        oracle=oracle,
        tol_eig=tol_eig,
        tol_eq=tol_eq,
    )
