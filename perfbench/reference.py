"""Workload graphs and their reference verdicts, computed apart from lapexcess.

Run as ``python3 perfbench/reference.py <workload>``: prints one JSON
object ``{"workload": ..., "cases": [...]}`` on stdout.  Each case holds the
graph (vertex count and edge list, in its unrelabelled form) and what a
correct ``lapexcess analyze`` must report for it:

* ``drg``: whether the graph is distance-regular;
* ``array``: ``[b, c]``, the intersection array of a distance-regular graph,
  or ``null``;
* ``spectrum``: ``[[theta, multiplicity], ...]``, the distinct Laplacian
  eigenvalues in ascending order.

Sources, by workload:

* ``atlas``: networkx ``is_distance_regular`` and ``intersection_array``;
  the spectrum from LAPACK (``numpy.linalg.eigvalsh``).
* ``dense``: networkx for the verdict and the array; the spectrum from the
  closed form for complete multipartite graphs.
* ``long``: family facts only.  networkx cannot serve here:
  ``intersection_array`` caps the diameter at (8/3)*log2(n), a bound that
  holds only for degree >= 3, so it refuses every cycle of length >= 30.

This module is run in its own process so that networkx, and the memory it
takes, stays out of the process whose peak RSS the benchmark reports.
"""

from __future__ import annotations

import json
import math
import sys

# Every workload graph has this many vertices, except the atlas (n <= 7).
DENSE_N = 160
LONG_N = 128

# The complete multipartite graphs of the dense workload, by part sizes:
# K_n and K_{n/2,n/2} (distance-regular), and K_n minus an edge, which is
# K_{2,1,...,1}, and the star K_{1,n-1} (unbalanced, not regular); d <= 2
# on all four.  Other part sizes were left out because the Jacobi sweep
# count on them swings by 2x or more with the vertex labelling (K_{60,100}
# takes 0.5 s unrelabelled and 6 s relabelled), which would make the
# eigensolver set the pace and the spread.  At n = 160 the four take about
# 2.0, 1.5, 1.5 and 0.7 s, so the median verdict of whole rounds falls in
# the middle of the two that cost alike.
DENSE_GRAPHS = (
    (f"complete_{DENSE_N}", (1,) * DENSE_N),
    (f"complete_bipartite_{DENSE_N // 2}_{DENSE_N // 2}", (DENSE_N // 2, DENSE_N // 2)),
    (f"complete_{DENSE_N}_minus_edge", (2,) + (1,) * (DENSE_N - 2)),
    (f"star_{DENSE_N - 1}", (1, DENSE_N - 1)),
)

# Distinct eigenvalues closer than this, relative to the spectral radius,
# are one eigenvalue (the default clustering tolerance of lapexcess).
CLUSTER_TOL = 1e-8


def multipartite_spectrum(parts) -> list:
    """Laplacian spectrum of the complete multipartite graph K_{parts}.

    0 once, n with multiplicity p - 1, and n - s with multiplicity s - 1 for
    each part of size s; equal values merge.
    """
    n = sum(parts)
    mults = {0: 1}
    if len(parts) > 1:
        mults[n] = len(parts) - 1
    for s in parts:
        if s > 1:
            mults[n - s] = mults.get(n - s, 0) + s - 1
    return [[float(t), m] for t, m in sorted(mults.items())]


def cycle_spectrum(n: int) -> list:
    """C_n: 2 - 2cos(2 pi j / n) for j = 0..n//2, double except j = 0 and
    j = n/2."""
    return [
        [2.0 - 2.0 * math.cos(2.0 * math.pi * j / n), 1 if j == 0 or 2 * j == n else 2]
        for j in range(n // 2 + 1)
    ]


def path_spectrum(n: int) -> list:
    """P_n: 2 - 2cos(pi j / n) for j = 0..n-1, all simple."""
    return [[2.0 - 2.0 * math.cos(math.pi * j / n), 1] for j in range(n)]


def cycle_array(n: int) -> list:
    """Intersection array of C_n: {2,1,...,1; 1,...,1,c_D} with D = n//2,
    c_D = 2 for even n and 1 for odd n."""
    diameter = n // 2
    b = [2] + [1] * (diameter - 1)
    c = [1] * (diameter - 1) + [2 if n % 2 == 0 else 1]
    return [b, c]


def cluster(values, tol: float = CLUSTER_TOL) -> list:
    """Group ascending eigenvalues into [[mean, multiplicity], ...]; a value
    joins the current group when it is within tol * max(1, radius) of the
    previous one."""
    values = sorted(float(x) for x in values)
    tol_abs = tol * max(1.0, max(abs(x) for x in values))
    groups = [[values[0]]]
    for prev, x in zip(values, values[1:]):
        if x - prev > tol_abs:
            groups.append([])
        groups[-1].append(x)
    return [[sum(g) / len(g), len(g)] for g in groups]


def _nx_case(name, g, spectrum) -> dict:
    import networkx as nx

    nodes = sorted(g.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    drg = bool(nx.is_distance_regular(g))
    array = None
    if drg:
        b, c = nx.intersection_array(g)
        array = [[int(x) for x in b], [int(x) for x in c]]
    return {
        "name": name,
        "n": len(nodes),
        "edges": sorted(sorted((index[u], index[v])) for u, v in g.edges()),
        "drg": drg,
        "array": array,
        "spectrum": spectrum,
    }


def atlas_cases() -> list:
    """Every connected graph of the networkx graph atlas (n <= 7)."""
    import networkx as nx
    import numpy as np

    cases = []
    for idx, g in enumerate(nx.graph_atlas_g()):
        if g.number_of_nodes() < 1 or not nx.is_connected(g):
            continue
        lap = nx.laplacian_matrix(g, nodelist=sorted(g.nodes())).toarray().astype(float)
        spectrum = cluster(np.linalg.eigvalsh(lap))
        spectrum[0][0] = 0.0
        cases.append(_nx_case(f"atlas_{idx}", g, spectrum))
    return cases


def dense_cases() -> list:
    """Complete and complete multipartite graphs on DENSE_N vertices."""
    import networkx as nx

    return [
        _nx_case(name, nx.complete_multipartite_graph(*parts), multipartite_spectrum(parts))
        for name, parts in DENSE_GRAPHS
    ]


def long_cases() -> list:
    """The cycle and the path on LONG_N vertices, from family facts."""
    n = LONG_N
    path = [[i, i + 1] for i in range(n - 1)]
    return [
        {
            "name": f"cycle_{n}",
            "n": n,
            "edges": path + [[0, n - 1]],
            "drg": True,
            "array": cycle_array(n),
            "spectrum": cycle_spectrum(n),
        },
        {
            "name": f"path_{n}",
            "n": n,
            "edges": path,
            "drg": False,
            "array": None,
            "spectrum": path_spectrum(n),
        },
    ]


CASES = {"atlas": atlas_cases, "dense": dense_cases, "long": long_cases}


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in CASES:
        print(f"usage: reference.py {{{','.join(CASES)}}}", file=sys.stderr)
        return 2
    workload = argv[0]
    json.dump({"workload": workload, "cases": CASES[workload]()}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
