"""Distance-regularity of connected graphs from the Laplacian spectrum.

The pipeline: build the Laplacian, find its distinct eigenvalues with
multiplicities, construct the predistance polynomials orthogonal for the
spectral measure, and compare the spectral excess r_d(0) with the average
number of vertices at distance d.  The two agree exactly when the graph is
distance-regular, and the average never exceeds the spectral value.

Entry points: :func:`analyze`, whose :class:`Analysis` result holds the
verdict, and the ``lapexcess`` command line tool.
"""

__version__ = "0.1.0"

from .eigen import (
    CLUSTER_TOL,
    InternalCheckError,
    SpectralMeasure,
    eigenvalues_sym,
    phi_products,
)
from .graphs import (
    FAMILIES,
    DisconnectedGraphError,
    DistanceData,
    Graph,
    GraphInputError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance_data,
    format_edge_list,
    generate,
    hypercube_graph,
    laplacian_matrix,
    parse_edge_list,
    path_graph,
    petersen_graph,
    star_graph,
)
from .orthopoly import (
    PredistanceSystem,
    eval_matrix,
    predistance_system,
    predistance_values,
    spectral_excess_closed_form,
)
from .theorem import (
    EQUALITY_TOL,
    Analysis,
    IntersectionArray,
    OracleRefusal,
    Verdict,
    analyze,
    average_excess,
    drg_oracle,
)
from .report import build_document, dumps, render_text

__all__ = [
    "__version__",
    "Analysis",
    "CLUSTER_TOL",
    "DisconnectedGraphError",
    "DistanceData",
    "EQUALITY_TOL",
    "FAMILIES",
    "Graph",
    "GraphInputError",
    "InternalCheckError",
    "IntersectionArray",
    "OracleRefusal",
    "PredistanceSystem",
    "SpectralMeasure",
    "Verdict",
    "analyze",
    "average_excess",
    "build_document",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "distance_data",
    "drg_oracle",
    "dumps",
    "eigenvalues_sym",
    "eval_matrix",
    "format_edge_list",
    "generate",
    "hypercube_graph",
    "laplacian_matrix",
    "parse_edge_list",
    "path_graph",
    "petersen_graph",
    "phi_products",
    "predistance_system",
    "predistance_values",
    "render_text",
    "spectral_excess_closed_form",
    "star_graph",
]
