"""Report documents, and their JSON and text renderings.

A report is a versioned document ("schema": 4) of builtins only (dict,
list, str, int, float, bool and None): :func:`build_document` makes one
from an Analysis and :func:`spectrum_document` one from a clustered
spectrum.  The document alone decides what a report says.  :func:`dumps`
is the standard library's encoder, writing one line; Python prints each
float in the shortest form that parses back to the same double, so the
document round-trips losslessly.  Every value of a pipeline document is
finite: each value is checked, or feeds a check, before a document is
built.  A NaN or an infinity that still got in raises the encoder's own
ValueError.  The text renderers read the same document, so the text of a
report is a function of its JSON.  The text report's centerpiece is the
recurrence table with rows beta_i, alpha_i, gamma_i.
"""

from __future__ import annotations

import json

from . import eigen, theorem
from .theorem import Analysis, IntersectionArray, per_vertex_excess

SCHEMA_VERSION = 4

dumps = json.JSONEncoder(allow_nan=False).encode


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def _spectrum_section(raw, spectrum, phis) -> dict:
    return {
        "raw": raw.tolist(),
        "distinct": spectrum.thetas.tolist(),
        "multiplicities": spectrum.mults.tolist(),
        "d": spectrum.d,
        "min_gap": float(spectrum.min_gap) if spectrum.d >= 1 else None,
        "phi": phis.tolist(),
    }


def spectrum_document(g, raw, spectrum, phis) -> dict:
    """The spectrum-only document: graph size and the clustered spectrum."""
    return {
        "schema": SCHEMA_VERSION,
        "graph": {"n": g.n, "edge_count": g.edge_count},
        "spectrum": _spectrum_section(raw, spectrum, phis),
    }


def _oracle_document(analysis: Analysis) -> dict:
    res = analysis.oracle
    if isinstance(res, IntersectionArray):
        return {
            "distance_regular": True,
            "intersection_array": {
                "b": list(res.b),
                "c": list(res.c),
                "a": list(res.a),
                "notation": str(res),
            },
        }
    return {
        "distance_regular": False,
        "refusal": {
            "reason": res.reason,
            "u": res.u,
            "v": res.v,
            "distance": res.distance,
        },
    }


def build_document(analysis: Analysis) -> dict:
    """Assemble the full report document for one analyzed graph."""
    from lapexcess import __version__

    g = analysis.graph
    degrees = g.degrees()
    dmin, dmax = int(degrees.min()), int(degrees.max())
    sys = analysis.system
    d, dd = analysis.spectrum.d, analysis.distances
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "lapexcess", "version": __version__},
        "tolerances": {
            "eigenvalue_cluster": eigen.CLUSTER_TOL,
            "equality": theorem.EQUALITY_TOL,
        },
        "graph": {
            "n": g.n,
            "edge_count": g.edge_count,
            "regular": dmin == dmax,
            "degree_min": dmin,
            "degree_max": dmax,
            "degree_mean": float(degrees.mean()),
            "degree_mean_square": float((degrees.astype(float) ** 2).mean()),
        },
        "spectrum": _spectrum_section(
            analysis.raw_eigenvalues, analysis.spectrum, analysis.phis
        ),
        "predistance": {
            "alpha": sys.alpha.tolist(),
            "beta": sys.beta.tolist(),
            "gamma": sys.gamma.tolist(),
            "values_at_zero": sys.values_at_zero.tolist(),
        },
        "hoffman": {"max_residual": float(analysis.hoffman_residual)},
        "excess": {
            "d": d,
            "diameter": dd.diameter,
            "average": float(analysis.average_excess),
            "spectral": float(analysis.spectral_excess),
            "spectral_closed_form": float(analysis.spectral_excess_closed),
            "per_vertex": per_vertex_excess(dd, d).tolist(),
            "equality_gap": float(analysis.spectral_excess - analysis.average_excess),
            "relative_gap": float(analysis.relative_gap),
            "identity_residuals": (
                None if analysis.identity_residuals is None
                else analysis.identity_residuals.tolist()
            ),
            "verdict": analysis.verdict.value,
        },
        "oracle": _oracle_document(analysis),
    }


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def recurrence_table(predistance: dict) -> str:
    """The recurrence coefficients of a document's ``predistance`` section
    as an aligned table, one row per coefficient family (beta, alpha,
    gamma), one column per index i.

    beta_i exists for i < d and gamma_i for i >= 1, so those rows have one
    blank cell each.
    """
    alpha = predistance["alpha"]
    rows = [
        ("i", [str(i) for i in range(len(alpha))]),
        ("beta_i", [_fmt(b) for b in predistance["beta"]] + [""]),
        ("alpha_i", [_fmt(a) for a in alpha]),
        ("gamma_i", [""] + [_fmt(c) for c in predistance["gamma"]]),
    ]
    label_w = max(len(name) for name, _ in rows)
    widths = [max(map(len, column)) for column in zip(*(cells for _, cells in rows))]
    return "\n".join(
        "  ".join([name.rjust(label_w)] + [cell.rjust(w) for cell, w in zip(cells, widths)])
        for name, cells in rows
    )


def render_text(doc: dict) -> str:
    """Human-readable form of a :func:`build_document` document: graph
    summary, spectrum, recurrence table, excess comparison, oracle,
    verdict."""
    g, s, excess, oracle = doc["graph"], doc["spectrum"], doc["excess"], doc["oracle"]
    regular = f"regular of degree {g['degree_min']}" if g["regular"] else (
        f"not regular (degrees {g['degree_min']}..{g['degree_max']}, "
        f"mean {_fmt(g['degree_mean'])})"
    )
    if oracle["distance_regular"]:
        oracle_line = (
            "distance-regular with intersection array "
            + oracle["intersection_array"]["notation"]
        )
    else:
        oracle_line = f"refused ({oracle['refusal']['reason']})"
    lines = [
        f"graph: {g['n']} vertices, {g['edge_count']} edges, {regular}",
        f"distinct Laplacian eigenvalues (d = {s['d']}):",
    ]
    for i, (theta, mult) in enumerate(zip(s["distinct"], s["multiplicities"])):
        lines.append(f"  theta_{i} = {_fmt(theta)}  (multiplicity {mult})")
    lines += [
        "",
        "recurrence coefficients:",
        *("  " + row for row in recurrence_table(doc["predistance"]).splitlines()),
        "",
        "hoffman polynomial residual max|H(L) - J| = "
        + _fmt(doc["hoffman"]["max_residual"]),
        f"spectral excess r_d(0): {_fmt(excess['spectral'])} by normalization, "
        f"{_fmt(excess['spectral_closed_form'])} by closed form",
        f"average excess (diameter {excess['diameter']}): {_fmt(excess['average'])}",
        f"equality gap: {_fmt(excess['equality_gap'])} (relative "
        f"{_fmt(excess['relative_gap'])}, tolerance {_fmt(doc['tolerances']['equality'])})",
        "oracle: " + oracle_line,
        f"verdict: {excess['verdict']}",
    ]
    return "\n".join(lines) + "\n"


def render_spectrum_text(doc: dict) -> str:
    """Human-readable form of a :func:`spectrum_document` document: raw
    eigenvalues, clustered values with multiplicities, and the phi
    products."""
    s = doc["spectrum"]
    lines = [
        f"graph: {doc['graph']['n']} vertices, {doc['graph']['edge_count']} edges",
        "raw Laplacian eigenvalues:",
        "  " + "  ".join(_fmt(x) for x in s["raw"]),
        f"distinct eigenvalues (d = {s['d']}):",
    ]
    for i, (theta, mult, phi) in enumerate(zip(s["distinct"], s["multiplicities"], s["phi"])):
        lines.append(
            f"  theta_{i} = {_fmt(theta)}  (multiplicity {mult}, phi_{i} = {_fmt(phi)})"
        )
    return "\n".join(lines) + "\n"
