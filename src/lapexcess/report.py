"""Rendering an Analysis as JSON or human-readable text.

The JSON document is versioned ("schema": 2).  Its builders hand the
standard library's encoder only builtins (dict, list, str, int, float, bool
and None), which writes it as one compact line.  Python prints each float
in the shortest form that parses back to the same double, so the document
round-trips losslessly; a non-finite value raises ValueError that names
its path in the document.  The text form is a compact report whose
centerpiece is the recurrence table with rows beta_i, alpha_i, gamma_i.
"""

from __future__ import annotations

import json
import math

from .theorem import Analysis, IntersectionArray, OracleRefusal

SCHEMA_VERSION = 2

_encode = json.JSONEncoder(allow_nan=False).encode


def dumps(obj) -> str:
    """obj as one line of JSON; raises ValueError on a non-finite float,
    naming the first one's path, e.g. ``predistance.alpha[1]``."""
    try:
        return _encode(obj)
    except ValueError as exc:
        # the encoder's words for a NaN or an infinity, as opposed to,
        # say, a circular reference
        if not str(exc).startswith("Out of range float values"):
            raise
        path, value = _first_non_finite(obj, "")
        raise ValueError(f"non-finite value {value!r} at {path}") from None


def _first_non_finite(obj, path: str):
    """(path, value) of the first non-finite float in document order, or
    None when every float is finite.  obj holds no reference cycle."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        children = ((f"{path}.{key}" if path else str(key), v) for key, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_first_non_finite(v, p) for p, v in children)), None)


# ---------------------------------------------------------------------------
# Document assembly
# ---------------------------------------------------------------------------

def spectrum_section(raw, spectrum, phis) -> dict:
    """The spectrum subtree, shared by the full report and the spectrum
    subcommand (which has no Analysis to hand)."""
    return {
        "raw": raw.tolist(),
        "distinct": spectrum.thetas.tolist(),
        "multiplicities": spectrum.mults.tolist(),
        "d": spectrum.d,
        "min_gap": float(spectrum.min_gap) if spectrum.d >= 1 else None,
        "phi": phis.tolist(),
    }


def _oracle_document(analysis: Analysis) -> dict:
    res = analysis.oracle
    if res is None:
        return {"ran": False}
    if isinstance(res, IntersectionArray):
        return {
            "ran": True,
            "distance_regular": True,
            "intersection_array": {
                "b": list(res.b),
                "c": list(res.c),
                "a": list(res.a),
                "notation": str(res),
            },
        }
    return {
        "ran": True,
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
    # no vertex has anything at a distance d past the diameter
    per_vertex = dd.excess_counts[d].tolist() if d <= dd.diameter else [0] * g.n
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "lapexcess", "version": __version__},
        "tolerances": {
            "eigenvalue_cluster": float(analysis.tol_eig),
            "equality": float(analysis.tol_eq),
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
        "spectrum": spectrum_section(
            analysis.raw_eigenvalues, analysis.spectrum, analysis.phis
        ),
        "predistance": {
            "alpha": sys.alpha.tolist(),
            "beta": sys.beta.tolist(),
            "gamma": sys.gamma.tolist(),
            "values_at_zero": [float(p[0]) for p in sys.polys],
        },
        "hoffman": {"max_residual": float(analysis.hoffman_residual)},
        "excess": {
            "d": d,
            "diameter": dd.diameter,
            "average": float(analysis.average_excess),
            "spectral": float(analysis.spectral_excess),
            "spectral_closed_form": float(analysis.spectral_excess_closed),
            "per_vertex": per_vertex,
            "equality_gap": float(analysis.spectral_excess - analysis.average_excess),
            "relative_gap": float(analysis.relative_gap),
            "identity_residuals": analysis.identity_residuals.tolist(),
            "verdict": analysis.verdict.value,
        },
        "oracle": _oracle_document(analysis),
    }


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def recurrence_table(analysis: Analysis) -> str:
    """The recurrence coefficients as an aligned table, one row per
    coefficient family (beta, alpha, gamma), one column per index i.

    beta_i exists for i < d and gamma_i for i >= 1, so those rows have one
    blank cell each.
    """
    sys = analysis.system
    d = sys.d
    rows = [
        ("beta_i", [_fmt(b) for b in sys.beta] + [""]),
        ("alpha_i", [_fmt(a) for a in sys.alpha]),
        ("gamma_i", [""] + [_fmt(c) for c in sys.gamma]),
    ]
    header = ["i"] + [str(i) for i in range(d + 1)]
    widths = [max(len(header[j + 1]), *(len(cells[j]) for _, cells in rows)) for j in range(d + 1)]
    label_w = max(len(name) for name, _ in rows + [("i", [])])
    lines = ["  ".join([header[0].rjust(label_w)] + [header[j + 1].rjust(widths[j]) for j in range(d + 1)])]
    for name, cells in rows:
        lines.append("  ".join([name.rjust(label_w)] + [cells[j].rjust(widths[j]) for j in range(d + 1)]))
    return "\n".join(lines)


def render_text(analysis: Analysis) -> str:
    """Human-readable report: graph summary, spectrum, recurrence table,
    excess comparison, oracle, verdict."""
    g = analysis.graph
    s = analysis.spectrum
    degrees = g.degrees()
    dmin, dmax = int(degrees.min()), int(degrees.max())
    regular = f"regular of degree {dmin}" if dmin == dmax else (
        f"not regular (degrees {dmin}..{dmax}, mean {_fmt(degrees.mean())})"
    )
    lines = [
        f"graph: {g.n} vertices, {g.edge_count} edges, {regular}",
        f"distinct Laplacian eigenvalues (d = {s.d}):",
    ]
    for i in range(s.d + 1):
        lines.append(f"  theta_{i} = {_fmt(s.thetas[i])}  (multiplicity {int(s.mults[i])})")
    lines.append("")
    lines.append("recurrence coefficients:")
    lines.append(_indent(recurrence_table(analysis)))
    lines.append("")
    lines.append(
        f"hoffman polynomial residual max|H(L) - J| = {_fmt(analysis.hoffman_residual)}"
    )
    lines.append(
        f"spectral excess r_d(0): {_fmt(analysis.spectral_excess)} by normalization, "
        f"{_fmt(analysis.spectral_excess_closed)} by closed form"
    )
    lines.append(
        f"average excess (diameter {analysis.distances.diameter}): "
        f"{_fmt(analysis.average_excess)}"
    )
    lines.append(
        f"equality gap: {_fmt(analysis.spectral_excess - analysis.average_excess)} "
        f"(relative {_fmt(analysis.relative_gap)}, tolerance {_fmt(analysis.tol_eq)})"
    )
    lines.append("oracle: " + _oracle_line(analysis.oracle))
    lines.append(f"verdict: {analysis.verdict.value}")
    return "\n".join(lines) + "\n"


def _oracle_line(res) -> str:
    if res is None:
        return "not run"
    if isinstance(res, IntersectionArray):
        return f"distance-regular with intersection array {res}"
    assert isinstance(res, OracleRefusal)
    return f"refused ({res.reason})"


def render_spectrum_text(g, raw, spectrum, phis) -> str:
    """Spectrum-only text: raw eigenvalues, clustered values with
    multiplicities, and the phi products."""
    lines = [
        f"graph: {g.n} vertices, {g.edge_count} edges",
        "raw Laplacian eigenvalues:",
        "  " + "  ".join(_fmt(x) for x in raw),
        f"distinct eigenvalues (d = {spectrum.d}):",
    ]
    for i in range(spectrum.d + 1):
        lines.append(
            f"  theta_{i} = {_fmt(spectrum.thetas[i])}  (multiplicity "
            f"{int(spectrum.mults[i])}, phi_{i} = {_fmt(phis[i])})"
        )
    return "\n".join(lines) + "\n"


def _indent(block: str) -> str:
    return "\n".join("  " + line for line in block.splitlines())
