"""Rendering an Analysis as JSON or human-readable text.

The JSON document is versioned ("schema": 2) and must round-trip floats
losslessly, so every real number is written with 17 significant digits;
the standard json module does not expose float formatting, hence the small
emitter here.  The text form is a compact report whose centerpiece is the
recurrence table with rows beta_i, alpha_i, gamma_i.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .theorem import Analysis, IntersectionArray, OracleRefusal

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# JSON with explicit float precision
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits, always recognizable as a real number.

    17 digits are enough for any double to parse back to the identical bit
    pattern.  A ".0" is appended when the %g form looks like an integer so
    the JSON value stays a float on the way back in.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars to JSON, two spaces per level, with
    format_float for reals."""
    return _emit(obj, "")


def _emit(obj, pad: str) -> str:
    """obj as JSON text; pad indents the line obj starts on, two more spaces
    each level.

    The exact-type tests come first and in order of frequency (a report is
    mostly floats); the isinstance tests after them catch numpy scalars and
    subclasses.
    """
    kind = type(obj)
    if kind is float:
        return format_float(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return _encode_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        # encoding a key that is not a str raises TypeError
        items = ",\n".join(
            f"{inner}{_encode_str(key)}: {_emit(val, inner)}" for key, val in obj.items()
        )
        return f"{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        items = ",\n".join(f"{inner}{_emit(val, inner)}" for val in obj)
        return f"[\n{items}\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _floats(values) -> list:
    return [float(x) for x in values]


def _ints(values) -> list:
    return [int(x) for x in values]


# ---------------------------------------------------------------------------
# Document assembly
# ---------------------------------------------------------------------------

def spectrum_section(raw, spectrum, phis) -> dict:
    """The spectrum subtree, shared by the full report and the spectrum
    subcommand (which has no Analysis to hand)."""
    return {
        "raw": _floats(raw),
        "distinct": _floats(spectrum.thetas),
        "multiplicities": _ints(spectrum.mults),
        "d": spectrum.d,
        "min_gap": float(spectrum.min_gap) if spectrum.d >= 1 else None,
        "phi": _floats(phis),
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
                "b": _ints(res.b),
                "c": _ints(res.c),
                "a": _ints(res.a),
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
    per_vertex = dd.excess_counts[d] if d <= dd.diameter else [0] * g.n
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
            "alpha": _floats(sys.alpha),
            "beta": _floats(sys.beta),
            "gamma": _floats(sys.gamma),
            "values_at_zero": [float(p[0]) for p in sys.polys],
        },
        "hoffman": {"max_residual": float(analysis.hoffman_residual)},
        "excess": {
            "d": d,
            "diameter": dd.diameter,
            "average": float(analysis.average_excess),
            "spectral": float(analysis.spectral_excess),
            "spectral_closed_form": float(analysis.spectral_excess_closed),
            "per_vertex": _ints(per_vertex),
            "equality_gap": float(analysis.spectral_excess - analysis.average_excess),
            "relative_gap": float(analysis.relative_gap),
            "identity_residuals": _floats(analysis.identity_residuals),
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
