"""JSON encoding (lossless floats) and text rendering."""

import json
import math

import numpy as np
import pytest
from helpers import paw_graph

from lapexcess import analyze, path_graph, petersen_graph
from lapexcess.report import (
    build_document,
    dumps,
    recurrence_table,
    render_spectrum_text,
    render_text,
    spectrum_document,
)


# ---------------------------------------------------------------------------
# The encoder
# ---------------------------------------------------------------------------

def test_dumps_round_trips_floats_exactly():
    rng = np.random.default_rng(8)
    values = [0.0, 1.0, -1.0, 2.0 / 3.0, 0.1, 1e-300, -1e300, math.pi]
    values += (rng.standard_normal(50) * 10.0 ** rng.integers(-20, 20, 50)).tolist()
    assert json.loads(dumps(values)) == values


def test_dumps_floats_always_look_real():
    for x in (4.0, -17.0, 1e22):
        s = dumps(x)
        assert any(ch in s for ch in ".eE")
        assert isinstance(json.loads(s), float)


def test_dumps_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError) as info:
            dumps({"ok": 2.0, "nested": [1.0, {"deep": bad}, math.nan]})
        assert str(info.value) == f"non-finite value {bad!r} at nested[1].deep"


def test_dumps_passes_other_value_errors_through():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps({"loop": loop})


def test_dumps_round_trip():
    doc = {
        "a": [1, 2.5, "x", None, True, False],
        "b": {"nested": [0.1, {"deep": 2.0 / 3.0}], "empty_list": [], "empty_obj": {}},
    }
    parsed = json.loads(dumps(doc))
    assert parsed == doc


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"bad": object()})


def test_dumps_exact_bytes():
    doc = {
        "nested": {"matrix": [[1, 2], [3.5, -4.0]], "deeper": {"empty_list": [], "empty_obj": {}}},
        "flags": [None, True, False],
        "tuple": (1, "two", 3.0),
        "floats": [1.0, 1e-300, 2 / 3],
        "text": "q\"b\\n\nü",
    }
    expected = (
        '{"nested": {"matrix": [[1, 2], [3.5, -4.0]], '
        '"deeper": {"empty_list": [], "empty_obj": {}}}, '
        '"flags": [null, true, false], '
        '"tuple": [1, "two", 3.0], '
        '"floats": [1.0, 1e-300, 0.6666666666666666], '
        '"text": "q\\"b\\\\n\\n\\u00fc"}'
    )
    assert dumps(doc) == expected


def test_dumps_string_escaping():
    assert json.loads(dumps({"s": 'quote " backslash \\ newline \n'})) == {
        "s": 'quote " backslash \\ newline \n'
    }


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

SCHEMA_2_SECTIONS = {
    "tool": {"name", "version"},
    "tolerances": {"eigenvalue_cluster", "equality"},
    "graph": {
        "n", "edge_count", "regular", "degree_min", "degree_max",
        "degree_mean", "degree_mean_square",
    },
    "spectrum": {"raw", "distinct", "multiplicities", "d", "min_gap", "phi"},
    "predistance": {"alpha", "beta", "gamma", "values_at_zero"},
    "hoffman": {"max_residual"},
    "excess": {
        "d", "diameter", "average", "spectral", "spectral_closed_form", "per_vertex",
        "equality_gap", "relative_gap", "identity_residuals", "verdict",
    },
    "oracle": {"ran", "distance_regular", "intersection_array"},
}


def _json_numbers(x) -> int:
    if isinstance(x, dict):
        return sum(_json_numbers(v) for v in x.values())
    if isinstance(x, list):
        return sum(_json_numbers(v) for v in x)
    return int(type(x) in (int, float))


def test_document_structure_and_fidelity():
    analysis = analyze(petersen_graph())
    doc = build_document(analysis)
    parsed = json.loads(dumps(doc))
    assert parsed["schema"] == 2
    assert parsed.keys() == {"schema", *SCHEMA_2_SECTIONS}
    for section, keys in SCHEMA_2_SECTIONS.items():
        assert parsed[section].keys() == keys, section
    assert parsed["oracle"]["intersection_array"].keys() == {"b", "c", "a", "notation"}
    assert parsed["graph"]["n"] == 10
    assert parsed["graph"]["regular"] is True
    assert parsed["spectrum"]["distinct"] == pytest.approx([0.0, 2.0, 5.0], abs=1e-9)
    assert parsed["spectrum"]["multiplicities"] == [1, 5, 4]
    assert parsed["excess"]["verdict"] == "distance_regular"
    assert parsed["excess"]["spectral"] == analysis.spectral_excess
    assert parsed["excess"]["average"] == analysis.average_excess
    assert parsed["oracle"]["intersection_array"]["notation"] == "{3,2;1,1}"
    # every float survives the trip bit for bit
    assert parsed["excess"]["relative_gap"] == analysis.relative_gap
    assert parsed["hoffman"]["max_residual"] == analysis.hoffman_residual
    assert parsed["predistance"]["values_at_zero"] == [float(p[0]) for p in analysis.system.polys]


def test_document_size_is_linear_in_n_and_d():
    # schema 2 carries the recurrence, not the (d+1)(d+2)/2 monomial
    # coefficients of r_0..r_d: the bound allows three lists of length n and
    # eight of length d + 1
    n = 40
    analysis = analyze(path_graph(n))
    d = analysis.spectrum.d
    assert _json_numbers(json.loads(dumps(build_document(analysis)))) <= 3 * n + 8 * (d + 1)


JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _values(x):
    """x and every value nested in it, depth first."""
    yield x
    children = x.values() if type(x) is dict else x if type(x) is list else ()
    for child in children:
        yield from _values(child)


def _assert_identical(x, y, where="$"):
    """Same JSON value: same types, same key order, floats bit for bit."""
    assert type(x) is type(y), where
    if type(x) is dict:
        assert list(x) == list(y), where
        for key in x:
            _assert_identical(x[key], y[key], f"{where}.{key}")
    elif type(x) is list:
        assert len(x) == len(y), where
        for i, (a, b) in enumerate(zip(x, y)):
            _assert_identical(a, b, f"{where}[{i}]")
    elif type(x) is float:
        assert x.hex() == y.hex(), where
    else:
        assert x == y, where


def test_documents_hold_only_json_builtins(analyzed_corpus):
    for name, _, a in analyzed_corpus:
        for value in _values(build_document(a)):
            assert type(value) in JSON_TYPES, (name, type(value).__name__)


def test_documents_round_trip_exactly(analyzed_corpus):
    for name, _, a in analyzed_corpus:
        doc = build_document(a)
        _assert_identical(json.loads(dumps(doc)), doc, name)


def test_document_equality_gap_is_the_difference(analyzed_corpus):
    for name, _, a in analyzed_corpus:
        excess = build_document(a)["excess"]
        assert excess["equality_gap"] == excess["spectral"] - excess["average"], name


def test_document_per_vertex_past_the_diameter():
    # no vertex has anything at distance d when d exceeds the diameter
    excess = build_document(analyze(paw_graph()))["excess"]
    assert (excess["d"], excess["diameter"]) == (3, 2)
    assert excess["per_vertex"] == [0, 0, 0, 0]


def test_document_refusal_branch():
    analysis = analyze(path_graph(4))
    doc = build_document(analysis)
    oracle = doc["oracle"]
    assert oracle["ran"] is True
    assert oracle["distance_regular"] is False
    assert "not regular" in oracle["refusal"]["reason"]


def test_document_no_oracle_branch():
    doc = build_document(analyze(path_graph(4), run_oracle=False))
    assert doc["oracle"] == {"ran": False}


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def test_render_text_sections():
    text = render_text(build_document(analyze(path_graph(4))))
    for needle in (
        "beta_i",
        "alpha_i",
        "gamma_i",
        "verdict: not_distance_regular",
        "spectral excess r_d(0): 0.8 by normalization, 0.8 by closed form",
        "average excess",
    ):
        assert needle in text
    assert "r_0:" not in text
    assert "predistance polynomials" not in text


def test_recurrence_table_rows():
    table = recurrence_table(build_document(analyze(petersen_graph()))["predistance"])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["i", "0", "1", "2"]
    assert lines[1].split()[0] == "beta_i"
    assert lines[2].split()[0] == "alpha_i"
    assert lines[3].split()[0] == "gamma_i"
    # petersen: beta = (-3, -2), alpha = (3, 3, 1), gamma = (-1, -1)
    assert lines[2].split()[1:] == ["3", "3", "1"]


def test_text_is_a_function_of_the_json(analyzed_corpus):
    # both text forms read nothing but the document, so the document parsed
    # back from its JSON renders to the same text
    for name, g, a in analyzed_corpus:
        for doc, render in (
            (build_document(a), render_text),
            (spectrum_document(g, a.raw_eigenvalues, a.spectrum, a.phis), render_spectrum_text),
        ):
            assert render(json.loads(dumps(doc))) == render(doc), name
