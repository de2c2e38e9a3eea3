"""Command-line behavior: exit codes, output modes, pipe fidelity.

Most tests drive main() in process; the pipe tests go through real
subprocesses to exercise the installed entry point end to end.
"""

import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from helpers import (
    overflow_polynomial,
    perturb_eigenvectors,
    poison_average_excess,
    poison_basis,
    poison_distance,
    poison_spectral_excess,
    reverse_measure,
    shift_eigenvalues,
)

from lapexcess import InternalCheckError, eigen, theorem
from lapexcess.cli import main


def run_main(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(argv)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_verdict_exit_codes(monkeypatch, capsys):
    assert main(["analyze", "--gen", "petersen"]) == 0
    assert main(["analyze", "--gen", "path:4"]) == 1
    # path:4's relative gap, 0.375, lies inside a band injected at 0.1, and
    # the oracle audits decisive verdicts only, so the gray zone exits 2
    monkeypatch.setattr(theorem, "EQUALITY_TOL", 0.1)
    assert main(["analyze", "--gen", "path:4"]) == 2
    assert capsys.readouterr().out.endswith("verdict: inconclusive\n")


@pytest.mark.parametrize("spec, band", [
    ("petersen", 3e-16),
    ("hypercube:4", 2.0**-52),
    ("cycle:12", 2.0**-52),
    ("cycle:30", 2.0**-52),
    ("complete_bipartite:4,4", 2.0**-52),
])
def test_tight_equality_tolerance_is_no_internal_error(monkeypatch, capsys, spec, band):
    # each route gap is a few ulps, above the injected band; the band
    # decides the verdict and the route check reads its own bound, so the
    # gray zone is the worst outcome
    monkeypatch.setattr(theorem, "EQUALITY_TOL", band)
    assert main(["analyze", "--gen", spec, "--json"]) in (0, 2)
    assert capsys.readouterr().err == ""


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: the relative gap of cycle:128, 1.5e-13, is r_d(0)'s "
    "rounding error, so a band injected at 2**-52 calls it not "
    "distance-regular and the oracle contradicts the verdict",
)
def test_tight_equality_tolerance_decides_cycle_128(monkeypatch, capsys):
    monkeypatch.setattr(theorem, "EQUALITY_TOL", 2.0**-52)
    assert main(["analyze", "--gen", "cycle:128"]) in (0, 2)
    capsys.readouterr()


def test_sloppy_tolerance_exits_70(monkeypatch, capsys):
    # a band injected at 0.5 would call path(4) distance-regular; the
    # oracle refuses
    monkeypatch.setattr(theorem, "EQUALITY_TOL", 0.5)
    assert main(["analyze", "--gen", "path:4"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "combinatorial oracle refused" in captured.err


# the refusals that need raw bytes or a file of their own; every other
# input refusal is a row of tests/refusals.py
DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"


def test_non_utf8_file_exits_64(tmp_path, capsys):
    target = tmp_path / "latin1.txt"
    target.write_bytes(b"0 1\n1 \xff2\n")
    assert main(["analyze", str(target)]) == 64
    assert capsys.readouterr() == ("", f"lapexcess: error: cannot read {target}: {DECODE_ERROR}\n")


def test_non_utf8_stdin_exits_64():
    proc = subprocess.run(
        [sys.executable, "-m", "lapexcess", "analyze", "-"],
        input=b"0 1\n1 \xff2\n",
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == 64, proc.stderr
    assert (proc.stdout, proc.stderr) == (
        b"", f"lapexcess: error: cannot read stdin: {DECODE_ERROR}\n".encode()
    )


def test_disconnected_exits_65(tmp_path, capsys):
    target = tmp_path / "two_parts.txt"
    # each has at least n - 1 edges, so the traversal decides: a triangle
    # and an isolated vertex, and K_4 and K_3
    for text, n, m in (
        ("n 4\n0 1\n0 2\n1 2\n", 4, 3),
        ("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n4 6\n5 6\n", 7, 9),
    ):
        target.write_text(text)
        assert main(["analyze", str(target)]) == 65
        assert capsys.readouterr() == (
            "", f"lapexcess: error: graph on {n} vertices with {m} edges is not connected\n"
        )


def test_merged_zero_eigenvalue_exits_70_and_names_the_tolerance(monkeypatch, capsys):
    # path:5 is connected; a threshold injected at 0.5 merges its
    # eigenvalues 0, 0.38, 1.38, 2.62, 3.62 (gaps up to 1.24) into one
    # cluster
    monkeypatch.setattr(eigen, "CLUSTER_TOL", 0.5)
    for command in ("analyze", "spectrum"):
        assert main([command, "--gen", "path:5"]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not connected" not in captured.err
        assert "multiplicity 5" in captured.err
        assert "tolerance 1.80902" in captured.err
        assert "1.23607 apart" in captured.err


def test_internal_error_exits_70(monkeypatch, capsys):
    import lapexcess.cli as cli_mod

    def boom(*args, **kwargs):
        raise InternalCheckError("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "analyze", boom)
    assert main(["analyze", "--gen", "petersen"]) == 70
    assert capsys.readouterr() == (
        "", "lapexcess: internal error: forced for the exit-code test\n"
    )


@pytest.mark.parametrize(
    "error",
    [
        ValueError("Out of range float values are not JSON compliant"),
        RuntimeWarning("overflow encountered in scalar divide"),
        MemoryError("forced for the exit-code test"),
        np.linalg.LinAlgError("Eigenvalues did not converge"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_unexpected_exceptions_exit_70(monkeypatch, capsys, error):
    import lapexcess.cli as cli_mod

    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "analyze", boom)
    assert main(["analyze", "--gen", "petersen"]) == 70
    err = capsys.readouterr().err
    assert err == f"lapexcess: internal error: {type(error).__name__}: {error}\n"


def test_nan_closed_form_exits_70(monkeypatch, capsys):
    monkeypatch.setattr(theorem, "spectral_excess_closed_form", lambda spectrum, phis: math.nan)
    for band in (1e-6, 0.5):
        monkeypatch.setattr(theorem, "EQUALITY_TOL", band)
        assert main(["analyze", "--gen", "petersen"]) == 70
        out, err = capsys.readouterr()
        assert out == ""
        assert "disagrees between routes" in err


def test_nan_spectral_excess_exits_70(monkeypatch, capsys):
    poison_spectral_excess(monkeypatch)
    assert main(["analyze", "--gen", "petersen"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert "r_d(0) is not finite" in err


@pytest.mark.parametrize("change, message, bands", [
    (lambda k: math.nan, r"relative gap is not finite: \((\S+) - nan\) / \1 = nan",
     (1e-6, 0.5)),
    (lambda k: k + 1.0, r"average excess 7\.0 exceeds spectral excess \S+ by more than "
     r"tolerance; this bound cannot fail, so the spectrum or clustering is wrong",
     (1e-6, 0.5)),
    # a band of 0.5 holds this gap of 0.5 and so calls petersen distance-regular
    (lambda k: k / 2, re.escape("spectral verdict says not distance-regular but the "
     "combinatorial oracle found intersection array {3,2;1,1}"), (1e-6,)),
], ids=["nan-gap", "average-above-spectral", "oracle-found-array"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_verdict_cross_checks_exit_70(monkeypatch, capsys, change, message, bands, json_flag):
    # petersen's average excess is 6; each change trips one check on it,
    # and only the oracle check depends on the band
    poison_average_excess(monkeypatch, change)
    for band in bands:
        monkeypatch.setattr(theorem, "EQUALITY_TOL", band)
        assert main(["analyze", "--gen", "petersen", *json_flag]) == 70
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(f"lapexcess: internal error: {message}\n", err)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_predistance_breakdown_exits_70(monkeypatch, capsys, json_flag):
    reverse_measure(monkeypatch)
    assert main(["analyze", "--gen", "petersen", *json_flag]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lapexcess: internal error: orthonormal polynomial of degree 1 has value ")
    assert err.endswith(" at 0, where its sign must be (-1)^1; misclustered spectrum suspected\n")


@pytest.mark.parametrize("which, name", [
    ("hoffman", "Hoffman residual max|H(L) - J|"),
    ("identity", "identity residual max|r_1(L) - A_1|"),
])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_overflowing_residual_exits_70(monkeypatch, capsys, which, name, json_flag):
    overflow_polynomial(monkeypatch, which)
    assert main(["analyze", "--gen", "petersen", *json_flag]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"lapexcess: internal error: {name} is not finite: ")


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_non_finite_basis_exits_70_on_not_distance_regular(monkeypatch, capsys, value, json_flag):
    poison_basis(monkeypatch, value)
    assert main(["analyze", "--gen", "path:4", *json_flag]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lapexcess: internal error: Hoffman residual max|H(L) - J| is not finite: ")


@pytest.mark.parametrize("perturb", [perturb_eigenvectors, shift_eigenvalues])
@pytest.mark.parametrize("command", ["analyze", "spectrum"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_bad_eigendecomposition_exits_70(monkeypatch, capsys, perturb, command, json_flag):
    perturb(monkeypatch)
    assert main([command, "--gen", "petersen", *json_flag]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert "eigendecomposition backward error" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_poisoned_distance_exits_70(monkeypatch, capsys, json_flag):
    # petersen's vertices 0 and 1 are at distance 2.  Read as 1, that entry
    # lowers the average excess, and the verdict would be a wrong
    # not_distance_regular that the oracle's witness search agrees with;
    # the oracle's counts at the pair (c_1 = 0) stop the run instead.
    poison_distance(monkeypatch, 0, 1, 1)
    assert main(["analyze", "--gen", "petersen", *json_flag]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "lapexcess: internal error: oracle counts are impossible at pair (0, 1), distance 1: "
    )


def test_nan_in_the_json_report_exits_70(monkeypatch, capsys):
    import lapexcess.cli as cli_mod

    build = cli_mod.build_document

    def poisoned(analysis):
        doc = build(analysis)
        doc["predistance"]["alpha"][1] = math.nan
        return doc

    monkeypatch.setattr(cli_mod, "build_document", poisoned)
    assert main(["analyze", "--gen", "petersen", "--json"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    # the encoder's own message, as a prefix: later Pythons append the value
    assert err.startswith(
        "lapexcess: internal error: ValueError: "
        "Out of range float values are not JSON compliant"
    )


def test_hypercube_8_runs_clean_with_warnings_as_errors():
    # n = 256 with every floating-point warning raised as an error: the
    # eigensolve must not overflow, and nothing may escape as status 1
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lapexcess", "analyze", "--gen", "hypercube:8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "verdict: distance_regular" in proc.stdout


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def test_gen_path_output(capsys):
    assert main(["gen", "path:4"]) == 0
    assert capsys.readouterr().out == "0 1\n1 2\n2 3\n"


def test_gen_colon_and_comma_params_agree(capsys):
    assert main(["gen", "complete_bipartite:2:3"]) == 0
    colon = capsys.readouterr().out
    assert main(["gen", "complete_bipartite:2,3"]) == 0
    assert capsys.readouterr().out == colon
    assert len(colon.splitlines()) == 6


def test_gen_hypercube(capsys):
    assert main(["gen", "hypercube:3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    vertices = {int(x) for line in lines for x in line.split()}
    assert vertices == set(range(8))


def test_analyze_stdin(monkeypatch, capsys):
    code = run_main(["analyze", "-"], "0 1\n1 2\n2 3\n", monkeypatch)
    assert code == 1
    assert "verdict: not_distance_regular" in capsys.readouterr().out


def test_analyze_json_output(capsys):
    assert main(["analyze", "--gen", "petersen", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 4
    assert "polynomials" not in doc["predistance"]
    assert "coefficients" not in doc["hoffman"]
    assert doc["excess"]["verdict"] == "distance_regular"
    assert doc["oracle"]["intersection_array"]["b"] == [3, 2]


def test_text_and_json_verdicts_agree(capsys):
    for spec in ("petersen", "path:4", "star:3", "cycle:6"):
        code_text = main(["analyze", "--gen", spec])
        text_out = capsys.readouterr().out
        code_json = main(["analyze", "--gen", spec, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code_text == code_json
        assert f"verdict: {doc['excess']['verdict']}" in text_out


def test_spectrum_command(capsys):
    assert main(["spectrum", "--gen", "cycle:4"]) == 0
    out = capsys.readouterr().out
    assert "theta_1 = 2" in out
    assert "multiplicity 2" in out
    assert main(["spectrum", "--gen", "cycle:4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 4
    assert doc.keys() == {"schema", "graph", "spectrum"}
    assert doc["spectrum"]["distinct"] == pytest.approx([0.0, 2.0, 4.0], abs=1e-9)
    assert doc["spectrum"]["multiplicities"] == [1, 2, 1]
    assert doc["spectrum"]["phi"] == pytest.approx([8.0, -4.0, 8.0], abs=1e-9)


def test_spectrum_stdin(monkeypatch, capsys):
    assert run_main(["spectrum", "-"], "0 1\n", monkeypatch) == 0
    assert "theta_1 = 2" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Pipe fidelity through real processes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["cycle:6", "petersen"])
def test_gen_pipe_matches_direct(spec):
    gen = subprocess.run(
        [sys.executable, "-m", "lapexcess", "gen", spec],
        capture_output=True,
        text=True,
        check=True,
    )
    piped = subprocess.run(
        [sys.executable, "-m", "lapexcess", "analyze", "-", "--json"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    direct = subprocess.run(
        [sys.executable, "-m", "lapexcess", "analyze", "--gen", spec, "--json"],
        capture_output=True,
        text=True,
    )
    assert piped.returncode == direct.returncode == 0
    assert piped.stdout == direct.stdout


def test_calls_in_one_process_match_fresh_processes(capsys):
    # main() builds its parser once per process; no call may see the flags,
    # defaults or failure of the one before it
    calls = [
        (["analyze", "--gen", "petersen", "--json"], 0),
        (["analyze", "--gen", "path:4", "--bogus"], 64),
        (["analyze", "--gen", "path:4"], 1),
    ]
    in_process = []
    for argv, _ in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    for (argv, want), got in zip(calls, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "lapexcess", *argv], capture_output=True, text=True
        )
        assert fresh.returncode == want
        assert got == (want, fresh.stdout, fresh.stderr)
    # the first call's --json does not leak into the last, which prints text
    first = json.loads(in_process[0][1])
    assert first["tolerances"]["equality"] == 1e-6
    assert "ran" not in first["oracle"]
    assert in_process[2][1].startswith("graph: 4 vertices")
    assert in_process[2][1].endswith("verdict: not_distance_regular\n")
