"""Command-line behavior: exit codes, output modes, pipe fidelity.

Most tests drive main() in process; the pipe tests go through real
subprocesses to exercise the installed entry point end to end.
"""

import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from helpers import poison_spectral_excess

from lapexcess import InternalCheckError, theorem
from lapexcess.cli import main


def run_main(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(argv)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_verdict_exit_codes(capsys):
    assert main(["analyze", "--gen", "petersen"]) == 0
    assert main(["analyze", "--gen", "path:4"]) == 1
    assert main(["analyze", "--gen", "path:4", "--tol-eq", "0.1", "--no-oracle"]) == 2
    capsys.readouterr()


def test_usage_errors(capsys):
    assert main(["analyze"]) == 64
    assert main(["analyze", "--gen", "nosuch:1"]) == 64
    assert main(["analyze", "--gen", "path:two"]) == 64
    assert main(["analyze", "--gen", "path:4", "extra.txt"]) == 64
    assert main(["gen", "path"]) == 64
    err = capsys.readouterr().err
    assert "error" in err


def test_argparse_failures_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--gen", "path:4", "--tol-eig", "0"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_missing_file_exits_64(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.txt")]) == 64
    capsys.readouterr()


def test_non_utf8_file_exits_64(tmp_path, capsys):
    target = tmp_path / "latin1.txt"
    target.write_bytes(b"0 1\n1 \xff2\n")
    assert main(["analyze", str(target)]) == 64
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_stdin_exits_64():
    proc = subprocess.run(
        [sys.executable, "-m", "lapexcess", "analyze", "-"],
        input=b"0 1\n1 \xff2\n",
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == 64, proc.stderr
    assert b"cannot read stdin" in proc.stderr


def test_disconnected_exits_65(tmp_path, capsys):
    target = tmp_path / "two_parts.txt"
    target.write_text("0 1\n2 3\n")
    assert main(["analyze", str(target)]) == 65
    assert "not connected" in capsys.readouterr().err


def test_merged_zero_eigenvalue_exits_70_and_names_the_tolerance(capsys):
    # path:5 is connected; a loose tolerance merges its eigenvalues 0,
    # 0.38, 1.38, 2.62, 3.62 (gaps up to 1.24) into one cluster
    assert main(["analyze", "--gen", "path:5", "--tol-eig", "0.5"]) == 70
    err = capsys.readouterr().err
    assert "not connected" not in err
    assert "multiplicity 5" in err
    assert "tolerance 1.80902" in err
    assert "1.23607 apart" in err
    assert "--tol-eig" in err


def test_malformed_edge_list_exits_64(monkeypatch, capsys):
    assert run_main(["analyze", "-"], "0 zero\n", monkeypatch) == 64
    capsys.readouterr()


def test_internal_error_exits_70(monkeypatch, capsys):
    import lapexcess.cli as cli_mod

    def boom(*args, **kwargs):
        raise InternalCheckError("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "analyze", boom)
    assert main(["analyze", "--gen", "petersen"]) == 70
    assert "internal error" in capsys.readouterr().err


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
    monkeypatch.setattr(theorem, "spectral_excess_closed_form", lambda mu, phis, n: math.nan)
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
    assert err == (
        "lapexcess: internal error: ValueError: "
        "non-finite value nan at predistance.alpha[1]\n"
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
    assert doc["schema"] == 2
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


def test_no_oracle_flag(capsys):
    assert main(["analyze", "--gen", "petersen", "--json", "--no-oracle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"] == {"ran": False}


def test_spectrum_command(capsys):
    assert main(["spectrum", "--gen", "cycle:4"]) == 0
    out = capsys.readouterr().out
    assert "theta_1 = 2" in out
    assert "multiplicity 2" in out
    assert main(["spectrum", "--gen", "cycle:4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
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


def test_calls_in_one_process_match_fresh_processes(monkeypatch, capsys):
    # main() builds its parser once per process; no call may see the flags,
    # defaults or failure of the one before it
    monkeypatch.setenv("COLUMNS", "80")  # same usage-line wrapping in both
    calls = [
        (["analyze", "--gen", "petersen", "--no-oracle", "--json"], 0),
        (["analyze", "--gen", "path:4", "--bogus"], 64),
        (["analyze", "--gen", "path:4", "--json"], 1),
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
    assert json.loads(in_process[0][1])["oracle"] == {"ran": False}
    assert json.loads(in_process[2][1])["oracle"]["ran"] is True
