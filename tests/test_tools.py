"""Smoke test of tools/digest.py, the byte-identity digest of the CLI."""

import importlib.util
import re
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def _load_digest():
    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_one_spec(capsys):
    assert _load_digest().main(["petersen"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"petersen +[0-9a-f]{64}  \(4 calls\)", lines[0])
    assert re.fullmatch(r"all +[0-9a-f]{64}", lines[1])


def test_digest_pins_the_bytes(capsys):
    # A change to these digests is a change to the CLI's output bytes on
    # petersen or hypercube:6, which must be called out, not absorbed.
    assert _load_digest().main(["petersen", "hypercube:6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "petersen     2f5ffd9dfb69d7cbe0345209d53da0ae82af72844c93f94f2ee84072a8367aa6  (4 calls)",
        "hypercube:6  a44556c5ce410ac39a358a77a6f2059e6b8ec4d4e931033db879feea9aa07c1f  (4 calls)",
    ]


def test_digest_rejects_unknown_spec(capsys):
    assert _load_digest().main(["nosuch"]) == 64
    assert "unknown spec" in capsys.readouterr().err
