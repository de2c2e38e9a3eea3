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
        "petersen     a38fdcd03e0583f8df4157cf4f8e7cfae0222a1e52b1a4a47af4a3eb3b161b52  (4 calls)",
        "hypercube:6  284fe7a436bd3e06aad989a70b8002255dbe8070f21a0ba91e53038544f913ca  (4 calls)",
    ]


def test_digest_rejects_unknown_spec(capsys):
    assert _load_digest().main(["nosuch"]) == 64
    assert "unknown spec" in capsys.readouterr().err
