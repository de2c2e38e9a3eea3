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
    # some spec, which must be called out, not absorbed.  Every spec runs,
    # the 2988 atlas calls included (about 3 s).
    assert _load_digest().main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "atlas        e0eb235264f2bf5620f5ef95bc9320fd0d7fe442bd95a4fd0a19a40bf13646e5  (2988 calls)",
        "cycle:128    e5116f6aadbf4fb2e03bb09e4610a1c7962301c17ef7c0d8dfd04d70e7107156  (4 calls)",
        "path:128     d02fb64fc515c5382bf8b207a8eea759af2e976278d94dc97b9ea94f891c21d1  (4 calls)",
        "hypercube:6  0b9c051c97799fba9626a5d556749577afbba25faaec45edc650659e1106a20a  (4 calls)",
        "petersen     932e1f83a6450ed352554ef16fea78b34c0bfafdbca90f4baad36a5d7dbf02f1  (4 calls)",
        "all          6ef99018c3140b8403c881eadac05ba1bd597e540aae70b4e24a7a67a222dca1",
    ]


def test_digest_rejects_unknown_spec(capsys):
    assert _load_digest().main(["nosuch"]) == 64
    assert "unknown spec" in capsys.readouterr().err
