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
        "atlas        49e554e597e772f0be26ebca3503b1618871ccea2ef30044b3fb25d4915fa187  (2988 calls)",
        "cycle:128    8f7ecf5b69b746983f806ac7f97abdd84e0a8d5eb3369f8b5242b86c2115cf93  (4 calls)",
        "path:128     4d06a79284c6de9ed8c69400dd675a87a682b836a8e152524adf0524e56753c0  (4 calls)",
        "hypercube:6  742a2be8ff593f4a650f2b1e4d9570f5853dda95d52a98bbb4d5d8fc236dcd0b  (4 calls)",
        "petersen     e2da3653b013804158e205b1c5e13f1cfe10970872bca2040f29eb5356fae2f8  (4 calls)",
        "all          5f3ba315e79475c9dfa0aef4603ec643d80142fcb75668233d35ac4e8264b7ec",
    ]


def test_digest_rejects_unknown_spec(capsys):
    assert _load_digest().main(["nosuch"]) == 64
    assert "unknown spec" in capsys.readouterr().err
