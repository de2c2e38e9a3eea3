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
        "atlas        f3395a073f87682590d88cb3e6d9cf5c095dc2f1aa1aeb76470ac95bb6e58e0e  (2988 calls)",
        "cycle:128    c82f887ae5d735b818156f2eb5f22d573018335f37e6caa2a64f1bcf5d1a7264  (4 calls)",
        "path:128     fd0aadb85128e1d32863a61959822594d232fba6118ee88f594e11106876ec19  (4 calls)",
        "hypercube:6  e44989f35e136a61693547356d78a6f15a9bc5db2985136746d2a3ac62aee773  (4 calls)",
        "petersen     78bf19fc766358ce9433f922d2f1c6ebf42f749a8d45f74ce6d5a04294aaa9c4  (4 calls)",
        "all          7a25934f3bcfb5bed80e1a13dcd3b1376d68101ad637bd806fd02569faae2e54",
    ]


def test_digest_rejects_unknown_spec(capsys):
    assert _load_digest().main(["nosuch"]) == 64
    assert "unknown spec" in capsys.readouterr().err
