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
        "atlas        f44de6957893e8d90e33203c212c1f721cc65b6aad6d0aece965e2bd2db26b0e  (2988 calls)",
        "cycle:128    c256fc1106d846348a4f54940f87223d8ae3289824a1ce7ea236a299212e3e57  (4 calls)",
        "path:128     aec572959865c99865856271a96993646dfb817a58ddea239e49caf03d130215  (4 calls)",
        "hypercube:6  d5438578d196d95f68b1fdf68751e65cdf878c7415c0df6aa0ed5981030ef3cc  (4 calls)",
        "petersen     c36ed66232a2a43e3afc073b6316f3219318081a67ba9108b21fe769e2adce6c  (4 calls)",
        "complete:6   9495589d30510ff1e16d75b25126904ad4934be31cf95c66470a78c7ed7ed9b0  (4 calls)",
        "complete_bipartite:3:4 ecad05e782cdb4aac3eeaba443e4796331ef5c1fdd2c25ff103dc02ba45b3a56  (4 calls)",
        "star:5       ea0585848bac86a288086f1cf13bce088626906bd25af008f7a3d492fa347487  (4 calls)",
        "errors       86d5dc6ac7d5c88000a92480a53efc8dd0bbcc19bd652f4c8b27b572c5daf25e  (3 calls)",
        "inputs       4d3e7d3cbcaebbb033059b1df9a5951adb23f9635676ee72682fa2caf113caea  (23 calls)",
        "gen          f3711451f7716ebc8ce81915739a14442400df8ad68a920aaa92ae586cb104fe  (9 calls)",
        "all          ee3d7dbbb4f6d0c304e820fb64522749f6fd412553666ca59ede1bf5fed6b6da",
    ]


def test_digest_rejects_unknown_spec(capsys):
    assert _load_digest().main(["nosuch"]) == 64
    assert "unknown spec" in capsys.readouterr().err
