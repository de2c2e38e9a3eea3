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
        "atlas        4756ee009de6e3acd5cba9355fa4ef362fed2ff6dfc960e47adc41f0b824b7fa  (2988 calls)",
        "cycle:128    97e718f095ffd3376a761591d0341a7cd559b4b211175810bca987fe0d647c7d  (4 calls)",
        "path:128     4d06a79284c6de9ed8c69400dd675a87a682b836a8e152524adf0524e56753c0  (4 calls)",
        "hypercube:6  fd7cce2ff6590cc36a32f77b2c19b599e8d81331c9775ee977ce57268080cb69  (4 calls)",
        "petersen     e2da3653b013804158e205b1c5e13f1cfe10970872bca2040f29eb5356fae2f8  (4 calls)",
        "complete:6   ea9337a6d003e5b3bc47048af4dddd6385354613b175d846aca0a9ee47096011  (4 calls)",
        "complete_bipartite:3:4 d5ea041e991de18db56a23c6334f7d3676a215bd065ddb8adc3035be624818e9  (4 calls)",
        "star:5       d32c391805a50a5167028a11937de3e74725aaea420db72ca448e4bb1f6abded  (4 calls)",
        "errors       86d5dc6ac7d5c88000a92480a53efc8dd0bbcc19bd652f4c8b27b572c5daf25e  (3 calls)",
        "inputs       2e07ca4ba81f4614d0b915aa80c97d04c0107c6db9504e6c69d3e475279c7c87  (21 calls)",
        "gen          f3711451f7716ebc8ce81915739a14442400df8ad68a920aaa92ae586cb104fe  (9 calls)",
        "all          26354d9796d811d2df75151bf463018d582c0753eaea601fdd9202b1c6f93f02",
    ]


def test_digest_rejects_unknown_spec(capsys):
    assert _load_digest().main(["nosuch"]) == 64
    assert "unknown spec" in capsys.readouterr().err
