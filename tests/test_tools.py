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
        "atlas        f4062c4b27fbac554d804e6030b177cb6034fa8fcd7212d5744be05d134e2aa9  (2988 calls)",
        "cycle:128    00068f382ce7cb430dc2b860cf5986647e79629642a4b88872781e41a44bbd73  (4 calls)",
        "path:128     ecec079d1092ad2cab8f24a837720ac9bf6521b53a2af43a0de8ee3c12d58874  (4 calls)",
        "hypercube:6  242fb54328b48178398645a676c43904f586f69dfe90953bc90f7ace406528bb  (4 calls)",
        "petersen     80f5f78d308b9ed08145c79f01fbf4b375285979eca27d45c0c0f67aa2a17cdb  (4 calls)",
        "all          de339ebfcf8e5fb56fafe5e9da28be6449c9c585bb087db1e49c0be8936abaf6",
    ]


def test_digest_rejects_unknown_spec(capsys):
    assert _load_digest().main(["nosuch"]) == 64
    assert "unknown spec" in capsys.readouterr().err
