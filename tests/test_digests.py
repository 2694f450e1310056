"""Every recorded benchmark command still writes its recorded bytes.

`bench/digests.json` maps each seed-0 benchmark command to the sha256 of
its stdout.  The commands run in-process through `cli.main`, and again as
`python -O -m qcatalan.cli`: -O strips assert statements, so every check
the output depends on must be explicit.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcatalan.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_recorded_command_writes_its_digest(key):
    out = io.StringIO()
    main(key.split()[1:], out=out)
    assert sha256(out.getvalue().encode()) == DIGESTS[key]


def test_recorded_commands_write_their_digests_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    bad = []
    for key, want in sorted(DIGESTS.items()):
        argv = [sys.executable, "-O", "-m", "qcatalan.cli", *key.split()[1:]]
        if sha256(subprocess.run(argv, env=env, capture_output=True).stdout) != want:
            bad.append(key)
    assert bad == []
