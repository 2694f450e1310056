"""The committed byte manifest (tests/golden.json) replays on the tree: each
command's exit code and stdout and stderr sha256 are as recorded.  The
manifest and its command list are written by tests/golden.py."""

import json
import shlex

import golden


def test_the_manifest_lists_exactly_the_commands_of_its_script():
    manifest = json.loads(golden.MANIFEST.read_text())
    assert list(manifest) == golden.keys()


def test_every_command_writes_the_bytes_of_the_manifest():
    manifest = json.loads(golden.MANIFEST.read_text())
    changed = [key for key, entry in manifest.items() if golden.record(shlex.split(key)) != entry]
    assert changed == []
