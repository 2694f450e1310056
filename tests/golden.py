"""The byte manifest of `qcat`: each command below with its exit code and
the sha256 of its stdout and stderr, run in-process through
`cli.main(argv, out=...)`.

    PYTHONPATH=src python tests/golden.py

rewrites tests/golden.json from the tree and prints each key whose entry
was added, changed or dropped, nothing when none was; tests/test_golden.py
replays it.  A change that means to change bytes rewrites the manifest and
names each entry that changed; any other change leaves it alone.

Every command runs under 640 digits, the interpreter's smallest limit on
converting an int to text (PYTHONINTMAXSTRDIGITS=640 sets the same), so
the manifest does not depend on the environment's limit and the writer's
refusal of a wider integer is reached by a small build.  The text argparse
writes itself (help, its usage errors) differs between Python versions, so
the USAGE commands are pinned by exit code and by whether stdout is empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from qcatalan import cli

MANIFEST = Path(__file__).with_name("golden.json")
DIGIT_LIMIT = 640

FAMILIES = [
    ["--family", "catalan"],
    ["--family", "catalan2"],
    ["--family", "mcatalan", "--m", "3"],
    ["--family", "mcatalan", "--m", "7"],
]


def _both_formats(argvs: list[list[str]]) -> list[list[str]]:
    return [[*argv, "--format", fmt] for argv in argvs for fmt in ("csv", "json")]


def _general(a: str, b: str, *rest: str) -> list[str]:
    return ["general", "--a", a, "--b", b, *rest]


COMMANDS = _both_formats(
    [["coeffs", *fam, "--n", str(n)] for fam in FAMILIES for n in (1, 2, 3, 9, 40)]
    + [
        [command, *fam, "--n-from", lo, "--n-to", hi]
        for command in ("moments", "shape")
        for fam in FAMILIES
        for lo, hi in (("1", "30" if "mcatalan" in fam else "60"), ("17", "25"))
    ]
    + [
        ["normality", "--n", str(n), "--grid-step", step, "--K", K]
        for n in (2, 3, 17, 30, 61, 120)
        for step in ("0.5", "0.1")
        for K in ("2", "30", "60")
    ]
    + [
        ["general", "--preset", fam[1], *fam[2:], "--n", str(n)]
        for fam in FAMILIES
        for n in (2, 3, 30)
    ]
    + [
        _general("6,1", "2,3"),  # signed: no distribution cells
        _general("3", "2"),  # not a polynomial, exit 3
        _general("2", "2"),  # trivial: no ratio rows
        _general("5,6", "2,3"),  # null envelope cells
        _general("4,5,6", "1,2,3"),  # three factors
        # 1023, 1024 and 1025 coefficient rows: four blocks of 2^8 rows, one
        # row short of them, exactly and one row past
        *(_general(str(a), "1") for a in (1023, 1024, 1025)),
        ["general", "--preset", "catalan", "--n", "10", "--alpha", "1", "--beta", "-1e-3", "--gamma", "-5e-1"],
        ["general", "--preset", "catalan", "--n", "10", "--beta=-1e-3", "--gamma=-5e-1", "--alpha", "1"],
        _general("5,6", "2,3", "--alpha", "18.0", "--beta", "-0.166", "--gamma", "-0.333"),
        # the envelope bound leaves float range, exit 3
        _general("5,6", "2,3", "--K", "400", "--alpha", "1e300", "--beta", "-0.0001", "--gamma", "-0.1"),
        # past DIGIT_LIMIT: the mass 2^2127 of (1 + q)^2127, and the widest
        # coefficient of the signed (1 - q + q^2)^1360
        _general("2," * 2126 + "2", "1," * 2126 + "1"),
        _general("6,1," * 1359 + "6,1", "2,3," * 1359 + "2,3"),
    ]
) + [
    # refusals of qcat's own, each with its message
    *(
        [command, "--family", "catalan", "--n-from", lo, "--n-to", hi]
        for command in ("moments", "shape")
        for lo, hi in (("5", "2"), ("0", "3"))
    ),
    ["normality", "--n", "1"],
    *(["normality", "--n", "5", "--grid-step", step] for step in ("nan", "inf", "1e-12")),
    ["normality", "--n", "300", "--grid-step", "0.001"],
    ["normality", "--n", "130", "--grid-step", "0.001"],
    ["normality", "--n", "10000"],
    ["normality", "--n", "10", "--K", "501"],
    ["normality", "--n", "10", "--K", "1000"],
    _general("1000,1001,1002", "1,2,3", "--K", "8000"),
    ["general", "--preset", "catalan", "--n", "30", "--K", "501"],
    _general("1000000000", "1"),
    ["general", "--preset", "catalan", "--n", "1700"],
    ["coeffs", "--family", "catalan", "--n", "1700"],
    ["moments", "--family", "catalan", "--n-from", "2", "--n-to", "1700"],
    ["normality", "--n", "1673"],
    *(_general(a, b) for a, b in (("", "1"), (",", "1"), ("1,,2", "1,2,3"))),
    ["general", "--a", "5,6"],
    ["general", "--preset", "catalan", "--n", "3", "--a", "5,6"],
    ["general", "--preset", "catalan"],
    _general("5,x", "2,3"),
    _general("5,6", "2,3", "--alpha", "1.0"),
    _general("5,6", "2,3", "--K", "1"),
    ["coeffs", "--family", "catalan", "--n", "3", "--m", "2"],
    ["coeffs", "--family", "mcatalan", "--n", "3"],
    ["coeffs", "--family", "mcatalan", "--n", "3", "--m", "1"],
    ["general", "--preset", "catalan", "--n", "3", "--m", "7"],
    ["general", "--preset", "catalan", "--n", "3", "--alpha", "inf", "--beta", "-0.1", "--gamma", "-0.1"],
    _general("5,6", "2,3", "--alpha", "18.0", "--beta=-inf", "--gamma", "-0.333"),
    _general("5,6", "2,3", "--n", "7"),
    _general("5,6", "2,3", "--m", "3"),
    ["general", "--preset", "catalan", "--n", "1", "--alpha", "-1", "--beta", "-0.1", "--gamma", "-0.1"],
    ["general", "--preset", "mcatalan", "--n", "5", "--alpha", "nan", "--beta", "-0.1", "--gamma", "-0.1"],
    ["general", "--preset", "catalan", "--n", "5", "--m", "3", "--alpha", "1", "--beta", "0.1", "--gamma", "-0.1"],
    ["general", "--preset", "catalan", "--alpha", "1", "--beta", "-0.1", "--gamma", "0.1"],
    ["shape", "--family", "catalan", "--n-from", "2", "--n-to", "3", "--m", "2"],
]

USAGE = [
    ["--help"],
    *([command, "--help"] for command in ("coeffs", "moments", "normality", "shape", "general")),
    [],
    ["coeffs", "--family", "catalan"],
    ["coeffs", "--family", "nope", "--n", "3"],
    ["coeffs", "--family", "catalan", "--n", "1.5"],
    ["coeffs", "--family", "catalan", "--n", "3", "--format", "xml"],
    ["general", "--preset", "catalan", "--n", "10", "--beta", "--gamma", "-5e-1", "--alpha", "1"],
    ["general", "--preset", "catalan", "--n", "10", "--bet", "-1e-3", "--gamma", "-5e-1", "--alpha", "1"],
    ["general", "--preset", "catalan", "--n", "10", "--bet", "-0.001", "--gamma", "-5e-1", "--alpha", "1"],
    ["coeffs", "--fam", "catalan", "--n", "3"],
    ["normality", "--n", "5", "--grid", "0.5"],
    ["shape", "--family", "catalan", "--n-from", "2", "--n-to", "5", "--form", "json"],
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str]) -> dict[str, object]:
    """The manifest entry of one command: what argparse writes is pinned by
    whether stdout is empty, everything else by its sha256."""
    out, err = io.StringIO(), io.StringIO()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv, out=out)
    finally:
        sys.set_int_max_str_digits(limit)
    if argv in USAGE:
        return {"exit": code, "stdout_empty": not out.getvalue()}
    return {"exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def keys() -> list[str]:
    """The manifest's keys, one shell-quoted argv per command, in order."""
    return [shlex.join(argv) for argv in COMMANDS + USAGE]


def main() -> None:
    """Rewrite the manifest, then print each key whose entry was added,
    changed or dropped, after its status; nothing when none was."""
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    manifest = {key: record(shlex.split(key)) for key in keys()}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    for key in [*manifest, *(key for key in old if key not in manifest)]:
        if old.get(key) != manifest.get(key):
            print("added" if key not in old else "dropped" if key not in manifest else "changed", key)


if __name__ == "__main__":
    main()
