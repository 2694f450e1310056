"""Rules on the source itself, checked on its syntax tree.

The library has no assert statements (python -O strips them, so every check
the output depends on must be explicit), imports nothing that starts
processes or threads, nor dataclasses (it loads inspect, ast, dis and
tokenize at start-up), and imports only the standard library.  The command
line and the test oracles use no private qcatalan name, so they depend only
on the public surface.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "qcatalan").glob("*.py"))
PUBLIC_ONLY = [ROOT / "src" / "qcatalan" / "cli.py", ROOT / "tests" / "oracles.py"]
BANNED = {"concurrent", "dataclasses", "multiprocessing", "subprocess", "threading"}


def offends(node: ast.AST) -> str | None:
    if isinstance(node, ast.Assert):
        return "assert"
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return None
    tops = [name.split(".")[0] for name in names]
    hit = [top for top in tops if top in BANNED]
    if hit:
        return f"import {', '.join(hit)}"
    outside = [top for top in tops if top not in sys.stdlib_module_names]
    return f"non-stdlib import {', '.join(outside)}" if outside else None


def private_import(node: ast.AST) -> str | None:
    # a relative import inside the package, or an import from qcatalan
    if not isinstance(node, ast.ImportFrom):
        return None
    if node.level == 0 and (node.module or "").split(".")[0] != "qcatalan":
        return None
    hit = [alias.name for alias in node.names if alias.name.startswith("_")]
    return f"private import {', '.join(hit)}" if hit else None


def findings(path: Path, check) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}:{node.lineno}: {what}" for node in ast.walk(tree) if (what := check(node))]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_has_no_assert_and_only_allowed_stdlib_imports(path):
    assert findings(path, offends) == []


@pytest.mark.parametrize("path", PUBLIC_ONLY, ids=lambda p: p.name)
def test_cli_and_oracles_import_no_private_name(path):
    assert findings(path, private_import) == []


@pytest.mark.parametrize(
    "source, check, what",
    [
        ("assert x", offends, "assert"),
        ("import dataclasses", offends, "import dataclasses"),
        ("from concurrent.futures import Executor", offends, "import concurrent"),
        ("import numpy", offends, "non-stdlib import numpy"),
        ("from .polyq import _Frozen", private_import, "private import _Frozen"),
        ("from qcatalan.limitlaw import _helper", private_import, "private import _helper"),
    ],
)
def test_the_rules_catch_what_they_name(source, check, what, tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert findings(path, check) == [f"probe.py:1: {what}"]


def test_the_rules_pass_clean_source(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import math\nfrom .polyq import IntPoly\nfrom os import path\n")
    assert findings(path, offends) == findings(path, private_import) == []
