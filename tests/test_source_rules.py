"""Rules on the source itself, checked on its syntax tree.

The library has no assert statements (python -O strips them, so every check
the output depends on must be explicit), imports nothing that starts
processes or threads, nor dataclasses (it loads inspect, ast, dis and
tokenize at start-up), imports only the standard library, and imports no
name it does not use.  Every private name a library module binds at its
top level is read somewhere in the library, so a helper that a refactor
leaves behind shows.  The command line, `moments` and the test oracles use
no private qcatalan name, so they depend only on the public surface.  The
library's modules import each other without a cycle, counting the imports
under `if TYPE_CHECKING:`.  Only `cli.run`, the process entry, calls
`gc.freeze`, so an in-process caller of the library keeps its heap as it
was.
"""

import ast
import functools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "qcatalan").glob("*.py"))
PUBLIC_ONLY = [
    ROOT / "src" / "qcatalan" / "cli.py",
    ROOT / "src" / "qcatalan" / "moments.py",
    ROOT / "tests" / "oracles.py",
]
BANNED = {"concurrent", "dataclasses", "multiprocessing", "subprocess", "threading"}


def each_node(check):
    """A rule on the source from a check on each node of its syntax tree."""
    @functools.wraps(check)
    def rule(source: str) -> list[tuple[int, str]]:
        tree = ast.parse(source)
        return [(node.lineno, what) for node in ast.walk(tree) if (what := check(node))]
    return rule


@each_node
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


@each_node
def private_import(node: ast.AST) -> str | None:
    # a relative import inside the package, or an import from qcatalan
    if not isinstance(node, ast.ImportFrom):
        return None
    if node.level == 0 and (node.module or "").split(".")[0] != "qcatalan":
        return None
    hit = [alias.name for alias in node.names if alias.name.startswith("_")]
    return f"private import {', '.join(hit)}" if hit else None


def names_read(tree: ast.AST) -> set[str]:
    """The names the tree reads, those in its string annotations included."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= names_read(ast.parse(part.value, mode="eval"))
    return names


def unused_import(source: str) -> list[tuple[int, str]]:
    """Each name an import binds that the module never reads.  `# noqa:
    F401` on the line marks a deliberate re-export, and a star import binds
    no name to check."""
    tree = ast.parse(source)
    used, lines = names_read(tree), source.splitlines()
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used | {"*"} and "# noqa: F401" not in lines[alias.lineno - 1]:
                out.append((alias.lineno, f"unused import {bound}"))
    return out


def unread_private(source: str, elsewhere: frozenset[str] = frozenset()) -> list[tuple[int, str]]:
    """Each private name the module binds at its top level, by def, class
    or assignment, that neither the module nor `elsewhere` reads."""
    tree = ast.parse(source)
    read = names_read(tree) | elsewhere
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        out += [
            (node.lineno, f"unread private name {name}")
            for name in bound
            if name.startswith("_") and not name.endswith("__") and name not in read
        ]
    return out


def sibling_imports(source: str) -> set[str]:
    """The modules of its own package that a module imports by a relative
    import, wherever the import stands (an `if TYPE_CHECKING:` block too)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import x
                out |= {alias.name for alias in node.names}
    return out


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the import graph, the modules along it with the first
    repeated at the end, or [] when there is none."""
    acyclic: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in acyclic or module not in graph:
            return []
        for target in sorted(graph[module]):
            if cycle := visit(target, path + [module]):
                return cycle
        acyclic.add(module)
        return []

    for module in sorted(graph):
        if cycle := visit(module, []):
            return cycle
    return []


def findings(path: Path, rule) -> list[str]:
    return [f"{path.name}:{line}: {what}" for line, what in rule(path.read_text())]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_has_no_assert_and_only_allowed_stdlib_imports(path):
    assert findings(path, offends) == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_imports_no_name_it_does_not_use(path):
    assert findings(path, unused_import) == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_reads_every_private_name_it_binds(path):
    read = frozenset().union(*(names_read(ast.parse(p.read_text())) for p in LIBRARY))
    assert findings(path, functools.partial(unread_private, elsewhere=read)) == []


@pytest.mark.parametrize("path", PUBLIC_ONLY, ids=lambda p: p.name)
def test_cli_and_oracles_import_no_private_name(path):
    assert findings(path, private_import) == []


def test_library_imports_form_no_cycle():
    graph = {path.stem: sibling_imports(path.read_text()) for path in LIBRARY}
    assert import_cycle(graph) == []


@pytest.mark.parametrize(
    "source, rule, what",
    [
        ("assert x", offends, "assert"),
        ("import dataclasses", offends, "import dataclasses"),
        ("from concurrent.futures import Executor", offends, "import concurrent"),
        ("import numpy", offends, "non-stdlib import numpy"),
        ("from .polyq import _Frozen", private_import, "private import _Frozen"),
        ("from qcatalan.limitlaw import _helper", private_import, "private import _helper"),
        ("from .exactnum import bernoulli_table", unused_import, "unused import bernoulli_table"),
        ("def _helper(): pass", unread_private, "unread private name _helper"),
        ("_LIMIT: int = 5", unread_private, "unread private name _LIMIT"),
    ],
)
def test_the_rules_catch_what_they_name(source, rule, what, tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert findings(path, rule) == [f"probe.py:1: {what}"]


def test_the_cycle_rule_counts_imports_under_type_checking():
    sources = {
        "a": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .b import B\n",
        "b": "from .a import A\n",
        "c": "from . import a, b\n",
    }
    graph = {name: sibling_imports(source) for name, source in sources.items()}
    assert graph["c"] == {"a", "b"}
    assert import_cycle(graph) == ["a", "b", "a"]
    del graph["a"]
    assert import_cycle(graph) == []


def test_the_rules_pass_clean_source(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import math\nfrom .polyq import IntPoly\nfrom os import path\n")
    assert findings(path, offends) == findings(path, private_import) == []
    path.write_text("__all__ = ['f']\n_LIMIT = 5\n\ndef f():\n    return _LIMIT\n")
    assert findings(path, unread_private) == []


def test_only_the_process_entry_freezes_the_heap():
    callers = []
    for path in LIBRARY:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [
                    f"{path.stem}.{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Attribute) and node.attr == "freeze"
                ]
    assert callers == ["cli.run"]
