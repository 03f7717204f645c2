"""Every name a difftwin module imports is used by that module, and every
top-level name it defines is used somewhere.

Package ``__init__.py`` files re-export what they import and are exempt, as
are ``from __future__`` imports. A top-level function, class or assigned
name counts as used when it appears outside its own definition: in the rest
of its module, in another non-``__init__`` module of the package, or under
``tests/`` or ``chainperf/``. A re-export alone does not count.
"""

import ast
import pathlib
import re

import pytest

import difftwin

PACKAGE = pathlib.Path(difftwin.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ROOT = PACKAGE.parent.parent
ELSEWHERE = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"] + [
    p for d in ("tests", "chainperf") for p in (ROOT / d).rglob("*.py")
]


def top_level_names(tree: ast.Module) -> list:
    """(name, first line, last line) of each top-level def, class and assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(name, node.lineno, node.end_lineno) for name in targets]
    return out


def dead_definitions(path: pathlib.Path, others: list) -> list:
    """Top-level names of a module that appear nowhere outside their own
    definition: not in the rest of the module, nor in any of `others`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    elsewhere = "\n".join(p.read_text(encoding="utf-8") for p in others if p != path)
    dead = []
    for name, first, last in top_level_names(ast.parse("\n".join(lines))):
        rest = "\n".join(lines[: first - 1] + lines[last:])
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        if not pattern.search(rest) and not pattern.search(elsewhere):
            dead.append(name)
    return dead


def test_dead_definition_is_found(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("LIMIT = 3\n\n\ndef helper():\n    return LIMIT\n\n\ndef unused():\n    return 1\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import helper\n")
    assert dead_definitions(mod, [user]) == ["unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_defines_only_used_names(path):
    assert dead_definitions(path, ELSEWHERE) == []
