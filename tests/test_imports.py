"""Every name a package module imports is used there.

No lint tool ships with the project, so this walks each module's syntax
tree. A name counts as used if the module reads it anywhere, or re-exports
it through ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import routhlab

MODULES = sorted(Path(routhlab.__file__).parent.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_the_guard_sees_the_package():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_guard_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import sqrt, pi as tau\n__all__ = ['sqrt']\n")
    names = {name for name, _ in _imported(tree)}
    assert names - _used(tree) == {"os", "tau"}
