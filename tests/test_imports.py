"""Every name a module under src/ imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.  A
    name counts as read when it appears as a bare name anywhere in the
    module, as the root of an attribute chain, or in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_src_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"order.py", "cli.py", "models.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector_on_samples():
    assert unused_imports("import os\nos.getcwd()\n") == []
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os, sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("def f():\n    from x import y\n") == ["line 2: y"]
    assert unused_imports(
        "from itertools import combinations, permutations\npermutations([])\n"
    ) == ["line 1: combinations"]
