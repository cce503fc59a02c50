import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "momentgraph"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that the module never references."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_sees_unused_and_exempt_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "from .a import b, c\n"
        "__all__ = ['c']\n"
        "os.getcwd()\n"
    )
    assert unused_imports(tree) == ["b (line 3)", "js (line 2)"]
