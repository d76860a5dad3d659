"""Every name a library module imports is read somewhere in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "kemeny"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import os\nfrom typing import Sequence, IO\n\nx: IO = os.sep\n"
    assert unused_imports(source) == [(2, "Sequence")]
