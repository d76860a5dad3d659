"""Every name a library module imports is read somewhere in that module,
and no library module reads the process environment."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "kemeny"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ENVIRONMENT_READS = {"environ", "getenv"}


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


def environment_reads(source):
    """Lines that read ``os.environ`` or ``os.getenv``, or import either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_READS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in ENVIRONMENT_READS for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_read(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_detects_an_environment_read():
    source = "import os\nfrom os import getenv\n\ncap = os.environ.get('CAP')\n"
    assert environment_reads(source) == [2, 4]
