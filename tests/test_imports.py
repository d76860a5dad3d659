"""Every name a library module imports is read somewhere in that module,
every absolute import names a standard-library module, every function,
class and method the library defines is used outside the tests, no library
module reads the process environment, the tail-order program stays
inside the diverse solver, the single solver builds no path decomposition
and no cocomparability graph, no module keeps a graph class next to the
order, no module but ``orders`` binds or reads an order's columns, and
the package exports exactly the names it imports."""

import ast
import pathlib
import sys

import pytest

import kemeny

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "kemeny"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# The code that may use a library definition: the library itself, bar the
# re-exports of __init__.py, the benchmark and the demos.
USERS = MODULES + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
ENVIRONMENT_READS = {"environ", "getenv"}
# The tail-order program's names, which only solver_diverse may define or import.
TAIL_PROGRAM = {
    "TailKey", "Moves", "_forget_successor", "_introduce_successors",
    "forward_tables", "backward_tables", "reconstruct_extension",
}
# The path-decomposition names, which the ideal-lattice engine neither
# defines nor imports: it reads the width off the lattice.
DECOMPOSITION = {
    "PathDecomposition", "ConsistentPathDecomposition",
    "consistent_path_decomposition", "nice_decomposition",
}
# An order's columns, a cached transpose of its rows that only orders.py reads.
COLUMNS = {"_cols"}


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


def foreign_imports(source):
    """(line, module) of each absolute import whose top-level package is not
    in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            (node.lineno, module)
            for module in modules
            if module.split(".")[0] not in sys.stdlib_module_names
        ]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_foreign_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np, sys\n"
        "from array import array\n"
        "from scipy.optimize import linprog\n"
        "from .orders import Profile\n"
    )
    assert foreign_imports(source) == [(2, "numpy"), (4, "scipy.optimize")]


def definitions(source):
    """(line, name) of each top-level function and class, and of each
    method but the dunders."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, defs):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, defs[:2])
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return out


def references(source):
    """Every name the source mentions as a variable or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.fixture(scope="module")
def used_names():
    names = set()
    for path in USERS:
        names |= references(path.read_text(encoding="utf-8"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_used(path, used_names):
    defined = definitions(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in defined if name not in used_names] == []


def test_detects_an_unused_definition():
    source = (
        "class A:\n"
        "    def __init__(self): self.x = helper()\n"
        "    def spare(self): pass\n"
        "def helper(): return 1\n"
        "def orphan(): pass\n"
        "A()\n"
    )
    unused = [d for d in definitions(source) if d[1] not in references(source)]
    assert unused == [(3, "spare"), (5, "orphan")]


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


def bound_names(source, watched):
    """(line, name) of each watched name the source defines, assigns,
    imports (under its own name or an alias) or reads off a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
            names += [alias.asname for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in watched]
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "solver_diverse.py"],
    ids=lambda p: p.name,
)
def test_tail_program_stays_in_solver_diverse(path):
    assert bound_names(path.read_text(encoding="utf-8"), TAIL_PROGRAM) == []


def test_detects_a_tail_program_name():
    source = (
        "from .solver_diverse import Moves, solve_diverse\n"
        "TailKey = tuple\n"
        "def forward_tables(): pass\n"
        "def tail_bound(): pass\n"
    )
    assert bound_names(source, TAIL_PROGRAM) == [
        (1, "Moves"), (2, "TailKey"), (3, "forward_tables"),
    ]


def test_single_solver_builds_no_decomposition():
    source = (SRC / "solver_single.py").read_text(encoding="utf-8")
    assert bound_names(source, DECOMPOSITION) == []


def test_single_solver_builds_no_graph():
    # the width pass reads the graph's rows off the order itself
    source = (SRC / "solver_single.py").read_text(encoding="utf-8")
    assert bound_names(source, {"cocomparability_graph"}) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_graph_class(path):
    # the cocomparability graph is the order's incomparability rows
    assert bound_names(path.read_text(encoding="utf-8"), {"Graph"}) == []


def test_detects_a_decomposition_name():
    source = (
        "from .width import ConsistentPathDecomposition as CPD, ideal_lattice\n"
        "from . import width\n"
        "dec = width.nice_decomposition(g, layout)\n"
        "def consistent_path_decomposition(order): pass\n"
    )
    assert bound_names(source, DECOMPOSITION) == [
        (1, "ConsistentPathDecomposition"), (3, "nice_decomposition"),
        (4, "consistent_path_decomposition"),
    ]


@pytest.mark.parametrize(
    "path",
    sorted({*SRC.glob("*.py"), *USERS} - {SRC / "orders.py"}),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_only_orders_reads_columns(path):
    assert bound_names(path.read_text(encoding="utf-8"), COLUMNS) == []


def test_detects_a_column_read():
    source = (
        "from .orders import _cols\n"
        "down = order._cols[x] & ~(1 << x)\n"
        "_cols = [0] * n\n"
        "cols = order.rows\n"
    )
    assert bound_names(source, COLUMNS) == [(1, "_cols"), (2, "_cols"), (3, "_cols")]


def test_exports_are_the_imported_names():
    # a name deleted from a module and its import cannot linger in __all__
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(kemeny.__all__) == sorted(imported)
    for name in kemeny.__all__:
        assert getattr(kemeny, name) is not None
