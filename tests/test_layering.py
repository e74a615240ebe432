"""The package's modules import each other at module level, in layers.

An import inside a function hides a dependency until that function runs,
and is how an import cycle gets papered over.  These tests read each
``src/entvec/*.py`` with ``ast`` and check that every import sits at
module level and that the package-internal imports form no cycle.
"""

import ast
import graphlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "entvec"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _internal_imports(tree) -> set:
    """The package modules that ``tree`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module == "entvec"):
            if node.module and node.module != "entvec":
                found.add(node.module.split(".")[0])
            else:  # from . import a, b: a submodule, or a name of __init__
                found |= {a.name if a.name in MODULES else "__init__" for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("entvec.")}
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    for func in ast.walk(MODULES[name]):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), \
                    f"{name}.py line {node.lineno}: import inside {func.name}()"


def test_internal_imports_are_acyclic():
    graph = {name: _internal_imports(tree) for name, tree in MODULES.items()}
    assert graph["cli"] >= {"evaluation", "training"}  # the parser sees real edges
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert set(order) == set(MODULES)
