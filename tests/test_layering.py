"""The package's modules import each other at module level, in layers, and
read text files through one reader.

An import inside a function hides a dependency until that function runs,
and is how an import cycle gets papered over.  These tests read each
``src/entvec/*.py`` with ``ast`` and check that every import sits at
module level and that the package-internal imports form no cycle.

A text file read another way than by ``embeddings._text_lines`` is read by
another rule: other line breaks, another UTF-8 check, errors at other
lines.  So no module opens a file for reading text, wraps or decodes one,
except through that reader.

``np.loadtxt`` reads as a parser's per-line code reads only the lines that
a block path has checked first, so only the two block paths call it, and
both take their blocks from one cutter sized by one constant.
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


# what turns a file's bytes into text, other than the reader
TEXT_MAKERS = {"TextIOWrapper", "StringIO", "codecs", "fdopen", "read_text", "readlines"}
# each parser of a text format, by module
PARSERS = {"embeddings": {"load_text"}, "evaluation": {"load_pairs"},
           "graph": {"parse_graph", "parse_graph_file"}, "training": {"load_model"}}


def _functions(tree) -> dict:
    return {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}


def _open_mode(call) -> str | None:
    """The mode of an ``open`` call, None when it is not a literal."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else None


@pytest.mark.parametrize("name", sorted(MODULES))
def test_text_is_read_only_through_the_one_reader(name):
    tree = MODULES[name]
    reader = set()
    if name == "embeddings":
        reader = set(ast.walk(_functions(tree)["_text_lines"]))
    for node in ast.walk(tree):
        where = f"{name}.py line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            mode = _open_mode(node)
            # bytes, or text only to write
            assert mode is not None and ("b" in mode or (mode[0] in "wax" and "+" not in mode)), \
                f"{where}: open() in mode {mode!r} reads text"
        if node not in reader:
            assert getattr(node, "id", getattr(node, "attr", None)) not in TEXT_MAKERS, \
                f"{where}: text read outside embeddings._text_lines"
        if name != "embeddings":  # the binary format's tokens and _not_utf8 decode there
            assert getattr(node, "attr", None) != "decode", f"{where}: bytes decoded"


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_every_text_parser_calls_the_reader(name):
    functions = _functions(MODULES[name])
    for parser in PARSERS[name]:
        calls = {getattr(node.func, "id", None) for node in ast.walk(functions[parser])
                 if isinstance(node, ast.Call)}
        assert "_text_lines" in calls, f"{name}.{parser} does not read through _text_lines"


def _qualified(tree) -> dict:
    """Each function of ``tree`` by its dotted name in the module (``Class.method``)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    found[prefix + child.name] = child
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return found


def _named(tree, name: str) -> list:
    """The nodes of ``tree`` that name ``name``, as a variable or an attribute."""
    return [node for node in ast.walk(tree)
            if getattr(node, "id", getattr(node, "attr", None)) == name]


# the block paths: the only functions that may name np.loadtxt
BLOCK_PATHS = {"embeddings": "_TextRows._parse", "graph": "_block"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_loadtxt_only_in_the_block_paths(name):
    tree = MODULES[name]
    allowed = set()
    if name in BLOCK_PATHS:
        allowed = set(ast.walk(_qualified(tree)[BLOCK_PATHS[name]]))
        assert set(_named(tree, "loadtxt")) & allowed  # the guard sees the real call
    for node in _named(tree, "loadtxt"):
        assert node in allowed, f"{name}.py line {node.lineno}: np.loadtxt outside a block path"


def test_one_block_size_and_one_block_cutter():
    # in the modules that parse text (core's _BLOCK_ELEMS sizes a scoring gather)
    constants = {(name, target.id) for name in PARSERS for node in MODULES[name].body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in getattr(node, "targets", [getattr(node, "target", None)])
                 if isinstance(target, ast.Name) and "BLOCK" in target.id.upper()}
    assert constants == {("embeddings", "_TEXT_BLOCK")}
    cutter = set(ast.walk(_qualified(MODULES["embeddings"])["_text_blocks"]))
    for name, tree in MODULES.items():
        for node in _named(tree, "_TEXT_BLOCK"):
            assert isinstance(node.ctx, ast.Store) or node in cutter, \
                f"{name}.py line {node.lineno}: _TEXT_BLOCK read outside _text_blocks"
    for name, parser in (("embeddings", "load_text"), ("graph", "_parse")):
        calls = {getattr(node.func, "id", None)
                 for node in ast.walk(_qualified(MODULES[name])[parser])
                 if isinstance(node, ast.Call)}
        assert "_text_blocks" in calls, f"{name}.{parser} does not cut blocks with _text_blocks"
