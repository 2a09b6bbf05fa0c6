"""The package's surface.

Every top-level function and method in ``src/matchgames`` must have a
reader: some package module that reads its name (outside its own body), a
demo or a ``bench/`` script that imports or reads it, a name the benchmark's
tracer wraps (``bench/tracing.LAYERS``), or an export of
``matchgames/__init__``.  Dunder methods are exempt.  A function that only
tests call belongs in ``tests/``.

The reference oracles in ``tests/oracles.py`` check the package from
outside, so they import no underscore-prefixed name from it.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "matchgames"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree):
    """(qualified name, node) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    yield f"{node.name}.{item.name}", item


def _reads(tree):
    """Every name a tree loads, as a name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _imports(tree):
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _traced_names():
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {qualname.rpartition(".")[2] for fns in module.LAYERS.values() for qualname in fns}


def _outside_readers():
    """Names read by the demos and ``bench/``, wrapped by the tracer, or
    exported from the package."""
    names = _traced_names()
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = _parse(path)
        names |= _reads(tree) | _imports(tree)
    return names | _imports(_parse(SRC / "__init__.py"))


def unread_definitions():
    """``module.qualname`` of every function and method without a reader."""
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    readers = {}  # name -> {(module, qualname of the enclosing definition)}
    for stem, tree in modules.items():
        inside = set()
        for qualname, node in _definitions(tree):
            for name in _reads(node):
                readers.setdefault(name, set()).add((stem, qualname))
            inside.add(id(node))
        for node in tree.body:  # module and class level, outside any function
            bodies = node.body if isinstance(node, ast.ClassDef) else [node]
            for part in bodies:
                if id(part) not in inside:
                    for name in _reads(part):
                        readers.setdefault(name, set()).add((stem, None))
    outside = _outside_readers()
    unread = []
    for stem, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in outside or readers.get(name, set()) - {(stem, qualname)}:
                continue
            unread.append(f"{stem}.{qualname}")
    return unread


def test_every_function_has_a_reader():
    assert unread_definitions() == []


def test_the_oracles_import_no_private_name():
    tree = _parse(Path(__file__).with_name("oracles.py"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("matchgames")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
