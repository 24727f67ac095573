"""Every public function, method and class of the library has a caller.

A function counts as used when its name is read, as a plain name or as
an attribute, anywhere in the library, the tests or the benchmark; a
method counts only when read as an attribute.  Definitions, assignment
targets and imports do not count: a local variable that shares a
method's name does not vouch for it, and a name that is only
re-exported is still dead.  A class counts as used when its name is
read outside its own body, so a class that only builds itself is dead.

Likewise every name a library module imports is read in that module,
and imported at module level, where the import graph shows it; only
`__init__.py` imports to re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "goodgradings"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions():
    """(where, name, is_method) for every public function and method."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) \
                            and not item.name.startswith("_"):
                        yield (f"{path.name}:{node.name}.{item.name}",
                               item.name, True)
            elif isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                yield f"{path.name}:{node.name}", node.name, False


def _references():
    """(names read, attributes read) across the searched trees."""
    loads, attrs = set(), set()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name):
                    loads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
    return loads, attrs


def test_every_public_function_has_a_caller():
    loads, attrs = _references()
    dead = [where for where, name, is_method in _public_definitions()
            if name not in attrs and (is_method or name not in loads)]
    assert not dead, f"public functions with no caller: {dead}"


class _ReadsOutsideOwnClass(ast.NodeVisitor):
    """Names read, as a plain name or an attribute, except inside the
    body of a class of that name."""

    def __init__(self):
        self.read, self.inside = set(), []

    def visit_ClassDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.inside:
            self.read.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self.inside:
            self.read.add(node.attr)
        self.generic_visit(node)


def _public_classes():
    """(where, name) for every public class of the library."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                yield f"{path.name}:{node.name}", node.name


def test_every_public_class_is_read():
    reads = _ReadsOutsideOwnClass()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            reads.visit(_parse(path))
    dead = [where for where, name in _public_classes()
            if name not in reads.read]
    assert not dead, f"public classes never read: {dead}"


def _unread_imports(path):
    """Names a module imports but never reads (`__future__` aside)."""
    tree = _parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_import_of_the_library_is_read():
    unread = {path.name: names for path in sorted(LIBRARY.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unread_imports(path))}
    assert not unread, f"imported names never read: {unread}"


def test_library_modules_import_at_module_level():
    nested = {}
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and node not in tree.body]
        if lines:
            nested[path.name] = lines
    assert not nested, f"imports below module level (file: lines): {nested}"
