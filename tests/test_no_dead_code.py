"""Every public function, method and class of the library, and of the
dense test reference `dense_reference.py`, has a caller.

A function counts as used when its name is read, as a plain name or as
an attribute, anywhere in the library, the tests or the benchmark; a
method counts only when read as an attribute, and a classmethod only
when read off its class by name (`Matrix.zeros`), so that an instance
attribute of the same name (`H.diagonal`) does not vouch for a
classmethod `Matrix.diagonal`.  Definitions, assignment
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
# modules whose public names need a caller: the library and the dense
# reference moved out of it, so that moved code cannot rot in the tests
DEFINING = (*sorted(LIBRARY.glob("*.py")),
            ROOT / "tests" / "dense_reference.py")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_classmethod(node):
    return any(isinstance(d, ast.Name) and d.id == "classmethod"
               for d in node.decorator_list)


def _public_definitions():
    """(where, name, owner) for every public function and method: owner
    is None for a function, "" for a method, and the class name for a
    classmethod."""
    for path in DEFINING:
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) \
                            and not item.name.startswith("_"):
                        owner = node.name if _is_classmethod(item) else ""
                        yield (f"{path.name}:{node.name}.{item.name}",
                               item.name, owner)
            elif isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                yield f"{path.name}:{node.name}", node.name, None


def _references():
    """(names read, attributes read, (name, attribute) pairs read as
    `name.attribute`) across the searched trees."""
    loads, attrs, qualified = set(), set(), set()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name):
                    loads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                    if isinstance(node.value, ast.Name):
                        qualified.add((node.value.id, node.attr))
    return loads, attrs, qualified


def test_every_public_function_has_a_caller():
    loads, attrs, qualified = _references()

    def used(name, owner):
        if owner:
            return (owner, name) in qualified
        return name in attrs or (owner is None and name in loads)

    dead = [where for where, name, owner in _public_definitions()
            if not used(name, owner)]
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
    """(where, name) for every public class of the defining modules."""
    for path in DEFINING:
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
