"""Every public function, method and class of the library, and of the
dense test reference `dense_reference.py`, has a caller.

A function counts as used when its name is read, as a plain name or as
an attribute, anywhere in the library, the tests or the benchmark; a
method counts only when read as an attribute, and a classmethod only
when read off its class by name (`Matrix.zeros`), so that an instance
attribute of the same name (`H.doubled`) does not vouch for a
classmethod `Matrix.doubled`.  Definitions, assignment
targets and imports do not count: a local variable that shares a
method's name does not vouch for it, and a name that is only
re-exported is still dead.  A class counts as used when its name is
read outside its own body, so a class that only builds itself is dead.

Likewise every name a library module imports is read in that module,
and imported at module level, where the import graph shows it; only
`__init__.py` imports to re-export.

Every parameter default of a library function, nested functions
included, is overridden by some call, by keyword or by position: a
default that no call changes is a constant, not a knob.

The library exports only what it runs: every public function, method
and class of the library is reached by the same analysis over the
library and the benchmark alone (its tests aside), unless it is listed
in `PAPER_CONTENT` with the paper criterion or ROADMAP item that needs
it.  A listed name that gains a runtime caller must leave the list.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "goodgradings"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
# the library and the benchmark, without the benchmark's tests
RUNTIME = tuple(path for top in (ROOT / "src", ROOT / "perfbench")
                for path in top.rglob("*.py")
                if not path.name.startswith("test_"))
# public names that no runtime path reaches, kept for what needs them
PAPER_CONTENT = {
    "partitions.py:partitions":
        "lists the gl orbits for criteria 1, 4 and 9 and the equivalence "
        "fixture",
    "partitions.py:symplectic_partitions":
        "lists the sp orbits for criteria 5 and 9 and the equivalence "
        "fixture",
    "partitions.py:orthogonal_partitions":
        "lists the so orbits for criteria 6 and 9 and the equivalence "
        "fixture",
    "pyramids.py:unimodal_compositions": "paper content: criterion 3",
    "pyramids.py:unimodal_to_pyramid": "paper content: criterion 3",
    "pyramids.py:pyramid_to_unimodal": "paper content: criterion 3",
    "gradings.py:check_duality_form":
        "criterion 9; ROADMAP item 4 emits it as a certificate",
    "gradings.py:check_torus_weights":
        "criterion 9; ROADMAP item 4 emits it as a certificate",
    "algebras.py:ad_coordinate_matrix":
        "traced by the benchmark (bench_trace.TRACED) until ROADMAP item 8",
}
# modules whose public names need a caller: the library and the dense
# reference moved out of it, so that moved code cannot rot in the tests
DEFINING = (*sorted(LIBRARY.glob("*.py")),
            ROOT / "tests" / "dense_reference.py")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.cache
def _parse(path):
    # one tree per file, so that its nodes can be named across calls
    return ast.parse(path.read_text(), filename=str(path))


def _is_classmethod(node):
    return any(isinstance(d, ast.Name) and d.id == "classmethod"
               for d in node.decorator_list)


def _public_definitions(paths):
    """(where, name, owner, node) for every public function and method
    of the modules: owner is None for a function, "" for a method, and
    the class name for a classmethod."""
    for path in paths:
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) \
                            and not item.name.startswith("_"):
                        owner = node.name if _is_classmethod(item) else ""
                        yield (f"{path.name}:{node.name}.{item.name}",
                               item.name, owner, item)
            elif isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                yield f"{path.name}:{node.name}", node.name, None, node


def _public_classes(paths):
    """(where, name, node) for every public class of the modules."""
    for path in paths:
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                yield f"{path.name}:{node.name}", node.name, node


def _searched():
    return [path for top in SEARCHED for path in top.rglob("*.py")]


def _walk(tree, pruned):
    """`ast.walk`, except below the nodes in pruned."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(c for c in ast.iter_child_nodes(node) if c not in pruned)


def _uncalled(definitions, paths, pruned=frozenset()):
    """The definitions, as from `_public_definitions`, that no file of
    paths reads outside the pruned nodes: a function as a plain name or
    an attribute, a method as an attribute, a classmethod as
    `Owner.name`."""
    loads, attrs, qualified = set(), set(), set()
    for path in paths:
        for node in _walk(_parse(path), pruned):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add((node.value.id, node.attr))

    def used(name, owner):
        if owner:
            return (owner, name) in qualified
        return name in attrs or (owner is None and name in loads)

    return [where for where, name, owner, _ in definitions
            if not used(name, owner)]


def test_every_public_function_has_a_caller():
    dead = _uncalled(list(_public_definitions(DEFINING)), _searched())
    assert not dead, f"public functions with no caller: {dead}"


class _ReadsOutsideOwnClass(ast.NodeVisitor):
    """Names read, as a plain name or an attribute, except inside the
    body of a class of that name and below the pruned nodes."""

    def __init__(self, pruned):
        self.read, self.inside, self.pruned = set(), [], pruned

    def visit(self, node):
        if node not in self.pruned:
            super().visit(node)

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


def _unread_classes(classes, paths, pruned=frozenset()):
    """The classes, as from `_public_classes`, that no file of paths
    reads outside the class's own body and the pruned nodes."""
    reads = _ReadsOutsideOwnClass(pruned)
    for path in paths:
        reads.visit(_parse(path))
    return [where for where, name, _ in classes if name not in reads.read]


def test_every_public_class_is_read():
    dead = _unread_classes(list(_public_classes(DEFINING)), _searched())
    assert not dead, f"public classes never read: {dead}"


def test_every_public_name_has_a_runtime_caller():
    # a read inside a name no runtime path reaches does not reach either,
    # so the unreached names grow until no read is left to prune
    library = sorted(LIBRARY.glob("*.py"))
    functions = list(_public_definitions(library))
    classes = list(_public_classes(library))
    nodes = {where: node for where, *_, node in functions + classes}
    unreached, grown = set(), True
    while grown:
        pruned = {nodes[where] for where in unreached}
        found = set(_uncalled(functions, RUNTIME, pruned)) \
            | set(_unread_classes(classes, RUNTIME, pruned))
        unreached, grown = found, found != unreached
    test_only = sorted(unreached - set(PAPER_CONTENT))
    assert not test_only, f"public names only tests reach: {test_only}"
    stale = sorted(set(PAPER_CONTENT) - unreached)
    assert not stale, f"PAPER_CONTENT names with a runtime caller: {stale}"


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


def _defaulted_parameters(tree, prefix=""):
    """(qualified function name, name, parameter, position) for every
    parameter with a default of every function in the tree, nested ones
    included.  position is the index a positional argument of a call
    fills, not counting the `self` of a method, or None for a
    keyword-only parameter."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, FUNCTIONS):
            where = f"{prefix}{node.name}"
            bound = isinstance(tree, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            args = node.args
            positional = args.posonlyargs + args.args
            for k in range(len(positional) - len(args.defaults),
                           len(positional)):
                yield where, node.name, positional[k].arg, k - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield where, node.name, arg.arg, None
            yield from _defaulted_parameters(node, f"{where}.")
        elif isinstance(node, ast.ClassDef):
            yield from _defaulted_parameters(node, f"{prefix}{node.name}.")
        else:
            yield from _defaulted_parameters(node, prefix)


def _passes(call, parameter, position):
    """Whether a call passes the parameter, by keyword or by position
    (a `*args` or `**kwargs` in the call may pass anything)."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_parameter_default_is_overridden_somewhere():
    # a default that no call overrides is a knob without behaviour: the
    # parameter is a constant
    calls = {}
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) \
                        else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    dead = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for where, name, parameter, position in _defaulted_parameters(
                _parse(path)):
            if not any(_passes(call, parameter, position)
                       for call in calls.get(name, [])):
                dead.append(f"{path.name}:{where}({parameter})")
    assert not dead, f"parameter defaults no call overrides: {dead}"
