"""Every public function and method of the library has a caller.

A definition counts as used when its name appears as a name or as an
attribute anywhere in the library, the tests or the benchmark, other
than in its own `def` line.  Imports do not count: a name that is only
re-exported is still dead.
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
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) \
                            and not item.name.startswith("_"):
                        yield f"{path.name}:{node.name}.{item.name}", item.name
            elif isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                yield f"{path.name}:{node.name}", node.name


def _referenced_names():
    names = set()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    used = _referenced_names()
    dead = [where for where, name in _public_definitions() if name not in used]
    assert not dead, f"public functions with no caller: {dead}"
