"""Every module-level private function and class in src/mbfun has a caller.

A name with one leading underscore is private to the package, so a
definition that nothing in the package refers to is dead code.  Each
module is parsed with ast; a reference is a Name or an attribute of that
name anywhere in the package outside the definition itself, so that a
helper that only calls itself still counts as unused.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mbfun"
MODULES = sorted(PACKAGE.glob("*.py"))


def names_in(node):
    """Multiset of the Name ids and attribute names under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_definition_is_referenced():
    everywhere = Counter()
    definitions = []   # (module file name, definition node)
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        everywhere += names_in(tree)
        for node in tree.body:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, kinds) and is_private(node.name):
                definitions.append((path.name, node))
    assert definitions
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in definitions
        if everywhere[node.name] == names_in(node)[node.name]
    ]
    assert not unused, "private definitions without a reference: " + ", ".join(unused)
