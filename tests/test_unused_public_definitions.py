"""Every public function, method and class in src/mbfun is named somewhere.

A public definition that nothing in the package, its tests or its
benchmark names is dead code.  Each file under src/, tests/ and
perfbench/ is parsed with ast; a name counts where it is a Name, an
attribute, an imported name, or part of a dotted-identifier string (as
in `__all__` or the benchmark's tracing table), anywhere outside the
definition itself, so a method that only its own body names still counts
as unused.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mbfun"
SOURCES = sorted(
    path for part in ("src", "tests", "perfbench") for path in (ROOT / part).rglob("*.py")
)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def names_in(node):
    """Multiset of the names that node mentions."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                found.update(sub.value.split("."))
    return found


def public_definitions(tree):
    """Module-level functions and classes, and the methods of those
    classes, whose names have no leading underscore."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    yield item


def test_every_public_definition_is_named():
    everywhere = Counter()
    definitions = []   # (module file name, definition node)
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        everywhere += names_in(tree)
        if path.parent == PACKAGE:
            definitions += [(path.name, node) for node in public_definitions(tree)]
    assert definitions
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in definitions
        if everywhere[node.name] == names_in(node)[node.name]
    ]
    assert not unused, "public definitions that nothing names: " + ", ".join(unused)
