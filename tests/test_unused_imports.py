"""Every import in src/mbfun sits at module level and is referenced by
its module.

No linter is a dependency of this project, so this is the check: each
module except the package's __init__ is parsed with ast, every name bound
by a module-level import must occur as a name in the module, and no
function or method body may import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mbfun"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def module_level_imports(tree):
    """(bound name, line) for the imports in the module body, including
    those inside top-level try/if blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in module_level_imports(tree)
        if name not in used
    ]
    assert not unused, "unused imports: " + ", ".join(unused)


def function_level_imports(tree):
    """(line, imported names) for each import inside a function or method
    body, nested functions included."""
    found = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found[node.lineno] = ",".join(alias.name for alias in node.names)
    return sorted(found.items())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [f"{path.name}:{line} {names}" for line, names in function_level_imports(tree)]
    assert not local, "imports inside functions: " + ", ".join(local)
