"""Every raise in src/mbfun names an error type that `cli.main` reports.

Bad input is a ValueError and exits 2, and so is an
argparse.ArgumentTypeError, which argparse turns into a usage error; a
CapabilityError (the bounds were not enough) and a CertificationError (an
internal check failed: a bug) exit 1.  A raise of any other type would end
in a traceback, so an internal check raises CertificationError, never
AssertionError or ArithmeticError.

Each raise is parsed with ast and its type looked up by name in its
module.  EXEMPT lists the raises of another type, each with why it stays;
an entry fails the second test once its raise is gone, so that the list
only shrinks.
"""

import argparse
import ast
import builtins
import importlib
from pathlib import Path

from mbfun.errors import CapabilityError, CertificationError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mbfun"

ALLOWED = (ValueError, CapabilityError, CertificationError, argparse.ArgumentTypeError)

# (module, enclosing function, type) -> why the raise keeps its type
EXEMPT = {
    ("rationals", "Q", "TypeError"):
        "a float is no exact rational; only code, never an input, passes one",
    ("multipoly", "divmod_single", "ZeroDivisionError"):
        "division by the zero polynomial, Python's own error for a zero divisor",
}


def dotted(node):
    """'a.b.C' for the expression a.b.C, None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def raises():
    """(module, enclosing function, type name, type, line) for each raise
    of a named type in the package; type is None when the name does not
    resolve in its module."""
    found = []

    def visit(node, module, namespace, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, namespace, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = dotted(exc)
                obj = None
                if name is not None:
                    head, *rest = name.split(".")
                    obj = namespace.get(head, getattr(builtins, head, None))
                    for attr in rest:
                        obj = getattr(obj, attr, None)
                found.append((module, function, name, obj, child.lineno))
            visit(child, module, namespace, function)

    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        namespace = vars(importlib.import_module(f"mbfun.{module}"))
        visit(ast.parse(path.read_text()), module, namespace, None)
    return found


def test_every_raise_names_a_reported_type():
    offenders = [
        f"{module}.py:{line} raises {name} in {function}"
        for module, function, name, obj, line in raises()
        if (module, function, name) not in EXEMPT
        and not (isinstance(obj, type) and issubclass(obj, ALLOWED))
    ]
    assert not offenders, offenders


def test_every_exemption_is_still_raised():
    seen = {(module, function, name) for module, function, name, _, _ in raises()}
    assert not set(EXEMPT) - seen
