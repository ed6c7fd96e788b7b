"""Every definition in src/mbfun is reachable by name from a root.

A definition that nothing refers to is dead code, private or public, and
so is one that only tests or the benchmark name: the program never runs
it.  So this asks that the program itself can get to each definition.
That covers what a scan for names would: a private helper that nothing
in the package refers to, or a public function or method that nothing
names outside its own body, is reached from no root either.

The roots are `cli.main`, the names in `mbfun.__all__`, every
module-level statement other than an import or a definition, and
`merobf.b_section_along_t_initial`, the Groebner reference route: tests
compare the engine against it, and the benchmark traces two of the
functions it reaches (`merobf.annihilating_operators` and
`vfiltration.theta_reduce`).

Reachability is by name, parsed with ast.  A definition is a module-level
function or class, or a method of such a class; a nested function is
part of the definition around it.  A reached definition reaches every
definition, in any module, whose name occurs in its body as a Name or an
attribute.  A reached class reaches its dunder methods, which Python
calls itself; its other methods are reached by name like everything else.

KNOWN_UNREACHED would list helpers that only tests call, each with why
it stays; it is empty, since every such helper has left the package and
its tests use the primitives that stay.  A helper only tests call fails
the first test; an entry fails the second once it is deleted or becomes
reachable, so that the list only shrinks.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mbfun"

ROOTS = ("cli.main", "merobf.b_section_along_t_initial")

KNOWN_UNREACHED = {}

KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def is_all(node):
    """True for the statement `__all__ = [...]`."""
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def names_in(nodes):
    """Names and attribute names under the given nodes."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def scan_package():
    """(definitions, root names): definitions maps "module.qualname" to
    (name, the names its reach covers, the keys it reaches directly)."""
    definitions = {}
    root_names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, KINDS):
                root_names |= names_in([node])
                if is_all(node):
                    root_names |= set(ast.literal_eval(node.value))
                continue
            key = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, KINDS)]
                rest = [item for item in node.body if item not in methods]
                rest += node.bases + node.decorator_list + node.keywords
                dunders = [f"{key}.{m.name}" for m in methods if is_dunder(m.name)]
                definitions[key] = (node.name, names_in(rest), dunders)
                for item in methods:
                    definitions[f"{key}.{item.name}"] = (item.name, names_in([item]), [])
            else:
                definitions[key] = (node.name, names_in([node]), [])
    return definitions, root_names


def reached(definitions, root_names):
    by_name = {}
    for key, (name, _, _) in definitions.items():
        by_name.setdefault(name, []).append(key)
    todo = list(ROOTS) + [key for name in root_names for key in by_name.get(name, [])]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        _, names, direct = definitions[key]
        todo += direct
        todo += [k for name in names for k in by_name.get(name, [])]
    return seen


def test_every_definition_is_reachable():
    definitions, root_names = scan_package()
    assert all(root in definitions for root in ROOTS)
    seen = reached(definitions, root_names)
    unreached = sorted(set(definitions) - seen - set(KNOWN_UNREACHED))
    assert not unreached, "definitions no root reaches: " + ", ".join(unreached)


def test_known_unreached_list_only_shrinks():
    definitions, root_names = scan_package()
    seen = reached(definitions, root_names)
    gone = sorted(key for key in KNOWN_UNREACHED if key not in definitions)
    assert not gone, "deleted; take them off KNOWN_UNREACHED: " + ", ".join(gone)
    now = sorted(key for key in KNOWN_UNREACHED if key in seen)
    assert not now, "reachable now; take them off KNOWN_UNREACHED: " + ", ".join(now)
