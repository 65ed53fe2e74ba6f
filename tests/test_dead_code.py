"""``src/tokengate`` keeps only code that the library runs.

Every module-level function and class, and every method, must be named
somewhere in the package outside its own definition, or, at module level,
be exported in ``tokengate.__all__``.  Helpers that only tests call live
in ``tests/oracles.py``.  A reference is any name or attribute with that
identifier, so the check is by name: it cannot see which class an
attribute belongs to, and it errs toward passing.
"""

import ast
from collections import Counter
from pathlib import Path

import tokengate

SRC = Path(tokengate.__file__).resolve().parent


def _references(node: ast.AST) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions(tree: ast.Module):
    """(qualified name, node, exportable) of each module-level function or
    class and each method; functions nested in functions are closures."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node, True
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub, False


def unreferenced() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualified, node, exportable in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if exportable and name in tokengate.__all__:
                continue
            if total[name] == _references(node)[name]:
                found.append(f"{module}:{qualified}")
    return found


def test_every_definition_is_used_or_exported():
    assert unreferenced() == []
