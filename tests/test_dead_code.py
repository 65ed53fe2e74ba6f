"""``src/tokengate`` keeps only code that the library runs, and README's
Layout table lists every module.

Every module-level function and class, and every method, must be named
somewhere in the package outside its own definition, or, at module level,
be exported in ``tokengate.__all__``.  Every module-level constant must be
named outside its own assignment, and every module-level import in its own
module; ``__future__`` imports, dunders and the re-exports that
``tokengate.__all__`` lists are exempt.  Helpers that only tests call live
in ``tests/oracles.py``.  A reference is any name or attribute with that
identifier, so the check is by name: it cannot see which class an
attribute belongs to, and it errs toward passing.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import tokengate

SRC = Path(tokengate.__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _references(node: ast.AST) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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


def _bindings(tree: ast.Module):
    """(name, node, is_import) of each name a module-level import or
    assignment binds, counting those under a module-level ``if`` (such as
    ``TYPE_CHECKING``); ``import a.b`` binds ``a``."""
    body = [*tree.body, *(sub for node in tree.body if isinstance(node, ast.If) for sub in node.body)]
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node, False


def unreferenced() -> list[str]:
    trees = _trees()
    total = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualified, node, exportable in _definitions(tree):
            name = node.name
            if _is_dunder(name):
                continue
            if exportable and name in tokengate.__all__:
                continue
            if total[name] == _references(node)[name]:
                found.append(f"{module}:{qualified}")
    return found


def unused_bindings() -> list[str]:
    """Module-level imports their own module never names, and module-level
    constants no src code names outside their assignment."""
    trees = _trees()
    total = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        own = _references(tree)
        for name, node, is_import in _bindings(tree):
            if _is_dunder(name):
                continue
            if module == "__init__.py" and name in tokengate.__all__:
                continue
            uses = own if is_import else total
            if uses[name] == _references(node)[name]:
                found.append(f"{module}:{name}")
    return found


def test_every_definition_is_used_or_exported():
    assert unreferenced() == []


def test_every_import_and_constant_is_used():
    assert unused_bindings() == []


def test_readme_layout_lists_every_module():
    """README's Layout table has one ``tokengate.<name>`` row per module
    under ``src/tokengate`` except ``__init__``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `tokengate\.(\w+)` \|", readme, re.MULTILINE)
    modules = [path.stem for path in SRC.glob("*.py") if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)
