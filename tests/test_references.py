"""Every public definition in the package has a caller in the package.

A public module-level function or class that nothing in ``src/`` names is
a second implementation or a stale helper: it either earns a caller (a
``verify`` check, say) or goes, together with the tests that reach it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isoclifford"


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_definition_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    defined = [(module, name) for module, tree in trees.items()
               for name in _public_definitions(tree)]
    assert defined
    unreferenced = [f"{module}:{name}" for module, name in defined if name not in referenced]
    assert unreferenced == []
