"""Every definition and import in the package and its tests has a use.

A public module-level function or class that nothing in ``src/`` names is
a second implementation or a stale helper: it either earns a caller (a
``verify`` check, say) or goes, together with the tests that reach it.
The same holds for a private module-level function, class or constant,
and a module-level import that its module never uses is left over from
code that went.  In ``tests/`` too, every module-level import is read in
its module, and every module-level function or class other than a test
or a fixture is named in some test module: a helper whose tests went
goes with them.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "isoclifford"


def _trees(directory: Path = PACKAGE) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines, imports aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)]
    return []


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _test_helpers(tree: ast.Module) -> list[str]:
    """Module-level functions and classes that are neither tests nor fixtures."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith(("test_", "Test"))
            and not any("fixture" in ast.unparse(d) for d in node.decorator_list)]


def _private_definitions(tree: ast.Module) -> list[str]:
    return [name for node in tree.body for name in _defined_names(node)
            if name.startswith("_") and not name.startswith("__")]


def _read_names(tree: ast.Module) -> set[str]:
    """Names read in ``tree``: a name being assigned is not read."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read in ``tree``, and attributes it names on any object."""
    return _read_names(tree) | {node.attr for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute)}


def _imported_names(tree: ast.Module) -> list[str]:
    """The names the module-level imports of ``tree`` bind."""
    return [alias.asname or alias.name.split(".")[0] for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def _unreferenced(definitions, directory: Path = PACKAGE) -> list[str]:
    trees = _trees(directory)
    referenced = set().union(*map(_referenced_names, trees.values()))
    defined = [(module, name) for module, tree in trees.items() for name in definitions(tree)]
    assert defined
    return [f"{module}:{name}" for module, name in defined if name not in referenced]


def test_every_public_definition_is_referenced_in_the_package():
    assert _unreferenced(_public_definitions) == []


def test_every_private_definition_is_referenced_in_the_package():
    assert _unreferenced(_private_definitions) == []


def test_every_test_helper_is_referenced_in_the_tests():
    assert _unreferenced(_test_helpers, TESTS) == []


def test_every_module_level_import_is_used_by_its_module():
    unused = [f"{directory.name}/{module}:{name}" for directory in (PACKAGE, TESTS)
              for module, tree in _trees(directory).items()
              for name in _imported_names(tree) if name not in _read_names(tree)]
    assert unused == []
