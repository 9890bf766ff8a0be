"""Source hygiene of the package, by a scan of its syntax trees.

No linter runs here, so two kinds of leftover are caught by parsing every
module of ``ordent`` with ``ast``: a module-level import that its module
never loads, and a private top-level function, class or constant that no
module of the package loads.  Either is code a removal left behind.
"""

import ast
from pathlib import Path

import pytest

import ordent

PACKAGE = Path(ordent.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loads(tree: ast.Module) -> set[str]:
    """The names a module loads: bare names, attributes of any object, and
    the strings of its ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _private_definitions(tree: ast.Module):
    """(name, line) of each top-level function, class and constant whose name
    is private (one leading underscore, not a dunder)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, ast.Assign):
            targets = [(t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [(node.target.id, node.lineno)]
        else:
            continue
        for name, line in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, line


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_module_import_is_loaded(path):
    tree = _tree(path)
    loads = _loads(tree)
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused = [name for name in bound if name not in loads]
        assert not unused, f"{path.name}:{node.lineno} imports {unused} and never loads them"


def test_every_private_definition_is_loaded():
    loads = set().union(*(_loads(_tree(path)) for path in MODULES))
    unused = [f"{path.name}:{line} {name}" for path in MODULES
              for name, line in _private_definitions(_tree(path)) if name not in loads]
    assert not unused, f"private definitions no module of the package loads: {unused}"
