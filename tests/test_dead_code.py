"""Dead-code guard over the package source, read with the standard ast module:
an import a module never uses, or a private helper, class, type alias or
constant that nothing in the package reads, is code that only tests or nothing
keep alive."""
import ast
from pathlib import Path

import mlie

_PACKAGE = Path(mlie.__file__).parent
_SOURCES = {path.name: ast.parse(path.read_text()) for path in sorted(_PACKAGE.glob("*.py"))}


def _names(tree: ast.AST) -> set:
    """The names a tree reads: bare names and attribute names."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export
    unused = []
    for module, tree in _SOURCES.items():
        if module == "__init__.py":
            continue
        used = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []


def test_every_private_function_and_method_is_used_in_the_package():
    used = set().union(*(_names(tree) for tree in _SOURCES.values()))
    unused = []
    for module, tree in _SOURCES.items():
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.endswith("__")
                    and node.name not in used
                ):
                    unused.append(f"{module}:{node.lineno} {node.name}")
    assert unused == []


def _reads(tree: ast.AST) -> set:
    """The names a tree reads, not the ones it assigns: loaded bare names and
    attribute names."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _private_module_names(tree: ast.Module):
    """(line, name) of each private class, type alias and constant a module
    defines at its top level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.endswith("__"):
                yield node.lineno, name


def test_every_private_class_alias_and_constant_is_read_in_the_package():
    used = set().union(*(_reads(tree) for tree in _SOURCES.values()))
    unused = [
        f"{module}:{line} {name}"
        for module, tree in _SOURCES.items()
        for line, name in _private_module_names(tree)
        if name not in used
    ]
    assert unused == []
