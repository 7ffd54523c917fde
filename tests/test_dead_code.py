"""Dead-code guard over the package source, read with the standard ast module:
an import a module never uses, or a private helper that nothing in the package
calls, is code that only tests or nothing keep alive."""
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
