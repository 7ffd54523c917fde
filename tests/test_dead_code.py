"""Dead-code guard over the package source, read with the standard ast module:
an import a module never uses, or a private helper, class, type alias or
constant that nothing in the package reads, is code that only tests or nothing
keep alive."""
import ast
import re
import tokenize
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


def test_every_method_of_a_private_class_is_used_in_the_package():
    # a private class is no public interface, so its public-named methods
    # need a reader in the package too
    used = set().union(*(_names(tree) for tree in _SOURCES.values()))
    unused = [
        f"{module}:{node.lineno} {scope.name}.{node.name}"
        for module, tree in _SOURCES.items()
        for scope in tree.body
        if isinstance(scope, ast.ClassDef) and scope.name.startswith("_")
        for node in scope.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
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


#: a private name cited in prose: `_name`, `module._name` or `(_name`, not a
#: math subscript such as |λ|_max, ‖X‖_F or e_k, whose `_` follows a symbol or
#: a letter
_CITED = re.compile(r"(?:(?<=[\s.(\[,`])|^)(_[A-Za-z]\w*)", re.MULTILINE)


def _defined_names() -> set:
    """Every name the package's code defines or reads: functions, classes,
    arguments, bare names and attributes."""
    names = set()
    for tree in _SOURCES.values():
        names |= _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
    return names


def _stale(text: str, where: str, defined: set) -> list:
    return sorted(
        {f"{where} {name}" for name in _CITED.findall(text) if not name.endswith("__")} - {
            f"{where} {name}" for name in defined
        }
    )


def test_every_private_name_the_readme_cites_exists_in_the_package():
    readme = (_PACKAGE.parents[1] / "README.md").read_text()
    spans = "\n".join(re.findall(r"`([^`\n]+)`", readme))
    assert _stale(spans, "README.md", _defined_names()) == []


def _prose(path: Path) -> str:
    """The docstrings and comments of a module."""
    tree = _SOURCES[path.name]
    docs = [
        ast.get_docstring(node) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
    ]
    with path.open() as source:
        comments = [
            token.string
            for token in tokenize.generate_tokens(source.readline)
            if token.type == tokenize.COMMENT
        ]
    return "\n".join(docs + comments)


def test_every_private_name_a_docstring_or_comment_cites_exists_in_the_package():
    defined = _defined_names()
    stale = [
        entry
        for path in sorted(_PACKAGE.glob("*.py"))
        for entry in _stale(_prose(path), path.name, defined)
    ]
    assert stale == []


def _sites(match) -> set:
    """'module:function' of every node of the package source that match
    accepts, named by the innermost function it lies in."""
    sites = set()

    def visit(node: ast.AST, module: str, where: str) -> None:
        if match(node):
            sites.add(f"{module}:{where}")
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            visit(child, module, inner)

    for module, tree in _SOURCES.items():
        visit(tree, module, "<module>")
    return sites


def _is_transpose_of(node: ast.AST, x: ast.AST) -> bool:
    """Whether node is xᵀ written as x.T, x.swapaxes(…), x.transpose(…),
    np.swapaxes(x, …) or np.transpose(x, …)."""
    same = ast.dump(x)
    if isinstance(node, ast.Attribute):
        return node.attr == "T" and ast.dump(node.value) == same
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr not in ("swapaxes", "transpose"):
        return False
    owner = node.func.value
    if ast.dump(owner) == same:
        return True
    numpy_call = isinstance(owner, ast.Name) and owner.id == "np" and bool(node.args)
    return numpy_call and ast.dump(node.args[0]) == same


def _is_symmetrization(node: ast.AST) -> bool:
    """(x + xᵀ) / 2, for any expression x."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Add)
        and _is_transpose_of(node.left.right, node.left.left)
    )


def _is_max_over_axes(node: ast.AST) -> bool:
    """A .max(…) call with an axis= keyword, a method's or numpy's."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "max"
        and any(keyword.arg == "axis" for keyword in node.keywords)
    )


def _calls(node: ast.AST, names: set) -> bool:
    """A call of one of the names, bare or as an attribute (np.linalg.eigh,
    linalg.eigh and a bare eigh are each a call of eigh)."""
    func = node.func if isinstance(node, ast.Call) else None
    return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in names


def _is_eigensolve(node: ast.AST) -> bool:
    """A call of numpy's eigh, eigvalsh, eig or eigvals, in any spelling."""
    return _calls(node, {"eigh", "eigvalsh", "eig", "eigvals"})


def test_a_symmetrization_is_written_once():
    # (M + Mᵀ)/2 of a matrix or a stack is pseudolin._symmetrized
    assert _sites(_is_symmetrization) == {"pseudolin.py:_symmetrized"}


def test_a_maximum_over_axes_is_written_once():
    # a per-member maximum of a stack is pseudolin._peaks; the one max over
    # axes left is liealg._unit's, which keeps its axes to divide each
    # bracket by its own peak
    assert _sites(_is_max_over_axes) == {"liealg.py:_unit"}


def test_an_eigendecomposition_is_written_once():
    # every inertia decision (signature, the subspace classes, the isotropic
    # vectors, the metrics' frames) reads pseudolin._orthonormal_bases, so
    # no two of them can disagree on one gram
    assert _sites(_is_eigensolve) == {"pseudolin.py:_orthonormal_bases"}


def _is_restriction(node: ast.AST) -> bool:
    """x @ G @ xᵀ, for any expressions x and G."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.MatMult)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.MatMult)
        and _is_transpose_of(node.right, node.left.left)
    )


def test_a_restricted_form_is_written_once():
    # Z·G·Zᵀ of a subspace's rows Z, for every subspace class, isotropic
    # vector and restricted gram, is pseudolin._restricted_grams
    assert _sites(_is_restriction) == {"pseudolin.py:_restricted_grams"}


def _raises_ambient_mismatch(node: ast.AST) -> bool:
    """A raise whose exception carries the ambient-dimension message."""
    return isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant)
        and part.value == "subspace ambient dimension does not match gram size"
        for part in ast.walk(node)
    )


def test_a_subspace_of_another_ambient_dimension_is_refused_in_one_place():
    assert _sites(_raises_ambient_mismatch) == {"pseudolin.py:_restricted_grams"}


def _binds_a_row(node: ast.AST) -> bool:
    """An assignment to a name `failures` or `worst…`: a check's own failure
    list or residual."""
    return (
        isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and (node.id == "failures" or node.id.startswith("worst"))
    )


def test_only_check_collects_a_row_s_failures_and_residual():
    # a row's failures are ordered and its residual taken in verify._check
    binders = {
        node.name
        for node in _SOURCES["verify.py"].body
        if isinstance(node, ast.FunctionDef) and any(map(_binds_a_row, ast.walk(node)))
    }
    assert binders == {"_check"}


def _is_mean_trace(node: ast.AST) -> bool:
    """A trace divided by something: x.trace(…) / n, np.trace(x, …) / n or an
    einsum of a diagonal ("mii->m") / n."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    call = node.left
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
        return False
    if call.func.attr == "trace":
        return True
    subscripts = call.args[0] if call.args else None
    return (
        call.func.attr == "einsum"
        and isinstance(subscripts, ast.Constant)
        and re.search(r"(\w)\1->", str(subscripts.value)) is not None
    )


def test_the_einstein_constant_is_written_once():
    # λ̂ = tr(Ric)/n of the verdict and the search is curvature._einstein_deviations;
    # verify's EX8 reading stays its own, an independent check
    sites = {site for site in _sites(_is_mean_trace) if not site.startswith("verify.py:")}
    assert sites == {"curvature.py:_einstein_deviations"}


def test_the_held_central_vector_is_chosen_in_doubleext_alone():
    # the search reads doubleext._double_extension_reading and decides no
    # structure fact of its own, and doubleext's tests need no search
    assert not {"center", "derived_ideal", "_admissible_forms"} & _names(_SOURCES["search.py"])
    tests = ast.parse((Path(__file__).parent / "test_doubleext.py").read_text())
    modules = set()
    for node in ast.walk(tests):
        if isinstance(node, ast.ImportFrom):
            modules |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
    assert "mlie.search" not in modules


def test_verify_builds_no_gram_per_draw():
    # the variant draws take their grams from catalog._variant_grams, one call
    # a variant, and the checks decide on stacks: verify builds no Gram and
    # takes no gram from catalog._metric_gram
    sites = _sites(lambda node: _calls(node, {"Gram", "_metric_gram"}))
    assert {site for site in sites if site.startswith("verify.py:")} == set()


def _writes_matrix_slots(node: ast.AST) -> bool:
    """An assignment to a subscript with two or more indices, x[i, j] = …"""
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Subscript)
        and isinstance(target.slice, ast.Tuple)
        and len(target.slice.elts) >= 2
        for target in node.targets
    )


def test_the_catalog_writes_a_gram_s_slots_in_one_place():
    # every variant's build returns its slots, and catalog._variant_grams
    # writes them, for a stack of parameter sets or make_metric's one
    sites = {site for site in _sites(_writes_matrix_slots) if site.startswith("catalog.py:")}
    assert sites == {"catalog.py:_variant_grams"}
