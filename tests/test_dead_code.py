"""Dead-code guard over the package source, read with the standard ast module:
an import a module never uses, or a private helper, class, type alias or
constant that nothing in the package reads, is code that only tests or nothing
keep alive; and a public name is public for one stated reason (_PUBLIC)."""
import ast
import functools
import re
import tokenize
from collections import Counter
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


def _bound_names(node: ast.stmt) -> list:
    """The names a top-level statement defines: a function's or class's, or
    the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _private_module_names(tree: ast.Module):
    """(line, name) of each private class, type alias and constant a module
    defines at its top level."""
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            for name in _bound_names(node):
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
    # a variant, and the checks decide on stacks: verify builds no Gram
    sites = _sites(lambda node: _calls(node, {"Gram"}))
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


def test_the_frames_are_taken_in_the_metric_pipeline_alone():
    # a gram's frame is taken in one place, curvature._CurvatureFacts, which
    # the metric, the search's settle and verify's verdict checks all run
    frames = _sites(lambda node: _calls(node, {"_frames"}))
    pipeline = next(
        node for node in _SOURCES["curvature.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "_CurvatureFacts"
    )
    inside = [node for node in ast.walk(pipeline) if _calls(node, {"_frames"})]
    assert frames == {"curvature.py:__init__"} and len(inside) == 1


def test_verify_reads_no_layer_of_the_metric_pipeline():
    # frames, nilpotency, centers, subspace classes and null vectors are the
    # pipeline's to decide: verify feeds it draws and reads its results
    layers = {
        "_frames",
        "_lower_central_series",
        "_centers",
        "_form_classes",
        "_isotropic_vectors",
        "_restricted_grams",
    }
    imported = {
        alias.name
        for node in ast.walk(_SOURCES["verify.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported & layers == set()


def _groups_by_key(node: ast.AST) -> bool:
    """A dict.setdefault call, or sorted(…) of a set: the two ways code
    groups items by a key."""
    if _calls(node, {"setdefault"}):
        return True
    return (
        _calls(node, {"sorted"})
        and bool(node.args)
        and (isinstance(node.args[0], ast.SetComp) or _calls(node.args[0], {"set"}))
    )


def test_verify_groups_by_key_in_one_place():
    # the catalog frames, the variant draws, the extension draws and groups
    # and the lemma-fuzz trials are each grouped by verify._grouped, which
    # keeps the order every rng stream is drawn in
    sites = {site for site in _sites(_groups_by_key) if site.startswith("verify.py:")}
    assert sites == {"verify.py:_grouped"}


# ---------------------------------------------------------------------------
# the public surface
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _public_names() -> dict:
    """'module.name' or 'module.Class.method' -> (module, definition node) of
    every public top-level name of the package and every public method,
    classmethod and property of a public class; mlie.__all__ names resolve,
    through __init__.py's imports, to the module that defines them."""
    public = {}
    for module, tree in _SOURCES.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            for name in _bound_names(node):
                if not name.startswith("_"):
                    public[f"{module[:-3]}.{name}"] = module, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        public[f"{module[:-3]}.{node.name}.{method.name}"] = module, method
    exported = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in _SOURCES["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for name in mlie.__all__:
        public.setdefault(exported.get(name, f"mlie.{name}"), ("__init__.py", None))
    return public


def _module_aliases(tree: ast.Module) -> set:
    """The names a module binds to imported modules (np, functools, ...)."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _read_counts(node: ast.AST, aliases: set) -> Counter:
    """How often a tree reads each name: loaded bare names and attribute
    names, but not an attribute of an imported module (np.full is no read of
    a method named full)."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            base = sub.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in aliases):
                reads[sub.attr] += 1
    return reads


@functools.lru_cache(maxsize=None)
def _package_read_counts() -> Counter:
    return sum(
        (
            _read_counts(tree, _module_aliases(tree))
            for module, tree in _SOURCES.items()
            if module != "__init__.py"
        ),
        Counter(),
    )


def _registered(node: ast.AST) -> bool:
    """A check that verify's @_check(name) registers in CHECKS."""
    return isinstance(node, ast.FunctionDef) and any(
        _calls(decorator, {"_check"}) for decorator in node.decorator_list
    )


def _read_by_the_package(name: str) -> bool:
    # a read outside the name's own definition (and outside __init__.py)
    module, node = _public_names()[name]
    bare = name.rpartition(".")[2]
    inside = _read_counts(node, _module_aliases(_SOURCES[module]))[bare] if node else 0
    return _registered(node) or _package_read_counts()[bare] > inside


@functools.lru_cache(maxsize=None)
def _perfbench_text() -> str:
    return "\n".join(path.read_text() for path in sorted((_PACKAGE.parents[1] / "perfbench").glob("*.py")))


def _named_by_perfbench(name: str) -> bool:
    bare = re.escape(name.rpartition(".")[2])
    return re.search(rf"\b{bare}\b", _perfbench_text()) is not None


@functools.lru_cache(maxsize=None)
def _test_reads() -> set:
    # every test module but this one, whose table names every public name
    return set().union(
        *(
            _reads(ast.parse(path.read_text()))
            for path in sorted(Path(__file__).parent.glob("test_*.py"))
            if path.name != Path(__file__).name
        )
    )


def _read_by_the_tests(name: str) -> bool:
    return name.rpartition(".")[2] in _test_reads()


#: why each public name is public, one reason a name:
#: - package: the package's code reads it outside its own definition and
#:   __init__.py; a check that verify.CHECKS registers counts
#: - item 18: perfbench/*.py names it, and only the benchmark PR of ROADMAP
#:   item 18 edits perfbench
#: - paper: its docstring names the paper's object or statement
#: - reference: an independent implementation the tests compare against
#: - item 27: its numbers move into CurvatureReport with ROADMAP item 27
_PUBLIC = {
    "package": (
        "catalog.BRACKET_TABLES", "catalog.DERIVATION_TABLE", "catalog.ALGEBRA_NAMES",
        "catalog.make_algebra", "catalog.table1_derivation", "catalog.MetricVariant",
        "catalog.METRIC_VARIANTS", "catalog.EXAMPLE_TIMELIKE_INDEX", "catalog.make_metric",
        "cli.EXIT_OK", "cli.EXIT_VERIFY_FAILED", "cli.EXIT_INVALID", "cli.EXIT_NOT_APPLICABLE",
        "cli.cmd_ricci", "cli.cmd_catalog", "cli.cmd_double_extend", "cli.cmd_decompose",
        "cli.cmd_verify_paper", "cli.cmd_derivations", "cli.cmd_search", "cli.cmd_classify",
        "cli.main",
        "curvature.VERDICT_TOL", "curvature.Verdict", "curvature.CurvatureReport",
        "curvature.levi_civita_tensors", "curvature.structure_endo_tensors",
        "curvature.j1_j2_operators", "curvature.q_operators", "curvature.q_bracket_operators",
        "curvature.q_bracket_differentials", "curvature.ricci_forms",
        "curvature.ricci_general_forms", "curvature.trace_q_sides", "curvature.ricci_operators",
        "curvature.MetricLieAlgebra", "curvature.MetricLieAlgebra.n",
        "curvature.MetricLieAlgebra.signature", "curvature.MetricLieAlgebra.ricci_operator",
        "curvature.MetricLieAlgebra.einstein_classify",
        "doubleext.ExtensionData", "doubleext.Admissibility", "doubleext.check_admissible",
        "doubleext.extend", "doubleext.Decomposition", "doubleext.decompose",
        "doubleext.guediri_2step",
        "errors.InvalidInput", "errors.NotNilpotent", "errors.NotLie", "errors.NotApplicable",
        "errors.SingularK0", "errors.ConstraintViolation", "errors.DegenerateGram",
        "errors.UnknownName", "errors.BadParams", "errors.ROUTE_MISMATCH",
        "errors.DEGENERATE_GRAM", "errors.is_route_mismatch",
        "fileio.algebra_to_dict", "fileio.dict_to_algebra", "fileio.extension_to_dict",
        "fileio.dict_to_extension", "fileio.write_json", "fileio.read_algebra",
        "fileio.write_algebra", "fileio.read_extension",
        "liealg.LieAlgebra", "liealg.LieAlgebra.from_brackets", "liealg.LieAlgebra.jacobi_defect",
        "liealg.LieAlgebra.require_jacobi", "liealg.LieAlgebra.center",
        "liealg.LieAlgebra.derived_ideal", "liealg.LieAlgebra.lower_central_series",
        "liealg.LieAlgebra.is_nilpotent", "liealg.LieAlgebra.derivation_space",
        "liealg.LieAlgebra.derivation_defect", "liealg.LieAlgebra.find_nonzero_trace_derivation",
        "liealg.derivation_defects", "liealg.act_on_brackets",
        "pseudolin.DEFAULT_TOL", "pseudolin.Signature", "pseudolin.SubspaceTag",
        "pseudolin.SubspaceClass", "pseudolin.Gram", "pseudolin.Gram.from_diagonal",
        "pseudolin.Subspace", "pseudolin.Subspace.column_span",
        "pseudolin.Subspace.dim", "pseudolin.Subspace.ambient_dim", "pseudolin.numerical_rank",
        "pseudolin.nullspace", "pseudolin.signature", "pseudolin.classify_subspace",
        "pseudolin.find_isotropic_in",
        "search.TARGETS", "search.STOP_REASONS", "search.einstein_residual", "search.SearchSpec",
        "search.SearchResult", "search.run_search",
        "verify.EX8_LAMBDA", "verify.CheckResult", "verify.CHECKS",
        "verify.check_classified_ricci_flat", "verify.check_flatness",
        "verify.check_degenerate_center", "verify.check_examples",
        "verify.check_route_equivalence", "verify.check_trace_j1_j2", "verify.check_trace_formula",
        "verify.check_double_extension", "verify.check_guediri", "verify.check_derivations",
        "verify.check_lemma_fuzz", "verify.check_search_regression", "verify.CHECK_NAMES",
        "verify.run_checks", "verify.format_row",
    ),
    "item 18": (
        "curvature.MetricLieAlgebra.curvature_tensor", "curvature.MetricLieAlgebra.j1_j2",
        "curvature.MetricLieAlgebra.ricci_general", "curvature.MetricLieAlgebra.ricci_nilpotent",
        "curvature.MetricLieAlgebra.ricci_via_definition",
        "curvature.MetricLieAlgebra.trace_q_times", "doubleext.model_residual",
        "doubleext.random_admissible", "doubleext.ricci_ebar", "pseudolin.orthonormal_basis",
    ),
    # the solution set of K∘D + D*∘K = 0, and the abelian Euclidean core
    "paper": ("doubleext.kd_generate", "liealg.LieAlgebra.abelian"),
    "reference": (
        "liealg.LieAlgebra.ad", "liealg.LieAlgebra.bracket", "pseudolin.Subspace.contains",
    ),
    "item 27": ("curvature.MetricLieAlgebra.flatness_defect",),
}

#: the reasons a test can decide; paper is read off the docstring by a reviewer
_HOLDS = {
    "package": _read_by_the_package,
    "item 18": _named_by_perfbench,
    "reference": _read_by_the_tests,
}


def test_every_public_name_has_exactly_one_reason():
    # a public name with no entry has no caller and no stated reason: delete
    # it or give it one; an entry whose name is gone goes with it
    listed = Counter(name for names in _PUBLIC.values() for name in names)
    assert sorted(name for name, count in listed.items() if count > 1) == []
    stray = sorted(set(_public_names()) ^ set(listed))
    assert stray == [], stray


def test_every_decidable_reason_still_holds():
    broken = [
        f"{reason}: {name}"
        for reason, holds in _HOLDS.items()
        for name in _PUBLIC[reason]
        if name in _public_names() and not holds(name)
    ]
    assert broken == []
