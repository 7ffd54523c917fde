import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mlie
from mlie import doubleext, fileio, pseudolin, search, verify
from mlie.catalog import ALGEBRA_NAMES, make_algebra
from mlie.curvature import MetricLieAlgebra
from mlie.doubleext import extend, random_admissible
from mlie.errors import InvalidInput, NotLie
from mlie.liealg import LieAlgebra, derivation_defects
from mlie.pseudolin import (
    Gram,
    Subspace,
    classify_subspace,
    find_isotropic_in,
    nullspace,
    signature,
)
from mlie.search import einstein_residual


def heisenberg():
    return LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}})


def test_bracket_antisymmetry_enforced():
    alg = heisenberg()
    assert np.array_equal(alg.bracket([1, 0, 0], [0, 1, 0]), [0.0, 0.0, 1.0])
    assert np.array_equal(alg.bracket([0, 1, 0], [1, 0, 0]), [0.0, 0.0, -1.0])
    # diagonal i=j entries are forced to zero, lower triangle mirrors upper
    assert np.array_equal(alg.c[1, 0], -alg.c[0, 1])
    assert np.all(alg.c[0, 0] == 0.0)


def test_ad_matrix():
    alg = heisenberg()
    ad1 = alg.ad([1.0, 0.0, 0.0])
    assert np.array_equal(ad1 @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0])
    assert np.array_equal(ad1[:, 0], [0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "u, v, message",
    [
        ([1.0, 0.0], [0.0, 1.0], "last axis of length 3"),
        ([1j, 0.0, 0.0], [0.0, 1.0, 0.0], "real entries"),
        ([np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], "non-finite"),
    ],
    ids=["short", "complex", "nan"],
)
def test_bracket_and_ad_refuse_what_is_not_a_vector_of_the_algebra(u, v, message):
    # numpy's broadcast ValueError, a TypeError and a NaN result, before
    alg = make_algebra("L3_2")
    for call in (lambda: alg.bracket(u, v), lambda: alg.bracket(v, u), lambda: alg.ad(u)):
        with pytest.raises(InvalidInput, match=message):
            call()


def test_jacobi_defect_zero_on_catalog():
    for name in ("L3_2", "L4_3", "L5_6", "EX8"):
        assert make_algebra(name).jacobi_defect() < 1e-12


def test_jacobi_defect_positive_and_require():
    # [e1,e2]=e3, [e1,e3]=e1 violates Jacobi
    bad = LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}, (0, 2): {0: 1.0}})
    assert bad.jacobi_defect() > 0.1
    with pytest.raises(NotLie):
        bad.require_jacobi()


def test_require_jacobi_refuses_a_tiny_non_lie_table():
    # [e1,e2] = e2, [e2,e3] = e1 has Jacobi defect 1; the refusal must not
    # depend on the bracket's scale, whose square the defect carries
    bad = LieAlgebra.from_brackets(3, {(0, 1): {1: 1.0}, (1, 2): {0: 1.0}})
    assert bad.jacobi_defect() == 1.0
    with pytest.raises(NotLie):
        LieAlgebra(1e-6 * bad.c).require_jacobi()


def _structure(alg):
    return (
        len(alg.derivation_space()),
        alg.center().dim,
        alg.derived_ideal().dim,
        [s.dim for s in alg.lower_central_series()],
        alg.is_nilpotent(),
    )


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_structure_does_not_change_under_bracket_scaling(name):
    c = make_algebra(name).c
    want = _structure(LieAlgebra(c))
    for s in (1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12):
        assert _structure(LieAlgebra(s * c)) == want, s


def test_from_brackets_validates_indices():
    with pytest.raises(InvalidInput):
        LieAlgebra.from_brackets(3, {(1, 0): {2: 1.0}})
    with pytest.raises(InvalidInput):
        LieAlgebra.from_brackets(3, {(0, 1): {3: 1.0}})


@pytest.mark.parametrize(
    "brackets, message",
    [
        ({(0, 1): {True: 1.0}}, "target index must be an integer, got True"),  # not a mask
        ({(False, True): {2: 1.0}}, "bracket index must be an integer, got False"),
        ({(0, 1): {2.0: 1.0}}, "target index must be an integer, got 2.0"),
        ({(0, 1): [1.0]}, "coefficients of bracket \\(0, 1\\) must be a mapping"),
        ([((0, 1), {2: 1.0})], "brackets must be a mapping"),
        ({0: {2: 1.0}}, "bracket key 0 must be a pair"),
        ({(0, 1, 2): {2: 1.0}}, "bracket key \\(0, 1, 2\\) must be a pair"),
        ({(0, 1): {2: 1j}}, "must have real entries"),
        ({(0, 1): {2: "1.5"}}, "must have real entries"),
        ({(0, 1): {2: True}}, "must have real entries"),
    ],
)
def test_from_brackets_reads_indices_and_coefficients_through_the_shared_readers(brackets, message):
    # a bool, a float or a string is no index or coefficient: refused, not
    # read as a mask, truncated or parsed
    with pytest.raises(InvalidInput, match=message):
        LieAlgebra.from_brackets(3, brackets)


def test_center_and_derived_heisenberg():
    alg = heisenberg()
    z = alg.center()
    d = alg.derived_ideal()
    assert z.dim == 1 and d.dim == 1
    assert z.contains([0.0, 0.0, 1.0])
    assert d.contains([0.0, 0.0, 1.0])


def test_abelian_center_is_everything():
    alg = LieAlgebra.abelian(4)
    assert alg.center().dim == 4
    assert alg.derived_ideal().dim == 0
    assert alg.is_nilpotent()
    # on R there are no basis pairs: the span of the columns of a (1, 0) matrix
    assert LieAlgebra.abelian(1).derived_ideal().basis.shape == (0, 1)


def test_lower_central_series_dims():
    assert [s.dim for s in make_algebra("L4_2").lower_central_series()] == [4, 1, 0]
    assert [s.dim for s in make_algebra("L5_6").lower_central_series()] == [5, 3, 2, 1, 0]


def test_is_nilpotent_computes_the_series_once_per_tol(monkeypatch):
    # an algebra decides at its one tol, so the series is computed once per
    # algebra object; one rebuilt at 1e-7 computes its own
    calls = []
    series = LieAlgebra.lower_central_series

    def counting(self):
        calls.append(self.tol)
        return series(self)

    monkeypatch.setattr(LieAlgebra, "lower_central_series", counting)
    # built fresh: the shared catalog instance may already hold its series
    nilpotent = LieAlgebra(make_algebra("L5_2").c)
    solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1.0}})
    assert [nilpotent.is_nilpotent() for _ in range(3)] == [True] * 3
    assert [solvable.is_nilpotent() for _ in range(3)] == [False] * 3
    assert calls == [1e-9, 1e-9]
    rebuilt = LieAlgebra(nilpotent.c, 1e-7)
    assert rebuilt.is_nilpotent() and calls == [1e-9, 1e-9, 1e-7]


def test_each_structure_subspace_is_decided_by_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    alg = LieAlgebra(make_algebra("L5_6").c)  # fresh: nothing computed yet
    alg.center()
    assert len(calls) == 1
    alg.derived_ideal()
    assert len(calls) == 2
    series = alg.lower_central_series()
    assert [f.dim for f in series] == [5, 3, 2, 1, 0]
    assert len(calls) == 2 + 4  # one per step after g itself
    for fact in (alg.center, alg.derived_ideal, alg.lower_central_series, alg.is_nilpotent):
        fact()  # computed already: no further SVD
    assert len(calls) == 6


def _bases_built_and_rechecked(alg):
    """The structure bases as SVD rows passed through the public, checking
    Subspace constructor: what the library returned before it trusted the
    rows of its own SVDs."""
    n, tol = alg.n, alg.tol
    peak = np.abs(alg.c).max(initial=0.0)
    unit = alg.c / peak if peak else alg.c

    def span(cols):
        u, s, _ = np.linalg.svd(cols)
        rank = np.count_nonzero(s > tol * max(1.0, s[0]))
        return Subspace(u[:, :rank].T, tol).basis

    iu, ju = np.triu_indices(n, k=1)
    series = [np.eye(n)]
    while len(series[-1]):
        nxt = span((series[-1] @ unit).reshape(-1, n).T)
        if len(nxt) == len(series[-1]):
            break
        series.append(nxt)
    units = np.eye(n * n).reshape(n * n, n, n)
    system = derivation_defects(unit, units)[:, iu, ju, :].reshape(n * n, -1).T
    return [
        Subspace(nullspace(unit.transpose(0, 2, 1).reshape(-1, n), tol), tol).basis,
        span(unit[iu, ju, :].T),
        *series,
        nullspace(system, tol).reshape(-1, n, n),
    ]


def _algebras_with_known_bases():
    yield from (make_algebra(name) for name in ALGEBRA_NAMES)
    rng = np.random.default_rng(2027)
    for i in range(20):
        f_dim, blocks = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        yield extend(random_admissible(rng, f_dim, blocks, nilpotent=bool(i % 2))).algebra


def test_structure_bases_are_those_of_the_rechecked_svd_rows():
    for alg in _algebras_with_known_bases():
        got = [
            alg.center().basis,
            alg.derived_ideal().basis,
            *(f.basis for f in alg.lower_central_series()),
            alg.derivation_space(),
        ]
        want = _bases_built_and_rechecked(alg)
        assert [a.shape for a in got] == [a.shape for a in want]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_a_tol_that_is_not_positive_and_finite_is_refused(tol):
    with pytest.raises(InvalidInput, match="positive finite"):
        LieAlgebra(make_algebra("L3_2").c, tol)
    with pytest.raises(InvalidInput, match="positive finite"):
        signature(Gram.from_diagonal([-1.0, 1.0, 0.5]), tol)


#: the only public callables of mlie whose tolerance has a default: the
#: algebra's own, the builders of an algebra, perfbench's signature call and
#: the verdict tolerances; SearchSpec.tol is a convergence threshold
DEFAULTED_TOLS = {
    "LieAlgebra.__init__",
    "extend",
    "guediri_2step",
    "signature",
    "MetricLieAlgebra.einstein_classify",
    "decompose",
    "run_checks",
}


def _public_callables():
    for info in pkgutil.iter_modules(mlie.__path__):
        module = importlib.import_module(f"mlie.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                for key, member in vars(obj).items():
                    if inspect.isfunction(member) and (key == "__init__" or not key.startswith("_")):
                        yield member
                    elif isinstance(member, classmethod):
                        yield member.__func__


def test_the_algebra_is_the_one_tolerance_knob():
    # every structure and metric decision reads the tol its algebra was built with,
    # and every subspace decision the tol its subspace was built with
    methods = [
        LieAlgebra.require_jacobi,
        LieAlgebra.center,
        LieAlgebra.derived_ideal,
        LieAlgebra.lower_central_series,
        LieAlgebra.is_nilpotent,
        LieAlgebra.derivation_space,
        LieAlgebra.find_nonzero_trace_derivation,
        MetricLieAlgebra.__init__,
        einstein_residual,
        Subspace.contains,
        classify_subspace,
        find_isotropic_in,
    ]
    for fn in methods:
        assert "tol" not in inspect.signature(fn).parameters, fn.__qualname__
    assert "tol" in inspect.signature(LieAlgebra.__init__).parameters
    assert "tol" in inspect.signature(Subspace.__init__).parameters

    defaulted = set()
    for fn in _public_callables():
        for param in inspect.signature(fn).parameters.values():
            tol_like = param.name == "tol" or param.name.endswith("_tol")
            if tol_like and param.default is not inspect.Parameter.empty:
                defaulted.add(fn.__qualname__)
    assert defaulted - {"SearchSpec.__init__"} == DEFAULTED_TOLS


def test_every_constructor_reads_its_sizes_from_its_arrays():
    # a size is a parameter only where no array carries it
    sizes = {"n", "ambient_dim", "v_dim", "f_dim", "fperp_dim", "p", "q"}
    for fn in (
        LieAlgebra.__init__,
        Subspace.__init__,
        doubleext.ExtensionData.__init__,
        doubleext.kd_generate,
        doubleext.guediri_2step,
    ):
        assert sizes.isdisjoint(inspect.signature(fn).parameters), fn.__qualname__
    taking = {
        fn.__qualname__
        for fn in _public_callables()
        if not sizes.isdisjoint(inspect.signature(fn).parameters)
    }
    kept = {"LieAlgebra.from_brackets", "LieAlgebra.abelian", "random_admissible"}
    assert taking == kept
    assert "abelian_dim" in inspect.signature(doubleext.guediri_2step).parameters


def test_every_constructor_refuses_arrays_whose_shapes_disagree():
    rot, tol = np.array([[0.0, 1.0], [-1.0, 0.0]]), 1e-9
    refused = {
        r"\(n, n, n\) array, got \(2, 2, 3\)": lambda: LieAlgebra(np.zeros((2, 2, 3))),
        r"\(n, n, n\) array, got \(\)": lambda: LieAlgebra(0.0),
        r"\(k, n\) array of rows": lambda: Subspace([1.0, 0.0], tol),
        "D must have K's shape": lambda: doubleext.ExtensionData(np.zeros((2, 2)), np.zeros((3, 3))),
        "D2 must be f x fperp": lambda: doubleext.kd_generate([[0.0]], [[0.0]], rot, rot, tol),
        "S must be fperp x fperp": lambda: doubleext.kd_generate(
            [[0.0]], [[0.0, 0.0]], rot, np.zeros((3, 3)), tol
        ),
        r"c must be a \(q, p\) matrix": lambda: doubleext.guediri_2step([0.0, 0.0], [1.0, 0.0], rot),
        r"alpha must have shape \(2,\)": lambda: doubleext.guediri_2step([0.0], [[1.0], [0.0]], rot),
        r"a shape \(2, 2\)": lambda: doubleext.guediri_2step([0.0, 0.0], [[1.0], [0.0]], np.eye(3)),
    }
    for message, build in refused.items():
        with pytest.raises(InvalidInput, match=message):
            build()


def test_a_negative_size_is_refused_where_it_enters():
    rng = np.random.default_rng(0)
    refused = [
        ("n must be nonnegative, got -1", lambda: LieAlgebra.abelian(-1)),
        ("n must be nonnegative, got -2", lambda: LieAlgebra.from_brackets(-2, {})),
        ("f_dim must be nonnegative, got -1", lambda: random_admissible(rng, f_dim=-1)),
        ("blocks must be nonnegative, got -1", lambda: random_admissible(rng, blocks=-1)),
        # a size that is not an integer, a bool included, is refused, not
        # truncated or read as 1/0
        ("n must be an integer, got 2.5", lambda: LieAlgebra.abelian(2.5)),
        ("n must be an integer, got True", lambda: LieAlgebra.abelian(True)),
        ("n must be an integer, got 2.5", lambda: LieAlgebra.from_brackets(2.5, {})),
        ("f_dim must be an integer, got 1.5", lambda: random_admissible(rng, f_dim=1.5)),
        (
            "abelian_dim must be an integer, got 1.7",
            lambda: doubleext.guediri_2step(
                np.zeros(2), [[1.0], [0.0]], [[0.0, 1.0], [-1.0, 0.0]], abelian_dim=1.7
            ),
        ),
    ]
    for message, build in refused:
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            build()


#: every way to ask for an algebra of dimension 0
_ZERO_DIMENSIONAL = {
    "LieAlgebra": lambda: LieAlgebra(np.zeros((0, 0, 0))),
    "LieAlgebra.abelian": lambda: LieAlgebra.abelian(0),
    "LieAlgebra.from_brackets": lambda: LieAlgebra.from_brackets(0, {}),
}


@pytest.mark.parametrize("constructor", list(_ZERO_DIMENSIONAL))
def test_a_zero_dimensional_algebra_is_refused_where_it_enters(constructor):
    # as the file reader refuses dim 0: its metric's verdict, its derivations
    # and a search on it would otherwise fail later with a bare numpy or
    # Python error
    with pytest.raises(InvalidInput, match="^a Lie algebra must have dimension n >= 1, got 0$"):
        _ZERO_DIMENSIONAL[constructor]()


def test_a_zero_dimensional_gram_and_subspace_stay_valid():
    # a center can be 0-dimensional, and so can the form restricted to it
    assert len(Gram(np.zeros((0, 0))).mat) == 0
    assert Subspace(np.eye(0), 1e-9).dim == 0
    center = LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}, (0, 2): {1: 1.0}}).center()
    assert center.dim == 0
    assert classify_subspace(Gram(np.eye(3)), center).tag is pseudolin.SubspaceTag.EUCLIDEAN


def _tol_entry_points():
    """qualified name -> a call of it on a minimal valid input, at a given tol,
    for every public callable of mlie that takes a tol; each verify check is
    called itself, as registered in CHECKS, and run_checks through one check."""
    eye, rot = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
    data = doubleext.ExtensionData(np.zeros((2, 2)), np.zeros((2, 2)))
    data_file = str(Path(__file__).parent / "data" / "l58_route_mismatch.json")
    entries = {
        "LieAlgebra.__init__": lambda tol: LieAlgebra(np.zeros((1, 1, 1)), tol),
        "MetricLieAlgebra.einstein_classify": lambda tol: MetricLieAlgebra(
            heisenberg(), Gram(np.eye(3))
        ).einstein_classify(tol),
        "check_admissible": lambda tol: doubleext.check_admissible(data, tol),
        "extend": lambda tol: doubleext.extend(data, tol),
        "decompose": lambda tol: doubleext.decompose(doubleext.extend(data), tol),
        "kd_generate": lambda tol: doubleext.kd_generate(
            [[0.0]], [[0.0, 0.0]], rot, np.zeros((2, 2)), tol
        ),
        "guediri_2step": lambda tol: doubleext.guediri_2step(
            [0.0, 0.0], [[1.0], [0.0]], -rot, tol=tol
        ),
        "dict_to_algebra": lambda tol: fileio.dict_to_algebra({"dim": 1}, tol),
        "read_algebra": lambda tol: fileio.read_algebra(data_file, tol),
        "Subspace.__init__": lambda tol: Subspace([[1.0, 0.0]], tol),
        "Subspace.column_span": lambda tol: Subspace.column_span(eye, tol),
        "numerical_rank": lambda tol: pseudolin.numerical_rank(np.zeros((0, 2)), tol),
        "nullspace": lambda tol: pseudolin.nullspace(np.zeros((0, 2)), tol),
        "signature": lambda tol: signature(Gram(eye), tol),
        "orthonormal_basis": lambda tol: pseudolin.orthonormal_basis(Gram(eye), tol),
        "SearchSpec.__init__": lambda tol: search.SearchSpec(make_algebra("L3_2"), tol=tol),
        "run_checks": lambda tol: verify.run_checks(["derivations"], tol),
    }
    for check in verify.CHECKS.values():
        entries[check.__qualname__] = check
    return entries


@pytest.mark.parametrize(
    "tol", [0.0, -1e-9, float("nan"), float("inf"), True, np.True_, "1e-9", None, 1e-9j, [1e-9]]
)
def test_every_tol_is_refused_where_it_enters(tol):
    entries = _tol_entry_points()
    taking = set()
    for fn in _public_callables():
        name = fn.__qualname__
        if name.rpartition(".")[2].startswith("_") and not name.endswith("__init__"):
            continue
        params = inspect.signature(fn).parameters
        if any(p == "tol" or p.endswith("_tol") for p in params):
            taking.add(name)
    assert taking - set(entries) == set(), "tol-taking callables with no entry"
    for name in sorted(taking):
        with pytest.raises(InvalidInput, match=r"^tol must be a positive finite number$"):
            entries[name](tol)


def test_every_tol_entry_runs_at_a_valid_tol():
    # every check runs at a valid tol in test_acceptance
    for name, call in _tol_entry_points().items():
        if not name.startswith("check_"):
            call(1e-9)


def test_not_nilpotent_solvable_example():
    # [e1,e2] = e2 is solvable but not nilpotent
    alg = LieAlgebra.from_brackets(2, {(0, 1): {1: 1.0}})
    assert not alg.is_nilpotent()


def test_derivation_space_heisenberg_dimension():
    # derivations of the Heisenberg algebra form a 6-dimensional space
    basis = heisenberg().derivation_space()
    assert len(basis) == 6
    for der in basis:
        assert heisenberg().derivation_defect(der) < 1e-9


@pytest.mark.parametrize("e", [np.ones(3), 1.0, np.eye(2), np.ones((2, 4, 4))])
def test_derivation_defect_refuses_what_is_not_a_matrix_of_the_algebra(e):
    refusal = r"^E must be a matrix of shape \(3, 3\) or a stack of them, got shape"
    with pytest.raises(InvalidInput, match=refusal):
        make_algebra("L3_2").derivation_defect(e)


def test_derivation_defect_discriminates():
    alg = heisenberg()
    good = np.diag([1.0, 1.0, 2.0])
    assert alg.derivation_defect(good) < 1e-14
    bad = np.diag([1.0, 1.0, 1.0])
    assert alg.derivation_defect(bad) == pytest.approx(1.0)


def test_find_nonzero_trace_derivation():
    der = heisenberg().find_nonzero_trace_derivation()
    assert der is not None
    assert isinstance(der, np.ndarray) and der.shape == (3, 3)
    assert not der.flags.writeable
    assert abs(np.trace(der)) > 1e-6
    assert heisenberg().derivation_defect(der) < 1e-9


def test_ad_is_derivation():
    rng = np.random.default_rng(3)
    alg = make_algebra("L5_8")
    for _ in range(10):
        u = rng.normal(size=5)
        assert alg.derivation_defect(alg.ad(u)) < 1e-12


def test_ad_of_a_stack_is_the_stack_of_ad():
    rng = np.random.default_rng(5)
    alg = make_algebra("EX7")
    us = rng.normal(size=(2, 3, alg.n))
    stacked = alg.ad(us)
    assert stacked.shape == (2, 3, alg.n, alg.n)
    for u, ad_u in zip(us.reshape(-1, alg.n), stacked.reshape(-1, alg.n, alg.n)):
        assert np.allclose(ad_u, alg.ad(u), rtol=0.0, atol=1e-14)
    for i, ad_i in enumerate(alg.ad(np.eye(alg.n))):
        assert np.array_equal(ad_i, alg.c[i].T)


def test_derivation_defects_of_a_stack_is_the_stack_of_defects():
    rng = np.random.default_rng(6)
    alg = make_algebra("L5_8")
    n = alg.n
    es = rng.normal(size=(4, n, n))
    stacked = derivation_defects(alg.c, es)
    assert stacked.shape == (4, n, n, n)
    for e, d in zip(es, stacked):
        assert np.allclose(d, derivation_defects(alg.c, e), rtol=0.0, atol=1e-14)
        # d[i,j] = E[e_i,e_j] − [Ee_i,e_j] − [e_i,Ee_j], pair by pair
        for i in range(n):
            for j in range(n):
                want = (
                    e @ alg.bracket(np.eye(n)[i], np.eye(n)[j])
                    - alg.bracket(e[:, i], np.eye(n)[j])
                    - alg.bracket(np.eye(n)[i], e[:, j])
                )
                assert np.allclose(d[i, j], want, rtol=0.0, atol=1e-13)


def test_each_basis_change_inverts_once_where_its_factors_are_made():
    # act_on_brackets(A, B, c) takes B = A⁻¹ from its caller, so the package
    # inverts only where a stack of factors is made, once each, and keeps no
    # second entry point that inverts for its caller
    inverses, acts = Counter(), []
    for path in sorted(Path(mlie.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for fn in (node for scope in scopes for node in scope.body):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.linalg.inv":
                        inverses[path.stem, fn.name] += 1
        acts += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.FunctionDef) and node.name == "_act")
            or (isinstance(node, ast.alias) and node.name == "_act")
        ]
    made = [("search", "_forward"), ("verify", "_catalog_frames"), ("doubleext", "_model_residuals")]
    assert inverses == Counter(made)
    assert acts == []
    assert list(inspect.signature(mlie.liealg.act_on_brackets).parameters) == ["a", "b", "c"]
