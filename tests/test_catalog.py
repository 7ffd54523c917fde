import hashlib
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from mlie.catalog import (
    ALGEBRA_NAMES,
    DERIVATION_TABLE,
    METRIC_VARIANTS,
    _variant_grams,
    make_algebra,
    make_metric,
    table1_derivation,
)
from mlie.curvature import Verdict
from mlie.errors import BadParams, UnknownName
from mlie.liealg import LieAlgebra
from mlie.pseudolin import SubspaceTag, classify_subspace


def test_fourteen_names():
    assert len(ALGEBRA_NAMES) == 14
    assert set(DERIVATION_TABLE) <= set(ALGEBRA_NAMES)


def test_all_algebras_are_nilpotent_lie():
    for name in ALGEBRA_NAMES:
        alg = make_algebra(name)
        assert alg.jacobi_defect() < 1e-12, name
        assert alg.is_nilpotent(), name


def test_dimensions():
    dims = {name: make_algebra(name).n for name in ALGEBRA_NAMES}
    assert dims["L3_2"] == 3
    assert dims["L4_2"] == dims["L4_3"] == 4
    assert all(dims[f"L5_{k}"] == 5 for k in range(2, 10))
    assert dims["EX6"] == 6 and dims["EX7"] == 7 and dims["EX8"] == 8


def test_unknown_name_raises():
    with pytest.raises(UnknownName):
        make_algebra("L9_99")


@pytest.mark.parametrize(
    "make, args",
    [
        (make_algebra, ([],)),
        (make_algebra, ({},)),
        (make_metric, ([],)),
        (make_metric, ("L3_2", [], {"alpha": 1.0})),
        (table1_derivation, ([],)),
    ],
)
def test_an_unhashable_name_is_an_unknown_name(make, args):
    with pytest.raises(UnknownName):
        make(*args)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_a_catalog_algebra_is_shared_and_hands_out_only_fixed_facts(name):
    alg = make_algebra(name)
    assert make_algebra(name) is alg
    series = alg.lower_central_series()
    subspaces = [alg.center(), alg.derived_ideal(), *series]
    arrays = [alg.c, alg.derivation_space(), *(f.basis for f in subspaces)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    with pytest.raises(FrozenInstanceError):
        alg.c = np.zeros_like(alg.c)
    for f in subspaces:
        with pytest.raises(FrozenInstanceError):
            f.basis = np.zeros_like(f.basis)
    with pytest.raises(TypeError):
        series[0] = series[-1]
    assert alg.lower_central_series() == series
    # what every earlier caller saw is what a fresh algebra computes
    fresh = LieAlgebra(alg.c)
    assert np.array_equal(alg.derivation_space(), fresh.derivation_space())
    own = [fresh.center(), fresh.derived_ideal(), *fresh.lower_central_series()]
    assert [f.basis.shape for f in subspaces] == [f.basis.shape for f in own]
    for shared, mine in zip(subspaces, own):
        assert np.array_equal(shared.basis, mine.basis)


def test_table_derivations_all_valid():
    for name in DERIVATION_TABLE:
        der = table1_derivation(name)
        alg = make_algebra(name)
        assert not der.flags.writeable, name
        assert alg.derivation_defect(der) <= 1e-12, name
        assert np.trace(der) != 0.0, name


DERIVATION_DIMS = {
    "L3_2": 6, "L4_2": 10, "L4_3": 7, "L5_2": 16, "L5_3": 11, "L5_4": 15, "L5_5": 10,
    "L5_6": 8, "L5_7": 9, "L5_8": 13, "L5_9": 10, "EX6": 11, "EX7": 16, "EX8": 12,
}


def test_derivation_space_dimensions():
    assert set(DERIVATION_DIMS) == set(ALGEBRA_NAMES)
    for name, dim in DERIVATION_DIMS.items():
        alg = make_algebra(name)
        basis = alg.derivation_space()
        assert isinstance(basis, np.ndarray), name
        assert basis.shape == (dim, alg.n, alg.n), name
        assert not basis.flags.writeable, name
        scale = max(1.0, float(np.abs(alg.c).max()))
        for der in basis:
            assert alg.derivation_defect(der) <= 1e-12 * scale, name


def test_only_ex8_example_has_traceless_derivations():
    # a derivation E has tr(QE) = 0, so λ tr E = 0: EX8 (λ = 1/2) has none with tr E ≠ 0
    assert make_algebra("EX8").find_nonzero_trace_derivation() is None
    assert make_algebra("EX6").find_nonzero_trace_derivation() is not None
    assert make_algebra("EX7").find_nonzero_trace_derivation() is not None


def test_make_metric_requires_variant_for_small_dims():
    with pytest.raises(UnknownName):
        make_metric("L3_2")
    with pytest.raises(UnknownName):
        make_metric("L3_2", "m42", {"alpha": 1.0, "a": 0.0})  # wrong algebra's variant
    with pytest.raises(UnknownName):
        make_metric("EX6", "m32", {"alpha": 1.0})  # examples have no variants


def test_make_metric_param_validation():
    with pytest.raises(BadParams):
        make_metric("L3_2", "m32", {"alpha": 0.0})
    with pytest.raises(BadParams):
        make_metric("L3_2", "m32", {})
    with pytest.raises(BadParams):
        make_metric("L3_2", "m32", {"alpha": 1.0, "zeta": 2.0})
    with pytest.raises(BadParams):
        make_metric("L4_2", "m42", {"alpha": 1.0, "a": 1.0})  # |a| < 1 required
    with pytest.raises(BadParams):
        make_metric("L4_3", "m43", {"a": 0.0, "b": 0.0, "eps": 0.5})  # eps must be ±1
    with pytest.raises(BadParams, match="EX8 takes no parameters: x"):
        make_metric("EX8", None, {"x": 1.0})  # the examples' metrics are fixed
    # a parameter name that is not a string is refused by name, not joined into
    # a message as a TypeError
    with pytest.raises(BadParams, match="^parameter name 1 is not a string$"):
        make_metric("L3_2", "m32", {"alpha": 1.0, 1: 2.0})
    with pytest.raises(BadParams, match="^parameter name 1 is not a string$"):
        make_metric("EX6", params={1: 2.0})
    with pytest.raises(BadParams, match=r"^parameter name \('alpha',\) is not a string$"):
        make_metric("L3_2", "m32", {("alpha",): 1.0})
    # params that are not a mapping are refused by their type, not met as a
    # TypeError or ValueError from dict()
    for params, kind in (([1, 2], "list"), ("alpha", "str"), ((("alpha", 1.0),), "tuple")):
        with pytest.raises(BadParams, match=f"^params must be a mapping of names to numbers, not {kind}$"):
            make_metric("L3_2", "m32", params)
    with pytest.raises(BadParams, match="not list$"):
        make_metric("EX8", params=[])


@pytest.mark.parametrize(
    "value, message",
    [
        ("1.5", "real entries"),  # a numeric string is not parsed
        (True, "real entries"),  # a bool is not read as 1.0
        (1.5 + 0.0j, "real entries"),
        (None, "array of numbers"),
        ([1.5], "0-D array"),
        (float("nan"), "non-finite"),
        (float("inf"), "non-finite"),
    ],
)
def test_make_metric_refuses_a_parameter_that_is_no_real_finite_number(value, message):
    with pytest.raises(BadParams, match=f"^parameter alpha .*{message}"):
        make_metric("L3_2", "m32", {"alpha": value})


def test_all_variants_build_lorentzian_ricci_flat():
    rng = np.random.default_rng(1234)
    for mv in METRIC_VARIANTS.values():
        params = {}
        for p in mv.params:
            if p == "eps":
                params[p] = float(rng.choice([-1.0, 1.0]))
            elif p in ("a", "b"):
                params[p] = float(rng.uniform(-0.9, 0.9))
            elif p == "y":
                params[p] = float(rng.uniform(-1.5, 1.5))
            elif p == "alpha" and mv.name == "m32":
                params[p] = float(rng.uniform(0.3, 1.8))
            else:
                params[p] = float(rng.uniform(0.3, 1.8) * rng.choice([-1.0, 1.0]))
        m = make_metric(mv.algebra, mv.name, params)
        sig = m.signature()
        assert (sig.minus, sig.plus, sig.null) == (1, m.n - 1, 0), mv.name
        report = m.einstein_classify()
        assert report.verdict in (Verdict.RICCI_FLAT, Verdict.FLAT), mv.name


def test_m43_flat_iff_eps_negative():
    base = {"a": 0.3, "b": -0.4}
    flat = make_metric("L4_3", "m43", dict(base, eps=-1.0))
    curved = make_metric("L4_3", "m43", dict(base, eps=1.0))
    d_flat, s_flat = flat.flatness_defect()
    d_curv, s_curv = curved.flatness_defect()
    assert d_flat <= 1e-8 * s_flat
    assert d_curv > 1e-6 * s_curv


def test_example_metrics_signatures_and_verdicts():
    for name, expected in (
        ("EX6", Verdict.RICCI_FLAT),
        ("EX7", Verdict.RICCI_FLAT),
        ("EX8", Verdict.EINSTEIN),
    ):
        m = make_metric(name)
        sig = m.signature()
        assert (sig.minus, sig.plus, sig.null) == (1, m.n - 1, 0)
        assert m.einstein_classify().verdict is expected


def test_ex8_center_inside_derived():
    m = make_metric("EX8")
    center = m.algebra.center()
    derived = m.algebra.derived_ideal()
    assert classify_subspace(m.gram, center).tag is SubspaceTag.EUCLIDEAN
    assert classify_subspace(m.gram, derived).tag is SubspaceTag.LORENTZIAN
    for row in center.basis:
        assert derived.contains(row)  # derived.tol is the algebra's 1e-9


def test_metric_bit_exact_reproducibility():
    p = {"a": 0.1, "b": 0.2, "x": 0.7, "y": -0.3}
    m1 = make_metric("L5_8", "m58", p)
    m2 = make_metric("L5_8", "m58", p)
    assert np.array_equal(m1.gram.mat, m2.gram.mat)
    assert np.array_equal(m1.algebra.c, m2.algebra.c)


def _parameter_stacks(mv, rng, k=300):
    """k seeded parameter sets of mv as stacks, each set twice (ε = +1, then
    ε = −1) when mv takes ε: a and b in (−0.9, 0.9), y in (−1.5, 1.5), the
    others in ±(0.3, 1.8) (m32's alpha positive)."""
    stacks = {}
    for p in mv.params:
        if p == "eps":
            continue
        if p in ("a", "b"):
            stacks[p] = rng.uniform(-0.9, 0.9, k)
        elif p == "y":
            stacks[p] = rng.uniform(-1.5, 1.5, k)
        elif p == "alpha" and mv.name == "m32":
            stacks[p] = rng.uniform(0.3, 1.8, k)
        else:
            stacks[p] = rng.uniform(0.3, 1.8, k) * (2 * rng.integers(2, size=k) - 1)
    if "eps" in mv.params:
        stacks = {p: np.concatenate([v, v]) for p, v in stacks.items()}
        stacks["eps"] = np.repeat([1.0, -1.0], k)
    return stacks


#: sha256 over the gram bytes of make_metric on every set of _parameter_stacks
#: (numpy seed 20260823), as make_metric built them one set at a time
_STACKED_GRAMS_DIGEST = "1ac808a53b68fffb13087d8adf5b907f679bfbd01bba10e88f87b6ee9e6e1d35"


def test_make_metric_is_the_stacked_build_on_a_stack_of_one():
    # 4500 parameter sets, among them values of mu and rho at which numpy's
    # vectorized pow rounds mu**4 and rho**-2 unlike the C library's pow:
    # each make_metric gram is its member of the variant's stack, bit for bit,
    # and the grams are those make_metric built before it was the stack of one
    rng = np.random.default_rng(20260823)
    digest = hashlib.sha256()
    count = 0
    for mv in METRIC_VARIANTS.values():
        stacks = _parameter_stacks(mv, rng)
        grams = _variant_grams(mv, stacks)
        for r, values in enumerate(zip(*(v.tolist() for v in stacks.values()))):
            gram = make_metric(mv.algebra, mv.name, dict(zip(stacks, values))).gram.mat
            assert gram.tobytes() == grams[r].tobytes()
            digest.update(gram.tobytes())
            count += 1
    assert count == 4500
    assert digest.hexdigest() == _STACKED_GRAMS_DIGEST


def test_a_stack_is_refused_with_make_metric_s_texts():
    # one member outside the constraints refuses the stack, as make_metric
    # refuses that member; an empty stack gives no gram
    mv = METRIC_VARIANTS["m56"]
    stacks = {p: np.full(3, 0.5) for p in mv.params}
    stacks["eps"] = np.array([1.0, -1.0, 0.5])
    with pytest.raises(BadParams, match="^parameter eps must be \\+1 or -1$"):
        _variant_grams(mv, stacks)
    stacks["eps"] = np.array([1.0, -1.0, 1.0])
    stacks["mu"] = np.array([0.5, 0.0, 0.5])
    with pytest.raises(BadParams, match="^parameter mu must be nonzero$"):
        _variant_grams(mv, stacks)
    stacks["mu"] = np.array([0.5, np.nan, 0.5])
    with pytest.raises(BadParams, match="^parameter mu contains non-finite entries$"):
        _variant_grams(mv, stacks)
    assert _variant_grams(mv, {p: [] for p in mv.params}).shape == (0, 5, 5)
