import numpy as np
import pytest

from mlie.catalog import (
    ALGEBRA_NAMES,
    DERIVATION_TABLE,
    METRIC_VARIANTS,
    make_algebra,
    make_metric,
    table1_derivation,
)
from mlie.curvature import Verdict
from mlie.errors import BadParams, UnknownName
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


def test_table_derivations_all_valid():
    for name in DERIVATION_TABLE:
        der = table1_derivation(name)
        alg = make_algebra(name)
        assert alg.derivation_defect(der.matrix) <= 1e-12, name
        assert der.trace != 0.0, name


DERIVATION_DIMS = {
    "L3_2": 6, "L4_2": 10, "L4_3": 7, "L5_2": 16, "L5_3": 11, "L5_4": 15, "L5_5": 10,
    "L5_6": 8, "L5_7": 9, "L5_8": 13, "L5_9": 10, "EX6": 11, "EX7": 16, "EX8": 12,
}


def test_derivation_space_dimensions():
    assert set(DERIVATION_DIMS) == set(ALGEBRA_NAMES)
    for name, dim in DERIVATION_DIMS.items():
        alg = make_algebra(name)
        basis = alg.derivation_space()
        assert len(basis) == dim, name
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
        assert derived.contains(row, tol=1e-9)


def test_metric_bit_exact_reproducibility():
    p = {"a": 0.1, "b": 0.2, "x": 0.7, "y": -0.3}
    m1 = make_metric("L5_8", "m58", p)
    m2 = make_metric("L5_8", "m58", p)
    assert np.array_equal(m1.gram.mat, m2.gram.mat)
    assert np.array_equal(m1.algebra.c, m2.algebra.c)
