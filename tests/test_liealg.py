import numpy as np
import pytest

from mlie.catalog import make_algebra
from mlie.errors import InvalidInput, NotLie
from mlie.liealg import LieAlgebra


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


def test_jacobi_defect_zero_on_catalog():
    for name in ("L3_2", "L4_3", "L5_6", "EX8"):
        assert make_algebra(name).jacobi_defect() < 1e-12


def test_jacobi_defect_positive_and_require():
    # [e1,e2]=e3, [e1,e3]=e1 violates Jacobi
    bad = LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}, (0, 2): {0: 1.0}})
    assert bad.jacobi_defect() > 0.1
    with pytest.raises(NotLie):
        bad.require_jacobi()


def test_from_brackets_validates_indices():
    with pytest.raises(InvalidInput):
        LieAlgebra.from_brackets(3, {(1, 0): {2: 1.0}})
    with pytest.raises(InvalidInput):
        LieAlgebra.from_brackets(3, {(0, 1): {3: 1.0}})


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


def test_lower_central_series_dims():
    assert [s.dim for s in make_algebra("L4_2").lower_central_series()] == [4, 1, 0]
    assert [s.dim for s in make_algebra("L5_6").lower_central_series()] == [5, 3, 2, 1, 0]


def test_not_nilpotent_solvable_example():
    # [e1,e2] = e2 is solvable but not nilpotent
    alg = LieAlgebra.from_brackets(2, {(0, 1): {1: 1.0}})
    assert not alg.is_nilpotent()


def test_derivation_space_heisenberg_dimension():
    # derivations of the Heisenberg algebra form a 6-dimensional space
    basis = heisenberg().derivation_space()
    assert len(basis) == 6
    for der in basis:
        assert heisenberg().derivation_defect(der.matrix) < 1e-9


def test_derivation_defect_discriminates():
    alg = heisenberg()
    good = np.diag([1.0, 1.0, 2.0])
    assert alg.derivation_defect(good) < 1e-14
    bad = np.diag([1.0, 1.0, 1.0])
    assert alg.derivation_defect(bad) == pytest.approx(1.0)


def test_find_nonzero_trace_derivation():
    der = heisenberg().find_nonzero_trace_derivation()
    assert der is not None
    assert abs(der.trace) > 1e-6
    assert heisenberg().derivation_defect(der.matrix) < 1e-9


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


def test_derivation_defect_map_of_a_stack_is_the_stack_of_maps():
    rng = np.random.default_rng(6)
    alg = make_algebra("L5_8")
    n = alg.n
    es = rng.normal(size=(4, n, n))
    stacked = alg.derivation_defect_map(es)
    assert stacked.shape == (4, n, n, n)
    for e, d in zip(es, stacked):
        assert np.allclose(d, alg.derivation_defect_map(e), rtol=0.0, atol=1e-14)
        # d[i,j] = E[e_i,e_j] − [Ee_i,e_j] − [e_i,Ee_j], pair by pair
        for i in range(n):
            for j in range(n):
                want = (
                    e @ alg.bracket(np.eye(n)[i], np.eye(n)[j])
                    - alg.bracket(e[:, i], np.eye(n)[j])
                    - alg.bracket(np.eye(n)[i], e[:, j])
                )
                assert np.allclose(d[i, j], want, rtol=0.0, atol=1e-13)
