import numpy as np
import pytest

from mlie.catalog import ALGEBRA_NAMES, make_algebra, make_metric
from mlie.curvature import MetricLieAlgebra, Verdict, ricci_operators
from mlie.doubleext import extend, random_admissible
from mlie.errors import DegenerateGram, NotNilpotent
from mlie.liealg import LieAlgebra
from mlie.pseudolin import Gram


def euclidean_heisenberg():
    return MetricLieAlgebra(
        LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}}), Gram.euclidean(3)
    )


def random_gram(n, rng):
    while True:
        a = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        if np.linalg.svd(a, compute_uv=False)[-1] >= 1e-3:
            break
    eta = rng.choice([-1.0, 1.0], size=n)
    return Gram(a.T @ np.diag(eta) @ a)


def random_metric(name, rng):
    algebra = make_algebra(name)
    return MetricLieAlgebra(algebra, random_gram(algebra.n, rng))


def test_degenerate_gram_rejected():
    with pytest.raises(DegenerateGram):
        MetricLieAlgebra(LieAlgebra.abelian(2), Gram.from_diagonal([1.0, 0.0]))


def test_levi_civita_heisenberg_table():
    m = euclidean_heisenberg()
    e = np.eye(3)
    assert m.levi_civita(e[0], e[1]) == pytest.approx([0.0, 0.0, 0.5])
    assert m.levi_civita(e[1], e[0]) == pytest.approx([0.0, 0.0, -0.5])
    assert m.levi_civita(e[0], e[2]) == pytest.approx([0.0, -0.5, 0.0])
    assert m.levi_civita(e[2], e[0]) == pytest.approx([0.0, -0.5, 0.0])
    assert m.levi_civita(e[1], e[2]) == pytest.approx([0.5, 0.0, 0.0])
    assert m.levi_civita(e[0], e[0]) == pytest.approx([0.0, 0.0, 0.0])


def test_left_mult_skew_and_torsion_free():
    rng = np.random.default_rng(17)
    for name in ("L4_3", "L5_6", "EX7"):
        m = random_metric(name, rng)
        assert m.torsion_defect() < 1e-10
        for _ in range(5):
            u = rng.normal(size=m.n)
            assert m.left_mult_skewness_defect(u) < 1e-10


def test_ricci_heisenberg_diagonal():
    m = euclidean_heisenberg()
    assert m.ricci_via_definition() == pytest.approx(np.diag([-0.5, -0.5, 0.5]))
    assert m.ricci_operator() == pytest.approx(np.diag([-0.5, -0.5, 0.5]))


def test_structure_endos_heisenberg():
    m = euclidean_heisenberg()
    s = m.structure_endos()
    assert s[0] == pytest.approx(np.zeros((3, 3)))
    assert s[1] == pytest.approx(np.zeros((3, 3)))
    assert s[2] @ np.array([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0])
    assert s[2] @ np.array([0.0, 1.0, 0.0]) == pytest.approx([-1.0, 0.0, 0.0])


def test_j_map_picks_out_endo():
    m = euclidean_heisenberg()
    assert m.j_map([0.0, 0.0, 1.0]) == pytest.approx(m.structure_endos()[2])


def test_j1_j2_heisenberg():
    m = euclidean_heisenberg()
    j1, j2 = m.j1_j2()
    assert j1 == pytest.approx(np.diag([1.0, 1.0, 0.0]))
    assert j2 == pytest.approx(np.diag([0.0, 0.0, 2.0]))
    assert -0.5 * j1 + 0.25 * j2 == pytest.approx(np.diag([-0.5, -0.5, 0.5]))


def test_ricci_nilpotent_requires_nilpotent():
    solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1.0}})
    m = MetricLieAlgebra(solvable, Gram.euclidean(2))
    with pytest.raises(NotNilpotent):
        m.ricci_nilpotent()


def test_route_equivalence_random():
    rng = np.random.default_rng(23)
    for name in ALGEBRA_NAMES:
        for _ in range(3):
            m = random_metric(name, rng)
            r_def = m.ricci_via_definition()
            r_gen = m.ricci_general()
            scale = max(1.0, np.abs(r_def).max())
            assert np.abs(r_def - r_gen).max() < 1e-8 * scale
            op = m.gram_inv @ r_def
            nil = m.ricci_nilpotent()
            op_scale = max(1.0, np.abs(op).max())
            assert np.abs(op - nil).max() < 1e-8 * op_scale


def test_ricci_operators_stack_matches_per_gram():
    rng = np.random.default_rng(43)
    non_nilpotent = extend(random_admissible(rng, f_dim=2, blocks=1, nilpotent=False)).algebra
    for algebra in (make_algebra("L5_2"), non_nilpotent):
        metrics = [MetricLieAlgebra(algebra, random_gram(algebra.n, rng)) for _ in range(3)]
        grams = np.array([m.gram.mat for m in metrics])
        stack = ricci_operators(algebra.c, grams, algebra.is_nilpotent())
        for got, m in zip(stack, metrics):
            want = m.ricci_operator()
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_trace_identity_heisenberg_identity_map():
    m = euclidean_heisenberg()
    lhs, rhs = m.trace_q_times(np.eye(3))
    assert lhs == pytest.approx(-0.5)
    assert rhs == pytest.approx(-0.5)


def test_trace_identity_random_and_derivation():
    rng = np.random.default_rng(29)
    m = random_metric("L5_3", rng)
    for _ in range(20):
        lhs, rhs = m.trace_q_times(rng.normal(size=(5, 5)))
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))
    der = m.algebra.derivation_space()[0]
    lhs, rhs = m.trace_q_times(der)
    assert abs(lhs) < 1e-9 and abs(rhs) < 1e-9


def test_trace_identity_is_basis_free():
    # pull c, G and E through P: c' = P⁻¹[Pe_a, Pe_b], G' = PᵀGP, E' = P⁻¹EP
    rng = np.random.default_rng(37)
    for m in (random_metric("L5_6", rng), extend(random_admissible(rng, f_dim=2, blocks=1))):
        n = m.n
        e = rng.normal(size=(n, n))
        p = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        pinv = np.linalg.inv(p)
        c = np.einsum("ia,jb,ijk,lk->abl", p, p, m.algebra.c, pinv)
        moved = MetricLieAlgebra(LieAlgebra(n, c), Gram(p.T @ m.gram.mat @ p))
        want = m.trace_q_times(e)
        got = moved.trace_q_times(pinv @ e @ p)
        scale = max(1.0, *map(abs, want))
        assert got == pytest.approx(want, abs=1e-10 * scale)
        assert want[0] == pytest.approx(want[1], abs=1e-10 * scale)


def test_trace_j1_equals_trace_j2():
    rng = np.random.default_rng(31)
    for name in ("L4_2", "L5_9", "EX6"):
        m = random_metric(name, rng)
        j1, j2 = m.j1_j2()
        assert np.trace(j1) == pytest.approx(np.trace(j2))


def test_verdict_heisenberg_not_einstein():
    report = euclidean_heisenberg().einstein_classify()
    assert report.verdict is Verdict.NOT_EINSTEIN
    assert report.einstein_lambda is None
    assert not report.flat


def test_verdict_abelian_flat():
    m = MetricLieAlgebra(LieAlgebra.abelian(3), Gram.minkowski(3))
    report = m.einstein_classify()
    assert report.verdict is Verdict.FLAT
    assert report.flat
    assert report.einstein_lambda == 0.0
    assert report.scalar_curvature == 0.0


def test_verdict_einstein_ex8():
    report = make_metric("EX8").einstein_classify()
    assert report.verdict is Verdict.EINSTEIN
    assert report.einstein_lambda == pytest.approx(0.5, abs=1e-12)
    assert report.einstein_residual < 1e-12


def test_flatness_defect_scale():
    m = euclidean_heisenberg()
    defect, scale = m.flatness_defect()
    assert defect > 1e-2  # Heisenberg is not flat
    assert scale >= 1.0


def test_curvature_tensor_symmetries():
    rng = np.random.default_rng(37)
    m = random_metric("L5_8", rng)
    k = m.curvature_tensor()
    g = m.gram.mat
    # lower the last index: K[i,j,k,l] = <K(e_i,e_j)e_k, e_l>
    kl = np.einsum("ijkm,ml->ijkl", k, g)
    assert np.abs(kl + kl.transpose(1, 0, 2, 3)).max() < 1e-10
    assert np.abs(kl + kl.transpose(0, 1, 3, 2)).max() < 1e-10
    assert np.abs(kl - kl.transpose(2, 3, 0, 1)).max() < 1e-10


def test_mean_vector_zero_for_nilpotent():
    rng = np.random.default_rng(41)
    m = random_metric("L5_2", rng)
    # all ad maps are nilpotent hence traceless: H = 0
    assert np.linalg.norm(m.mean_vector()) < 1e-12


def test_killing_form_heisenberg_zero():
    m = euclidean_heisenberg()
    assert np.abs(m.killing_form()).max() < 1e-14
