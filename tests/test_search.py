import numpy as np
import pytest

from mlie.catalog import make_algebra
from mlie.curvature import MetricLieAlgebra
from mlie.doubleext import extend, random_admissible
from mlie.errors import DegenerateGram, InvalidInput
from mlie.liealg import LieAlgebra
from mlie.pseudolin import Gram
from mlie.search import SearchSpec, einstein_residual, run_search


def heisenberg():
    return LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}})


def test_einstein_residual_heisenberg_oracle():
    # Ric = diag(−½,−½,½); einstein target subtracts (trace/3)·Id = −1/6·Id
    r = einstein_residual(heisenberg(), Gram.euclidean(3), target="einstein")
    assert r == pytest.approx(np.sqrt(6.0) / 3.0)
    r0 = einstein_residual(heisenberg(), Gram.euclidean(3), target="ricci-flat")
    assert r0 == pytest.approx(np.linalg.norm(np.diag([-0.5, -0.5, 0.5])))


def test_einstein_residual_non_nilpotent_matches_ricci_operator():
    rng = np.random.default_rng(2)
    data = random_admissible(rng, f_dim=2, blocks=1, nilpotent=False)
    assert data.mu != 0.0
    algebra = extend(data).algebra
    assert not algebra.is_nilpotent()
    n = algebra.n
    a = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    gram = Gram(a.T @ np.diag([-1.0] + [1.0] * (n - 1)) @ a)
    ric = MetricLieAlgebra(algebra, gram).ricci_operator()
    lam = np.trace(ric) / n
    r = einstein_residual(algebra, gram, target="einstein")
    assert r == pytest.approx(np.linalg.norm(ric - lam * np.eye(n)), rel=1e-9)
    r0 = einstein_residual(algebra, gram, target="ricci-flat")
    assert r0 == pytest.approx(np.linalg.norm(ric), rel=1e-9)
    assert r0 > r > 1e-3  # neither Einstein nor Ricci-flat: the check has teeth


def test_einstein_residual_rejects_degenerate():
    with pytest.raises(DegenerateGram):
        einstein_residual(heisenberg(), Gram.from_diagonal([1.0, 1.0, 0.0]))


def test_spec_validation():
    with pytest.raises(InvalidInput):
        SearchSpec(heisenberg(), target="hyperbolic")
    with pytest.raises(InvalidInput):
        SearchSpec(heisenberg(), signature=(1, 1))  # does not sum to 3
    with pytest.raises(InvalidInput):
        SearchSpec(heisenberg(), signature=(-1, 4))


def test_l32_lorentzian_search_converges():
    spec = SearchSpec(make_algebra("L3_2"), signature=(1, 2), seed=0, restarts=8)
    result = run_search(spec)
    assert result.converged
    assert result.residual <= 1e-6
    assert result.iterations <= spec.max_iters
    assert result.best_gram is not None
    # the returned gram really has the requested signature and residual
    m = MetricLieAlgebra(make_algebra("L3_2"), result.best_gram)
    sig = m.signature()
    assert (sig.minus, sig.plus, sig.null) == (1, 2, 0)
    check = einstein_residual(make_algebra("L3_2"), result.best_gram, target="ricci-flat")
    # Gram symmetrizes the stored matrix, so recomputation may differ in the last bits
    assert check == pytest.approx(result.residual, rel=1e-9)


def test_search_deterministic():
    spec = SearchSpec(make_algebra("L3_2"), signature=(1, 2), seed=3, restarts=4)
    r1 = run_search(spec)
    r2 = run_search(spec)
    assert r1.converged == r2.converged
    assert r1.residual == r2.residual
    assert r1.iterations == r2.iterations
    assert r1.restart_index == r2.restart_index
    if r1.best_gram is not None:
        assert np.array_equal(r1.best_gram.mat, r2.best_gram.mat)


def test_seed_changes_trajectory():
    spec_a = SearchSpec(make_algebra("L3_2"), signature=(1, 2), seed=0, restarts=2)
    spec_b = SearchSpec(make_algebra("L3_2"), signature=(1, 2), seed=99, restarts=2)
    ra, rb = run_search(spec_a), run_search(spec_b)
    assert ra.residual != rb.residual


def test_euclidean_heisenberg_einstein_target_fails_honestly():
    # no left-invariant Euclidean Einstein metric exists here; expect no convergence
    spec = SearchSpec(heisenberg(), target="einstein", signature=(0, 3), seed=1, restarts=3)
    result = run_search(spec)
    assert not result.converged
    assert result.best_gram is None
    assert result.residual > spec.tol


def test_abelian_search_immediately_flat():
    spec = SearchSpec(LieAlgebra.abelian(3), signature=(1, 2), seed=0, restarts=1)
    result = run_search(spec)
    assert result.converged
    assert result.residual == 0.0
