import hashlib
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import mlie.curvature
from mlie import doubleext, search
from mlie.catalog import make_algebra, make_metric
from mlie.curvature import (
    VERDICT_TOL,
    MetricLieAlgebra,
    Verdict,
    _einstein_defects,
    q_bracket_differentials,
    q_bracket_operators,
    structure_endo_tensors,
)
from mlie.doubleext import _double_extension_reading, extend, random_admissible
from mlie.errors import DegenerateGram, InvalidInput, NotNilpotent, is_route_mismatch
from mlie.liealg import LieAlgebra, derivation_defects
from mlie.pseudolin import Gram, SubspaceTag, classify_subspace, nullspace
from mlie.search import (
    STOP_REASONS,
    SearchSpec,
    _MAX_COND,
    _damped_steps,
    _flag_directions,
    _forward,
    _jacobians,
    _held_flag,
    _null_flag,
    _onto_flag,
    _onto_null_line,
    _residuals,
    _settle,
    einstein_residual,
    run_search,
)


def heisenberg():
    return LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}})


def test_einstein_residual_heisenberg_oracle():
    # Ric = diag(−½,−½,½); einstein target subtracts (trace/3)·Id = −1/6·Id
    r = einstein_residual(heisenberg(), Gram(np.eye(3)), target="einstein")
    assert r == pytest.approx(np.sqrt(6.0) / 3.0)
    r0 = einstein_residual(heisenberg(), Gram(np.eye(3)), target="ricci-flat")
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
    m = MetricLieAlgebra(algebra, gram)
    ric = m.ricci_operator()
    # the definitional route, moved back from the metric's frame, is G⁻¹·ric
    want = np.linalg.solve(gram.mat, m.ricci_via_definition())
    assert np.abs(ric - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
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
    with pytest.raises(InvalidInput):
        SearchSpec(heisenberg(), restarts=0)
    with pytest.raises(InvalidInput, match="max_iters"):
        SearchSpec(heisenberg(), max_iters=-5)
    with pytest.raises(InvalidInput, match="seed must be nonnegative"):
        SearchSpec(heisenberg(), seed=-1)
    # every size is a nonnegative integer: no bool, float or NaN, and a
    # signature is a (minus, plus) pair of them
    for field, bad in (
        ("seed", True),
        ("max_iters", 1.5),
        ("max_iters", float("nan")),
        ("restarts", 2.5),
        ("signature", (0.5, 2.5)),
        ("signature", (1, 2, 0)),
        ("signature", 3),
    ):
        with pytest.raises(InvalidInput):
            SearchSpec(heisenberg(), **{field: bad})
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInput, match="tol"):
            SearchSpec(heisenberg(), tol=tol)
    assert SearchSpec(heisenberg(), max_iters=0, tol=1e-300).max_iters == 0


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


def _lorentzian_signs(n):
    return np.array([-1.0] + [1.0] * (n - 1))


def _case_algebra(case):
    if case == "non-nilpotent":  # the Levi-Civita route
        data = random_admissible(np.random.default_rng(2), f_dim=2, blocks=1, nilpotent=False)
        assert data.mu != 0.0
        return extend(data).algebra
    return make_algebra(case)


@pytest.mark.parametrize("case", ["L3_2", "L5_2", "EX8", "non-nilpotent"])
@pytest.mark.parametrize("target", ["einstein", "ricci-flat"])
def test_residual_gradient_matches_central_differences(case, target):
    # the derivative of the scale-free residual is its Jacobian along the
    # orbit tangents E·μ: the exact differential of the bracket form on a
    # nilpotent algebra, polarization of the Levi-Civita route otherwise
    algebra = _case_algebra(case)
    n, nilpotent, einstein = algebra.n, algebra.is_nilpotent(), target == "einstein"
    eps = _lorentzian_signs(n)

    def forward(a_batch, c):
        return _forward(a_batch, c, eps, nilpotent, einstein)

    a = np.eye(n) + 0.3 * np.random.default_rng(17).normal(size=(n, n))
    b, mu, ric, r = forward(a[None], algebra.c)
    # the frame η of μ = A·c carries the metric AᵀηA of c: Ric_G = A⁻¹ Ric_η A
    absolute = _residuals(b @ ric @ a, einstein)[0]
    gram = a.T @ np.diag(eps) @ a
    assert absolute == pytest.approx(einstein_residual(algebra, gram, target), rel=1e-9)
    # r is unchanged when the metric or the bracket is scaled
    for t, s in [(10.0, 1.0), (1.0, 1e-3), (0.2, 7.0)]:
        r_scaled = forward(t * a[None], s * algebra.c)[3]
        assert np.abs(r_scaled - r).max() <= 1e-12 * np.abs(r).max()

    units = np.eye(n * n).reshape(n * n, n, n)
    jac = _jacobians(mu, ric, eps, nilpotent, einstein, units)[0]
    # central differences along the curve (I + hE)A, whose tangent at h = 0 is E·μ
    h = 1e-6
    up = forward((np.eye(n) + h * units) @ a, algebra.c)[3]
    down = forward((np.eye(n) - h * units) @ a, algebra.c)[3]
    fd = ((up - down) / (2.0 * h)).reshape(n * n, n * n).T
    assert np.abs(fd).max() > 1e-2  # the residual moves along the orbit
    assert np.abs(jac - fd).max() <= 1e-6 * np.abs(fd).max()


def _polarized_jacobians(mu, ric, eps, einstein, directions):
    """The Jacobians of r at the brackets μ (m, n, n, n) along ν = E·μ by
    polarization of the bracket form: dQ[ν] = (Q(μ+ν) − Q(μ−ν))/2, with
    r = (Q − λ̂·Id)/‖μ‖² differentiated by the quotient rule."""
    m, n = mu.shape[:2]
    nu = derivation_defects(mu[:, None], directions)
    k = nu.shape[1]
    sides = [q_bracket_operators((mu[:, None] + t * nu).reshape(-1, n, n, n), eps) for t in (1, -1)]
    d_ric = ((sides[0] - sides[1]) / 2.0).reshape(m, k, n, n)
    dev = ric.copy()
    if einstein:
        d_ric -= np.einsum("mkii->mk", d_ric)[..., None, None] / n * np.eye(n)
        dev -= np.einsum("mii->m", ric)[:, None, None] / n * np.eye(n)
    sq = np.einsum("mijk,mijk->m", mu, mu)[:, None, None, None]
    d_sq = 2.0 * np.einsum("mkijl,mijl->mk", nu, mu)[..., None, None]
    d_r = d_ric / sq - dev[:, None] * d_sq / sq**2
    return d_r.reshape(m, k, n * n).transpose(0, 2, 1)


@pytest.mark.parametrize("case", ["L3_2", "L4_3", "L5_2", "EX8"])
@pytest.mark.parametrize("target", ["einstein", "ricci-flat"])
def test_the_differential_jacobian_equals_polarization(case, target):
    # Q = P(μ, μ♯) is quadratic in μ, so the exact differential of the bracket
    # form gives the Jacobian that polarization on the sides μ ± ν gives, on
    # the unit matrices and on the flag's basis, up to rounding
    algebra = _case_algebra(case)
    n, einstein = algebra.n, target == "einstein"
    eps = _lorentzian_signs(n)
    a = np.eye(n) + 0.3 * np.random.default_rng(17).normal(size=(3, n, n))
    _, mu, ric, _ = _forward(a, algebra.c, eps, True, einstein)
    for directions in (np.eye(n * n).reshape(n * n, n, n), _flag_directions(n)):
        jac = _jacobians(mu, ric, eps, True, einstein, directions)
        want = _polarized_jacobians(mu, ric, eps, einstein, directions)
        assert jac.shape == want.shape == (3, n * n, len(directions))
        assert np.abs(want).max() > 1e-2  # the residual moves along the orbit
        assert np.abs(jac - want).max() <= 1e-12 * np.abs(want).max()
    # dQ[μ] = 2·Q(μ): the differential of a quadratic form along its point
    q = q_bracket_operators(mu, eps)
    dq = q_bracket_differentials(mu, eps, mu[:, None])[:, 0]
    assert np.abs(dq - 2.0 * q).max() <= 1e-12 * np.abs(q).max()


def _derivation_complement(a, b, derivations):
    """A Frobenius-orthonormal basis (n² − d, n, n) of the complement of
    Der(μ) = A·Der(c)·B in gl(n), B = A⁻¹, for μ = A·c and a basis (d, n, n)
    of Der(c), from one complete QR."""
    n, d = len(a), len(derivations)
    moved = (a @ derivations @ b).reshape(d, n * n)
    q = np.linalg.qr(moved.T, mode="complete")[0]
    return q[:, d:].T.reshape(n * n - d, n, n)


@pytest.mark.parametrize("case", ["L4_3", "L5_2", "EX8", "non-nilpotent"])
@pytest.mark.parametrize("target", ["einstein", "ricci-flat"])
def test_step_on_the_derivation_complement_equals_the_full_step(case, target):
    # Der(μ) = A·Der(c)·A⁻¹ leaves μ = A·c fixed, so its Jacobian columns are
    # zero, and the damped step on an orthonormal basis of its complement is
    # the damped step on all of gl(n), the basis the search steps on off the
    # stratum
    algebra = _case_algebra(case)
    n, nilpotent, einstein = algebra.n, algebra.is_nilpotent(), target == "einstein"
    eps = _lorentzian_signs(n)
    a = np.eye(n) + 0.3 * np.random.default_rng(17).normal(size=(n, n))
    b, mu, ric, r = _forward(a[None], algebra.c, eps, nilpotent, einstein)
    units = np.eye(n * n).reshape(n * n, n, n)
    full = _jacobians(mu, ric, eps, nilpotent, einstein, units)
    derivations = algebra.derivation_space()
    on_der = _jacobians(mu, ric, eps, nilpotent, einstein, a @ derivations @ b[0])
    assert np.abs(on_der).max() <= 1e-12 * np.abs(full).max()

    directions = _derivation_complement(a, b[0], derivations)
    assert directions.shape == (n * n - len(derivations), n, n)
    part = _jacobians(mu, ric, eps, nilpotent, einstein, directions)
    assert part.shape == (1, n * n, n * n - len(derivations))

    def step(jac, e, damping):
        jac_t = jac.transpose(0, 2, 1)
        return _damped_steps(jac_t @ jac, jac_t @ r.reshape(1, -1, 1), np.array([damping]), e)

    for damping in (1e-12, 1e-3, 1.0):
        want, got = step(full, units, damping), step(part, directions, damping)
        # the model's change J·X of r agrees at every damping
        j_want, j_got = full[0] @ want.reshape(-1), full[0] @ got.reshape(-1)
        assert np.abs(j_got - j_want).max() <= 1e-9 * np.abs(j_want).max()
        if damping >= 1e-3:
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        # at damping 1e-12, J's null directions beyond Der(μ) (σ ≈ 1e-17)
        # carry rounding amplified by 1/damping: X itself is then fixed to
        # about 1e-5 only, on any basis of gl(n), the unit matrices included


def test_the_abelian_search_meets_both_targets_at_residual_zero():
    # the zero bracket is flat under every metric: each restart converges
    # at its start
    for target in ("einstein", "ricci-flat"):
        result = run_search(SearchSpec(LieAlgebra.abelian(3), target=target, restarts=2))
        assert result.converged and result.residual == 0.0


@pytest.mark.parametrize(
    "name, signature, target",
    [
        ("L3_2", (1, 2), "ricci-flat"),
        ("L4_2", (1, 3), "ricci-flat"),
        # obstructed: every restart walks the damping ladder to step-collapse
        ("L3_2", (0, 3), "einstein"),
        ("L4_3", (0, 4), "einstein"),
    ],
    ids=["L3_2-signature0", "L4_2-signature1", "L3_2-euclid-einstein", "L4_3-euclid-einstein"],
)
@pytest.mark.parametrize("seed", range(5))
def test_restarts_do_not_depend_on_their_stack_mates(name, signature, target, seed):
    # the restarts advance as one stack; cutting the stack after the winner
    # must leave the winner's trajectory, and every earlier one, bit for bit
    spec = SearchSpec(make_algebra(name), target=target, signature=signature, seed=seed, restarts=8)
    full = run_search(spec)
    assert len(full.stop_reasons) == 8 and set(full.stop_reasons) <= set(STOP_REASONS)
    r = full.restart_index
    short = run_search(replace(spec, restarts=r + 1))
    assert short.restart_index == r
    assert short.residual == full.residual
    assert short.iterations == full.iterations
    assert full.stop_reasons[: r + 1] == short.stop_reasons
    assert (short.best_gram is None) == (full.best_gram is None)
    if full.best_gram is not None:
        assert short.best_gram.mat.tobytes() == full.best_gram.mat.tobytes()


#: (algebra, signature, target, seed, residual, iterations, restart index,
#: stop reasons, sha256 of the best gram's bytes), recorded when every damping
#: round tried one rung
_COLLAPSED = ("step-collapse",) * 8
_LADDER_RESULTS = [
    ("L3_2", (0, 3), "einstein", 0, "0x1.f872378b78871p-2", 3, 1, _COLLAPSED, None),
    ("L3_2", (0, 3), "einstein", 1, "0x1.30390e26ddcdfp-1", 1, 7, _COLLAPSED, None),
    ("L3_2", (0, 3), "einstein", 2, "0x1.4380401dfc881p-1", 3, 7, _COLLAPSED, None),
    ("L3_2", (0, 3), "einstein", 3, "0x1.1a8c1f3aee520p-1", 1, 0, _COLLAPSED, None),
    ("L3_2", (0, 3), "einstein", 4, "0x1.a2bb2febc2332p-2", 2, 6, _COLLAPSED, None),
    ("L4_3", (0, 4), "einstein", 0, "0x1.c3027069ef110p-1", 12, 4, _COLLAPSED, None),
    ("L4_3", (0, 4), "einstein", 1, "0x1.c5b2d95284d3dp-1", 12, 4, _COLLAPSED, None),
    ("L4_3", (0, 4), "einstein", 2, "0x1.64f6f2114a1c4p-1", 14, 7, _COLLAPSED, None),
    ("L4_3", (0, 4), "einstein", 3, "0x1.b3f8fc645b479p-1", 12, 0, _COLLAPSED, None),
    (
        "L4_3", (2, 2), "ricci-flat", 0, "0x1.246eeb92eca1fp-45", 5, 4,
        ("converged", "converged", "creep", "converged", "converged", "creep", "converged", "converged"),
        "037869aad5bd970b81aa8ce67c28c1d839495286a92bf6151f76eaab6c4159b8",
    ),
    (
        "L5_6", (1, 4), "einstein", 1, "0x1.511b6994a02dbp-28", 15, 1,
        ("creep", "converged", "creep", "degenerating", "creep", "converged", "creep", "converged"),
        "879cbb8c002031a3e3d7df6bb59f6601b41c4fd3bb49272c527cf5fbe7f53bde",
    ),
]


@pytest.mark.parametrize(
    "name, signature, target, seed, residual, iterations, restart, reasons, gram_sha",
    _LADDER_RESULTS,
    ids=[f"{row[0]}-{row[1][0]}{row[1][1]}-{row[2]}-{row[3]}" for row in _LADDER_RESULTS],
)
def test_the_damping_ladder_keeps_the_parent_s_results(
    name, signature, target, seed, residual, iterations, restart, reasons, gram_sha
):
    # after three single-rung rounds one round tries every rung left; each
    # restart takes the first rung that lowers its residual, the one the
    # single-rung rounds would reach, so every result keeps its bits: these
    # specs take that round's first rung, a later one, or none
    result = run_search(SearchSpec(make_algebra(name), target=target, signature=signature, seed=seed))
    assert result.residual.hex() == residual
    assert (result.iterations, result.restart_index) == (iterations, restart)
    assert result.stop_reasons == reasons
    sha = None if result.best_gram is None else hashlib.sha256(result.best_gram.mat.tobytes()).hexdigest()
    assert sha == gram_sha


#: (algebra, signature, seed, iterations, restart index, residual, sha256 of
#: the best gram's bytes, the axis z lies on, the hyperplane's α as
#: float.hex), ricci-flat searches on the null flag, recorded when the
#: single-rung rounds and the ladder round were two code paths
_CONVERGED = ("converged",) * 8
_FLAG_RESULTS = [
    (
        "L4_3", (1, 3), 0, 3, 1, "0x1.1be9b57ffc44ap-40",
        "59e5174113c9333cd06509ee3d4ff738c1fe9a2214773b6f34b547a798b46e2b", 3,
        ("-0x1.2e810415968a5p-1", "0x1.9d148fb5fba04p-1", "-0x1.24da9372b68e6p-56", "0x1.17878725f974bp-54"),
    ),
    (
        "L4_3", (1, 3), 1, 4, 7, "0x1.3d2a295a04ce1p-41",
        "f80c7dd07f0082e03d1baa2992f39d5cd4ac91711a2a00f3fddd79a152a2055f", 3,
        ("-0x1.48b094ac22aafp-1", "0x1.88908f8a8f993p-1", "-0x1.f1c5858211c57p-57", "-0x1.192b0a2865426p-53"),
    ),
    (
        "L5_5", (1, 4), 0, 3, 7, "0x1.c40e8af192826p-39",
        "c8c6e86d226f39fc8f14d173b4215ba49c753a5a9933087b297a09b73cbca586", 4,
        (
            "0x1.6bbfdf957a6fap-1", "-0x1.6851d8df324eep-1", "0x1.70cd829b5823ep-57",
            "0x1.0038336c39c6fp-57", "0x1.314578f995160p-53",
        ),
    ),
    (
        "L5_6", (1, 4), 0, 5, 1, "0x1.77fb9c1b6fd7bp-33",
        "f737327728e4f3840ca65d794bdc22f6f508f90eb3007b5d4ac23b655b00d8c9", 4,
        (
            "0x1.0000000000000p+0", "0x1.acad5282e95fcp-52", "-0x1.4b7a22aa1b1a8p-56",
            "-0x1.8e8fbea5782a7p-54", "0x1.b501ecb5f5571p-51",
        ),
    ),
    (
        "L5_9", (1, 4), 0, 4, 6, "0x1.1e691ec54b66fp-42",
        "17f0ec1adfce3d7ae34ac24b9d3446b2dbd1094e852179668d39c837bdec80b0", 3,
        (
            "0x1.3f9085d10528bp-53", "0x1.0000000000000p+0", "0x1.1faeeabf66297p-56",
            "0x1.15f763aca4530p-54", "-0x1.86ff4ff4613c7p-61",
        ),
    ),
    # no Ricci-flat metric: every restart stops by creep at iteration 200
    (
        "L5_4", (1, 4), 0, 200, 1, "0x1.a3f0cd1ba4fbfp-17", None, 4,
        (
            "-0x1.8f05083fcc1bep-2", "0x1.d3694efee02a9p-1", "-0x1.b9908c5efb18ep-7",
            "-0x1.ee5fdaa40deb5p-4", "0x1.8150cf8c31840p-47",
        ),
    ),
]


@pytest.mark.parametrize(
    "name, signature, seed, iterations, restart, residual, gram_sha, z_axis, alpha",
    _FLAG_RESULTS,
    ids=[f"{row[0]}-{row[2]}" for row in _FLAG_RESULTS],
)
def test_the_flag_search_keeps_the_parent_s_results(
    name, signature, seed, iterations, restart, residual, gram_sha, z_axis, alpha
):
    result = run_search(SearchSpec(make_algebra(name), signature=signature, seed=seed))
    assert result.residual.hex() == residual
    assert (result.iterations, result.restart_index) == (iterations, restart)
    assert result.stop_reasons == (_CONVERGED if gram_sha else ("creep",) * 8)
    sha = None if result.best_gram is None else hashlib.sha256(result.best_gram.mat.tobytes()).hexdigest()
    assert sha == gram_sha
    assert result.central_vector.tobytes() == np.eye(len(alpha))[z_axis].tobytes()
    assert result.hyperplane.tobytes() == np.array([float.fromhex(x) for x in alpha]).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_an_obstructed_search_takes_at_most_four_damping_rounds_per_iteration(seed, monkeypatch):
    # the Euclidean Heisenberg algebra has no Einstein metric, so every
    # restart walks the whole damping ladder to step-collapse: three
    # single-rung rounds, then one round for the rest of the ladder
    calls = _counted(monkeypatch, "_forward", "_jacobians")
    spec = SearchSpec(make_algebra("L3_2"), target="einstein", signature=(0, 3), seed=seed)
    result = run_search(spec)
    assert set(result.stop_reasons) == {"step-collapse"}
    assert calls["_jacobians"] > 0
    assert calls["_forward"] <= 1 + 4 * calls["_jacobians"]


@pytest.mark.parametrize(
    "name, signature, target, seed, forward, jacobians",
    [
        ("L3_2", (0, 3), "einstein", 0, 13, 3),
        ("L3_2", (0, 3), "einstein", 1, 13, 3),
        ("L3_2", (0, 3), "einstein", 2, 17, 4),
        ("L3_2", (0, 3), "einstein", 3, 13, 3),
        ("L3_2", (0, 3), "einstein", 4, 17, 4),
        ("L4_3", (1, 3), "ricci-flat", 0, 5, 4),
        ("L4_3", (1, 3), "ricci-flat", 1, 5, 4),
        ("L5_5", (1, 4), "ricci-flat", 0, 4, 3),
        ("L5_6", (1, 4), "ricci-flat", 0, 6, 5),
        ("L5_9", (1, 4), "ricci-flat", 0, 5, 4),
        ("L5_4", (1, 4), "ricci-flat", 0, 201, 200),
    ],
)
def test_the_damping_rounds_keep_the_parent_s_schedule(
    name, signature, target, seed, forward, jacobians, monkeypatch
):
    # the widths (1, 1, 1, rest): on the obstructed Euclidean Heisenberg
    # target every iteration walks all four rounds, and on the flag every
    # iteration's first rung lowers ‖r‖ for every restart, so each iteration
    # makes one
    calls = _counted(monkeypatch, "_forward", "_jacobians")
    run_search(SearchSpec(make_algebra(name), target=target, signature=signature, seed=seed))
    assert (calls["_forward"], calls["_jacobians"]) == (forward, jacobians)
    rounds = 4 if target == "einstein" else 1
    assert calls["_forward"] == 1 + rounds * calls["_jacobians"]


def test_damped_steps_at_a_ladder_of_dampings_are_the_single_rung_steps():
    # the ladder round stacks one normal matrix with its rungs d, 10d, 100d;
    # each step must be, bit for bit, the step of its rung alone
    algebra = make_algebra("L4_3")
    eps = _lorentzian_signs(4)
    rng = np.random.default_rng(3)
    a = (np.eye(4) + 0.1 * rng.standard_normal((4, 4)))[None]
    _, mu, ric, r = _forward(a, algebra.c, eps, True, False)
    basis = np.eye(16).reshape(16, 4, 4)
    jac = _jacobians(mu, ric, eps, True, False, basis)
    normal, gradient = jac[0].T @ jac[0], jac[0].T @ r.reshape(-1, 1)
    rungs = np.multiply.accumulate([1e-3, 10.0, 10.0])
    steps = _damped_steps(np.repeat(normal[None], 3, 0), np.repeat(gradient[None], 3, 0), rungs, basis)
    for step, rung in zip(steps, rungs):
        alone = _damped_steps(normal[None], gradient[None], np.array([rung]), basis)[0]
        assert step.tobytes() == alone.tobytes()
    assert len({step.tobytes() for step in steps}) == 3


@pytest.mark.parametrize("name, signature", [("L4_2", (1, 3)), ("L4_3", (1, 3)), ("L5_2", (1, 4))])
@pytest.mark.parametrize("seed", [101, 102, 107])
def test_listed_ricci_flat_metrics_are_reached(name, signature, seed):
    algebra = make_algebra(name)
    spec = SearchSpec(algebra, signature=signature, seed=seed)
    result = run_search(spec)
    assert result.converged
    assert einstein_residual(algebra, result.best_gram, "ricci-flat") <= spec.tol
    verdict = MetricLieAlgebra(algebra, result.best_gram).einstein_classify().verdict
    assert verdict in (Verdict.FLAT, Verdict.RICCI_FLAT)


@pytest.mark.parametrize(
    "algebra, target, signature",
    [(heisenberg(), "einstein", (0, 3)), (make_algebra("L4_3"), "ricci-flat", (0, 4))],
    ids=["euclidean-heisenberg-einstein", "euclidean-L4_3-ricci-flat"],
)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 101, 102, 107])
def test_unreachable_targets_stop_before_the_budget(algebra, target, signature, seed):
    result = run_search(SearchSpec(algebra, target=target, signature=signature, seed=seed))
    assert not result.converged
    assert "converged" not in result.stop_reasons
    assert "budget" not in result.stop_reasons


def test_settle_stops_a_restart_whose_ricci_routes_disagree(monkeypatch):
    # every L3_2 restart reaches the classifier at iteration 0, whose
    # cross-check here always fails: the one stacked call of 8 finds every
    # member's routes apart, each stops as degenerating, and none converges
    calls = _classifications(monkeypatch)
    exact_q = mlie.curvature.q_operators
    monkeypatch.setattr(mlie.curvature, "q_operators", lambda s, eps: exact_q(s, eps) + 1.0)
    result = run_search(SearchSpec(make_algebra("L3_2"), signature=(1, 2), seed=0))
    assert calls == [8]
    assert result.stop_reasons == ("degenerating",) * 8
    assert not result.converged and result.best_gram is None


@pytest.mark.parametrize("error", [NotNilpotent("not a cross-check failure"), RuntimeError("boom")])
def test_settle_lets_other_errors_through(error, monkeypatch):
    def raising(self, tol):
        raise error

    monkeypatch.setattr(mlie.curvature._CurvatureFacts, "verdicts", raising)
    with pytest.raises(type(error)):
        run_search(SearchSpec(make_algebra("L3_2"), signature=(1, 2), seed=0))


def _settled_alone(spec, eps, a, ric_g, residual):
    """(stop reason, residual, report or None) of one restart with factor a,
    decided by its own metric: its gram AᵀηA, η = diag(eps), classified by
    MetricLieAlgebra."""
    _, (defect,), (cut,) = _einstein_defects(ric_g[None], VERDICT_TOL)
    if defect > cut:
        return "", residual, None
    try:
        gram = Gram(a.T @ np.diag(eps) @ a)
        report = MetricLieAlgebra(spec.algebra, gram).einstein_classify(VERDICT_TOL)
    except (DegenerateGram, RuntimeError) as err:
        assert isinstance(err, DegenerateGram) or is_route_mismatch(err)
        return "degenerating", residual, None
    value = _residuals(report.ricci_operator[None], spec.target == "einstein")[0]
    met = value <= spec.tol and report.verdict in (Verdict.RICCI_FLAT, Verdict.FLAT)
    return ("converged" if met else ""), value, report


def test_a_stacked_settle_decides_each_member_alone(monkeypatch):
    # one stack of L4_2 restarts: Ricci-flat catalog metrics, metrics that
    # fail the Einstein test, one degenerate gram, and one metric whose Ricci
    # routes are forced apart.  The one stacked call finds that member's
    # routes apart and decides the others; every member's reason and residual
    # are those its own metric gives, bit for bit
    algebra = make_algebra("L4_2")
    spec = SearchSpec(algebra, signature=(1, 3))
    eps = _lorentzian_signs(4)
    eta = np.diag(eps)
    rng = np.random.default_rng(7)
    metrics = [make_metric("L4_2", "m42", {"alpha": alpha, "a": x}) for alpha, x in
               [(1.0, 0.3), (-2.0, -0.5), (0.5, 0.0), (3.0, 0.9), (1.5, -0.2)]]
    for _ in range(2):
        f = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        metrics.append(MetricLieAlgebra(algebra, Gram(f.T @ eta @ f)))
    factors = [m._frame[1][0] for m in metrics]
    assert all(np.array_equal(m._frame[0][0], np.diag(eta)) for m in metrics)
    ric_g = [m.ricci_operator() for m in metrics]
    forced = 1  # the member whose routes disagree
    factors.append(np.diag([1.0, 1.0, 1.0, 0.0]) @ factors[0])  # a degenerate gram
    ric_g.append(np.zeros((4, 4)))
    a, ric_g = np.array(factors), np.array(ric_g)
    residual = np.arange(len(a)) + 0.5

    target = structure_endo_tensors(metrics[forced]._facts.brackets(), metrics[forced]._frame[0])
    exact_q = mlie.curvature.q_operators

    def apart(s, eps):
        hit = np.abs(s - target).max(axis=(1, 2, 3)) <= 1e-9 * np.abs(target).max()
        return exact_q(s, eps) + hit[:, None, None]

    monkeypatch.setattr(mlie.curvature, "q_operators", apart)
    alone = [_settled_alone(spec, eps, *member) for member in zip(a, ric_g, residual)]
    made = []
    facts = search._CurvatureFacts
    monkeypatch.setattr(search, "_CurvatureFacts", lambda *args: made.append(facts(*args)) or made[-1])
    reasons, got = _settle(spec, eps, a, ric_g, residual)
    (stacked,) = made  # one stacked call, on the Ricci-flat metrics
    agree = stacked.routes_agree()
    assert agree.tolist() == [report is not None for _, _, report in alone[:5]]
    assert [reason for reason, *_ in alone] == list(reasons)
    assert [value for _, value, _ in alone] == got.tolist()
    # the verdicts and Ricci operators of the members, as settle read them
    verdicts = stacked.verdicts(VERDICT_TOL)[0]
    for ok, verdict, ric, (_, _, report) in zip(agree, verdicts, stacked.ricci_unchecked(), alone):
        if ok:
            assert verdict is report.verdict
            assert ric.tobytes() == report.ricci_operator.tobytes()
    assert list(reasons) == ["converged", "degenerating"] + ["converged"] * 3 + ["", "", "degenerating"]
    assert got[[1, 5, 6, 7]].tolist() == [1.5, 5.5, 6.5, 7.5]  # residuals of the unclassified


@pytest.mark.parametrize("name, signature", [("L3_2", (1, 2)), ("L4_2", (1, 3)), ("L5_2", (1, 4))])
@pytest.mark.parametrize("seed", range(5))
def test_residual_of_a_converged_search_is_its_einstein_residual(name, signature, seed):
    # settle takes the residual from its one classification's Ricci operator
    algebra = make_algebra(name)
    result = run_search(SearchSpec(algebra, signature=signature, seed=seed))
    assert result.converged
    assert result.residual == einstein_residual(algebra, result.best_gram, "ricci-flat")


def _classifications(monkeypatch):
    """The size of every stack of metrics settle classifies, recorded as its
    curvature facts are made."""
    calls = []
    facts = search._CurvatureFacts
    monkeypatch.setattr(
        search,
        "_CurvatureFacts",
        lambda c, frame, nilpotent: calls.append(len(frame[0])) or facts(c, frame, nilpotent),
    )
    return calls


@pytest.mark.parametrize("name, signature", [("L3_2", (1, 2)), ("L4_2", (1, 3)), ("L5_2", (1, 4))])
@pytest.mark.parametrize("seed", range(5))
def test_settle_classifies_only_restarts_that_converge(name, signature, seed, monkeypatch):
    # a restart within spec.tol is classified only once its own Ricci operator
    # passes the verdict's Einstein test, so no classification is spent on
    # one that goes on
    calls = _classifications(monkeypatch)
    result = run_search(SearchSpec(make_algebra(name), signature=signature, seed=seed))
    assert result.converged
    assert sum(calls) == result.stop_reasons.count("converged")


@pytest.mark.parametrize("signature", [(0, 3), (1, 2)])
def test_einstein_target_with_nonzero_lambda_is_classified_once_per_restart(signature, monkeypatch):
    # every metric on the algebra of real hyperbolic space, [e0, ei] = ei, is
    # Einstein with λ ≠ 0: each restart's Ric_G = B·Ric_η·A, measured at the
    # loop top, passes settle's test and is classified once, at iteration 0,
    # all 8 in one stack; settle evaluates no Ricci operator of its own
    algebra = LieAlgebra.from_brackets(3, {(0, 1): {1: 1.0}, (0, 2): {2: 1.0}})
    calls = _classifications(monkeypatch)
    ricci_callers = Counter()
    ricci = search._ricci
    monkeypatch.setattr(
        search,
        "_ricci",
        lambda *args: ricci_callers.update([sys._getframe(1).f_code.co_name]) or ricci(*args),
    )
    result = run_search(SearchSpec(algebra, target="einstein", signature=signature, seed=0))
    assert result.stop_reasons == ("converged",) * 8 and result.iterations == 0
    assert calls == [8]
    assert set(ricci_callers) == {"_forward"}  # none from settle
    report = MetricLieAlgebra(algebra, result.best_gram).einstein_classify()
    assert report.verdict is Verdict.EINSTEIN and abs(report.einstein_lambda) > 1.0


def _solves_by_search_caller(monkeypatch):
    """Count the np.linalg.solve, np.linalg.inv and np.linalg.qr calls made
    from mlie modules, by (calling module, the mlie.search function that led
    to them)."""
    calls = Counter()
    for name in ("solve", "inv", "qr"):

        def spy(*args, _real=getattr(np.linalg, name), **kwargs):
            frame = sys._getframe(1)
            module = frame.f_globals.get("__name__", "")
            if module.startswith("mlie."):
                while frame.f_globals.get("__name__") != "mlie.search":
                    frame = frame.f_back
                calls[module, frame.f_code.co_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def _counted(monkeypatch, *names):
    """Count the calls of the named mlie.search functions."""
    calls = Counter()
    for name in names:
        fn = getattr(search, name)
        monkeypatch.setattr(
            search, name, lambda *args, _fn=fn, _name=name: calls.update([_name]) or _fn(*args)
        )
    return calls


@pytest.mark.parametrize(
    "case, seed, restarts", [("L4_3", 0, 8), ("L5_5", 0, 8), ("non-nilpotent", 1, 2)]
)
def test_the_search_solves_nothing_against_its_frame(case, seed, restarts, monkeypatch):
    # in the frame η = diag(ε) every solve of the kernel is a sign flip,
    # settle's classification of a converged gram AᵀηA works in that gram's
    # own frame, and the search moves Ric_η by the B = A⁻¹ its forward call
    # made: the one inverse is the forward's, and the one solve is the damped
    # step's
    algebra = _case_algebra(case)
    stratum = algebra.is_nilpotent()
    assert stratum == (case != "non-nilpotent")
    spec = SearchSpec(algebra, signature=(1, algebra.n - 1), seed=seed, restarts=restarts)
    classified = _classifications(monkeypatch)
    calls = _solves_by_search_caller(monkeypatch)
    built = _counted(monkeypatch, "_flag_directions")
    result = run_search(spec)
    assert result.converged and classified  # settle's classification ran under the spy
    assert result.iterations > 0
    # no QR either: every search steps on one basis, built once
    assert set(calls) == {("mlie.search", "_forward"), ("mlie.search", "_damped_steps")}
    # the flag search builds its basis of S, every other one takes gl(n)
    assert built == ({"_flag_directions": 1} if stratum else {})


def _stratum_spec(name, **kwargs):
    algebra = make_algebra(name)
    return SearchSpec(algebra, signature=(1, algebra.n - 1), **kwargs)


_RICCI_FLAT_ONLY = {Verdict.RICCI_FLAT}


@pytest.mark.parametrize(
    "name, verdicts",
    [
        ("L4_2", {Verdict.FLAT}),
        ("L5_2", {Verdict.FLAT}),
        ("L4_3", {Verdict.FLAT, Verdict.RICCI_FLAT}),
        ("L5_3", _RICCI_FLAT_ONLY),
        ("L5_5", _RICCI_FLAT_ONLY),
        ("L5_6", _RICCI_FLAT_ONLY),
        ("L5_8", _RICCI_FLAT_ONLY),
        ("L5_9", _RICCI_FLAT_ONLY),
    ],
)
@pytest.mark.parametrize("seed", range(4))
def test_the_stratum_search_reaches_the_paper_s_ricci_flat_metrics(name, verdicts, seed):
    # in dimension ≤ 5 a Lorentzian Ricci-flat nilpotent metric has a
    # degenerate center; the search holds z ∈ Z ∩ [g,g] null and its
    # hyperplane z^⊥ admissible on every iterate, and reaches such a metric
    # at a tolerance near rounding, with a degenerate center at the default
    # tolerance too
    for tol in (1e-12, SearchSpec.tol):
        spec = _stratum_spec(name, seed=seed, tol=tol)
        result = run_search(spec)
        assert result.converged and result.residual <= tol
        gram = result.best_gram.mat
        report = MetricLieAlgebra(spec.algebra, result.best_gram).einstein_classify()
        assert report.verdict in verdicts
        center = classify_subspace(result.best_gram, spec.algebra.center())
        assert center.tag is SubspaceTag.DEGENERATE
        z, alpha = result.central_vector, result.hyperplane
        assert z.shape == alpha.shape == (spec.algebra.n,)
        assert not z.flags.writeable and not alpha.flags.writeable
        assert spec.algebra.center().contains(z) and spec.algebra.derived_ideal().contains(z)
        assert abs(z @ gram @ z) <= 1e-12 * np.abs(gram).max()
        # z^⊥ = ker α under the found gram, and α is in z's α-space
        g_z = gram @ z
        assert np.abs(g_z - (g_z @ alpha) * alpha).max() <= 1e-12 * np.abs(gram).max()
        forms = _double_extension_reading(spec.algebra)[1]
        assert np.abs(alpha - alpha @ forms.T @ forms).max() <= 1e-12


@pytest.mark.parametrize("name, signature", [("L4_2", (1, 3)), ("L5_2", (1, 4))])
@pytest.mark.parametrize("seed", range(4))
def test_the_flag_start_is_already_flat_on_l4_2_and_l5_2(name, signature, seed):
    # with its central vector null and an admissible hyperplane, every start
    # on these algebras has K = D = 0 in the model, so it is flat: each
    # restart converges at iteration 0, before any step
    result = run_search(SearchSpec(make_algebra(name), signature=signature, seed=seed))
    assert result.stop_reasons == ("converged",) * 8 and result.iterations == 0
    verdict = MetricLieAlgebra(make_algebra(name), result.best_gram).einstein_classify().verdict
    assert verdict is Verdict.FLAT


@pytest.mark.parametrize("name, seed", [("L5_4", 0), ("L5_7", 1)])
def test_the_stratum_search_finds_nothing_where_no_ricci_flat_metric_exists(name, seed):
    # L5_4 and L5_7 carry no Lorentzian Ricci-flat metric
    result = run_search(_stratum_spec(name, seed=seed))
    assert "converged" not in result.stop_reasons
    assert not result.converged and result.best_gram is None
    assert result.central_vector is not None


@pytest.mark.parametrize(
    "case, target, signature",
    [
        ("L4_3", "ricci-flat", (0, 4)),
        ("L4_3", "ricci-flat", (2, 2)),
        ("L4_3", "einstein", (1, 3)),
        ("EX6", "ricci-flat", (1, 5)),  # Ricci-flat with a nondegenerate center
        ("abelian", "ricci-flat", (1, 3)),
        ("non-nilpotent", "ricci-flat", None),
    ],
)
def test_only_lorentzian_ricci_flat_nilpotent_searches_up_to_dimension_5_hold_a_null_center(
    case, target, signature
):
    algebra = LieAlgebra.abelian(4) if case == "abelian" else _case_algebra(case)
    spec = SearchSpec(algebra, target=target, signature=signature or (1, algebra.n - 1))
    assert _held_flag(spec) is None


@pytest.mark.parametrize("name, signature", [("EX6", (1, 5)), ("EX7", (1, 6))])
@pytest.mark.parametrize("seed", range(2))
def test_the_search_off_the_stratum_reaches_the_paper_s_first_examples(name, signature, seed):
    # EX6 and EX7 are Ricci-flat with a nondegenerate center; off the stratum
    # the search holds no central vector and steps on all of gl(n)
    algebra = make_algebra(name)
    spec = SearchSpec(algebra, signature=signature, seed=seed)
    result = run_search(spec)
    assert result.central_vector is None
    assert result.converged and result.stop_reasons == ("converged",) * spec.restarts
    assert einstein_residual(algebra, result.best_gram, "ricci-flat") <= spec.tol
    verdict = MetricLieAlgebra(algebra, result.best_gram).einstein_classify().verdict
    assert verdict in (Verdict.FLAT, Verdict.RICCI_FLAT)


def test_the_flag_start_and_steps_keep_z_null_and_its_hyperplane_admissible():
    spec = _stratum_spec("L5_5")
    algebra, n = spec.algebra, spec.algebra.n
    z, forms = _held_flag(spec)
    e, eta_e = _null_flag(n)
    eta = np.diag(_lorentzian_signs(n))
    assert abs(e @ eta @ e) <= 1e-16 and np.abs(eta @ e - eta_e).max() == 0.0
    a = np.eye(n) + 0.1 * np.random.default_rng(3).standard_normal((4, n, n))
    # the reflection sends A·z onto the line of ê and keeps every singular value
    turned = _onto_null_line(a, z)
    sv = np.linalg.svd(a, compute_uv=False)
    assert np.abs(np.linalg.svd(turned, compute_uv=False) - sv).max() <= 1e-14 * sv.max()
    # the flag start keeps A·z on that line and makes the row êᵀηA the
    # projection α of the reflected row onto the α-space
    start = _onto_flag(a, z, forms)
    az = start @ z
    assert np.abs(az - np.linalg.norm(az, axis=1)[:, None] * e).max() <= 1e-14
    row = e @ eta @ start
    want = (e @ eta @ turned) @ forms.T @ forms
    assert np.abs(row - want).max() <= 1e-14
    # S = {X : X·ê ∥ ê, Xᵀ·ηê ∥ ηê} has a Frobenius-orthonormal basis of
    # n² − 2n + 3 members, each keeping the line of ê and that of ηê
    basis = _flag_directions(n)
    assert basis.shape == (n * n - 2 * n + 3, n, n)
    flat = basis.reshape(len(basis), -1)
    assert np.abs(flat @ flat.T - np.eye(len(basis))).max() <= 1e-14
    moved, covectors = basis @ e, eta_e @ basis
    assert np.abs(moved - np.outer(moved @ e, e)).max() <= 1e-14
    assert np.abs(covectors - np.outer(covectors @ eta_e, eta_e)).max() <= 1e-14
    # after a step on S the central vector is still on the line of ê, and
    # H = A⁻¹(ê^⊥) = ker êᵀηA contains Z + [g,g] with [H,H] ⊆ Rz
    x = 0.3 * np.einsum("mj,jab->mab", np.random.default_rng(4).standard_normal((4, len(basis))), basis)
    stepped = (np.eye(n) + x) @ start
    az = stepped @ z
    assert np.abs(az - np.linalg.norm(az, axis=1)[:, None] * e).max() <= 1e-14
    for alpha in e @ eta @ stepped:
        hyperplane = nullspace(alpha[None], algebra.tol)
        for sub in (algebra.center(), algebra.derived_ideal()):
            assert np.abs(sub.basis @ alpha).max() <= 1e-14 * np.abs(alpha).max()
        brackets = np.einsum("ai,bj,ijk->abk", hyperplane, hyperplane, algebra.c)
        off_z = brackets - np.multiply.outer(brackets @ z, z)
        assert np.abs(brackets).max() > 0.1 and np.abs(off_z).max() <= 1e-14


def test_a_spec_with_no_admissible_hyperplane_steps_on_gl_n(monkeypatch):
    # no catalog algebra of dimension ≤ 5 has an empty α-space (EX8's is, in
    # dimension 8); were it empty, the spec would hold no flag and step on
    # the n² unit matrices.  A fresh algebra leaves the shared catalog memo be
    reading = search._double_extension_reading
    monkeypatch.setattr(
        search, "_double_extension_reading", lambda algebra: (reading(algebra)[0], np.zeros((0, algebra.n)))
    )
    widths = []
    jacobians = search._jacobians
    monkeypatch.setattr(search, "_jacobians", lambda *args: widths.append(len(args[-1])) or jacobians(*args))
    built = _counted(monkeypatch, "_flag_directions", "_onto_flag")
    result = run_search(SearchSpec(LieAlgebra(make_algebra("L4_3").c), signature=(1, 3), seed=0))
    assert result.central_vector is None and result.hyperplane is None
    assert widths and set(widths) == {16} and not built


def test_the_algebra_s_reading_is_made_once_and_shared(monkeypatch):
    # z and its α-space depend on the algebra alone: two searches on one
    # algebra make them once and hold one read-only z, and a spec off the
    # flag's gates makes no reading at all
    made = []
    forms = doubleext._admissible_forms
    monkeypatch.setattr(doubleext, "_admissible_forms", lambda *args: made.append(1) or forms(*args))
    algebra = LieAlgebra(make_algebra("L4_3").c)
    first, second = (run_search(SearchSpec(algebra, signature=(1, 3), seed=seed)) for seed in (0, 1))
    assert len(made) == 1
    assert first.central_vector is second.central_vector and not first.central_vector.flags.writeable
    euclidean = LieAlgebra(make_algebra("L3_2").c)
    run_search(SearchSpec(euclidean, target="einstein", signature=(0, 3)))
    assert "_double_extension_reading" not in euclidean._memo and len(made) == 1


def test_the_flag_basis_is_made_once_per_n_and_read_only():
    basis = _flag_directions(4)
    assert _flag_directions(4) is basis and not basis.flags.writeable
    assert _flag_directions(5) is not basis and len(_flag_directions(5)) == 18


@pytest.mark.parametrize(
    "name, signature, target",
    [
        ("L3_2", (1, 2), "ricci-flat"),
        ("L4_2", (1, 3), "ricci-flat"),
        ("L4_3", (1, 3), "ricci-flat"),
        ("L5_2", (1, 4), "ricci-flat"),
        ("L3_2", (0, 3), "einstein"),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_the_cond_check_makes_no_svd_on_the_workload_s_specs(name, signature, target, seed, monkeypatch):
    # ‖A‖_F·‖B‖_F bounds cond₂(A) from above, so np.linalg.cond sees only the
    # factors whose bound passes _MAX_COND: none on these specs
    conds = _conds(monkeypatch)
    run_search(SearchSpec(make_algebra(name), target=target, signature=signature, seed=seed))
    assert conds and sum(map(len, conds)) == 0


def test_the_cond_check_still_decides_where_the_bound_passes(monkeypatch):
    # on the pinned L5_6 Einstein search some factors' bound passes
    # _MAX_COND, and there np.linalg.cond stops a restart as degenerating;
    # the results keep their bits (test_the_damping_ladder_keeps_the_parent_s_results)
    conds = _conds(monkeypatch)
    result = run_search(SearchSpec(make_algebra("L5_6"), target="einstein", signature=(1, 4), seed=1))
    assert (np.concatenate(conds) > _MAX_COND).sum() == 1
    assert result.stop_reasons.count("degenerating") == 1


def _conds(monkeypatch):
    """The values of each np.linalg.cond call."""
    conds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda x: conds.append(cond(x)) or conds[-1])
    return conds


def test_a_search_result_compares_by_identity_and_hashes():
    # a flag search holds arrays (its central vector and hyperplane), so ==
    # is identity, as for a report
    spec = SearchSpec(make_algebra("L4_3"), signature=(1, 3), seed=0, restarts=2)
    first, second = run_search(spec), run_search(spec)
    assert first.central_vector is not None
    assert first == first and first != second
    assert hash(first) != hash(second) and {first: 1}[first] == 1
