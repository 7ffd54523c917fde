import hashlib

import numpy as np
import pytest

from mlie import doubleext
from mlie.catalog import make_metric
from mlie.curvature import MetricLieAlgebra, Verdict, _CurvatureFacts
from mlie.catalog import make_algebra
from mlie.doubleext import (
    ExtensionData,
    _admissible_forms,
    _double_extension_reading,
    check_admissible,
    decompose,
    extend,
    guediri_2step,
    kd_generate,
    model_residual,
    random_admissible,
    ricci_ebar,
)
from mlie.errors import ConstraintViolation, InvalidInput, NotApplicable, NotLie, SingularK0
from mlie.liealg import LieAlgebra, act_on_brackets
from mlie.pseudolin import DEFAULT_TOL, Gram, SubspaceTag, classify_subspace, nullspace


ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_extension_data_antisymmetrizes_k():
    data = ExtensionData(np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros((2, 2)))
    assert np.array_equal(data.K, -data.K.T)
    assert data.K[0, 1] == 1.0  # upper triangle wins


def test_extension_data_shape_validation():
    with pytest.raises(InvalidInput):
        ExtensionData(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(InvalidInput):
        ExtensionData(np.zeros((2, 2)), np.zeros((2, 2)), b=np.zeros(3))


def test_rotation_block_is_admissible():
    data = ExtensionData(ROT, np.zeros((2, 2)))
    adm = check_admissible(data, DEFAULT_TOL)
    assert adm.is_lie
    assert adm.is_nilpotent
    assert not adm.is_einstein  # tr(K²) = −2 ≠ 0 with D = 0


def test_ricci_ebar_oracle_half():
    # D = 0, K the 2x2 rotation: ric(ē,ē) = −¼ tr(K²) = ½
    data = ExtensionData(ROT, np.zeros((2, 2)))
    assert ricci_ebar(data) == pytest.approx(0.5)


def test_extend_rejects_non_lie_data():
    data = ExtensionData(ROT, np.diag([1.0, 2.0]))  # KD + DᵀK ≠ μK
    with pytest.raises(NotLie):
        extend(data)


def test_extend_refuses_a_nan_tol_instead_of_calling_the_data_not_lie():
    data = ExtensionData(ROT, np.zeros((2, 2)))  # Lie data: K∘D + Dᵀ∘K = 0
    with pytest.raises(InvalidInput, match="^tol must be a positive finite number$"):
        extend(data, float("nan"))


def test_extend_zero_data_is_abelian_flat():
    data = ExtensionData(np.zeros((3, 3)), np.zeros((3, 3)))
    m = extend(data)
    assert m.n == 5
    assert np.abs(m.algebra.c).max() == 0.0
    report = m.einstein_classify()
    assert report.verdict is Verdict.FLAT
    sig = m.signature()
    assert (sig.minus, sig.plus, sig.null) == (1, 4, 0)


def test_extend_and_guediri_build_at_their_tol():
    t = 1e-6
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c = np.array([[1.0], [0.0]])  # Σa² = 2 = 2Σc²
    for m in (
        extend(ExtensionData(ROT, np.zeros((2, 2))), tol=t),
        guediri_2step(np.array([0.3, -0.7]), c, a, tol=t),
    ):
        assert m.algebra.tol == t
        assert m.einstein_classify().signature == m.signature()


def test_extend_einstein_family_is_ricci_flat():
    # K a scaled rotation paired with a nilpotent D balancing the trace term
    for a in (0.5, 1.0, 2.0):
        k = a * ROT
        d = np.array([[0.0, a], [0.0, 0.0]])
        data = ExtensionData(k, d)
        adm = check_admissible(data, DEFAULT_TOL)
        assert adm.is_lie and adm.is_nilpotent and adm.is_einstein
        m = extend(data)
        assert m.algebra.is_nilpotent()
        report = m.einstein_classify()
        assert report.verdict is Verdict.RICCI_FLAT
        assert ricci_ebar(data) == pytest.approx(0.0, abs=1e-12)


def test_extend_bracket_table():
    # [ē, f_i] = D f_i + b_i e and [f_i, f_j] = ⟨K f_i, f_j⟩ e
    k = ROT
    d = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.25, -0.5])
    m = extend(ExtensionData(k, d, b=b))
    e = np.eye(4)  # basis (e, f1, f2, ē)
    assert m.algebra.bracket(e[3], e[1]) == pytest.approx([0.25, 0.0, 0.0, 0.0])
    assert m.algebra.bracket(e[3], e[2]) == pytest.approx([-0.5, 1.0, 0.0, 0.0])
    assert m.algebra.bracket(e[1], e[2]) == pytest.approx([1.0, 0.0, 0.0, 0.0])
    assert m.algebra.bracket(e[0], e[3]) == pytest.approx([0.0, 0.0, 0.0, 0.0])
    assert e[0] @ m.gram.mat @ e[3] == 1.0
    assert e[0] @ m.gram.mat @ e[0] == 0.0


def test_extend_mu_nonzero_not_nilpotent():
    rng = np.random.default_rng(2)
    data = random_admissible(rng, f_dim=2, blocks=1, nilpotent=False)
    assert data.mu != 0.0
    m = extend(data)
    assert not m.algebra.is_nilpotent()
    obs = m.ricci_via_definition()[m.n - 1, m.n - 1]
    assert ricci_ebar(data) == pytest.approx(obs, abs=1e-9 * max(1.0, abs(obs)))


def test_trace_residual_is_four_times_ricci_ebar():
    rng = np.random.default_rng(6)
    for nilpotent in (True, False) * 20:
        data = random_admissible(rng, f_dim=int(rng.integers(0, 4)), nilpotent=nilpotent)
        data = ExtensionData(data.K, data.D + 1e-3 * rng.normal(), data.mu, data.b)
        assert check_admissible(data, DEFAULT_TOL).trace_residual == 4 * abs(ricci_ebar(data))


def test_check_admissible_skips_the_nilpotency_power_when_decided(monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix_power called")

    rng = np.random.default_rng(4)
    mu_data = random_admissible(rng, nilpotent=False)
    non_lie = ExtensionData(ROT, np.diag([1.0, 2.0]))
    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    adm = check_admissible(mu_data, DEFAULT_TOL)
    assert adm.is_lie and not adm.is_nilpotent
    assert not check_admissible(non_lie, DEFAULT_TOL).is_lie


def test_decompose_roundtrip_seeded():
    rng = np.random.default_rng(7)
    for _ in range(20):
        data = random_admissible(
            rng, f_dim=int(rng.integers(1, 4)), blocks=int(rng.integers(1, 3))
        )
        m = extend(data)
        dec = decompose(m)
        assert dec is not None
        assert dec.data.mu == 0.0
        assert model_residual(m, dec) < 1e-8


def test_decompose_flat_l32():
    m = make_metric("L3_2", "m32", {"alpha": 1.0})
    dec = decompose(m)
    assert dec is not None
    assert dec.data.v_dim == 1
    assert np.abs(dec.data.K).max() == 0.0
    assert np.abs(dec.data.D).max() == 0.0
    assert model_residual(m, dec) < 1e-12


def test_model_residual_measures_non_lie_data():
    # a measurement: data failing K∘D + Dᵀ∘K = μK gives a residual, not NotLie
    m = extend(random_admissible(np.random.default_rng(3), f_dim=0, blocks=1))
    dec = decompose(m)
    bad = ExtensionData(ROT, np.diag([1.0, 2.0]))
    with pytest.raises(NotLie):
        extend(bad)
    resid = model_residual(m, dec._replace(data=bad))
    assert np.isfinite(resid) and resid >= 1.0


def test_model_residual_refuses_a_basis_change_of_another_size():
    m = extend(random_admissible(np.random.default_rng(3), f_dim=0, blocks=1))
    dec = decompose(m)
    n = m.n
    for bad in (np.eye(3), np.eye(n + 1), np.ones(n), np.stack([np.eye(n)] * 2)):
        with pytest.raises(InvalidInput, match="^basis change must be"):
            model_residual(m, dec._replace(basis_change=bad))
    with pytest.raises(InvalidInput, match="^basis change must be"):
        model_residual(make_metric("EX8"), dec._replace(basis_change=np.eye(3)))


def test_model_residual_refuses_data_of_another_core_dimension():
    # the model of v = 3 data has dimension 5, the metric dimension 4
    m = extend(random_admissible(np.random.default_rng(3), f_dim=0, blocks=1))
    dec = decompose(m)
    other = random_admissible(np.random.default_rng(4), f_dim=1, blocks=1)
    assert (m.n, other.v_dim) == (4, 3)
    refusal = "^data of core dimension 3 extend to dimension 5, the metric has dimension 4$"
    with pytest.raises(InvalidInput, match=refusal):
        model_residual(m, dec._replace(data=other))


def test_model_residual_refuses_a_singular_basis_change():
    m = extend(random_admissible(np.random.default_rng(3), f_dim=0, blocks=1))
    dec = decompose(m)
    rank_one = np.outer(np.arange(1.0, 5.0), np.ones(4))
    for bad in (np.zeros((4, 4)), rank_one):
        with pytest.raises(InvalidInput, match="^basis change is singular$"):
            model_residual(m, dec._replace(basis_change=bad))


def _mixed_stack(v: int, rng: np.random.Generator):
    """ExtensionData of core dimension v of every kind check_admissible tells
    apart: nilpotent draws, μ ≠ 0 draws, D with a nonzero eigenvalue at μ = 0
    and, where K can be nonzero (v >= 2), a D that breaks the bracket
    condition and a K scaled by 1.3 that breaks the trace condition."""
    shapes = {0: [(0, 0)], 1: [(1, 0)]}.get(v, [(v - 2, 1), (v - 4, 2)] if v >= 4 else [(v - 2, 1)])
    members = []
    for f_dim, blocks in shapes:
        for _ in range(3):
            nilpotent = random_admissible(rng, f_dim=f_dim, blocks=blocks)
            general = random_admissible(rng, f_dim=f_dim, blocks=blocks, nilpotent=False)
            members += [nilpotent, general]
            members.append(ExtensionData(nilpotent.K, nilpotent.D + np.eye(v), b=nilpotent.b))
            if v >= 2:
                members.append(ExtensionData(nilpotent.K * 1.3, nilpotent.D, b=nilpotent.b))
                members.append(ExtensionData(nilpotent.K, rng.normal(size=(v, v)), b=nilpotent.b))
    return members


@pytest.mark.parametrize("v", [0, 1, 2, 5])
def test_admissibilities_on_a_mixed_stack_is_check_admissible_per_member(v):
    members = _mixed_stack(v, np.random.default_rng(v))
    k, d, mu = (np.array([getattr(x, key) for x in members]) for key in ("K", "D", "mu"))
    for tol in (DEFAULT_TOL, 1e-6):
        stacked = doubleext._admissibilities(k, d, mu, tol)
        kinds = set()
        for r, data in enumerate(members):
            one = check_admissible(data, tol)
            assert [type(x) for x in one] == [bool, bool, bool, float, float]
            # all five fields, bit for bit
            assert [x[r].tobytes() for x in stacked] == [np.asarray(x).tobytes() for x in one]
            kinds.add(one[:3])
        assert (True, True, True) in kinds  # Lie, nilpotent, Einstein
        assert {(True, False, True), (True, False, False)} & kinds  # Lie, not nilpotent
        if v >= 2:  # not Lie, and Lie and nilpotent but not Einstein
            assert (False, False, False) in kinds and (True, True, False) in kinds


def test_decompose_is_well_conditioned_in_a_skewed_basis():
    # nilpotent extensions pulled through P = I + 0.3N: the data come out at the
    # metric's own scale, and the round trip is exact to roundoff
    rng = np.random.default_rng(2024)
    worst, largest, refused = 0.0, 0.0, []
    for draw in range(210):
        data = random_admissible(rng, f_dim=int(rng.integers(1, 4)), blocks=int(rng.integers(1, 3)))
        model = extend(data)
        n = model.n
        p = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        c = act_on_brackets(np.linalg.inv(p)[None], p[None], model.algebra.c)[0]
        m = MetricLieAlgebra(LieAlgebra(c), Gram(p.T @ model.gram.mat @ p))
        try:
            dec = decompose(m)
        except NotApplicable as err:
            refused.append((draw, str(err)))
            continue
        scale = max(1.0, np.abs(m.algebra.c).max(), np.abs(m.gram.mat).max())
        worst = max(worst, model_residual(m, dec) / scale)
        largest = max(largest, *(np.abs(x).max() for x in (dec.data.K, dec.data.D, dec.data.b)))
    # draw 48's lower central series does not reach 0 at tol in this basis
    assert refused == [(48, "algebra is not nilpotent")]
    assert worst <= 1e-12
    assert largest <= 100.0


def test_stacked_decompositions_read_each_member_in_its_own_frame():
    # three metrics of L4_3 with distinct parameters, so distinct frames, in
    # one pipeline: the stacked Witt reading and round trip give each member
    # its own decompose and model_residual, bit for bit
    params = ({"a": 0.3, "b": -0.7, "eps": 1}, {"a": 1.1, "b": 0.2, "eps": -1}, {"a": -0.5, "b": 0.9, "eps": 1})
    metrics = [make_metric("L4_3", "m43", p) for p in params]
    c, grams = (np.array(x) for x in zip(*((m.algebra.c, m.gram.mat) for m in metrics)))
    facts = _CurvatureFacts(c, grams, DEFAULT_TOL, True)
    assert facts.kept.all() and len({a.tobytes() for a in facts.frame[1]}) == 3
    e = np.array(facts.null_vectors(facts.centers()))
    (k, d, mu, b), p = doubleext._witt_decompositions(facts.brackets(), facts.frame, e, DEFAULT_TOL)
    assert not mu.any()
    decs = [decompose(m) for m in metrics]
    for r, dec in enumerate(decs):
        own = ExtensionData(k[r], d[r], b=b[r])  # as decompose reads its stack of one
        assert dec.basis_change.tobytes() == p[r].tobytes()
        for key in ("K", "D", "mu", "b"):
            assert np.asarray(getattr(dec.data, key)).tobytes() == np.asarray(getattr(own, key)).tobytes()
    resid = doubleext._model_residuals(facts.c, facts.grams, p, (k, d, mu, b))
    assert [model_residual(m, dec) for m, dec in zip(metrics, decs)] == resid.tolist()


def test_decompose_of_a_classified_metric_factors_nothing(monkeypatch):
    m = extend(random_admissible(np.random.default_rng(5), f_dim=2, blocks=2))
    m.einstein_classify()
    calls = []
    for name in ("solve", "cholesky", "inv"):
        fn = getattr(np.linalg, name)

        def spy(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    dec = decompose(m)
    assert dec is not None and calls == []


def test_decompose_none_for_definite_center():
    assert decompose(make_metric("EX6")) is None


def test_decompose_rejects_non_ricci_flat():
    hei = MetricLieAlgebra(
        LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}}), Gram.from_diagonal([-1.0, 1.0, 1.0])
    )
    with pytest.raises(NotApplicable):
        decompose(hei)


def test_decompose_rejects_non_lorentzian():
    m = make_metric("L3_2", "m32", {"alpha": 1.0})
    euclid = MetricLieAlgebra(m.algebra, np.eye(3))
    with pytest.raises(NotApplicable):
        decompose(euclid)


def test_kd_generate_block_form():
    k0 = ROT
    s = np.diag([1.0, -1.0])
    d1 = np.array([[0.0]])
    d2 = np.array([[1.0, 2.0]])
    data = kd_generate(d1, d2, k0, s, DEFAULT_TOL)
    assert data.v_dim == 3
    adm = check_admissible(data, DEFAULT_TOL)
    assert adm.is_lie
    # D3 = K0^{-1} S
    assert data.D[1:, 1:] == pytest.approx(np.linalg.solve(k0, s))
    # with F-perp = 0, K = 0 and D = D1
    empty = np.zeros((0, 0))
    data = kd_generate(d1, np.zeros((1, 0)), empty, empty, DEFAULT_TOL)
    assert np.array_equal(data.K, np.zeros((1, 1))) and np.array_equal(data.D, d1)


def test_kd_generate_validation():
    d1, d2 = np.zeros((1, 1)), np.zeros((1, 2))
    with pytest.raises(SingularK0):
        kd_generate(d1, d2, np.zeros((2, 2)), np.eye(2), DEFAULT_TOL)
    with pytest.raises(InvalidInput):
        kd_generate(d1, d2, np.eye(2), np.eye(2), DEFAULT_TOL)


def test_random_admissible_nilpotent_properties():
    rng = np.random.default_rng(13)
    for _ in range(10):
        data = random_admissible(rng, f_dim=2, blocks=2)
        adm = check_admissible(data, DEFAULT_TOL)
        assert adm.is_lie and adm.is_nilpotent and adm.is_einstein


#: every (f_dim, blocks, nilpotent) that random_admissible draws
_SHAPES = [
    (f_dim, blocks, nilpotent)
    for f_dim in range(4)
    for blocks in range(3)
    for nilpotent in (True, False)
    if not (nilpotent and blocks == 0 and f_dim >= 2)
]


def test_random_admissible_draws_the_bits_it_drew_as_scalar_code():
    # sha256 of (K, D, μ, b) over seeds 0-19 and every shape, frozen from the
    # scalar code that random_admissible was before it became the stack of one:
    # the same rng calls in the same order give the same data
    digest = hashlib.sha256()
    for seed in range(20):
        for f_dim, blocks, nilpotent in _SHAPES:
            data = random_admissible(np.random.default_rng(seed), f_dim, blocks, nilpotent)
            for x in (data.K, data.D, np.float64(data.mu), data.b):
                digest.update(np.asarray(x, dtype=float).tobytes())
    assert digest.hexdigest() == "b6ed9eba2d9b683d320b39bb020b6ac0a4f3ae9dfa0662fb7468aa66f0f049fe"


@pytest.mark.parametrize("f_dim, blocks, nilpotent", _SHAPES)
def test_stacked_draws_are_skew_lie_data_and_einstein_when_nilpotent(f_dim, blocks, nilpotent):
    k, d, mu, b = doubleext._random_admissibles(
        np.random.default_rng(f_dim + 3 * blocks), 40, f_dim, blocks, nilpotent
    )
    v = f_dim + 2 * blocks
    assert k.shape == d.shape == (40, v, v) and mu.shape == (40,) and b.shape == (40, v)
    assert np.array_equal(k, -k.swapaxes(1, 2))  # exactly skew, member by member
    adm = doubleext._admissibilities(k, d, mu, DEFAULT_TOL)
    assert adm.is_lie.all()
    if nilpotent:
        assert (mu == 0.0).all() and adm.is_nilpotent.all() and adm.is_einstein.all()
    else:
        assert (np.abs(mu) >= 0.5).all() and not adm.is_nilpotent.any()


def test_random_admissible_refuses_a_nilpotent_draw_it_cannot_balance():
    # with no rotation block there is no K to rescale against tr(DDᵀ) > 0
    for f_dim in (2, 3):
        with pytest.raises(InvalidInput, match="blocks >= 1"):
            random_admissible(np.random.default_rng(0), f_dim=f_dim, blocks=0)
    for f_dim in (0, 1):  # D = 0: the trace condition holds with K = 0
        data = random_admissible(np.random.default_rng(0), f_dim=f_dim, blocks=0)
        assert check_admissible(data, DEFAULT_TOL).is_einstein


def test_guediri_builds_through_extend(monkeypatch):
    calls = []
    build = doubleext.extend

    def spy(data, tol=DEFAULT_TOL):
        calls.append(data)
        return build(data, tol)

    monkeypatch.setattr(doubleext, "extend", spy)
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    m = guediri_2step(np.zeros(2), np.array([[1.0], [0.0]]), a)
    assert len(calls) == 1
    assert m.n == 5 and calls[0].v_dim == 3


def test_guediri_ricci_flat_and_degenerate_center():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c = np.array([[1.0], [0.0]])  # Σa² = 2 = 2Σc²
    m = guediri_2step(np.array([0.3, -0.7]), c, a, abelian_dim=1)
    assert m.n == 6
    assert m.algebra.is_nilpotent()
    report = m.einstein_classify()
    assert report.verdict is Verdict.RICCI_FLAT
    cls = classify_subspace(m.gram, m.algebra.center())
    assert cls.tag is SubspaceTag.DEGENERATE


def test_guediri_two_step_structure():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c = np.array([[1.0], [0.0]])
    m = guediri_2step(np.zeros(2), c, a)
    derived = m.algebra.derived_ideal()
    center = m.algebra.center()
    for row in derived.basis:
        assert center.contains(row)  # center.tol is the algebra's 1e-9


def test_guediri_family_round_trips_through_decompose():
    # draws shaped like verify's guediri check: q in {2,3}, p in {1,2}, abelian 0-2
    rng = np.random.default_rng(11)
    for _ in range(20):
        q, p, ab = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(0, 3))
        a = rng.normal(size=(q, q))
        a = a - a.T
        c = rng.normal(size=(q, p))
        c = c * np.sqrt(float(np.sum(a * a)) / (2.0 * float(np.sum(c * c))))
        m = guediri_2step(rng.normal(size=q), c, a, abelian_dim=ab)
        dec = decompose(m)
        assert dec is not None
        scale = max(1.0, float(np.abs(m.algebra.c).max()))
        assert model_residual(m, dec) <= 1e-12 * scale
        adm = check_admissible(dec.data, DEFAULT_TOL)
        assert adm.is_nilpotent and adm.is_einstein


def test_guediri_constraint_violation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c = np.sqrt(0.5) * np.array([[1.0], [1.0]])  # Σa²=2 but 2Σc²=2 ⟹ ok; scale breaks it
    guediri_2step(np.zeros(2), c, a)
    with pytest.raises(ConstraintViolation):
        guediri_2step(np.zeros(2), np.sqrt(2.0) * c, a)


#: the dimension of the α-space of the held central vector z on each
#: non-abelian nilpotent catalog algebra of dimension ≤ 5 and on the paper's
#: examples; EX8's is empty, so no hyperplane of its z is admissible
_ALPHA_SPACE_DIMS = {
    "L3_2": 2, "L4_2": 2, "L4_3": 2, "L5_2": 2, "L5_3": 2, "L5_5": 2, "L5_8": 2,
    "L5_6": 1, "L5_9": 1, "L5_7": 1, "L5_4": 4, "EX6": 1, "EX7": 1, "EX8": 0,
}


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e-6, 1.0, 1e6])
@pytest.mark.parametrize("name, dim", sorted(_ALPHA_SPACE_DIMS.items()))
def test_the_alpha_space_on_the_catalog(name, dim, scale):
    # z lies in Z ∩ [g,g], and every member α has H = ker α ⊇ Z + [g,g] and
    # [H,H] ⊆ Rz, checked on H's basis pair by pair; the α-space is decided
    # on c/max|c|, so the bracket's scale does not change it
    algebra = LieAlgebra(scale * make_algebra(name).c)
    z, forms = _double_extension_reading(algebra)
    assert forms.shape == (dim, algebra.n)
    assert not z.flags.writeable and not forms.flags.writeable
    assert algebra.center().contains(z) and algebra.derived_ideal().contains(z)
    assert np.abs(forms @ forms.T - np.eye(dim)).max(initial=0.0) <= 1e-14
    peak = np.abs(algebra.c).max()
    for alpha in forms:
        assert np.abs(algebra.center().basis @ alpha).max() <= 1e-14
        assert np.abs(algebra.derived_ideal().basis @ alpha).max() <= 1e-14
        h = nullspace(alpha[None], algebra.tol)
        for i in range(len(h)):
            for j in range(i):
                bracket = algebra.bracket(h[i], h[j])
                assert np.abs(bracket - (bracket @ z) * z).max() <= 1e-14 * peak


def test_an_abelian_or_non_nilpotent_algebra_has_no_reading():
    non_nilpotent = extend(random_admissible(np.random.default_rng(0), nilpotent=False)).algebra
    assert _double_extension_reading(LieAlgebra.abelian(3)) is None
    assert _double_extension_reading(non_nilpotent) is None


@pytest.mark.parametrize("seed", range(4))
def test_the_alpha_space_of_a_model_holds_its_hyperplane(seed):
    # in the model (e, f_1..f_v, ē), e^⊥ = Re ⊕ V is the kernel of the last
    # coordinate, an admissible hyperplane of the null central e
    model = extend(random_admissible(np.random.default_rng(seed), f_dim=2, blocks=1)).algebra
    n = model.n
    forms = _admissible_forms(model, np.eye(n)[0])
    last = np.eye(n)[-1]
    assert np.abs(last - last @ forms.T @ forms).max() <= 1e-12
