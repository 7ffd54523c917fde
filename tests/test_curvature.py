import hashlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mlie.curvature
import mlie.verify
from mlie.catalog import ALGEBRA_NAMES, make_algebra, make_metric
from mlie.curvature import (
    MetricLieAlgebra,
    Verdict,
    q_bracket_operators,
    ricci_general_forms,
    ricci_operators,
    structure_endo_tensors,
    trace_q_sides,
)
from mlie.doubleext import decompose, extend, random_admissible
from mlie.errors import DegenerateGram, InvalidInput, NotNilpotent, is_route_mismatch
from mlie.fileio import read_algebra
from mlie.liealg import LieAlgebra, act_on_brackets
from mlie.pseudolin import DEFAULT_TOL, Gram, Signature, classify_subspace
from mlie.search import SearchSpec, run_search


def euclidean_heisenberg():
    return MetricLieAlgebra(
        LieAlgebra.from_brackets(3, {(0, 1): {2: 1.0}}), Gram(np.eye(3))
    )


def random_frame(n, rng):
    """(A, ε) of a random nondegenerate gram AᵀηA, η = diag(ε)."""
    while True:
        a = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        if np.linalg.svd(a, compute_uv=False)[-1] >= 1e-3:
            break
    return a, rng.choice([-1.0, 1.0], size=n)


def random_gram(n, rng):
    a, eps = random_frame(n, rng)
    return Gram(a.T @ np.diag(eps) @ a)


def random_metric(name, rng):
    algebra = make_algebra(name)
    return MetricLieAlgebra(algebra, random_gram(algebra.n, rng))


def test_degenerate_gram_rejected():
    with pytest.raises(DegenerateGram):
        MetricLieAlgebra(LieAlgebra.abelian(2), Gram.from_diagonal([1.0, 0.0]))
    # the cutoff is tol * max(1, largest) = 1e-9: at the exact tie the gram is
    # degenerate, just above it it is not (as in test_signature_boundary_counts_null)
    with pytest.raises(DegenerateGram):
        MetricLieAlgebra(LieAlgebra.abelian(2), Gram.from_diagonal([1.0, 1e-9]))
    m = MetricLieAlgebra(LieAlgebra.abelian(2), Gram.from_diagonal([1.0, 1.0000001e-9]))
    assert m.signature() == Signature(minus=0, plus=2, null=0)


def test_metric_algebra_decides_its_signature_once_at_its_tol():
    # the eigenvalue 1e-10 is null at the default cutoff 1e-9 and positive at 1e-12
    gram = Gram.from_diagonal([-1.0, 1.0, 1e-10])
    with pytest.raises(DegenerateGram):
        MetricLieAlgebra(make_algebra("L3_2"), gram)
    m = MetricLieAlgebra(LieAlgebra(make_algebra("L3_2").c, 1e-12), gram)
    assert m.algebra.tol == 1e-12
    assert m.signature() == Signature(minus=1, plus=2, null=0)
    assert m.einstein_classify().signature == m.signature()


def levi_civita(m):
    """lc[i, j] = e_i·e_j of m, from the stacked Koszul kernel in m's frame."""
    return m._facts.levi_civita()[0]


def test_levi_civita_heisenberg_table():
    lc = levi_civita(euclidean_heisenberg())
    assert lc[0, 1] == pytest.approx([0.0, 0.0, 0.5])
    assert lc[1, 0] == pytest.approx([0.0, 0.0, -0.5])
    assert lc[0, 2] == pytest.approx([0.0, -0.5, 0.0])
    assert lc[2, 0] == pytest.approx([0.0, -0.5, 0.0])
    assert lc[1, 2] == pytest.approx([0.5, 0.0, 0.0])
    assert lc[0, 0] == pytest.approx([0.0, 0.0, 0.0])


def test_left_mult_skew_and_torsion_free():
    rng = np.random.default_rng(17)
    for name in ("L4_3", "L5_6", "EX7"):
        m = random_metric(name, rng)
        g = m.gram.mat
        products = levi_civita(m)  # [i,j] = e_i·e_j
        torsion = products - products.transpose(1, 0, 2) - m.algebra.c
        assert np.abs(torsion).max() < 1e-10
        for _ in range(5):
            u = rng.normal(size=m.n)
            l_u = np.tensordot(u, products, axes=1).T  # matrix of L_u: column j is u·e_j
            assert np.abs(g @ l_u + l_u.T @ g).max() < 1e-10


def test_ricci_heisenberg_diagonal():
    m = euclidean_heisenberg()
    assert m.ricci_via_definition() == pytest.approx(np.diag([-0.5, -0.5, 0.5]))
    assert m.ricci_operator() == pytest.approx(np.diag([-0.5, -0.5, 0.5]))


def test_structure_endos_heisenberg():
    m = euclidean_heisenberg()  # its gram is I, so the frame is the basis itself
    s = structure_endo_tensors(m.algebra.c[None], np.ones(3))[0]
    assert s[0] == pytest.approx(np.zeros((3, 3)))
    assert s[1] == pytest.approx(np.zeros((3, 3)))
    assert s[2] @ np.array([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0])
    assert s[2] @ np.array([0.0, 1.0, 0.0]) == pytest.approx([-1.0, 0.0, 0.0])


def test_j1_j2_heisenberg():
    m = euclidean_heisenberg()
    j1, j2 = m.j1_j2()
    assert j1 == pytest.approx(np.diag([1.0, 1.0, 0.0]))
    assert j2 == pytest.approx(np.diag([0.0, 0.0, 2.0]))
    assert -0.5 * j1 + 0.25 * j2 == pytest.approx(np.diag([-0.5, -0.5, 0.5]))


def test_ricci_nilpotent_requires_nilpotent():
    solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1.0}})
    m = MetricLieAlgebra(solvable, Gram(np.eye(2)))
    for _ in range(2):
        with pytest.raises(NotNilpotent):
            m.ricci_nilpotent()


def test_route_mismatch_on_an_ill_conditioned_gram(monkeypatch):
    # L5_8 with a gram of cond 6.5e5: in the input basis the 𝒥-route and
    # G⁻¹·ric differed by 1.2e-6 of max|Ric|, beyond the 1e-6 cross-check
    # bound; in the metric's frame, where no route solves, they agree
    path = str(Path(__file__).parent / "data" / "l58_route_mismatch.json")
    algebra, gram, _ = read_algebra(path, DEFAULT_TOL)
    assert MetricLieAlgebra(algebra, gram).einstein_classify().verdict is Verdict.NOT_EINSTEIN

    # routes forced apart: the cross-check raises from every call that reads
    # the Ricci operator, and a raise is never kept; the definitional form, the
    # curvature tensor and the flatness numbers stay readable
    exact_q = mlie.curvature.q_operators
    monkeypatch.setattr(mlie.curvature, "q_operators", lambda s, eps: exact_q(s, eps) + 1.0)
    m = MetricLieAlgebra(algebra, gram)
    for _ in range(2):  # the second call raises too
        for call in (m.ricci_nilpotent, m.einstein_classify, m.ricci_operator):
            with pytest.raises(RuntimeError, match="internal Ricci routes disagree") as err:
                call()
            assert is_route_mismatch(err.value)
    reference = MetricLieAlgebra(algebra, gram)
    assert m.ricci_via_definition().tobytes() == reference.ricci_via_definition().tobytes()
    assert m.flatness_defect() == reference.flatness_defect()
    assert m.curvature_tensor().tobytes() == reference.curvature_tensor().tobytes()


def test_einstein_classify_keeps_one_report_per_tol():
    m = make_metric("EX8")
    report = m.einstein_classify(1e-8)
    assert m.einstein_classify(float("1e-8")) is report  # an equal tol, another float
    assert m.einstein_classify() is report  # the default tol is 1e-8
    other = m.einstein_classify(1e-6)
    assert other is not report and m.einstein_classify(1e-6) is other
    assert np.array_equal(other.ricci_operator, report.ricci_operator)
    for shared in (report.ricci_operator, report.ricci_form):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0
    # a bad tol is still refused after a kept report, and keeps nothing
    for bad in (float("nan"), 0.0, -1e-8, float("inf")):
        for _ in range(2):
            with pytest.raises(InvalidInput, match="positive finite"):
                m.einstein_classify(bad)


def test_extend_classify_decompose_computes_the_verdict_once(monkeypatch):
    # the spy sits behind the memo: patching the memoized method would bypass it
    computed = []
    defects = mlie.curvature._einstein_defects

    def spy(ric, tol):
        computed.append(tol)
        return defects(ric, tol)

    monkeypatch.setattr(mlie.curvature, "_einstein_defects", spy)
    m = extend(random_admissible(np.random.default_rng(4), f_dim=2, blocks=1))
    report = m.einstein_classify()
    dec = decompose(m)
    assert dec is not None and report.verdict in (Verdict.RICCI_FLAT, Verdict.FLAT)
    assert computed == [1e-8]


KERNELS = ("levi_civita_tensors", "structure_endo_tensors", "ricci_forms", "q_operators")


def spy_kernels(monkeypatch):
    """Count the calls a metric makes into the stacked kernel."""
    calls = Counter()
    for name in KERNELS:
        kernel = getattr(mlie.curvature, name)

        def spy(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(mlie.curvature, name, spy)
    return calls


def test_building_a_metric_solves_no_koszul_system(monkeypatch):
    calls = spy_kernels(monkeypatch)
    m = MetricLieAlgebra(make_algebra("L5_6"), random_gram(5, np.random.default_rng(3)))
    m.signature()
    classify_subspace(m.gram, m.algebra.center())
    assert not calls


def test_a_metric_computes_each_curvature_fact_once(monkeypatch):
    calls = spy_kernels(monkeypatch)
    m = MetricLieAlgebra(make_algebra("L5_6"), random_gram(5, np.random.default_rng(5)))
    report = m.einstein_classify(1e-8)
    assert m.einstein_classify(1e-6) is not report
    assert m.ricci_operator() is report.ricci_operator
    assert m.ricci_via_definition() is report.ricci_form
    assert m.ricci_nilpotent() is report.ricci_operator  # nilpotent: the 𝒥-route is returned
    m.flatness_defect()
    assert calls == Counter(KERNELS)  # each kernel once
    with pytest.raises(ValueError, match="read-only"):
        m.ricci_operator()[0, 0] = 1.0


def test_a_non_nilpotent_metric_never_builds_the_structure_endos(monkeypatch):
    calls = spy_kernels(monkeypatch)
    rng = np.random.default_rng(8)
    m = extend(random_admissible(rng, f_dim=2, blocks=1, nilpotent=False))
    assert not m.algebra.is_nilpotent()
    m.einstein_classify()
    m.ricci_operator()
    m.flatness_defect()
    assert calls["structure_endo_tensors"] == calls["q_operators"] == 0
    assert calls["levi_civita_tensors"] == 1


def test_route_equivalence_random():
    rng = np.random.default_rng(23)
    for name in ALGEBRA_NAMES:
        for _ in range(3):
            m = random_metric(name, rng)
            r_def = m.ricci_via_definition()
            r_gen = m.ricci_general()
            scale = max(1.0, np.abs(r_def).max())
            assert np.abs(r_def - r_gen).max() < 1e-8 * scale
            op = np.linalg.inv(m.gram.mat) @ r_def
            nil = m.ricci_nilpotent()
            op_scale = max(1.0, np.abs(op).max())
            assert np.abs(op - nil).max() < 1e-8 * op_scale


def random_frames(algebra, rng, count):
    """(A, ε, μ = A·c, metrics) for count random frames of the algebra: the
    metric of each is the gram AᵀηA, in whose frame A the bracket is μ."""
    a, eps = map(np.array, zip(*[random_frame(algebra.n, rng) for _ in range(count)]))
    metrics = [MetricLieAlgebra(algebra, Gram(f.T @ np.diag(s) @ f)) for f, s in zip(a, eps)]
    return a, eps, act_on_brackets(a, np.linalg.inv(a), algebra.c), metrics


def test_ricci_operators_stack_matches_per_gram():
    # the stack, in frames other than the metrics' own, moved back by A⁻¹·Ric·A
    rng = np.random.default_rng(43)
    non_nilpotent = extend(random_admissible(rng, f_dim=2, blocks=1, nilpotent=False)).algebra
    for algebra in (make_algebra("L5_2"), non_nilpotent):
        a, eps, mu, metrics = random_frames(algebra, rng, 3)
        stack = np.linalg.solve(a, ricci_operators(mu, eps, algebra.is_nilpotent()) @ a)
        for got, m in zip(stack, metrics):
            want = m.ricci_operator()
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_bracket_form_matches_the_j_route(name):
    # Q = ¼Rᵀ from the bracket alone is −½𝒥₁ + ¼𝒥₂ from the S_i, for a stack
    # of frames of mixed signature, one row of signs per bracket
    algebra = make_algebra(name)
    n = algebra.n
    rng = np.random.default_rng([53, n])
    frames = np.array([random_frame(n, rng)[0] for _ in range(4)])
    signs = [[-1.0, 1.0, *rng.choice([-1.0, 1.0], size=n - 2)] for _ in frames]
    eps = np.array([rng.permutation(row) for row in signs])
    mu = act_on_brackets(frames, np.linalg.inv(frames), algebra.c)
    want = ricci_operators(mu, eps, True)
    got = q_bracket_operators(mu, eps)
    assert got.shape == want.shape == (4, n, n)
    assert np.abs(want).max() > 0.1
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_the_metric_enters_the_kernel_in_one_place():
    # the kernel takes the signs of a frame, so nothing in mlie.curvature
    # solves or inverts, and the 𝒥-route is assembled only in ricci_operators
    kernel = Path(mlie.curvature.__file__)
    for name in ("np.linalg.inv", "np.linalg.solve"):
        assert name not in kernel.read_text(), name
    assert "np.linalg" not in inspect.getsource(mlie.verify.check_route_equivalence)
    assembled = [
        path.name
        for path in sorted(kernel.parent.glob("*.py"))
        for _ in range(path.read_text().count("q_operators(structure_endo_tensors("))
    ]
    assert assembled == ["curvature.py"]
    assert "q_operators(structure_endo_tensors(" in inspect.getsource(mlie.curvature.ricci_operators)


def test_the_curvature_facts_are_computed_in_one_place():
    # the Ricci cross-check and the flatness numbers are taken only inside
    # _CurvatureFacts, which the metric and verify's verdict checks read
    sources = {
        path.name: path.read_text()
        for path in sorted(Path(mlie.curvature.__file__).parent.glob("*.py"))
    }
    facts = inspect.getsource(mlie.curvature._CurvatureFacts)
    for name in ("_check_routes(", "_flatness_defects("):
        calls = {
            module: text.count(name) - text.count(f"def {name}")
            for module, text in sources.items()
        }
        assert {module: k for module, k in calls.items() if k} == {"curvature.py": 1}, name
        assert facts.count(name) == 1, name


def test_a_fresh_metric_takes_its_verdict_in_one_stacked_call(monkeypatch):
    # einstein_classify of a new metric computes its curvature facts once, on
    # its stack of one, and every other fact is read from that entry
    calls = []
    facts = mlie.curvature._CurvatureFacts

    def spy(c, grams, tol, nilpotent):
        calls.append(len(grams))
        return facts(c, grams, tol, nilpotent)

    monkeypatch.setattr(mlie.curvature, "_CurvatureFacts", spy)
    m = MetricLieAlgebra(make_algebra("L5_6"), random_gram(5, np.random.default_rng(5)))
    report = m.einstein_classify()
    assert calls == [1]
    assert m.ricci_operator() is report.ricci_operator
    assert m.ricci_nilpotent() is report.ricci_operator
    assert m.ricci_via_definition() is report.ricci_form
    m.flatness_defect()
    m.curvature_tensor()
    m.einstein_classify(1e-6)
    assert calls == [1]


def test_every_caller_hands_the_pipeline_a_stack_of_brackets(monkeypatch):
    # the pipeline's input contract: brackets (k, n, n, n) and grams
    # (k, n, n), member r of each stack one metric; a metric, the search's
    # settle and verify's stacked checks (double-extension and guediri, whose
    # models each take the Witt gram, among them) all keep it
    seen = []
    init = mlie.curvature._CurvatureFacts.__init__

    def spy(self, c, grams, tol, nilpotent):
        seen.append((c.ndim, len(c), grams.ndim, len(grams)))
        init(self, c, grams, tol, nilpotent)

    monkeypatch.setattr(mlie.curvature._CurvatureFacts, "__init__", spy)
    make_metric("EX8").einstein_classify()
    metric = len(seen)
    spec = SearchSpec(make_algebra("L3_2"), "ricci-flat", signature=(1, 2), seed=0, restarts=8)
    assert run_search(spec).converged
    search = len(seen)
    mlie.verify.run_checks(["classified-ricci-flat", "double-extension", "guediri"])
    assert 0 < metric < search < len(seen)
    assert all(ndim == 4 and gram_ndim == 3 for ndim, _, gram_ndim, _ in seen), seen
    assert all(grams == k for _, k, _, grams in seen), seen
    assert any(k > 1 for _, k, _, _ in seen[search:]), seen


def test_a_metric_computes_only_the_curvature_facts_it_is_asked_for(monkeypatch):
    # the Ricci operator takes no curvature tensor, and the definitional form,
    # the flatness numbers and the curvature tensor take no 𝒥-route
    calls = Counter()

    def spy(name):
        layer = getattr(mlie.curvature, name)
        return lambda *args: calls.update([name]) or layer(*args)

    for name in ("_curvature_tensors", "ricci_operators"):
        monkeypatch.setattr(mlie.curvature, name, spy(name))
    algebra, rng = make_algebra("L5_6"), np.random.default_rng(5)
    MetricLieAlgebra(algebra, random_gram(5, rng)).ricci_operator()
    assert calls == {"ricci_operators": 1}
    m = MetricLieAlgebra(algebra, random_gram(5, rng))
    m.ricci_via_definition()
    m.flatness_defect()
    m.curvature_tensor()
    assert calls == {"ricci_operators": 1, "_curvature_tensors": 2}


def test_stacked_kernels_match_the_per_gram_methods():
    # a stack of frames (A, ε) against the metrics AᵀηA: forms move back by
    # Aᵀ·ric·A, and E moves into each frame as A·E·A⁻¹
    rng = np.random.default_rng(47)
    general = extend(random_admissible(rng, f_dim=2, blocks=1, nilpotent=False)).algebra
    for algebra in (make_algebra("L5_2"), make_algebra("EX8"), general):
        n = algebra.n
        a, eps, mu, metrics = random_frames(algebra, rng, 3)
        e = rng.normal(size=(4, n, n))
        forms = a.transpose(0, 2, 1) @ ricci_general_forms(mu, eps) @ a
        lhs, rhs = trace_q_sides(mu, eps, a[:, None] @ e @ np.linalg.inv(a)[:, None])
        assert forms.shape == (3, n, n) and lhs.shape == rhs.shape == (3, 4)
        for k, m in enumerate(metrics):
            want = m.ricci_general()
            assert np.abs(forms[k] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            want_lhs, want_rhs = m.trace_q_times(e)
            scale = max(1.0, np.abs(want_lhs).max(), np.abs(want_rhs).max())
            assert np.abs(lhs[k] - want_lhs).max() <= 1e-12 * scale
            assert np.abs(rhs[k] - want_rhs).max() <= 1e-12 * scale
            # μ ≠ 0: tr ad_ē ≠ 0, so the mean-vector term of the general form counts
            r_def = m.ricci_via_definition()
            assert np.abs(want - r_def).max() <= 1e-10 * max(1.0, np.abs(r_def).max())
    assert np.abs(np.trace(general.ad(np.eye(general.n)), axis1=1, axis2=2)).max() > 0.1


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_facts_move_with_a_change_of_basis(name):
    # the bracket P·c with the gram P⁻ᵀGP⁻¹ is the same metric algebra in the
    # basis P·e: Ric′ = P·Ric·P⁻¹, ric′ = P⁻ᵀ·ric·P⁻¹, and the same verdict
    rng = np.random.default_rng(59)
    m = random_metric(name, rng)
    n = m.n
    p = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    p_inv = np.linalg.inv(p)
    moved = MetricLieAlgebra(
        LieAlgebra(act_on_brackets(p[None], p_inv[None], m.algebra.c)[0]),
        Gram(p_inv.T @ m.gram.mat @ p_inv),
    )
    for got, want in (
        (moved.ricci_operator(), p @ m.ricci_operator() @ p_inv),
        (moved.ricci_via_definition(), p_inv.T @ m.ricci_via_definition() @ p_inv),
    ):
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
    assert moved.signature() == m.signature()
    assert moved.einstein_classify().verdict is m.einstein_classify().verdict


def test_a_metric_takes_its_frame_by_the_eigh_rule():
    # G = AᵀηA, and ε = diag(η) lists the minus signs first
    rng = np.random.default_rng(61)
    for name in ALGEBRA_NAMES:
        m = random_metric(name, rng)
        eps, a, b = (x[0] for x in m._facts.frame)
        g = m.gram.mat
        assert np.abs(a.T @ np.diag(eps) @ a - g).max() <= 1e-12 * np.abs(g).max()
        minus = m.signature().minus
        assert np.array_equal(eps, [-1.0] * minus + [1.0] * (m.n - minus))


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
        moved = MetricLieAlgebra(LieAlgebra(c), Gram(p.T @ m.gram.mat @ p))
        want = m.trace_q_times(e)
        got = moved.trace_q_times(pinv @ e @ p)
        scale = max(1.0, *map(abs, want))
        assert got == pytest.approx(want, abs=1e-10 * scale)
        assert want[0] == pytest.approx(want[1], abs=1e-10 * scale)


@pytest.mark.parametrize("e", [np.ones(8), 1.0, np.eye(3), np.ones((2, 7, 8))])
def test_trace_q_times_refuses_what_is_not_a_matrix_of_the_algebra(e):
    refusal = r"^E must be a matrix of shape \(8, 8\) or a stack of them, got shape"
    with pytest.raises(InvalidInput, match=refusal):
        make_metric("EX8").trace_q_times(e)


def test_trace_q_times_of_a_stack_is_the_stack_of_calls():
    rng = np.random.default_rng(41)
    for m in (random_metric("L5_6", rng), extend(random_admissible(rng, f_dim=2, blocks=1))):
        n = m.n
        stack = rng.normal(size=(2, 3, n, n))
        lhs, rhs = m.trace_q_times(stack)
        assert lhs.shape == rhs.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            want = m.trace_q_times(stack[idx])
            scale = max(1.0, *map(abs, want))
            assert (lhs[idx], rhs[idx]) == pytest.approx(want, abs=1e-12 * scale)


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
    m = MetricLieAlgebra(LieAlgebra.abelian(3), Gram.from_diagonal([-1.0, 1.0, 1.0]))
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


def _curvature_tensor_by_einsum(m):
    """K = L_[e_i,e_j] − [L_i, L_j], contracted index by index."""
    l_all = levi_civita(m).transpose(0, 2, 1)  # l_all[i] = matrix of L_{e_i}
    term_bracket = np.einsum("ijm,mlk->ijkl", m.algebra.c, l_all)
    ll = np.einsum("iab,jbc->ijac", l_all, l_all)
    commutator = ll - ll.transpose(1, 0, 2, 3)
    return term_bracket - commutator.transpose(0, 1, 3, 2)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_curvature_tensor_matches_the_einsum_form(name):
    # the matmul form sums in another order, so it agrees to roundoff of the
    # flatness scale max(1, max|L|)², not bit for bit
    rng = np.random.default_rng(43)
    for _ in range(5):
        m = random_metric(name, rng)
        _, scale = m.flatness_defect()
        diff = np.abs(m.curvature_tensor() - _curvature_tensor_by_einsum(m)).max()
        assert diff <= 1e-14 * scale


def test_killing_form_of_a_double_extension_lives_on_ebar_ebar():
    # B(u,v) = tr(ad_u∘ad_v) on the extension's basis (e, f_1.., ē): zero
    # except at (ē, ē), where it is μ² + tr(D²)
    rng = np.random.default_rng(23)
    for nilpotent in (True, False):
        for _ in range(5):
            f_dim, blocks = (int(k) for k in rng.integers(1, 3, size=2))
            data = random_admissible(rng, f_dim=f_dim, blocks=blocks, nilpotent=nilpotent)
            assert (data.mu == 0.0) == nilpotent
            algebra = extend(data).algebra
            ads = algebra.ad(np.eye(algebra.n))
            killing = np.einsum("iab,jba->ij", ads, ads)
            expected = np.zeros_like(killing)
            expected[-1, -1] = data.mu**2 + np.trace(data.D @ data.D)
            assert np.abs(killing - expected).max() <= 1e-12 * max(1.0, abs(expected[-1, -1]))


#: the sha256 of every verdict fact of _pinned_metrics, as _verdict_digest
#: reads them; it is of float bits, so it holds for one numpy build and BLAS
VERDICT_DIGEST = "a19591f89e350a17ae79af999c9e1e9b3361464cc7eec84c39c0856f001fd90e"

_VARIANT_PARAMS = {"alpha": 0.7, "a": 0.3, "b": -0.4, "x": 1.2, "y": 0.5, "mu": 0.8, "rho": 1.1}


def _pinned_metrics():
    """Fresh metrics: 6 random grams on each catalog algebra, the 10 variants
    (with both ε where they take one), EX6–EX8 and 10 fresh extensions, half
    with μ = 0 and half with μ ≠ 0."""
    rng = np.random.default_rng(2024)
    for name in ALGEBRA_NAMES:
        for _ in range(6):
            yield random_metric(name, rng)
    for variant in mlie.catalog.METRIC_VARIANTS.values():
        params = {p: _VARIANT_PARAMS[p] for p in variant.params if p != "eps"}
        for eps in (1.0, -1.0) if "eps" in variant.params else (None,):
            given = params if eps is None else dict(params, eps=eps)
            yield make_metric(variant.algebra, variant.name, given)
    for name in ("EX6", "EX7", "EX8"):
        yield make_metric(name)
    for nilpotent in (True, False):
        for f_dim, blocks in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
            yield extend(random_admissible(rng, f_dim=f_dim, blocks=blocks, nilpotent=nilpotent))


def _verdict_digest(metrics):
    """sha256 over each metric's einstein_classify() fields, with the bytes of
    its Ricci operator and form, its flatness_defect() and the bytes of its
    curvature_tensor(); floats enter by their hex form."""
    digest = hashlib.sha256()
    for m in metrics:
        r = m.einstein_classify()
        floats = (r.einstein_lambda, r.einstein_residual, r.scalar_curvature, *m.flatness_defect())
        words = [r.verdict.value, str(r.flat), str(tuple(r.signature))]
        words += ["None" if x is None else float(x).hex() for x in floats]
        digest.update(" ".join(words).encode())
        for array in (r.ricci_operator, r.ricci_form, m.curvature_tensor()):
            digest.update(array.tobytes())
    return digest.hexdigest()


def test_the_verdicts_keep_their_bits(monkeypatch):
    metrics = list(_pinned_metrics())
    assert len(metrics) == 14 * 6 + 15 + 3 + 10
    path = str(Path(__file__).parent / "data" / "l58_route_mismatch.json")
    algebra, gram, _ = read_algebra(path, DEFAULT_TOL)
    metrics.append(MetricLieAlgebra(algebra, gram))
    assert _verdict_digest(metrics) == VERDICT_DIGEST
    # with the routes forced apart the file's metric raises the route
    # mismatch on every call and keeps no report
    exact_q = mlie.curvature.q_operators
    monkeypatch.setattr(mlie.curvature, "q_operators", lambda s, eps: exact_q(s, eps) + 1.0)
    m = MetricLieAlgebra(algebra, gram)
    for _ in range(2):
        with pytest.raises(RuntimeError) as err:
            m.einstein_classify()
        assert is_route_mismatch(err.value)
    assert not any(isinstance(fact, mlie.curvature.CurvatureReport) for fact in m._memo.values())


def _package_calls(run):
    """The number of Python calls into functions of the mlie package that
    run() makes, counted with sys.setprofile."""
    package = str(Path(mlie.curvature.__file__).parent)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_a_fresh_verdict_keeps_its_call_budget():
    # a Lorentzian metric on L5_6, built and classified, in one lean pass:
    # the count is deterministic, and its bound keeps layers from creeping back
    algebra = make_algebra("L5_6")
    a = random_frame(5, np.random.default_rng(7))[0]
    gram = Gram(a.T @ np.diag([-1.0, 1.0, 1.0, 1.0, 1.0]) @ a)
    # a first verdict decides what every later one shares: the algebra's
    # nilpotency and the cached identity of its dimension
    first = MetricLieAlgebra(algebra, gram)
    assert first.signature() == Signature(1, 4, 0) and first.einstein_classify()
    assert _package_calls(lambda: MetricLieAlgebra(algebra, gram).einstein_classify()) <= 45


def test_a_metric_keeps_the_pipeline_of_its_stack_of_one():
    # the build runs the stacked pipeline on the metric's stack of one and
    # keeps it as _facts, whose passes each run on the first read of one of
    # their facts; the memo keeps only what callers read back: the Ricci
    # arrays and the reports
    m = make_metric("EX8")
    assert isinstance(m._facts, mlie.curvature._CurvatureFacts)
    assert m._facts.kept.tolist() == [True] and m._facts.grams.tobytes() == m.gram.mat.tobytes()
    assert not {"_frame_pass", "_route_pass", "_flatness_pass"} & set(vars(m._facts))
    m.einstein_classify()
    assert {"_frame_pass", "_route_pass", "_flatness_pass"} <= set(vars(m._facts))
    assert not any(isinstance(fact, mlie.curvature._CurvatureFacts) for fact in m._memo.values())


@pytest.mark.parametrize("name", ["L3_2", "L5_6", "EX8"])
def test_the_pipeline_on_a_stack_is_each_member_s_own_metric(name):
    # 200 grams AᵀηA, A = I + 0.3N, of mixed signature, every 25th with a null
    # direction: the pipeline keeps exactly the members whose MetricLieAlgebra
    # builds, and gives each the signature, the report and the Ricci bits of
    # its own metric
    algebra = make_algebra(name)
    n, k = algebra.n, 200
    rng = np.random.default_rng([67, n])
    a = np.eye(n) + 0.3 * rng.normal(size=(k, n, n))
    eps = rng.choice([-1.0, 1.0], size=(k, n))
    eps[::25, 0] = 0.0
    grams = np.array([Gram(g).mat for g in a.transpose(0, 2, 1) @ (eps[:, :, None] * a)])
    c = np.broadcast_to(algebra.c, (k,) + algebra.c.shape)
    facts = mlie.curvature._CurvatureFacts(c, grams, algebra.tol, algebra.is_nilpotent())
    verdicts, lams, residuals, flats = facts.verdicts(mlie.curvature.VERDICT_TOL)
    scalars = facts._frame_pass[1].trace(axis1=1, axis2=2).tolist()
    assert facts.routes_agree().all() and len(set(facts.minus.tolist())) > 2
    members = iter(range(len(facts.minus)))
    for gram, kept in zip(grams, facts.kept.tolist()):
        if not kept:
            with pytest.raises(DegenerateGram):
                MetricLieAlgebra(algebra, Gram(gram))
            continue
        m, r = MetricLieAlgebra(algebra, Gram(gram)), next(members)
        report = m.einstein_classify()
        assert m.signature() == report.signature == (facts.minus[r], n - facts.minus[r], 0)
        assert (report.verdict, report.flat) == (verdicts[r], flats[r])
        assert report.einstein_lambda == (None if verdicts[r] is Verdict.NOT_EINSTEIN else lams[r])
        assert (report.einstein_residual, report.scalar_curvature) == (residuals[r], scalars[r])
        assert report.ricci_operator.tobytes() == facts.ricci()[r].tobytes()
        assert report.ricci_form.tobytes() == facts.ricci_form()[r].tobytes()
    assert next(members, None) is None and k // 25 <= k - len(facts.minus) < k // 10


def test_a_report_compares_by_identity_and_hashes():
    # its fields hold arrays, so == is identity, as for the metric itself
    first, second = make_metric("EX8").einstein_classify(), make_metric("EX8").einstein_classify()
    assert first == first and first != second
    assert hash(first) != hash(second) and {first: 1}[first] == 1
