"""Acceptance gate: every verification check must pass at its stated tolerance.

Each check in mlie.verify bundles one verifiable claim about the library
(curvature route equivalences, trace identities, the catalog's Ricci-flat
classification, the double-extension round trip, ...) together with its
frozen expected values and tolerances.  This file runs each check as its
own test so that ``pytest -v`` shows one pass/fail line per criterion,
and prints the check's summary row for the test log.
"""

import dataclasses
import hashlib
import inspect
import re
from collections import Counter

import numpy as np
import pytest

from mlie import cli, curvature, pseudolin, verify
from mlie.catalog import ALGEBRA_NAMES, METRIC_VARIANTS, make_algebra, make_metric
from mlie.curvature import VERDICT_TOL, MetricLieAlgebra
from mlie.doubleext import ExtensionData, _witt_gram, decompose, extend, guediri_2step, model_residual
from mlie.errors import ConstraintViolation, DegenerateGram, InvalidInput, UnknownName
from mlie.liealg import LieAlgebra, act_on_brackets
from mlie.pseudolin import Gram, classify_subspace, find_isotropic_in
from mlie.verify import CHECK_NAMES, check_trace_formula, format_row, run_checks


@pytest.mark.parametrize("name", CHECK_NAMES, ids=CHECK_NAMES)
def test_acceptance(name):
    (result,) = run_checks([name])
    print(format_row(result))
    assert result.name == name
    detail = "; ".join(result.failures[:5]) if result.failures else ""
    assert result.passed, (
        f"{result.name}: expected {result.expected}, observed {result.observed}"
        f" (residual {result.residual:.3e}){'; ' + detail if detail else ''}"
    )


def test_trace_formula_check_fails_on_a_perturbed_q(monkeypatch):
    # tr(QE) on the unit E = e_1 e_0ᵀ reads Q[0,1]; a 1e-6 error there must fail
    exact_q = curvature.q_operators

    def perturbed_q(s, g):
        q = exact_q(s, g).copy()
        q[:, 0, 1] += 1e-6
        return q

    monkeypatch.setattr(curvature, "q_operators", perturbed_q)
    result = check_trace_formula(VERDICT_TOL)
    assert not result.passed
    assert "unit E[1,0]" in result.failures[0]


def test_search_regression_fails_on_a_converged_gram_with_a_nondegenerate_center(monkeypatch):
    # in dimension ≤ 5 a Ricci-flat Lorentzian center is degenerate: a returned
    # gram whose center e₃ is spacelike fails the check on that alone
    run_search = verify.run_search

    def euclidean_center(spec):
        result = run_search(spec)
        return dataclasses.replace(result, best_gram=Gram(np.diag([-1.0, 1.0, 1.0])))

    monkeypatch.setattr(verify, "run_search", euclidean_center)
    (result,) = run_checks(["search-regression"])
    assert not result.passed
    assert result.failures == ["center of the converged gram is EuclideanNondegenerate"]


#: the catalog's dimensions n and the frames of each dimension's stack: 20
#: per catalog algebra of that dimension (L3_2; L4_2, L4_3; the eight L5_*;
#: EX6; EX7; EX8)
_FRAME_STACKS = {3: 20, 4: 40, 5: 160, 6: 20, 7: 20, 8: 20}


def test_the_catalog_checks_make_one_stacked_kernel_call_per_dimension(monkeypatch):
    # route-equivalence, trace-j1-j2 and trace-formula each hand every kernel
    # one stack of frames per catalog dimension and build no MetricLieAlgebra;
    # trace-formula contracts each algebra's moved derivations on its own 20
    # frames, once per side
    kernels = {
        "route-equivalence": ("ricci_forms", "ricci_general_forms", "ricci_operators"),
        "trace-j1-j2": ("j1_j2_operators",),
        "trace-formula": ("ricci_operators", "q_bracket_operators", "_operator_traces"),
    }
    stacks = {}
    builds = []

    def spy(name):
        kernel = getattr(verify, name)

        def recording(*args):
            stacks[name].append(len(args[0]))  # μ, the S_i, the Levi-Civita tensors or Q
            if name == "_operator_traces":
                stacks[name][-1] = args[1].shape[:2]  # the frames and derivations E
            return kernel(*args)

        return recording

    for name in set().union(*kernels.values()):
        monkeypatch.setattr(verify, name, spy(name))
    build = MetricLieAlgebra.__init__
    monkeypatch.setattr(
        MetricLieAlgebra, "__init__", lambda self, *args: builds.append(args) or build(self, *args)
    )
    derivations = [
        (verify._FRAMES, len(make_algebra(name).derivation_space())) for name in ALGEBRA_NAMES
    ]
    for check, names in kernels.items():
        stacks.update({name: [] for name in names})
        (result,) = run_checks([check])
        assert result.passed
        expected = {name: list(_FRAME_STACKS.values()) for name in names}
        if check == "trace-formula":
            expected["_operator_traces"] = [d for d in derivations for _ in range(2)]
        assert {name: stacks[name] for name in names} == expected
    assert builds == []
    assert len(derivations) == 14 and derivations[0] == (20, 6) and derivations[-1] == (20, 12)


def test_the_catalog_frames_are_drawn_once_and_read_only():
    frames = verify._catalog_frames()
    assert frames is verify._catalog_frames()
    assert [name for names, *_ in frames for name in names] == list(ALGEBRA_NAMES)
    assert [len(a) for _, _, a, *_ in frames] == list(_FRAME_STACKS.values())
    for (names, algebras, a, b, mu, eps), n in zip(frames, _FRAME_STACKS):
        assert [make_algebra(name) for name in names] == list(algebras)
        assert all(algebra.n == n for algebra in algebras)
        size = verify._FRAMES * len(names)
        assert a.shape == b.shape == (size, n, n) and mu.shape == (size, n, n, n)
        assert eps.shape == (size, n)
        assert (np.linalg.svd(a, compute_uv=False)[:, -1] >= 1e-3).all()
        assert set(np.unique(eps)) <= {-1.0, 1.0}
        for arr in (a, b, mu, eps):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def _kernel_rows(c, a, b, mu, eps):
    """What the catalog checks compute on the frames (A, B, μ, ε) of brackets
    c, member by member: the kernels' results, and the curvature facts the
    metric pipeline gives on the grams AᵀηA."""
    j1, j2 = curvature.j1_j2_operators(curvature.structure_endo_tensors(mu, eps), eps)
    grams = a.transpose(0, 2, 1) @ (eps[:, :, None] * a)
    facts = curvature._CurvatureFacts(c, grams, pseudolin.DEFAULT_TOL, True)
    assert facts.kept.all()
    defects, scales = facts.flatness()
    return {
        "ricci_forms": curvature.ricci_forms(curvature.levi_civita_tensors(mu, eps)),
        "ricci_general_forms": curvature.ricci_general_forms(mu, eps),
        "ricci_operators": curvature.ricci_operators(mu, eps, True),
        "q_bracket_operators": curvature.q_bracket_operators(mu, eps),
        "tr j1": np.trace(j1, axis1=1, axis2=2),
        "tr j2": np.trace(j2, axis1=1, axis2=2),
        "ricci": facts.ricci(),
        "flatness defects": defects,
        "flatness scales": scales,
    }


def test_a_catalog_algebra_s_rows_of_its_dimension_stack_are_its_own_calls():
    # every catalog algebra's rows of its dimension's stack are, bit for bit,
    # its own frames, drawn algebra by algebra, and the calls on them;
    # trace-formula's unit sides, the entries of each Qᵀ, are trace_q_sides
    # on the n² unit E up to the sign of zero.  The stacks take the algebras'
    # tol and nilpotency as shared, and the checks that list failures unkeyed
    # list them in catalog order
    dims = [make_algebra(name).n for name in ALGEBRA_NAMES]
    assert dims == sorted(dims)
    for name in ALGEBRA_NAMES:
        algebra = make_algebra(name)
        assert algebra.tol == pseudolin.DEFAULT_TOL and algebra.is_nilpotent()
    checked = 0
    rng = verify._rng(5)
    for names, algebras, a, b, mu, eps in verify._catalog_frames():
        n = mu.shape[1]
        c = np.repeat([algebra.c for algebra in algebras], verify._FRAMES, axis=0)
        stacked = _kernel_rows(c, a, b, mu, eps)
        units = np.broadcast_to(np.eye(n * n).reshape(n * n, n, n), (verify._FRAMES, n * n, n, n))
        for i, algebra in enumerate(algebras):
            rows = slice(i * verify._FRAMES, (i + 1) * verify._FRAMES)
            own_a = verify._near_identity(rng, verify._FRAMES, n, 1e-3)
            own_eps = rng.choice([-1.0, 1.0], size=(verify._FRAMES, n))
            own_b = np.linalg.inv(own_a)
            own_frame = (own_a, own_b, act_on_brackets(own_a, own_b, algebra.c), own_eps)
            for x, y in zip((a, b, mu, eps), own_frame):
                assert x[rows].tobytes() == y.tobytes(), names[i]
            own_c = np.broadcast_to(algebra.c, (verify._FRAMES,) + algebra.c.shape)
            own = _kernel_rows(own_c, *own_frame)
            for key, values in own.items():
                assert stacked[key][rows].tobytes() == values.tobytes(), (names[i], key)
            sides = curvature.trace_q_sides(mu[rows], eps[rows], units)
            for q, side in zip((own["ricci_operators"], own["q_bracket_operators"]), sides):
                assert np.array_equal(q.swapaxes(1, 2).reshape(-1, n * n), side)
            checked += 1
    assert checked == len(ALGEBRA_NAMES)


def test_the_catalog_checks_share_inputs_only(monkeypatch):
    # the frames are kept between calls, nothing computed from them is: a
    # second call of each check makes every kernel call of the first again
    kernels = (
        "ricci_forms",
        "ricci_general_forms",
        "ricci_operators",
        "j1_j2_operators",
        "q_bracket_operators",
        "_operator_traces",
    )
    calls = Counter()

    def spy(name):
        kernel = getattr(verify, name)
        return lambda *args: calls.update([name]) or kernel(*args)

    for name in kernels:
        monkeypatch.setattr(verify, name, spy(name))
    checks = ["route-equivalence", "trace-j1-j2", "trace-formula"]
    first = run_checks(checks)
    made = calls.copy()
    calls.clear()
    second = run_checks(checks)
    assert second == first
    stacks = len(_FRAME_STACKS)
    assert calls == made == {
        "ricci_forms": stacks,
        "ricci_general_forms": stacks,
        "ricci_operators": 2 * stacks,  # route-equivalence's and trace-formula's
        "j1_j2_operators": stacks,
        "q_bracket_operators": stacks,
        "_operator_traces": 2 * len(ALGEBRA_NAMES),
    }


#: the checks on the catalog's variant draws, and the variants each builds
_DRAW_CHECKS = {
    "classified-ricci-flat": tuple(METRIC_VARIANTS),
    "flatness": ("m32", "m42", "m52", "m43"),
    "degenerate-center": tuple(METRIC_VARIANTS),
}


#: the draws of each check per dimension n = 3, 4, 5: m32; m42 and m43 (ε = ±1);
#: the L5_* variants (flatness: m52 alone), 5 draws a variant, twice with ε
_DRAWS_PER_DIMENSION = {
    "classified-ricci-flat": [5, 15, 55],
    "flatness": [5, 15, 5],
    "degenerate-center": [5, 15, 55],
}

#: degenerate-center's draws per (n, center dimension d), ascending: L3_2
#: (d = 1); L4_3 (1), L4_2 (2); L5_5 and L5_6 (1), L5_3, L5_8 and L5_9 (2),
#: L5_2 (3)
_CENTERS_PER_DIMENSION = [5, 10, 5, 25, 25, 5]


def test_the_variant_draw_checks_take_one_frame_per_dimension(monkeypatch):
    # classified-ricci-flat, flatness and degenerate-center each decide one
    # dimension's draws in one _CurvatureFacts, which takes their frames in
    # one call, and degenerate-center classifies their centers in one call
    # per center dimension; no MetricLieAlgebra is built
    calls = {"_frames": [], "_CurvatureFacts": [], "_form_classes": []}
    builds = []

    def spy(module, name):
        layer = getattr(module, name)
        return lambda first, *rest: calls[name].append(len(first)) or layer(first, *rest)

    layers = ((curvature, "_frames"), (verify, "_CurvatureFacts"), (curvature, "_form_classes"))
    for module, name in layers:
        monkeypatch.setattr(module, name, spy(module, name))
    build = MetricLieAlgebra.__init__
    monkeypatch.setattr(
        MetricLieAlgebra, "__init__", lambda self, *args: builds.append(args) or build(self, *args)
    )
    for name, variants in _DRAW_CHECKS.items():
        for layer in calls.values():
            layer.clear()
        (result,) = run_checks([name])
        assert result.passed and result.failures == []
        sizes = _DRAWS_PER_DIMENSION[name]
        assert sum(sizes) == sum(
            verify._VARIANT_DRAWS * (2 if "eps" in METRIC_VARIANTS[v].params else 1) for v in variants
        )
        centers = _CENTERS_PER_DIMENSION if name == "degenerate-center" else []
        assert calls == {"_frames": sizes, "_CurvatureFacts": sizes, "_form_classes": centers}
    assert builds == []


def test_the_variant_draw_checks_agree_with_the_per_object_calls(monkeypatch):
    # every draw of the three checks, decided once in its dimension's stack and
    # once on make_metric's metric: equal grams, frames and signatures,
    # bit-identical Ricci operators and flatness numbers, equal center classes
    seen = {"_variant_facts": []}
    _spy_verify(monkeypatch, seen)
    classes = []
    own_classes = curvature._CurvatureFacts.classes
    monkeypatch.setattr(
        curvature._CurvatureFacts,
        "classes",
        lambda self, rows: classes.append(own_classes(self, rows)) or classes[-1],
    )
    checked = Counter()
    for name, variants in _DRAW_CHECKS.items():
        seen["_variant_facts"].clear()
        classes.clear()
        (result,) = run_checks([name])
        assert result.passed and result.failures == []
        ((_, groups),) = seen["_variant_facts"]
        for g, (facts, group) in enumerate(groups):
            assert facts.kept.all()
            for r, (_, mv, params, _) in enumerate(group):
                m = make_metric(mv.algebra, mv.name, params)
                assert m.algebra.c.tobytes() == facts.c[r].tobytes()
                assert m.gram.mat.tobytes() == facts.grams[r].tobytes()
                assert all(x[0].tobytes() == y[r].tobytes() for x, y in zip(m._facts.frame, facts.frame))
                assert m.signature() == (facts.minus[r], m.n - facts.minus[r], 0)
                if name == "classified-ricci-flat":
                    assert m.signature() == (1, m.n - 1, 0)
                    assert m.ricci_operator().tobytes() == facts.ricci()[r].tobytes()
                elif name == "flatness":
                    defects, scales = facts.flatness()
                    assert m.flatness_defect() == (defects[r], scales[r])
                else:
                    cls = classify_subspace(m.gram, m.algebra.center())
                    assert cls == classes[g][r]
                checked[name] += 1
    assert checked == {"classified-ricci-flat": 75, "flatness": 25, "degenerate-center": 75}


#: sha256 over the index, variant, params (by float.hex) and gram bytes of
#: every draw of the three variant-draw checks, as drawn when each gram was
#: built on its own
_VARIANT_DRAWS_DIGEST = "0ceea6cd6b99f5a33e0e60300f16f367e7791ead3ad0da081b3cf4e45e33e4ab"


def test_the_variant_draw_stream_cannot_drift():
    digest = hashlib.sha256()
    for seed, variants in zip((1, 2, 3), _DRAW_CHECKS.values()):
        for index, mv, params, gram in verify._variant_draws(verify._rng(seed), variants):
            digest.update(f"{index} {mv.name} ".encode())
            digest.update(" ".join(f"{k}={v.hex()}" for k, v in params.items()).encode())
            digest.update(gram.tobytes())
    assert digest.hexdigest() == _VARIANT_DRAWS_DIGEST


def test_signature_and_the_frame_are_the_stacked_core_on_a_stack_of_one():
    # on the grams of the variant draws and the forms AᵀηA of the catalog
    # frames, with a null direction put into every fifth form: signature and
    # orthonormal_basis (the frame a metric's build takes) are _signatures and
    # _orthonormal_bases (_frames) member for member, bit for bit
    grams = [gram for *_, gram in verify._variant_draws(verify._rng(1))]
    stacks = [np.array([g for g in grams if len(g) == n]) for n in (3, 4, 5)]
    for _, _, a, _, _, eps in verify._catalog_frames():
        eps = eps.copy()
        eps[::5, 0] = 0.0
        stacks.append(a.transpose(0, 2, 1) @ (eps[:, :, None] * a))
    checked = 0
    for stack in stacks:
        mats = np.array([Gram(m).mat for m in stack])
        minus, plus, null = pseudolin._signatures(mats, 1e-9)
        (eps, a, b), degenerate = curvature._frames(mats, 1e-9)
        for r, mat in enumerate(mats):
            gram = Gram(mat)
            assert pseudolin.signature(gram, 1e-9) == (minus[r], plus[r], null[r])
            assert degenerate[r] == (null[r] > 0)
            if degenerate[r]:
                with pytest.raises(DegenerateGram):
                    pseudolin.orthonormal_basis(gram, 1e-9)
                continue
            algebra = LieAlgebra.abelian(len(mat))  # at the default tol, 1e-9
            frame = MetricLieAlgebra(algebra, gram)._facts.frame
            assert [x[0].tobytes() for x in frame] == [x[r].tobytes() for x in (eps, a, b)]
            checked += 1
    assert checked > 250


@pytest.mark.parametrize("name", list(_DRAW_CHECKS))
def test_a_degenerate_variant_draw_is_a_failure_named_by_its_draw(monkeypatch, name):
    # a variant whose gram is singular is reported draw by draw, by its
    # variant and params, in draw order; the other draws are still decided
    params = []
    mv = METRIC_VARIANTS["m42"]

    def singular(p):  # the slots of diag(1, -1, 1, 0)
        params.append(dict(p))
        return {(1, 1): 1.0, (2, 2): -1.0, (3, 3): 1.0}

    monkeypatch.setitem(METRIC_VARIANTS, "m42", dataclasses.replace(mv, build=singular))
    (result,) = run_checks([name])
    assert not result.passed
    assert len(params) == verify._VARIANT_DRAWS
    assert result.failures == [f"m42 {p}: parameters make the gram degenerate" for p in params]
    if name == "degenerate-center":  # a refused draw has no center class to count
        classified = sum(_DRAWS_PER_DIMENSION[name]) - len(params)
        assert result.observed.startswith(f"{classified}/{classified} centers Degenerate — ")


@pytest.mark.parametrize("name", ["double-extension", "guediri"])
def test_a_model_that_is_not_nilpotent_is_a_failure_named_by_its_trial(monkeypatch, name):
    # every drawn model is nilpotent, so no passing run reaches this failure:
    # here the lower central series of the first model the check hands the
    # pipeline stops short of 0, and that trial alone fails, while the other
    # trials are still decided and run_checks still makes every row
    firsts, groups = [], verify._extension_groups

    def first_trials(*args, **kwargs):
        for group in groups(*args, **kwargs):
            firsts.append(group[0][0])
            yield group

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_extension_groups", first_trials)
        (clean,) = run_checks([name])
    assert clean.passed
    trial = firsts[0]
    if name == "double-extension":
        v = verify._extension_draws(verify._rng(8), True)[1][trial]
        expected = f"nilpotent trial {trial} (v={v}): extension not nilpotent"
    else:
        expected = f"trial {trial}: extension not nilpotent"

    series, check, armed = curvature._lower_central_series, verify.CHECKS[name], []

    def stops_short(unit, tol):
        steps = series(unit, tol)
        if armed and armed.pop():
            steps[0] = steps[0][:-1]  # the zero ideal dropped: the series stops at [g, …]
        return steps

    def arming(tol):
        armed.append(True)
        return check(tol)

    monkeypatch.setattr(curvature, "_lower_central_series", stops_short)
    monkeypatch.setitem(verify.CHECKS, name, arming)
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)
    assert [r.name for r in results if not r.passed] == [name]
    (failed,) = (r for r in results if r.name == name)
    assert failed.failures == [expected]


class _RecordingRng:
    """A generator that keeps every normal draw it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def normal(self, size):
        self.draws.append(self._rng.normal(size=size))
        return self.draws[-1]


def test_near_identity_redraws_only_the_rows_below_its_floor():
    # at n = 3 a floor of 0.5 rejects about three draws in ten, so the
    # redraw branch runs; lemma-fuzz's floor of 1e-2 also reaches it
    rng, k, n, floor = _RecordingRng(0), 40, 3, 0.5
    a = verify._near_identity(rng, k, n, floor)
    assert a.shape == (k, n, n)
    assert (np.linalg.svd(a, compute_uv=False)[:, -1] >= floor).all()
    first = np.eye(n) + 0.3 * rng.draws[0]
    passed = np.linalg.svd(first, compute_uv=False)[:, -1] >= floor
    assert 0 < passed.sum() < k and len(rng.draws) >= 2
    assert np.array_equal(a[passed], first[passed])  # kept bit for bit
    assert rng.draws[1].shape == ((~passed).sum(), n, n)  # only the failing rows again
    assert not (a[~passed] == first[~passed]).all(axis=(1, 2)).any()
    assert verify._near_identity(_RecordingRng(0), 0, n, floor).shape == (0, n, n)


def test_run_checks_runs_a_name_given_twice_once():
    results = run_checks(["derivations", "examples", "derivations"])
    assert [r.name for r in results] == ["derivations", "examples"]


@pytest.mark.parametrize("names", [[], (), iter([])])
def test_run_checks_refuses_a_selection_of_no_check(names):
    with pytest.raises(InvalidInput, match="no check selected"):
        run_checks(names)


@pytest.mark.parametrize("names, kind", [("examples", "str"), (2.5, "float")])
def test_run_checks_refuses_one_string_or_a_non_iterable(names, kind):
    with pytest.raises(InvalidInput, match=f"iterable of check names, got {kind}$"):
        run_checks(names)


def test_run_checks_names_a_name_that_is_no_string():
    with pytest.raises(UnknownName, match="unknown checks: 2; known: "):
        run_checks(["examples", 2])


def test_run_checks_takes_every_verdict_at_its_tol(monkeypatch):
    # examples classifies through einstein_classify, double-extension and
    # guediri through the stacked verdict rule, which a metric's own verdict
    # calls too: each at the tol run_checks is given, not at the default
    # verdict tolerance
    seen, stacked = set(), []
    classify = MetricLieAlgebra.einstein_classify
    verdicts = curvature._verdicts

    def spy(self, tol=VERDICT_TOL):
        seen.add(tol)
        return classify(self, tol)

    def spy_verdicts(ric, defect, scale, tol):
        stacked.append(tol)
        return verdicts(ric, defect, scale, tol)

    monkeypatch.setattr(MetricLieAlgebra, "einstein_classify", spy)
    monkeypatch.setattr(curvature, "_verdicts", spy_verdicts)
    results = run_checks(["examples", "double-extension", "guediri"], tol=1e-7)
    assert seen == {1e-7}
    assert stacked and set(stacked) == {1e-7}
    assert all(r.passed for r in results)
    # double-extension and guediri, each alone, take their verdicts on stacks,
    # at that tol, and none through einstein_classify
    for name in ("double-extension", "guediri"):
        seen.clear()
        stacked.clear()
        (result,) = run_checks([name], tol=1e-7)
        assert result.passed
        assert seen == set()
        assert stacked and set(stacked) == {1e-7}


def _double_extension_draws():
    """The draws of the double-extension check, rebuilt from its seed as its
    stacks and read member by member: 100 nilpotent data, then 100 with
    μ ≠ 0, each list indexed by trial."""
    rng = verify._rng(8)
    halves = []
    for nilpotent in (True, False):
        half = [None] * 100
        for trials, (k, d, mu, b) in verify._extension_draws(rng, nilpotent)[0]:
            for r, trial in enumerate(trials):
                half[trial] = ExtensionData(k[r], d[r], mu[r], b[r])
        halves.append(half)
    return halves


def test_double_extension_makes_one_stacked_call_per_dimension_group(monkeypatch):
    # one admissibility, pipeline (with its frame and nilpotency),
    # decomposition and round-trip call per core dimension v of the 100
    # nilpotent draws, one admissibility and one pipeline call (with its frame)
    # per core dimension of the 100 μ ≠ 0 draws, and no MetricLieAlgebra built;
    # each model takes the Witt gram, and the decomposition and round trip
    # read each member's own frame and gram
    nilpotent, general = _double_extension_draws()
    groups = Counter(data.v_dim for data in nilpotent)
    layers = ((curvature, "_lower_central_series"), (verify, "_CurvatureFacts"))
    calls = {name: [] for _, name in layers}
    builds, stacked, witt, paired = [], [], [], []

    def spy(module, name):
        layer = getattr(module, name)
        return lambda *args: calls[name].append(len(args[0])) or layer(*args)

    for module, name in layers:
        monkeypatch.setattr(module, name, spy(module, name))
    frames, decompositions, residuals = curvature._frames, verify._witt_decompositions, verify._model_residuals
    monkeypatch.setattr(curvature, "_frames", lambda mats, tol: witt.append(_are_witt(mats)) or frames(mats, tol))
    monkeypatch.setattr(
        verify,
        "_witt_decompositions",
        lambda mu, frame, *rest: paired.append([len(mu)] + [len(x) for x in frame])
        or decompositions(mu, frame, *rest),
    )
    monkeypatch.setattr(
        verify,
        "_model_residuals",
        lambda c, g, *rest: paired.append([len(c), len(g), all(_are_witt(g))]) or residuals(c, g, *rest),
    )
    verdicts = curvature._verdicts
    monkeypatch.setattr(
        curvature, "_verdicts", lambda ric, *rest: stacked.append(len(ric)) or verdicts(ric, *rest)
    )
    admissibilities = []
    admissible = verify._admissibilities
    monkeypatch.setattr(
        verify,
        "_admissibilities",
        lambda k, *rest: admissibilities.append(len(k)) or admissible(k, *rest),
    )
    build = MetricLieAlgebra.__init__
    monkeypatch.setattr(
        MetricLieAlgebra, "__init__", lambda self, *args: builds.append(args) or build(self, *args)
    )
    (result,) = run_checks(["double-extension"])
    assert result.passed and result.failures == []
    assert builds == []
    sizes = [groups[v] for v in sorted(groups)]
    general_groups = Counter(data.v_dim for data in general)
    general_sizes = [general_groups[v] for v in sorted(general_groups)]
    assert admissibilities == sizes + general_sizes
    assert len(sizes) > 1 and sum(sizes) == 100
    assert stacked == sizes
    assert calls == {"_CurvatureFacts": sizes + general_sizes, "_lower_central_series": sizes}
    assert witt == [[True] * k for k in sizes + general_sizes]  # one _frames call, each member the Witt gram
    assert paired == [x for k in sizes for x in ([k] * 4, [k, k, True])]


def test_double_extension_takes_one_stack_of_null_vectors_per_center_dimension(monkeypatch):
    # the members of a group whose centers share a dimension take their
    # isotropic central vectors in one stacked call on their rows, each
    # paired with its model's Witt gram, each that of find_isotropic_in on
    # its own center, bit for bit
    events = []
    isotropic = curvature._isotropic_vectors

    def stacked(mats, rows, tol):
        vectors = isotropic(mats, rows, tol)
        assert mats.shape == (len(rows),) + mats.shape[1:] and all(_are_witt(mats))
        events.append(rows.shape[1::-1])  # (d, k)
        for mat, z, v in zip(mats, rows, vectors):
            assert v.tobytes() == find_isotropic_in(Gram(mat), pseudolin.Subspace._orthonormal(z, tol)).tobytes()
        return vectors

    _spy_groups(monkeypatch, events)
    monkeypatch.setattr(curvature, "_isotropic_vectors", stacked)
    (result,) = run_checks(["double-extension"])
    assert result.passed
    groups, calls = [], 0
    for event in events:
        if event == "group":
            groups.append([])
        else:
            groups[-1].append(event)
            calls += 1
    dims = [[d for d, _ in group] for group in groups]
    assert all(d == sorted(set(d)) for d in dims)
    assert sum(k for group in groups for _, k in group) == 100 and calls < 100 and len(groups) > 1


def test_double_extension_stacks_agree_with_the_per_object_calls(monkeypatch):
    # every draw of the check, decided once in its group's stack and once by
    # extend → is_nilpotent → einstein_classify → decompose → model_residual
    # (ricci_via_definition for μ ≠ 0): equal decisions, bit-identical numbers
    nilpotent, general = _double_extension_draws()
    layers = ("_extension_groups", "_witt_decompositions", "_model_residuals")
    seen = {name: [] for name in layers}
    _spy_verify(monkeypatch, seen)
    series_seen = {"_lower_central_series": []}
    _spy_verify(monkeypatch, series_seen, curvature)
    tol = VERDICT_TOL
    (result,) = run_checks(["double-extension"], tol)
    assert result.passed and result.failures == []
    (_, nilpotent_groups), (_, general_groups) = seen["_extension_groups"]
    checked = 0
    for g, (trials, facts) in enumerate(nilpotent_groups):
        series = series_seen["_lower_central_series"][g][1]
        assert facts.kept.all()
        ric, verdicts = facts.ricci(), facts.verdicts(tol)[0]
        (_, _, null, _), (dec_data, p) = seen["_witt_decompositions"][g]
        resid = seen["_model_residuals"][g][1]
        for r, trial in enumerate(trials):
            m = extend(nilpotent[trial])
            assert m.algebra.c.tobytes() == facts.c[r].tobytes()
            assert m.algebra.is_nilpotent() and len(series[r][-1]) == 0
            report = m.einstein_classify(tol)
            assert report.verdict is verdicts[r]
            assert report.ricci_operator.tobytes() == ric[r].tobytes()
            assert find_isotropic_in(m.gram, m.algebra.center()).tobytes() == null[r].tobytes()
            dec = decompose(m, tol)
            assert dec.basis_change.tobytes() == p[r].tobytes()
            for key, stack in zip(("K", "D", "mu", "b"), dec_data):
                assert np.asarray(getattr(dec.data, key)).tobytes() == stack[r].tobytes()
            assert model_residual(m, dec) == resid[r]
            checked += 1
    for trials, facts in general_groups:
        forms = facts.ricci_form()
        for r, trial in enumerate(trials):
            m = extend(general[trial])
            assert m.ricci_via_definition()[-1, -1] == forms[r, -1, -1]
            checked += 1
    assert checked == 200


def _spy_verify(monkeypatch, seen, module=verify):
    """Record the arguments and results of each call the module (verify by
    default) makes to the functions named in seen, in seen[name]; a
    generator's results as a list."""

    def spy(name):
        layer = getattr(module, name)

        def recording(*args, **kwargs):
            out = layer(*args, **kwargs)
            if inspect.isgenerator(out):
                out = list(out)
            seen[name].append((args, out))
            return out

        return recording

    for name in seen:
        monkeypatch.setattr(module, name, spy(name))


def _are_witt(mats):
    """Per member of a stack of grams (k, n, n), whether it is the Witt gram
    of its dimension, bit for bit."""
    return [g.tobytes() == _witt_gram(len(g)).tobytes() for g in mats]


def _spy_groups(monkeypatch, events):
    """Mark in events, with "group", each group whose centers the checks take
    from the pipeline (_CurvatureFacts.centers)."""
    centers = curvature._CurvatureFacts.centers
    monkeypatch.setattr(
        curvature._CurvatureFacts, "centers", lambda self: events.append("group") or centers(self)
    )


def test_guediri_makes_one_stacked_call_per_dimension_group(monkeypatch):
    # one admissibility, pipeline (with its one frames call on the Witt gram
    # of each member), nilpotency and center call per core dimension of the
    # 50 constrained sets, and no algebra or metric built
    layers = ("_admissibilities", "_CurvatureFacts", "_lower_central_series", "_centers")
    seen = {name: [] for name in layers + ("_guediri_data", "_frames")}
    in_verify = ("_admissibilities", "_CurvatureFacts", "_guediri_data")
    _spy_verify(monkeypatch, {name: seen[name] for name in in_verify})
    _spy_verify(monkeypatch, {name: seen[name] for name in seen if name not in in_verify}, curvature)
    stacked, builds = [], []
    verdicts = curvature._verdicts
    monkeypatch.setattr(
        curvature, "_verdicts", lambda ric, *rest: stacked.append(len(ric)) or verdicts(ric, *rest)
    )
    for cls in (LieAlgebra, MetricLieAlgebra):

        def recording(self, *args, _build=cls.__init__):
            builds.append(args)
            _build(self, *args)

        monkeypatch.setattr(cls, "__init__", recording)
    (result,) = run_checks(["guediri"])
    assert result.passed and result.failures == []
    assert builds == []  # the 10 violating sets are refused before extend
    groups = Counter(data.v_dim for _, data in seen["_guediri_data"])
    sizes = [groups[v] for v in sorted(groups)]
    assert len(sizes) > 1 and sum(sizes) == 50
    assert stacked == sizes
    assert [_are_witt(args[0]) for args, _ in seen["_frames"]] == [[True] * k for k in sizes]
    assert {name: [len(args[0]) for args, _ in seen[name]] for name in layers} == {
        name: sizes for name in layers
    }


def test_guediri_stacks_agree_with_the_per_object_calls(monkeypatch):
    # every constrained set, decided once in its group's stack and once by
    # guediri_2step → einstein_classify → classify_subspace of the center:
    # equal verdicts and classes, bit-identical ‖Ric‖∞ and Ricci operators
    seen = {name: [] for name in ("_guediri_data", "_extension_groups")}
    _spy_verify(monkeypatch, seen)
    classes = []
    own_classes = curvature._CurvatureFacts.classes

    def center_classes(self, rows):
        out = own_classes(self, rows)
        classes.extend(out)
        return out

    monkeypatch.setattr(curvature._CurvatureFacts, "classes", center_classes)
    tol = VERDICT_TOL
    (result,) = run_checks(["guediri"], tol)
    assert result.passed and result.failures == []
    built = [args for args, _ in seen["_guediri_data"]]  # guediri_2step builds the 10 others
    ((_, groups),) = seen["_extension_groups"]
    trials, ric, peaks, verdicts = [], [], [], []
    for group_trials, facts in groups:
        assert facts.kept.all()
        trials += group_trials
        ric += list(facts.ricci())
        peaks += pseudolin._peaks(np.abs(facts.ricci())).tolist()
        verdicts += facts.verdicts(tol)[0]
    assert len(built) == 50 and sorted(trials) == list(range(50)) and len(classes) == 50
    for r, trial in enumerate(trials):
        alpha, c, a, ab, _ = built[trial]
        m = guediri_2step(alpha, c, a, abelian_dim=ab)
        report = m.einstein_classify(tol)
        assert report.verdict is verdicts[r]
        assert report.ricci_operator.tobytes() == ric[r].tobytes()
        assert float(np.abs(report.ricci_operator).max(initial=0.0)) == peaks[r]
        assert classify_subspace(m.gram, m.algebra.center()) == classes[r]


def test_guediri_classifies_its_centers_in_one_stacked_call_per_center_dimension(monkeypatch):
    # the centers of a group that share a dimension take their classes in one
    # call, on the stack of their rows, each paired with its model's Witt
    # gram, each the class classify_subspace gives on its own center
    events, restricted = [], []
    restrict, classes = curvature._restricted_grams, curvature._form_classes

    def stacked(forms, tol):
        out = classes(forms, tol)
        ((mats, rows),) = restricted
        restricted.clear()
        assert mats.shape == (len(rows),) + mats.shape[1:] and all(_are_witt(mats))
        events.append(rows.shape[1::-1])  # (d, k)
        for mat, z, cls in zip(mats, rows, out):
            assert cls == classify_subspace(Gram(mat), pseudolin.Subspace._orthonormal(z, tol))
        return out

    _spy_groups(monkeypatch, events)
    monkeypatch.setattr(curvature, "_restricted_grams", lambda *args: restricted.append(args) or restrict(*args))
    monkeypatch.setattr(curvature, "_form_classes", stacked)
    (result,) = run_checks(["guediri"])
    assert result.passed
    groups, calls = [], 0
    for event in events:
        if event == "group":
            groups.append([])
        else:
            groups[-1].append(event)
            calls += 1
    dims = [[d for d, _ in group] for group in groups]
    assert all(d == sorted(set(d)) for d in dims)
    assert sum(k for group in groups for _, k in group) == 50 and calls < 50 and len(groups) > 1


def test_guediri_reports_a_refused_set_by_its_trial(monkeypatch):
    # a constrained set that guediri_2step would refuse is a failure named by
    # its trial, with guediri_2step's message, not an escaping exception
    calls = []
    builder = verify._guediri_data

    def unbalanced(alpha, c, a, ab, tol):
        calls.append((alpha, c, a, ab))
        return builder(alpha, 1.3 * c if len(calls) == 8 else c, a, ab, tol)

    monkeypatch.setattr(verify, "_guediri_data", unbalanced)
    (result,) = run_checks(["guediri"])
    assert not result.passed
    alpha, c, a, ab = calls[7]
    with pytest.raises(ConstraintViolation) as refusal:
        guediri_2step(alpha, 1.3 * c, a, abelian_dim=ab)
    assert result.failures == [f"trial 7: {refusal.value}"]


def test_double_extension_lists_its_nilpotent_trials_then_its_mu_trials(monkeypatch):
    # every round trip and every ricci_ebar off by one: the 100 nilpotent
    # trials in trial order, then the 100 μ ≠ 0 trials in trial order
    residuals, ebars = verify._model_residuals, verify._ricci_ebars
    monkeypatch.setattr(verify, "_model_residuals", lambda *args: residuals(*args) + 1.0)
    monkeypatch.setattr(verify, "_ricci_ebars", lambda *args: ebars(*args) + 1.0)
    (result,) = run_checks(["double-extension"])
    assert len(result.failures) == 200
    for t, message in enumerate(result.failures[:100]):
        assert message.startswith(f"nilpotent trial {t} (v=")
        assert "decompose∘extend residual" in message
    for t, message in enumerate(result.failures[100:]):
        assert message.startswith(f"μ≠0 trial {t}: ricci_ebar ")


#: the tests lemma-fuzz runs on a trial of each mode, in their order
_LEMMA_TESTS = {
    0: ("⟨Ae,Ae⟩",),
    1: ("⟨Ae,Ae⟩", "Ae not collinear"),
    2: ("tr A²", "degenerate map", "tr(A₀A)"),
}


def test_lemma_fuzz_lists_trials_in_order_and_a_trial_s_tests_in_their_order():
    # at a tol nothing meets, most trials fail one test or more
    (result,) = run_checks(["lemma-fuzz"], tol=1e-300)
    assert len(result.failures) > 1000
    places = []
    for message in result.failures:
        head, text = message.split(": ", 1)
        trial, mode = re.fullmatch(r"trial (\d+) \(n=\d, mode=(\d)\)", head).groups()
        tests = _LEMMA_TESTS[int(mode)]
        places.append((int(trial), next(i for i, t in enumerate(tests) if text.startswith(t))))
    assert places == sorted(set(places))


def test_guediri_reports_too_few_rejections_after_every_trial_failure(monkeypatch):
    monkeypatch.setattr(verify, "guediri_2step", lambda *args, **kwargs: None)
    (result,) = run_checks(["guediri"], tol=1e-300)
    *trial_failures, last = result.failures
    assert last == "only 0/10 violating parameter sets rejected"
    assert trial_failures
    trials = [int(re.match(r"trial (\d+): ", m).group(1)) for m in trial_failures]
    assert trials == sorted(trials)


def test_a_route_mismatch_fails_its_member_s_row_and_every_row_is_made(capsys, monkeypatch):
    # with the Ricci routes of the first member of every stack of more than
    # one metric forced apart (a metric's own stack of one keeps its routes),
    # the checks that read Ricci operators off the stacked pipeline fail that
    # member by name, and the run makes all twelve rows: verify-paper prints
    # them, then the count, and exits 1
    check = curvature._check_routes

    def first_apart(q, ric):
        agree = check(q, ric)
        if len(agree) > 1:
            agree = agree.copy()
            agree[0] = False
        return agree

    monkeypatch.setattr(curvature, "_check_routes", first_apart)
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)
    failed = {r.name: r.failures for r in results if not r.passed}
    assert set(failed) == {"classified-ricci-flat", "double-extension", "guediri"}
    firsts = {}  # the first draw of each dimension's stack
    for _, mv, params, gram in verify._variant_draws(verify._rng(1)):
        firsts.setdefault(len(gram), f"{mv.name} {params}")
    apart = [f"{tag}: Ricci routes disagree" for tag in firsts.values()]
    assert failed["classified-ricci-flat"] == apart
    nilpotent, _ = _double_extension_draws()
    groups = {data.v_dim for data in nilpotent}
    assert len(failed["double-extension"]) == len(groups) > 1
    assert {int(re.match(r"nilpotent trial \d+ \(v=(\d+)\): Ricci routes disagree$", m).group(1))
            for m in failed["double-extension"]} == groups
    assert len(failed["guediri"]) > 1
    assert all(re.fullmatch(r"trial \d+: Ricci routes disagree", m) for m in failed["guediri"])
    assert cli.main(["verify-paper"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [format_row(r) for r in results] + ["9/12 checks passed"]


def test_a_kernel_fault_fails_the_examples_row_and_every_row_is_made(capsys, monkeypatch):
    # Q scaled by 1.01 stays within the cross-check on the Ricci-flat metrics
    # (Q ≈ 0) and trips it on EX8, the one Einstein example: examples fails
    # that example by name and goes on, route-equivalence compares the 𝒥-route
    # on every catalog instance, and the run makes all twelve rows
    exact_q = curvature.q_operators
    monkeypatch.setattr(curvature, "q_operators", lambda s, eps: 1.01 * exact_q(s, eps))
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)
    failed = {r.name: r.failures for r in results if not r.passed}
    assert set(failed) == {"examples", "route-equivalence", "trace-formula"}
    assert failed["examples"] == ["EX8: Ricci routes disagree"]
    (route,) = [r for r in results if r.name == "route-equivalence"]
    assert all(re.fullmatch(r"\w+: definition vs 𝒥-route \S+", m) for m in route.failures)
    assert {m.split(":")[0] for m in route.failures} == set(ALGEBRA_NAMES)
    assert cli.main(["verify-paper"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [format_row(r) for r in results] + ["9/12 checks passed"]


def test_degenerate_center_measures_no_residual():
    (result,) = run_checks(["degenerate-center"])
    assert result.residual == 0.0
