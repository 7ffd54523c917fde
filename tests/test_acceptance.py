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

from mlie import curvature, pseudolin, verify
from mlie.catalog import ALGEBRA_NAMES, METRIC_VARIANTS, make_metric
from mlie.curvature import VERDICT_TOL, MetricLieAlgebra
from mlie.doubleext import ExtensionData, decompose, extend, guediri_2step, model_residual
from mlie.errors import ConstraintViolation, DegenerateGram, InvalidInput, UnknownName
from mlie.liealg import LieAlgebra
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


def test_the_catalog_checks_make_one_stacked_kernel_call_per_algebra(monkeypatch):
    # route-equivalence, trace-j1-j2 and trace-formula each hand the kernel one
    # stack of 20 frames per catalog algebra and build no MetricLieAlgebra
    kernels = {
        "route-equivalence": "ricci_general_forms",
        "trace-j1-j2": "j1_j2_operators",
        "trace-formula": "trace_q_sides",
    }
    stacks = {name: [] for name in kernels.values()}
    builds = []

    def spy(name):
        kernel = getattr(verify, name)

        def recording(*args):
            stacks[name].append(args[1].shape[0])  # the signs ε follow μ, or the S_i
            return kernel(*args)

        return recording

    for name in kernels.values():
        monkeypatch.setattr(verify, name, spy(name))
    build = MetricLieAlgebra.__init__
    monkeypatch.setattr(
        MetricLieAlgebra, "__init__", lambda self, *args: builds.append(args) or build(self, *args)
    )
    results = run_checks(list(kernels))
    assert all(r.passed for r in results)
    assert builds == []
    assert stacks == {name: [20] * len(ALGEBRA_NAMES) for name in kernels.values()}


def test_the_catalog_frames_are_drawn_once_and_read_only():
    frames = verify._catalog_frames()
    assert frames is verify._catalog_frames()
    assert [name for name, *_ in frames] == list(ALGEBRA_NAMES)
    for _, algebra, a, b, mu, eps in frames:
        assert a.shape == b.shape == (verify._FRAMES, algebra.n, algebra.n)
        assert (np.linalg.svd(a, compute_uv=False)[:, -1] >= 1e-3).all()
        assert set(np.unique(eps)) <= {-1.0, 1.0}
        for arr in (a, b, mu, eps):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_the_catalog_checks_share_inputs_only(monkeypatch):
    # the frames are kept between calls, nothing computed from them is: a
    # second call of each check makes every kernel call of the first again
    kernels = ("ricci_forms", "ricci_general_forms", "j1_j2_operators", "trace_q_sides")
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
    assert calls == made == {name: len(ALGEBRA_NAMES) for name in kernels}


#: the checks on the catalog's variant draws, and the variants each builds
_DRAW_CHECKS = {
    "classified-ricci-flat": tuple(METRIC_VARIANTS),
    "flatness": ("m32", "m42", "m52", "m43"),
    "degenerate-center": tuple(METRIC_VARIANTS),
}


def _draws_per_algebra(variants):
    """The number of draws of each algebra of the variants, in catalog order."""
    sizes = Counter()
    for mv in METRIC_VARIANTS.values():
        if mv.name in variants:
            sizes[mv.algebra] += verify._VARIANT_DRAWS * (2 if "eps" in mv.params else 1)
    return list(sizes.values())


def test_the_variant_draw_checks_take_one_frame_per_algebra(monkeypatch):
    # classified-ricci-flat, flatness and degenerate-center each take the
    # frames of one algebra's draws in one call, and build no MetricLieAlgebra
    frames, builds = [], []
    stacked = verify._frames
    monkeypatch.setattr(
        verify, "_frames", lambda mats, tol: frames.append(len(mats)) or stacked(mats, tol)
    )
    build = MetricLieAlgebra.__init__
    monkeypatch.setattr(
        MetricLieAlgebra, "__init__", lambda self, *args: builds.append(args) or build(self, *args)
    )
    for name, variants in _DRAW_CHECKS.items():
        frames.clear()
        (result,) = run_checks([name])
        assert result.passed and result.failures == []
        assert frames == _draws_per_algebra(variants)
    assert builds == []


def test_the_variant_draw_checks_agree_with_the_per_object_calls(monkeypatch):
    # every draw of the three checks, decided once in its algebra's stack and
    # once on make_metric's metric: equal grams, frames and signatures,
    # bit-identical Ricci operators and flatness numbers, equal center classes
    layers = ("_variant_groups", "_CurvatureFacts", "_subspace_classes")
    seen = {name: [] for name in layers}
    _spy_verify(monkeypatch, seen)
    checked = Counter()
    for name, variants in _DRAW_CHECKS.items():
        for layer in seen.values():
            layer.clear()
        (result,) = run_checks([name])
        assert result.passed and result.failures == []
        ((_, groups),) = seen["_variant_groups"]
        for g, (algebra, group, grams, frame) in enumerate(groups):
            for r, (_, mv, params, _) in enumerate(group):
                m = make_metric(mv.algebra, mv.name, params)
                assert m.algebra is algebra and m.gram.mat.tobytes() == grams[r].tobytes()
                assert all(x[0].tobytes() == y[r].tobytes() for x, y in zip(m._frame, frame))
                if name == "classified-ricci-flat":
                    assert m.signature() == (1, m.n - 1, 0)
                    facts = seen["_CurvatureFacts"][g][1]
                    assert m.ricci_operator().tobytes() == facts.ricci()[r].tobytes()
                elif name == "flatness":
                    facts = seen["_CurvatureFacts"][g][1]
                    defects, scales = facts.flatness()
                    assert m.flatness_defect() == (defects[r], scales[r])
                else:
                    cls = classify_subspace(m.gram, m.algebra.center())
                    assert cls == seen["_subspace_classes"][g][1][r]
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
            frame = MetricLieAlgebra(algebra, gram)._frame
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
        classified = sum(_draws_per_algebra(_DRAW_CHECKS[name])) - len(params)
        assert result.observed.startswith(f"{classified}/{classified} centers Degenerate — ")


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
    # one admissibility, nilpotency, curvature, decomposition and round-trip
    # call per core dimension v of the 100 nilpotent draws, one admissibility
    # and one curvature call per core dimension of the 100 μ ≠ 0 draws, and no
    # MetricLieAlgebra built
    nilpotent, general = _double_extension_draws()
    groups = Counter(data.v_dim for data in nilpotent)
    layers = (
        "_lower_central_series",
        "_CurvatureFacts",
        "_witt_decompositions",
        "_model_residuals",
    )
    calls = {name: [] for name in layers}
    builds, stacked = [], []

    def spy(name):
        layer = getattr(verify, name)
        return lambda *args: calls[name].append(len(args[0])) or layer(*args)

    for name in calls:
        monkeypatch.setattr(verify, name, spy(name))
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
    assert calls.pop("_CurvatureFacts") == sizes + general_sizes
    assert calls == {name: sizes for name in calls}


def test_double_extension_takes_one_stack_of_null_vectors_per_center_dimension(monkeypatch):
    # the Ricci-flat members of a group whose centers share a dimension take
    # their isotropic central vectors in one stacked call, each that of
    # find_isotropic_in on its own center, bit for bit
    events = []
    layers, isotropic = verify._verdict_layers, verify._isotropic_vectors

    def stacked(mat, rows, tol):
        vectors = isotropic(mat, rows, tol)
        events.append(rows.shape[1::-1])  # (d, k)
        for z, v in zip(rows, vectors):
            assert v.tobytes() == find_isotropic_in(Gram(mat), pseudolin.Subspace._orthonormal(z, tol)).tobytes()
        return vectors

    monkeypatch.setattr(verify, "_verdict_layers", lambda *args: events.append("group") or layers(*args))
    monkeypatch.setattr(verify, "_isotropic_vectors", stacked)
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
    layers = (
        "_extension_groups",
        "_lower_central_series",
        "_verdict_layers",
        "_CurvatureFacts",
        "_witt_decompositions",
        "_model_residuals",
    )
    seen = {name: [] for name in layers}

    def spy(name):
        layer = getattr(verify, name)

        def recording(*args):
            out = layer(*args)
            if name == "_extension_groups":
                out = list(out)
            seen[name].append((args, out))
            return out

        return recording

    for name in seen:
        monkeypatch.setattr(verify, name, spy(name))
    tol = VERDICT_TOL
    (result,) = run_checks(["double-extension"], tol)
    assert result.passed and result.failures == []
    (_, nilpotent_groups), (_, general_groups) = seen["_extension_groups"]
    checked = 0
    for g, (trials, c, _) in enumerate(nilpotent_groups):
        series = seen["_lower_central_series"][g][1]
        ric, verdicts = seen["_CurvatureFacts"][g][1].ricci(), seen["_verdict_layers"][g][1][4]
        (_, _, null, _), (dec_data, p) = seen["_witt_decompositions"][g]
        resid = seen["_model_residuals"][g][1]
        for r, trial in enumerate(trials):
            m = extend(nilpotent[trial])
            assert m.algebra.c.tobytes() == c[r].tobytes()
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
    for g, (trials, _, _) in enumerate(general_groups, len(nilpotent_groups)):
        forms = seen["_CurvatureFacts"][g][1].ricci_form()
        for r, trial in enumerate(trials):
            m = extend(general[trial])
            assert m.ricci_via_definition()[-1, -1] == forms[r, -1, -1]
            checked += 1
    assert checked == 200


def _spy_verify(monkeypatch, seen):
    """Record the arguments and results of each call verify makes to the
    functions named in seen, in seen[name]; a generator's results as a list."""

    def spy(name):
        layer = getattr(verify, name)

        def recording(*args, **kwargs):
            out = layer(*args, **kwargs)
            if inspect.isgenerator(out):
                out = list(out)
            seen[name].append((args, out))
            return out

        return recording

    for name in seen:
        monkeypatch.setattr(verify, name, spy(name))


def test_guediri_makes_one_stacked_call_per_dimension_group(monkeypatch):
    # one admissibility, nilpotency, verdict and center call per core
    # dimension of the 50 constrained sets, and no algebra or metric built
    layers = ("_admissibilities", "_lower_central_series", "_CurvatureFacts", "_centers")
    seen = {name: [] for name in layers + ("_guediri_data",)}
    _spy_verify(monkeypatch, seen)
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
    assert {name: [len(args[0]) for args, _ in seen[name]] for name in layers} == {
        name: sizes for name in layers
    }


def test_guediri_stacks_agree_with_the_per_object_calls(monkeypatch):
    # every constrained set, decided once in its group's stack and once by
    # guediri_2step → einstein_classify → classify_subspace of the center:
    # equal verdicts and classes, bit-identical ‖Ric‖∞ and Ricci operators
    seen = {name: [] for name in ("_guediri_data", "_CurvatureFacts", "_verdict_layers")}
    _spy_verify(monkeypatch, seen)
    classes = []
    per_dimension = verify._per_center_dimension

    def center_classes(*args):
        out = per_dimension(*args)
        classes.extend(out)
        return out

    monkeypatch.setattr(verify, "_per_center_dimension", center_classes)
    tol = VERDICT_TOL
    (result,) = run_checks(["guediri"], tol)
    assert result.passed and result.failures == []
    built = [args for args, _ in seen["_guediri_data"]]  # guediri_2step builds the 10 others
    ric = [op for _, facts in seen["_CurvatureFacts"] for op in facts.ricci()]
    trials, peaks, verdicts = [], [], []
    for _, (group_trials, _, _, group_peaks, group_verdicts, _) in seen["_verdict_layers"]:
        trials += group_trials
        peaks += group_peaks.tolist()
        verdicts += group_verdicts
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
    # call, on the group's one Witt gram and the stack of their rows, each the
    # class classify_subspace gives on its own center
    events, restricted = [], []
    layers, restrict, classes = verify._verdict_layers, verify._restricted_grams, verify._form_classes

    def stacked(forms, tol):
        out = classes(forms, tol)
        ((mat, rows),) = restricted
        restricted.clear()
        events.append(rows.shape[1::-1])  # (d, k)
        for z, cls in zip(rows, out):
            assert cls == classify_subspace(Gram(mat), pseudolin.Subspace._orthonormal(z, tol))
        return out

    monkeypatch.setattr(verify, "_verdict_layers", lambda *args: events.append("group") or layers(*args))
    monkeypatch.setattr(verify, "_restricted_grams", lambda *args: restricted.append(args) or restrict(*args))
    monkeypatch.setattr(verify, "_form_classes", stacked)
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


def test_degenerate_center_measures_no_residual():
    (result,) = run_checks(["degenerate-center"])
    assert result.residual == 0.0
