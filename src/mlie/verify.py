"""Executable verification of the package's headline mathematical claims.

Each check function reproduces one numerically testable statement about the
classified Ricci-flat Lorentzian nilpotent metrics, the curvature formulas,
the double-extension construction or the search regression, and returns its
claim (expected, observed); it reports each failure and each deviation it
measures to the two callbacks :func:`_check` hands it, and :func:`_check`
makes the :class:`CheckResult` row (name, expected, observed, residual,
pass/fail).  The CLI's ``verify-paper`` subcommand and the acceptance test
suite both drive :func:`run_checks`.

All randomness is seeded; rerunning a check reproduces it exactly.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .catalog import (
    ALGEBRA_NAMES,
    DERIVATION_TABLE,
    METRIC_VARIANTS,
    MetricVariant,
    _variant_grams,
    make_algebra,
    make_metric,
    table1_derivation,
)
from .curvature import (
    VERDICT_TOL,
    Verdict,
    _RICCI_FLAT,
    _CurvatureFacts,
    _operator_traces,
    _raise_index,
    j1_j2_operators,
    levi_civita_tensors,
    q_bracket_operators,
    ricci_forms,
    ricci_general_forms,
    ricci_operators,
    structure_endo_tensors,
)
from .doubleext import (
    _admissibilities,
    _guediri_data,
    _model_residuals,
    _models,
    _not_lie,
    _random_admissibles,
    _ricci_ebars,
    _stack_of_one,
    _unbalanced,
    _witt_decompositions,
    _witt_gram,
    guediri_2step,
)
from .errors import ConstraintViolation, InvalidInput, UnknownName, is_route_mismatch
from .liealg import _antisymmetric, act_on_brackets
from .pseudolin import (
    DEFAULT_TOL,
    SubspaceTag,
    _cutoff,
    _peaks,
    classify_subspace,
)
from .search import SearchSpec, run_search

#: Einstein constant of the eight-dimensional example metric, frozen after the
#: first verified run as a regression anchor.
EX8_LAMBDA = 0.5

_BASE_SEED = 20260823
_VARIANT_DRAWS = 5  # draws of each metric variant's parameters
_FRAMES = 20  # random frames (A, ε) per catalog algebra
_LEMMA_TRIALS = 1000


@dataclass
class CheckResult:
    """One verification row: what was claimed, what was measured."""

    name: str
    expected: str
    observed: str
    residual: float
    passed: bool
    failures: List[str] = field(default_factory=list)


def _rng(check_index: int) -> np.random.Generator:
    return np.random.default_rng([_BASE_SEED, check_index])


def _near_identity(rng: np.random.Generator, k: int, n: int, floor: float) -> np.ndarray:
    """k draws of I + 0.3·N, shape (k, n, n), each with smallest singular value
    at least floor: one stacked SVD tests every draw, and only the rows below
    the floor are drawn again, until none is."""
    a = np.empty((k, n, n))
    redraw = np.arange(k)
    while redraw.size:
        a[redraw] = np.eye(n) + 0.3 * rng.normal(size=(redraw.size, n, n))
        redraw = redraw[np.linalg.svd(a[redraw], compute_uv=False)[:, -1] < floor]
    return a


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """rng.uniform(low, high), bit for bit: numpy computes it as
    low + (high − low)·rng.random(), here without uniform's argument
    handling, which costs three times the draw."""
    return low + (high - low) * rng.random()


def _sample_params(mv: MetricVariant, rng: np.random.Generator) -> List[Dict[str, float]]:
    """One random parameter assignment inside the variant's constraints;
    variants with an ε parameter yield both sign choices."""
    base: Dict[str, float] = {}
    for p in mv.params:
        if p == "eps":
            continue
        if p in ("a", "b"):
            base[p] = _uniform(rng, -0.9, 0.9)
        elif p == "y":
            base[p] = _uniform(rng, -1.5, 1.5)
        elif p == "alpha" and mv.name == "m32":
            base[p] = _uniform(rng, 0.3, 1.8)
        else:  # alpha, x, mu, rho: bounded away from zero, either sign
            # (rng.integers(2) draws the index rng.choice([-1.0, 1.0]) draws)
            base[p] = _uniform(rng, 0.3, 1.8) * (-1.0, 1.0)[rng.integers(2)]
    if "eps" in mv.params:
        return [dict(base, eps=1.0), dict(base, eps=-1.0)]
    return [base]


#: one draw of a metric variant: (index in draw order, variant, params, gram
#: matrix), the matrix a row of its variant's stack
_Draw = Tuple[int, MetricVariant, Dict[str, float], np.ndarray]


def _variant_draws(
    rng: np.random.Generator, names: Iterable[str] = tuple(METRIC_VARIANTS)
) -> List[_Draw]:
    """Seeded draws of every variant: the parameters of every variant are
    drawn, draw by draw in one rng stream, and the grams of the variants
    named are built as make_metric builds them, each variant's in one call on
    the stack of its parameter sets (catalog._variant_grams), so no parameter
    array is validated and no Gram built per draw; a draw's gram is its row
    of that stack."""
    draws: List[_Draw] = []
    for mv in METRIC_VARIANTS.values():
        sets = [params for _ in range(_VARIANT_DRAWS) for params in _sample_params(mv, rng)]
        if mv.name in names:
            grams = _variant_grams(mv, {p: [s[p] for s in sets] for p in mv.params})
            draws += [(r, mv, s, g) for r, (s, g) in enumerate(zip(sets, grams), len(draws))]
    return draws


def _grouped(items: Iterable, key) -> list:
    """[(k, the items with key(item) == k)] for each key k, ascending, each
    group in the items' order: verify's one group-by-key.  What is drawn
    group by group afterwards is drawn in key order, and what was drawn item
    by item before keeps its order within each group."""
    groups: Dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return sorted(groups.items())  # the keys are distinct


def _variant_facts(draws: List[_Draw], fail):
    """The draws grouped by dimension n, each group's metrics, as make_metric
    would build them, decided by one _CurvatureFacts at DEFAULT_TOL, every
    catalog algebra's tol (each catalog algebra is nilpotent): per n,
    ascending, the facts and the draws they keep.  A draw whose gram is
    degenerate, which make_metric refuses, fails under its variant and
    params, keyed by its index."""
    for _, group in _grouped(draws, lambda draw: len(draw[3])):
        c = np.array([make_algebra(mv.algebra).c for _, mv, _, _ in group])
        facts = _CurvatureFacts(c, np.array([gram for *_, gram in group]), DEFAULT_TOL, True)
        for index, mv, params, _ in itertools.compress(group, ~facts.kept):
            fail(f"{mv.name} {params}: parameters make the gram degenerate", index)
        yield facts, list(itertools.compress(group, facts.kept))


def _unreached(facts: _CurvatureFacts, measure) -> Tuple[List[Optional[str]], np.ndarray]:
    """Per member the facts keep, why the per-object calls reach no verdict
    on it, or None: a signature other than (1, n − 1), which the verdict
    checks take as given, or Ricci routes that disagree, where
    einstein_classify raises; and the peaks ‖Ric‖∞, measured where it is
    reached."""
    n = facts.frame[0].shape[-1]
    problems = [
        f"signature {(m, n - m, 0)}" if m != 1 else None if agree else "Ricci routes disagree"
        for m, agree in zip(facts.minus.tolist(), facts.routes_agree().tolist())
    ]
    peaks = _peaks(np.abs(facts.ricci_unchecked()))
    measure(peaks[np.array([p is None for p in problems], dtype=bool)])
    return problems, peaks


@functools.lru_cache(maxsize=None)
def _catalog_frames():
    """(names, algebras, A, B, μ, ε) per dimension n of the catalog algebras,
    ascending: _FRAMES frames (A, ε) of random nondegenerate forms AᵀηA,
    η = diag(ε), per algebra (A's smallest singular value is at least 1e-3),
    drawn algebra by algebra in catalog order and stacked per n, so that the
    frames of the algebra names[i] are the rows i·_FRAMES to (i + 1)·_FRAMES;
    B = A⁻¹ and μ = A·c, each algebra's bracket in each of its frames, one
    call each per stack.  The checks that compare formulas on these instances
    share them: drawn once per process, at the first call, and read-only."""
    rng = _rng(5)
    draws = []
    for name in ALGEBRA_NAMES:
        algebra = make_algebra(name)
        a = _near_identity(rng, _FRAMES, algebra.n, 1e-3)
        eps = rng.choice([-1.0, 1.0], size=(_FRAMES, algebra.n))
        draws.append((name, algebra, a, eps))
    frames = []
    for _, group in _grouped(draws, lambda draw: draw[1].n):
        names, algebras, a, eps = zip(*group)
        a, eps = np.concatenate(a), np.concatenate(eps)
        b = np.linalg.inv(a)
        mu = act_on_brackets(a, b, np.repeat([algebra.c for algebra in algebras], _FRAMES, axis=0))
        for arr in (a, b, mu, eps):
            arr.flags.writeable = False
        frames.append((names, algebras, a, b, mu, eps))
    return tuple(frames)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


CHECKS: Dict[str, Callable[[float], CheckResult]] = {}


#: what a check returns: (expected, observed)
_Claim = Tuple[str, str]


def _check(name: str):
    """Register the decorated check as CHECKS[name], in verify-paper's order;
    the registered function runs check(tol, fail, measure) and turns its claim
    into the row named name.  fail(message, *key) records a failure under a
    key (a draw's index, a trial, or (half, trial); none for a check that
    reports in order): the row lists the failures sorted by key, a key's
    messages in the order reported.  measure(*values) records deviations,
    numbers or arrays: the row's residual is the largest, 0.0 if none."""
    def register(check: Callable[..., _Claim]) -> Callable[[float], CheckResult]:
        @functools.wraps(check)
        def run(tol: float) -> CheckResult:
            _cutoff(tol)  # refused first: some checks never compare against their tol
            keyed: List[Tuple[tuple, str]] = []  # (key, message)
            measured = [0.0]

            def fail(message: str, *key) -> None:
                keyed.append((key, message))

            def measure(*values) -> None:
                measured.extend(float(np.asarray(v).max(initial=0.0)) for v in values)

            expected, observed = check(tol, fail, measure)
            failures = [message for _, message in sorted(keyed, key=lambda f: f[0])]
            residual = max(measured)
            if failures:
                shown = "; ".join(failures[:3])
                if len(failures) > 3:
                    shown += f"; … {len(failures) - 3} more"
                observed = f"{observed} — FAILURES: {shown}"
            return CheckResult(name, expected, observed, residual, not failures, failures)
        CHECKS[name] = run
        return run
    return register


@_check("classified-ricci-flat")
def check_classified_ricci_flat(tol: float, fail, measure) -> _Claim:
    # The metrics of one dimension are decided together, at the decisions
    # their signature() and ricci_operator() take; the dim <= 5 catalog
    # algebras are nilpotent, so the 𝒥-route is cross-checked.
    draws = _variant_draws(_rng(1))
    for facts, group in _variant_facts(draws, fail):
        problems, peaks = _unreached(facts, measure)
        for (index, mv, params, _), problem, resid in zip(group, problems, peaks.tolist()):
            if problem is None and resid > tol:
                problem = f"‖Ric‖∞ = {resid:.3e}"
            if problem:
                fail(f"{mv.name} {params}: {problem}", index)
    return (
        f"10 variants, seeded draws: Lorentzian (1,n−1) and ‖Ric‖∞ ≤ {tol:g}",
        f"{len(draws)} metrics all Lorentzian and Ricci-flat",
    )


@_check("flatness")
def check_flatness(tol: float, fail, measure) -> _Claim:
    draws = _variant_draws(_rng(2), ("m32", "m42", "m52", "m43"))
    witness = np.inf
    for facts, group in _variant_facts(draws, fail):
        # flatness_defect() of each metric
        defects, scales = facts.flatness()
        for (index, mv, params, _), defect, scale in zip(group, defects.tolist(), scales.tolist()):
            if mv.name == "m43" and params["eps"] == 1.0:
                witness = min(witness, defect / scale)
                if defect <= 1e-6 * scale:
                    fail(f"{mv.name} {params}: curvature too small ({defect:.3e})", index)
            else:
                measure(defect / scale)
                if defect > tol * scale:
                    fail(f"{mv.name} {params}: curvature defect {defect:.3e}", index)
    return (
        "m32/m42/m52 and m43[ε=−1] flat; m43[ε=+1] visibly curved",
        f"{len(draws)} instances match (smallest ε=+1 curvature witness {witness:.2e})",
    )


@_check("degenerate-center")
def check_degenerate_center(tol: float, fail, measure) -> _Claim:
    draws = _variant_draws(_rng(3))
    classified = degenerate = 0  # a draw with a degenerate gram has no center class
    for facts, group in _variant_facts(draws, fail):
        # classify_subspace(m.gram, m.algebra.center()) of each metric
        classes = facts.classes([make_algebra(mv.algebra).center().basis for _, mv, _, _ in group])
        for (index, mv, params, _), cls in zip(group, classes):
            classified += 1
            if cls.tag is SubspaceTag.DEGENERATE:
                degenerate += 1
            else:
                fail(f"{mv.name} {params}: center {cls.tag.value}", index)
    return (
        "every classified dim ≤ 5 metric has a Degenerate center",
        f"{degenerate}/{classified} centers Degenerate",
    )


def _classified_examples(names: Iterable[str], tol: float, fail):
    """(name, metric, einstein_classify(tol)) of each catalog example named,
    in order; an example whose Ricci routes disagree fails and is skipped."""
    for name in names:
        m = make_metric(name)
        try:
            report = m.einstein_classify(tol)
        except RuntimeError as err:
            if not is_route_mismatch(err):
                raise
            fail(f"{name}: Ricci routes disagree")
        else:
            yield name, m, report


@_check("examples")
def check_examples(tol: float, fail, measure) -> _Claim:
    strict = tol / 10.0
    obs: List[str] = []
    for name, m, report in _classified_examples(("EX6", "EX7"), tol, fail):
        measure(np.abs(report.ricci_operator))
        if report.verdict is not Verdict.RICCI_FLAT:
            fail(f"{name}: verdict {report.verdict.value}")
        cls = classify_subspace(m.gram, m.algebra.center())
        if cls.tag is SubspaceTag.DEGENERATE:
            fail(f"{name}: center is Degenerate")
        obs.append(f"{name} {report.verdict.value}/{cls.tag.value}")

    for _, m, report in _classified_examples(("EX8",), tol, fail):
        lam = float(np.trace(report.ricci_operator)) / m.n
        scale = max(1.0, float(np.abs(report.ricci_operator).max(initial=0.0)))
        if report.verdict is not Verdict.EINSTEIN:
            fail(f"EX8: verdict {report.verdict.value}")
        if abs(lam) <= 1e-6:
            fail(f"EX8: λ̂ = {lam:.3e} not clearly nonzero")
        if report.einstein_residual > tol * scale:
            fail(f"EX8: Einstein residual {report.einstein_residual:.3e}")
        if abs(lam - EX8_LAMBDA) > tol * max(1.0, abs(EX8_LAMBDA)):
            fail(f"EX8: λ̂ = {lam!r} drifted from frozen {EX8_LAMBDA}")
        center = m.algebra.center()
        derived = m.algebra.derived_ideal()
        c_cls = classify_subspace(m.gram, center)
        d_cls = classify_subspace(m.gram, derived)
        if c_cls.tag is not SubspaceTag.EUCLIDEAN:
            fail(f"EX8: center {c_cls.tag.value}")
        if d_cls.tag is not SubspaceTag.LORENTZIAN:
            fail(f"EX8: derived ideal {d_cls.tag.value}")
        p = derived.basis  # orthonormal rows
        incl = 0.0
        for z in center.basis:
            incl = max(incl, float(np.linalg.norm(z - p.T @ (p @ z))))
        if incl > strict:
            fail(f"EX8: center ⊄ derived ideal (residual {incl:.3e})")
        measure(report.einstein_residual, abs(lam - EX8_LAMBDA), incl)
        obs.append(
            f"EX8 Einstein λ̂={lam:.12g} ({c_cls.tag.value} center ⊆ {d_cls.tag.value} derived)"
        )
    return (
        f"EX6/EX7 Ricci-flat with nondegenerate center; EX8 Einstein, λ̂ = {EX8_LAMBDA}",
        "; ".join(obs),
    )


@_check("route-equivalence")
def check_route_equivalence(tol: float, fail, measure) -> _Claim:
    count = 0
    for names, _, _, _, mu, eps in _catalog_frames():
        count += len(mu)
        # per member: the gap max|ref − other| and the scale max(1, max|ref|)
        r_def = ricci_forms(levi_civita_tensors(mu, eps))
        d_form = _peaks(np.abs(r_def - ricci_general_forms(mu, eps)))
        scale = _peaks(np.abs(r_def), 1.0)
        measure(d_form / scale)
        bad_form = d_form > tol * scale
        # every catalog algebra is nilpotent, so the 𝒥-route is compared on all
        op = _raise_index(eps, r_def)  # η·ric
        d_op = _peaks(np.abs(op - ricci_operators(mu, eps, True)))
        op_scale = _peaks(np.abs(op), 1.0)
        measure(d_op / op_scale)
        bad_op = d_op > tol * op_scale
        for k in np.flatnonzero(bad_form | bad_op):
            name = names[k // _FRAMES]
            if bad_form[k]:
                fail(f"{name}: definition vs general {d_form[k]:.3e}")
            if bad_op[k]:
                fail(f"{name}: definition vs 𝒥-route {d_op[k]:.3e}")
    return (
        f"definition ≡ general (≡ 𝒥-route when nilpotent) within {tol:g}·scale",
        f"{count} (algebra, gram) instances agree on all routes",
    )


@_check("trace-j1-j2")
def check_trace_j1_j2(tol: float, fail, measure) -> _Claim:
    count = 0
    for names, _, _, _, mu, eps in _catalog_frames():
        count += len(mu)
        j1, j2 = j1_j2_operators(structure_endo_tensors(mu, eps), eps)
        t1, t2 = np.trace(j1, axis1=1, axis2=2), np.trace(j2, axis1=1, axis2=2)
        scale = np.maximum(np.abs(t1), 1.0)
        diff = np.abs(t1 - t2)
        measure(diff / scale)
        for k in np.flatnonzero(diff > tol * scale):
            fail(f"{names[k // _FRAMES]}: tr𝒥₁={t1[k]:.6g} tr𝒥₂={t2[k]:.6g}")
    return (
        f"tr 𝒥₁ = tr 𝒥₂ within {tol:g}·scale",
        f"{count} instances agree",
    )


@_check("trace-formula")
def check_trace_formula(tol: float, fail, measure) -> _Claim:
    count = 0
    # Both sides are linear in E, so agreement on the n² unit matrices of the
    # frame (a basis of gl(n)) is agreement for every E; the derivation basis,
    # moved to each frame as A·D·B, follows them.  Both Q's, the 𝒥-route and
    # the bracket form, are computed once per stack, as trace_q_sides computes
    # them; tr(Q∘E_kl) = Q[l,k], so the sides on the unit E are the entries of
    # Qᵀ, and only each algebra's derivations are contracted.  A failure is
    # keyed by its instance, then its E: the units first, then the derivations.
    for names, algebras, a, b, mu, eps in _catalog_frames():
        n = mu.shape[1]
        units = n * n
        qs = ricci_operators(mu, eps, True), q_bracket_operators(mu, eps)
        lhs, rhs = (q.swapaxes(-1, -2).reshape(-1, units) for q in qs)
        gap = np.abs(lhs - rhs)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        measure(gap / scale)
        for r, k in zip(*np.nonzero(gap > tol * scale)):
            message = f"unit E[{k // n},{k % n}]: |lhs−rhs| = {gap[r, k]:.3e}"
            fail(f"{names[r // _FRAMES]}: {message}", count + r, k)
        for i, (name, algebra) in enumerate(zip(names, algebras)):
            rows = slice(i * _FRAMES, (i + 1) * _FRAMES)
            moved = a[rows, None] @ algebra.derivation_space() @ b[rows, None]
            lhs, rhs = (_operator_traces(q[rows], moved) for q in qs)
            big = np.maximum(np.abs(lhs), np.abs(rhs))
            scale = np.maximum(1.0, big)
            measure(big / scale)
            for r, k in zip(*np.nonzero(big > tol * scale)):
                message = f"derivation {k} gives tr(QE) = {lhs[r, k]:.3e}"
                fail(f"{name}: {message}", count + rows.start + r, units + k)
        count += len(mu)
    return (
        f"tr(QE) = bracket double sum within {tol:g}·scale on every unit E; "
        "both ≈ 0 on every derivation",
        f"n² unit E and the full derivation basis on each of {count} instances agree",
    )


#: extension data with their trial numbers: (trials, (K, D, μ, b)), the
#: stacks of doubleext._models, one member a trial
_Extensions = Tuple[List[int], Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


def _extension_groups(draws: Iterable[_Extensions], fail, nilpotent: Optional[bool], einstein: bool = False):
    """The draws, stacks of any core dimension, grouped by core dimension v,
    each group's admissibility decided in one call: the members that extend
    takes (its Lie test), or with einstein those that guediri_2step takes (its
    trace condition), and fail(trial, message) with the refusal for any
    other.  Per group: the trials its one _CurvatureFacts at nilpotent keeps
    (with None, a model that is not nilpotent fails), on the model brackets
    as LieAlgebra keeps them, each paired with the Witt gram of its
    dimension (facts.grams), and those facts."""
    for v, parts in _grouped(draws, lambda draw: draw[1][0].shape[-1]):
        trials = [t for part_trials, _ in parts for t in part_trials]
        stacks = [np.concatenate(x) for x in zip(*(data for _, data in parts))]
        adm = _admissibilities(*stacks[:3], DEFAULT_TOL)
        taken = adm.is_einstein if einstein else adm.is_lie
        for r in np.flatnonzero(~taken):
            k, d = stacks[0][r], stacks[1][r]
            fail(trials[r], str(_unbalanced(k, d) if einstein else _not_lie(adm.lie_residual[r])))
        c = _antisymmetric(_models(*(x[taken] for x in stacks)))
        grams = np.broadcast_to(_witt_gram(v + 2), (len(c), v + 2, v + 2))
        facts = _CurvatureFacts(c, grams, DEFAULT_TOL, nilpotent)
        trials = list(itertools.compress(trials, taken))
        for trial in itertools.compress(trials, ~facts.kept):  # a Witt gram is nondegenerate
            fail(trial, "extension not nilpotent")
        yield list(itertools.compress(trials, facts.kept)), facts


def _extension_draws(rng: np.random.Generator, nilpotent: bool):
    """One half of double-extension's 100 draws: their shapes (f_dim 1–3,
    blocks 1–2), one integers call each, then the data of each shape in one
    stacked draw (doubleext._random_admissibles), in shape order.  Returns
    the stacks with their trial numbers and each trial's core dimension."""
    f_dims = rng.integers(1, 4, size=100)
    blocks = rng.integers(1, 3, size=100)
    shapes = list(zip(f_dims.tolist(), blocks.tolist()))
    draws: List[_Extensions] = [
        (trials, _random_admissibles(rng, len(trials), f_dim, count, nilpotent))
        for (f_dim, count), trials in _grouped(range(100), shapes.__getitem__)
    ]
    return draws, (f_dims + 2 * blocks).tolist()


@_check("double-extension")
def check_double_extension(tol: float, fail, measure) -> _Claim:
    # The models of one core dimension v, each with its Witt gram, are one
    # group decided by one _CurvatureFacts, which also decides each model's
    # nilpotency, at the decisions that extend, einstein_classify, decompose
    # and model_residual take, then read in its own frame and round-tripped.
    rng = _rng(8)
    nilpotent, v_dims = _extension_draws(rng, True)
    general, _ = _extension_draws(rng, False)

    def fail_nilpotent(trial: int, message: str) -> None:
        fail(f"nilpotent trial {trial} (v={v_dims[trial]}): {message}", 0, trial)

    def fail_general(trial: int, message: str) -> None:
        fail(f"μ≠0 trial {trial}: {message}", 1, trial)

    for trials, facts in _extension_groups(nilpotent, fail_nilpotent, None):
        problems, peaks = _unreached(facts, measure)
        verdicts = facts.verdicts(tol)[0]
        null = facts.null_vectors(facts.centers())  # find_isotropic_in of each center
        keep = []
        for r, (trial, problem, verdict) in enumerate(zip(trials, problems, verdicts)):
            if problem is None and verdict not in _RICCI_FLAT:
                problem = f"verdict {verdict.value} (‖Ric‖∞={peaks[r]:.3e})"
            elif problem is None and null[r] is None:
                problem = "decompose found no isotropic central vector"
            if problem:
                fail_nilpotent(trial, problem)
            else:
                keep.append(r)
        if not keep:
            continue
        e = np.array([null[r] for r in keep])
        frame, grams = [x[keep] for x in facts.frame], facts.grams[keep]
        data, p = _witt_decompositions(facts.brackets()[keep], frame, e, DEFAULT_TOL)
        resid = _model_residuals(facts.c[keep], grams, p, data)
        scale = _peaks(np.abs(facts.c[keep]), max(1.0, np.abs(grams).max()))
        measure(resid / scale)
        for r, res, sc in zip(keep, resid, scale):
            if res > tol * sc:
                fail_nilpotent(trials[r], f"decompose∘extend residual {res:.3e}")

    predicted = np.empty(100)  # ricci_ebar of each μ ≠ 0 trial
    for trials, (k, d, mu, _) in general:
        predicted[trials] = _ricci_ebars(k, d, mu)
    for trials, facts in _extension_groups(general, fail_general, False):
        forms = facts.ricci_form()  # ricci_via_definition
        for trial, pred, obs in zip(trials, predicted[trials].tolist(), forms[:, -1, -1].tolist()):
            scale = max(1.0, abs(obs))
            diff = abs(pred - obs)
            measure(diff / scale)
            if diff > tol * scale:
                fail_general(trial, f"ricci_ebar {pred:.6g} vs {obs:.6g}")
    return (
        "100 nilpotent data: extend nilpotent/Lorentzian/Ricci-flat and decompose "
        f"round-trips; 100 μ≠0 data: ricci_ebar matches, all within {tol:g}·scale",
        "200 extensions behave as constructed",
    )


@_check("guediri")
def check_guediri(tol: float, fail, measure) -> _Claim:
    # The 50 constrained sets are built as guediri_2step builds them and
    # decided by core dimension, as double-extension decides its draws.
    rng = _rng(9)

    def draw():
        q = int(rng.integers(2, 4))
        p = int(rng.integers(1, 3))
        while True:
            a = rng.normal(size=(q, q))
            a = a - a.T
            if float(np.sum(a * a)) > 0.1:
                break
        c = rng.normal(size=(q, p))
        c = c * np.sqrt(float(np.sum(a * a)) / (2.0 * float(np.sum(c * c))))
        alpha = rng.normal(size=q)
        return alpha, c, a, int(rng.integers(0, 3))

    def fail_trial(trial: int, message: str) -> None:
        fail(f"trial {trial}: {message}", trial)

    draws = []
    for trial in range(50):
        alpha, c, a, ab = draw()
        draws.append(([trial], _stack_of_one(_guediri_data(alpha, c, a, ab, DEFAULT_TOL))))
    for trials, facts in _extension_groups(draws, fail_trial, None, einstein=True):
        problems, _ = _unreached(facts, measure)
        classes = facts.classes(facts.centers())  # classify_subspace of each center
        for trial, problem, verdict, cls in zip(trials, problems, facts.verdicts(tol)[0], classes):
            if problem:
                fail_trial(trial, problem)
                continue
            if verdict not in _RICCI_FLAT:
                fail_trial(trial, f"verdict {verdict.value}")
            if cls.tag is not SubspaceTag.DEGENERATE:
                fail_trial(trial, f"center {cls.tag.value}")
    rejected = 0
    for trial in range(10):
        alpha, c, a, ab = draw()
        try:
            guediri_2step(alpha, 1.3 * c, a, abelian_dim=ab)
        except ConstraintViolation:
            rejected += 1
    if rejected != 10:  # keyed past every trial, so listed last
        fail(f"only {rejected}/10 violating parameter sets rejected", len(draws))
    return (
        "50 constrained parameter sets Ricci-flat with degenerate center; "
        "10 violating sets rejected",
        f"50 built, {rejected}/10 rejected",
    )


@_check("derivations")
def check_derivations(tol: float, fail, measure) -> _Claim:
    for name in DERIVATION_TABLE:
        der = table1_derivation(name)
        algebra = make_algebra(name)
        defect = algebra.derivation_defect(der)
        measure(defect)
        if defect > 1e-12:
            fail(f"{name}: derivation defect {defect:.3e}")
        if abs(np.trace(der)) <= 1e-12:
            fail(f"{name}: listed derivation is traceless")
        found = algebra.find_nonzero_trace_derivation()
        if found is None or abs(np.trace(found)) <= 1e-9:
            fail(f"{name}: find_nonzero_trace_derivation failed")
    return (
        "tabulated diagonal derivations exact (defect ≤ 1e-12) with nonzero trace; "
        "the search finds one on every algebra",
        f"{len(DERIVATION_TABLE)} table rows verified",
    )


def _lemma_draws(rng: np.random.Generator):
    """The lemma-fuzz trials, grouped by (n, mode): per group the trial numbers
    and stacks of W (skew, shaped by the mode), P (each with smallest singular
    value at least 1e-2) and, in mode 2, λ.  The sizes n are drawn first, for
    every trial at once; trial t has mode t % 3."""
    sizes = rng.integers(3, 9, size=_LEMMA_TRIALS).tolist()
    for (n, mode), numbers in _grouped(range(_LEMMA_TRIALS), lambda t: (sizes[t], t % 3)):
        k = len(numbers)
        w = rng.normal(size=(k, n, n))
        w = w - w.transpose(0, 2, 1)
        if mode:  # mode 1 forces Ae = αe, mode 2 Ae = 0
            w[:, :, 0] = 0.0
            w[:, 0, :] = 0.0
        if mode == 1:
            alpha = rng.normal(size=k)
            w[:, 1, 0] = alpha
            w[:, 0, 1] = -alpha
        p = _near_identity(rng, k, n, 1e-2)
        lam = rng.normal(size=(k, n - 2)) if mode == 2 else None
        yield n, mode, numbers, w, p, lam


@_check("lemma-fuzz")
def check_lemma_fuzz(tol: float, fail, measure) -> _Claim:
    strict = tol / 10.0
    rng = _rng(11)
    count = 0
    for n, mode, trials, w, p, lam in _lemma_draws(rng):
        count += len(trials)
        gm = np.eye(n)
        gm[0, 0] = gm[1, 1] = 0.0
        gm[0, 1] = gm[1, 0] = 1.0  # basis (e, ē, f_1..f_{n-2})
        a = np.linalg.solve(gm, w)  # ⟨Ax,y⟩ = −⟨x,Ay⟩ by construction
        g = p.transpose(0, 2, 1) @ gm @ p
        ap = np.linalg.solve(p, a @ p)
        ep = np.linalg.solve(p, np.eye(n)[:, :1])  # columns
        v = ap @ ep
        val = (v.transpose(0, 2, 1) @ g @ v)[:, 0, 0]
        vv = (v.transpose(0, 2, 1) @ v)[:, 0, 0]
        scale = np.maximum(_peaks(np.abs(g)) * vv, 1.0)
        tags = [f"trial {t} (n={n}, mode={mode})" for t in trials]

        def fail_where(bad, message) -> None:
            for k in np.flatnonzero(bad):
                fail(f"{tags[k]}: {message(k)}", trials[k])

        if mode == 0:
            measure(np.maximum(-val, 0.0) / scale)
            fail_where(val < -strict * scale, lambda k: f"⟨Ae,Ae⟩ = {val[k]:.3e} < 0")
        elif mode == 1:
            measure(np.abs(val) / scale)
            fail_where(np.abs(val) > strict * scale, lambda k: f"⟨Ae,Ae⟩ = {val[k]:.3e} ≠ 0 for Ae ∥ e")
            coef = (ep.transpose(0, 2, 1) @ v) / (ep.transpose(0, 2, 1) @ ep)
            resid = np.linalg.norm((v - coef * ep)[:, :, 0], axis=1)
            fail_where(
                resid > strict * np.maximum(np.sqrt(vv), 1.0),
                lambda k: f"Ae not collinear with e (residual {resid[k]:.3e})",
            )
        else:
            tr2 = np.trace(ap @ ap, axis1=1, axis2=2)
            s2 = np.maximum(np.sum(ap * ap, axis=(1, 2)), 1.0)
            measure(np.maximum(tr2, 0.0) / s2)
            fail_where(tr2 > strict * s2, lambda k: f"tr A² = {tr2[k]:.3e} > 0 with Ae = 0")
            # degenerate companion: A0 f_j = λ_j e, A0 ē = −Σ λ_j f_j, A0 e = 0
            w0 = np.zeros_like(w)
            w0[:, 1, 2:] = lam
            w0[:, 2:, 1] = -lam
            a0p = np.linalg.solve(p, np.linalg.solve(gm, w0) @ p)
            s0 = np.maximum(np.sum(a0p * a0p, axis=(1, 2)), 1.0)
            tr0 = np.trace(a0p @ a0p, axis1=1, axis2=2)
            fail_where(np.abs(tr0) > strict * s0, lambda k: "degenerate map has tr A₀² ≠ 0")
            cross = np.trace(a0p @ ap, axis1=1, axis2=2)
            s1 = np.maximum(
                np.linalg.norm(a0p, axis=(1, 2)) * np.linalg.norm(ap, axis=(1, 2)), 1.0
            )
            measure(np.abs(cross) / s1)
            fail_where(np.abs(cross) > strict * s1, lambda k: f"tr(A₀A) = {cross[k]:.3e} ≠ 0")
    return (
        "isotropy inequality ⟨Ae,Ae⟩ ≥ 0 with equality ⇔ Ae ∥ e; tr A² ≤ 0 "
        "when Ae = 0, with tr(A₀B) = 0 in the degenerate case",
        f"{count} trials in Lorentzian dims 3–8 hold",
    )


@_check("search-regression")
def check_search_regression(tol: float, fail, measure) -> _Claim:
    algebra = make_algebra("L3_2")
    spec = SearchSpec(algebra, target="ricci-flat", signature=(1, 2), seed=0, restarts=8)
    r1 = run_search(spec)
    r2 = run_search(spec)
    measure(r1.residual)
    if not r1.converged:
        fail(f"search did not converge (residual {r1.residual:.3e})")
    else:
        if r1.residual > 1e-6:
            fail(f"residual {r1.residual:.3e} above 1e-6")
        # the paper's theorem: in dimension ≤ 5 the center is degenerate
        center = classify_subspace(r1.best_gram, algebra.center())
        if center.tag is not SubspaceTag.DEGENERATE:
            fail(f"center of the converged gram is {center.tag.value}")
    if r1.iterations > spec.max_iters:
        fail(f"used {r1.iterations} iterations > {spec.max_iters}")
    same = (
        r1.converged == r2.converged
        and r1.residual == r2.residual
        and r1.iterations == r2.iterations
        and r1.restart_index == r2.restart_index
        and (r1.best_gram is None) == (r2.best_gram is None)
        and (r1.best_gram is None or np.array_equal(r1.best_gram.mat, r2.best_gram.mat))
    )
    if not same:
        fail("two runs of the same spec differ")
    return (
        "L3_2 (1,2) Ricci-flat search converges below 1e-6 and reruns bit-identically",
        f"converged={r1.converged} iterations={r1.iterations} "
        f"restart={r1.restart_index} bit-identical={same}",
    )


CHECK_NAMES: Tuple[str, ...] = tuple(CHECKS)


def run_checks(
    names: Optional[Iterable[str]] = None, tol: float = VERDICT_TOL
) -> List[CheckResult]:
    """Run the named checks (all by default) at the given verdict tolerance,
    which every verdict the checks take is also taken at.

    Checks quoting a stricter bound use tol/10; the pinned regression
    constants (derivation defect 1e-12, search tolerance 1e-6) stay put.
    A name given twice runs once, in the order of its first occurrence.
    UnknownName names any check that does not exist, InvalidInput no check,
    or names that are one string or no iterable at all.
    """
    if names is None:
        names = CHECK_NAMES
    elif isinstance(names, (str, bytes)) or not isinstance(names, Iterable):
        raise InvalidInput(f"names must be an iterable of check names, got {type(names).__name__}")
    selected = list(dict.fromkeys(names))
    if not selected:
        raise InvalidInput(f"no check selected; known: {', '.join(CHECK_NAMES)}")
    unknown = [s for s in selected if s not in CHECKS]
    if unknown:
        raise UnknownName(f"unknown checks: {', '.join(map(str, unknown))}; known: {', '.join(CHECK_NAMES)}")
    return [CHECKS[s](tol) for s in selected]


def format_row(r: CheckResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return (
        f"[{status}] {r.name:<22} residual {r.residual:9.2e}  "
        f"expected: {r.expected}  |  observed: {r.observed}"
    )
