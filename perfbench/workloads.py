"""The three benchmark workloads: inputs generated from a seed, the ops run
on them, and a correctness check for every op's output.

An op is one closed-loop call by the single client.  Checks run after the
op, outside its timed region, and return None or a description of what is
wrong.  Every call into mlie goes through a module attribute
(``mlie.extend``, not an imported name), so the traced run sees it.
``pass_seconds`` is about the time one pass takes at this version on a
2-vCPU 2.1 GHz Xeon VM, with its checks and the speed gauge's samples; it
fixes how many passes a run of a given length makes.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import mlie
import mlie.cli
import mlie.fileio
import mlie.verify

TOL = mlie.VERDICT_TOL
RICCI_FLAT = (mlie.Verdict.RICCI_FLAT, mlie.Verdict.FLAT)
#: Einstein constant of EX8 (verify.EX8_LAMBDA); the "wrong-value" gate
#: self-test checks against a wrong value instead
EX8_LAMBDA = 0.5
WRONG_EX8_LAMBDA = 0.25


@dataclass(frozen=True)
class Op:
    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# ---------------------------------------------------------------------------
# verify-paper: the twelve acceptance checks, one op each
# ---------------------------------------------------------------------------


def _check_passed(result) -> Optional[str]:
    return None if result.passed else f"check failed: {result.observed}"


class VerifyPaper:
    """The headline end-to-end run.  The checks fix their own seeds, so the
    workload seed changes nothing here."""

    name = "verify-paper"
    pass_seconds = 10.5
    same_ops_every_pass = True

    def __init__(self, seed: int, workdir: str, gate_test: Optional[str] = None) -> None:
        self._ops = [
            Op(name, partial(mlie.verify.CHECKS[name], TOL), _check_passed)
            for name in mlie.verify.CHECK_NAMES
        ]

    def warmup(self) -> None:
        for name in ("examples", "derivations"):
            mlie.verify.CHECKS[name](TOL)

    def ops(self, pass_index: int) -> List[Op]:
        return self._ops


# ---------------------------------------------------------------------------
# classify: a seeded stream of curvature verdicts
# ---------------------------------------------------------------------------

GRAMS_PER_ALGEBRA = 12
VARIANT_DRAWS = 2
EXAMPLE_REPEATS = 2
FRESH_PER_DIM = 3
FRESH_DIMS = range(3, 11)
CLI_FILES = 6


def random_gram(rng: np.random.Generator, n: int):
    """A^T η A with η = diag(±1): the draw of verify._random_gram, with its
    singular-value floor 1e-3 and no further conditioning filter."""
    while True:
        a = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        if np.linalg.svd(a, compute_uv=False)[-1] >= 1e-3:
            break
    eta = rng.choice([-1.0, 1.0], size=n)
    return mlie.Gram(a.T @ np.diag(eta) @ a)


def variant_params(mv, rng: np.random.Generator) -> List[Dict[str, float]]:
    """One parameter draw inside the variant's constraints; a variant with an
    ε parameter gives both signs."""
    base: Dict[str, float] = {}
    for p in mv.params:
        if p == "eps":
            continue
        if p in ("a", "b"):
            base[p] = float(rng.uniform(-0.9, 0.9))
        elif p == "y":
            base[p] = float(rng.uniform(-1.5, 1.5))
        elif p == "alpha" and mv.name == "m32":
            base[p] = float(rng.uniform(0.3, 1.8))
        else:  # alpha, x, mu, rho: bounded away from zero, either sign
            base[p] = float(rng.uniform(0.3, 1.8) * rng.choice([-1.0, 1.0]))
    if "eps" in mv.params:
        return [dict(base, eps=1.0), dict(base, eps=-1.0)]
    return [base]


def _shared(algebra, gram):
    m = mlie.MetricLieAlgebra(algebra, gram)
    return m, m.einstein_classify()


def _check_shared(out) -> Optional[str]:
    m, report = out
    r_def = report.ricci_form
    r_gen = m.ricci_general()
    scale = max(1.0, float(np.abs(r_def).max(initial=0.0)))
    diff = float(np.abs(r_def - r_gen).max(initial=0.0))
    return None if diff <= TOL * scale else f"ricci_general differs by {diff:.3e}"


def _catalog(name: str, variant: Optional[str], params: Optional[Dict[str, float]]):
    return mlie.make_metric(name, variant, params).einstein_classify()


def _check_ricci_flat(label: str, report) -> Optional[str]:
    if report.verdict in RICCI_FLAT:
        return None
    return f"{label}: verdict {report.verdict.value}, expected RicciFlat or Flat"


def _check_einstein(label: str, lam: float, report) -> Optional[str]:
    if report.verdict is not mlie.Verdict.EINSTEIN:
        return f"{label}: verdict {report.verdict.value}, expected Einstein"
    if abs(report.einstein_lambda - lam) > TOL * max(1.0, abs(lam)):
        return f"{label}: lambda {report.einstein_lambda!r}, expected {lam}"
    return None


def _fresh_nilpotent(data):
    m = mlie.extend(data)
    report = m.einstein_classify()
    dec = mlie.decompose(m)
    resid = None if dec is None else mlie.model_residual(m, dec)
    return m, report, dec, resid


def _roundtrip_scale(m) -> float:
    return max(
        1.0,
        float(np.abs(m.algebra.c).max(initial=0.0)),
        float(np.abs(m.gram.mat).max(initial=0.0)),
    )


def _check_fresh_nilpotent(out) -> Optional[str]:
    m, report, dec, resid = out
    if report.verdict not in RICCI_FLAT:
        return f"n={m.n} mu=0: verdict {report.verdict.value}"
    if dec is None:
        return f"n={m.n} mu=0: decompose found no isotropic central vector"
    if resid > TOL * _roundtrip_scale(m):
        return f"n={m.n} mu=0: decompose∘extend residual {resid:.3e}"
    return None


def _fresh_general(data):
    m = mlie.extend(data)
    return m, m.einstein_classify()


def _check_fresh_general(data, out) -> Optional[str]:
    m, report = out
    pred = mlie.ricci_ebar(data)
    obs = float(report.ricci_form[m.n - 1, m.n - 1])
    diff = abs(pred - obs)
    if diff > TOL * max(1.0, abs(obs)):
        return f"n={m.n} mu={data.mu:.3g}: ricci_ebar {pred:.6g} vs definition {obs:.6g}"
    return None


def _cli(argv: List[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mlie.cli.main(argv)
    return code, buf.getvalue()


def _check_cli_ricci(path: str, expected: tuple, out) -> Optional[str]:
    code, text = out
    verdict = next(
        (ln.split(":", 1)[1].strip() for ln in text.splitlines() if ln.startswith("verdict:")),
        None,
    )
    if code != 0 or verdict not in expected:
        return f"ricci {os.path.basename(path)}: exit {code}, verdict {verdict}"
    return None


def _check_cli_decompose(path: str, m, out) -> Optional[str]:
    code, text = out
    if code != 0:
        return f"decompose {os.path.basename(path)}: exit {code}"
    data, basis_change, _ = mlie.fileio.dict_to_extension(json.loads(text))
    resid = mlie.model_residual(m, mlie.Decomposition(data, basis_change))
    if resid > TOL * _roundtrip_scale(m):
        return f"decompose {os.path.basename(path)}: round-trip residual {resid:.3e}"
    return None


def _fresh_shape(n: int, rng: np.random.Generator):
    """(f_dim, blocks) of extension data whose extension has dimension n.

    Nilpotent data balances the trace condition with at least one rotation
    block, except in dimension 3, where f_dim = 1 makes D = K = 0."""
    if n == 3:
        return 1, 0
    blocks = int(rng.integers(1, (n - 2) // 2 + 1))
    return n - 2 - 2 * blocks, blocks


class SeededPasses:
    """Ops drawn afresh for every pass from (workload seed, pass index), with
    the same composition each pass; only the current pass is kept."""

    same_ops_every_pass = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._pass = (0, self._make_ops(np.random.default_rng([seed, 0])))

    def _make_ops(self, rng: np.random.Generator) -> List[Op]:
        raise NotImplementedError

    def ops(self, pass_index: int) -> List[Op]:
        if self._pass[0] != pass_index:
            self._pass = (pass_index, self._make_ops(np.random.default_rng([self.seed, pass_index])))
        return self._pass[1]


class Classify(SeededPasses):
    """Per-call verdict latency for a library or CLI user.

    Four kinds of op are shuffled into one stream: shared (the 14 catalog
    algebra objects, built once and reused with random grams, so a
    per-algebra memo hits), catalog (variant, EX6-EX8 metrics), fresh (double
    extensions of dimension 3-10, a new algebra object every op, so a memo
    misses; half with mu = 0 also run decompose and model_residual) and cli
    (ricci / decompose on catalog files written during set-up).  Every pass
    draws new grams, parameters and extension data, so the slowest ops that
    set the tail are many different inputs, not one input repeated."""

    name = "classify"
    pass_seconds = 0.9

    def __init__(self, seed: int, workdir: str, gate_test: Optional[str] = None) -> None:
        self.algebras = [mlie.make_algebra(name) for name in mlie.ALGEBRA_NAMES]
        self.ex8_lambda = WRONG_EX8_LAMBDA if gate_test == "wrong-value" else EX8_LAMBDA
        self.gate_test = gate_test
        rng = np.random.default_rng(seed)
        files = [
            (mv.name, mlie.make_metric(mv.algebra, mv.name, variant_params(mv, rng)[0]))
            for mv in list(mlie.METRIC_VARIANTS.values())[:CLI_FILES]
        ]
        # `ricci` runs on EX8 and all but one variant file, `decompose` on
        # every variant file
        ricci_files = files[:-1] + [("EX8", mlie.make_metric("EX8"))]
        for label, m in files + ricci_files[-1:]:
            mlie.write_algebra(os.path.join(workdir, f"{label}.json"), m.algebra, m.gram)
        self.cli_ops = []
        for label, _ in ricci_files:
            path = os.path.join(workdir, f"{label}.json")
            expected = ("Einstein",) if label == "EX8" else ("RicciFlat", "Flat")
            self.cli_ops.append(Op("cli", partial(_cli, ["ricci", path]), partial(_check_cli_ricci, path, expected)))
        for label, m in files:
            path = os.path.join(workdir, f"{label}.json")
            self.cli_ops.append(Op("cli", partial(_cli, ["decompose", path]), partial(_check_cli_decompose, path, m)))
        super().__init__(seed)

    def _make_ops(self, rng: np.random.Generator) -> List[Op]:
        ops: List[Op] = list(self.cli_ops)
        for algebra in self.algebras:
            for _ in range(GRAMS_PER_ALGEBRA):
                gram = random_gram(rng, algebra.n)
                ops.append(Op("shared", partial(_shared, algebra, gram), _check_shared))
        if self.gate_test == "raises":  # a degenerate gram: MetricLieAlgebra raises DegenerateGram
            algebra = self.algebras[0]
            singular = mlie.Gram(np.diag([1.0] * (algebra.n - 1) + [0.0]))
            ops.append(Op("shared", partial(_shared, algebra, singular), _check_shared))

        for mv in mlie.METRIC_VARIANTS.values():
            for _ in range(VARIANT_DRAWS):
                for params in variant_params(mv, rng):
                    ops.append(
                        Op(
                            "catalog",
                            partial(_catalog, mv.algebra, mv.name, params),
                            partial(_check_ricci_flat, f"{mv.name} {params}"),
                        )
                    )
        for _ in range(EXAMPLE_REPEATS):
            for name in ("EX6", "EX7"):
                ops.append(
                    Op("catalog", partial(_catalog, name, None, None), partial(_check_ricci_flat, name))
                )
            ops.append(
                Op(
                    "catalog",
                    partial(_catalog, "EX8", None, None),
                    partial(_check_einstein, "EX8", self.ex8_lambda),
                )
            )

        for n in FRESH_DIMS:
            for _ in range(FRESH_PER_DIM):
                f_dim, blocks = _fresh_shape(n, rng)
                data = mlie.random_admissible(rng, f_dim=f_dim, blocks=blocks, nilpotent=True)
                ops.append(Op("fresh-nilpotent", partial(_fresh_nilpotent, data), _check_fresh_nilpotent))
                f_dim, blocks = _fresh_shape(n, rng)
                data = mlie.random_admissible(rng, f_dim=f_dim, blocks=blocks, nilpotent=False)
                ops.append(
                    Op("fresh-general", partial(_fresh_general, data), partial(_check_fresh_general, data))
                )
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self) -> None:
        seen = set()
        for op in self.ops(0):
            if op.kind not in seen:
                seen.add(op.kind)
                op.fn()


# ---------------------------------------------------------------------------
# search: random-restart searches for Ricci-flat / Einstein metrics
# ---------------------------------------------------------------------------

#: (label, algebra, signature, target, has a known solution), one spec of
#: each per pass; L4_3 and L5_2 carry listed Ricci-flat variants that today's
#: search mostly does not reach, and the Euclidean Heisenberg algebra has no
#: Einstein metric at all.
SEARCH_SPECS = (
    ("L3_2-lorentz-rf", "L3_2", (1, 2), "ricci-flat", True),
    ("L4_2-lorentz-rf", "L4_2", (1, 3), "ricci-flat", True),
    ("L4_3-lorentz-rf", "L4_3", (1, 3), "ricci-flat", True),
    ("L5_2-lorentz-rf", "L5_2", (1, 4), "ricci-flat", True),
    ("L3_2-euclid-einstein", "L3_2", (0, 3), "einstein", False),
)


def _run_search(spec):
    return mlie.run_search(spec)


def _same_result(a, b) -> bool:
    return (
        a.converged == b.converged
        and a.residual == b.residual
        and a.iterations == b.iterations
        and a.restart_index == b.restart_index
        and (a.best_gram is None) == (b.best_gram is None)
        and (a.best_gram is None or np.array_equal(a.best_gram.mat, b.best_gram.mat))
    )


class Search(SeededPasses):
    """The one workload where the search layer dominates; curvature and
    liealg enter only through one is_nilpotent call per spec.  Each pass
    draws new spec seeds from the workload seed."""

    name = "search"
    pass_seconds = 10.0

    def __init__(self, seed: int, workdir: str, gate_test: Optional[str] = None) -> None:
        self.algebras = {name: mlie.make_algebra(name) for _, name, *_ in SEARCH_SPECS}
        #: counts of specs with a known solution, and of those that converged
        self.tally: Counter = Counter()
        super().__init__(seed)

    def _make_ops(self, rng: np.random.Generator) -> List[Op]:
        ops = []
        for label, name, sig, target, known in SEARCH_SPECS:
            spec = mlie.SearchSpec(self.algebras[name], target=target, signature=sig, seed=int(rng.integers(2**31)))
            rerun = not ops  # one spec per pass is rerun for bit-identity
            ops.append(Op(label, partial(_run_search, spec), partial(self._check, spec, known, rerun)))
        return ops

    def _check(self, spec, known: bool, rerun: bool, result) -> Optional[str]:
        label = f"{spec.target} {spec.signature} seed {spec.seed}"
        if known:
            self.tally["known"] += 1
            self.tally["solved"] += int(result.converged)
        elif result.converged:
            return f"{label}: converged on a target with no solution"
        if result.converged:
            sig = mlie.signature(result.best_gram)
            if (sig.minus, sig.plus, sig.null) != (*spec.signature, 0):
                return f"{label}: gram has signature {tuple(sig)}"
            resid = mlie.einstein_residual(spec.algebra, result.best_gram, spec.target)
            if resid > spec.tol:
                return f"{label}: recomputed residual {resid:.3e} above {spec.tol:g}"
        if rerun and not _same_result(result, mlie.run_search(spec)):
            return f"{label}: rerun differs"
        return None

    def warmup(self) -> None:
        algebra = self.algebras["L3_2"]
        mlie.run_search(mlie.SearchSpec(algebra, signature=(1, 2), restarts=1, max_iters=5))


WORKLOADS = {w.name: w for w in (VerifyPaper, Classify, Search)}

#: (label, algebra, variant, params) of the fixed grams for the residual probe
PROBES = (
    ("n3", "L3_2", "m32", {"alpha": 1.0}),
    ("n5", "L5_2", "m52", {"alpha": 1.0, "a": 0.3, "b": -0.2}),
    ("n8", "EX8", None, None),
)
