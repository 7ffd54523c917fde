"""Numerical search for Einstein / Ricci-flat left-invariant metrics on a
fixed algebra: Levenberg–Marquardt in the bracket picture.

A gram G = AᵀηA, with η the diagonal of the requested signature, makes the
frame e·A⁻¹ pseudo-orthonormal; there the bracket is μ = A·c, μ(x,y) =
A c(A⁻¹x, A⁻¹y), and Ric_G = A⁻¹ Ric_η(μ) A.  The search keeps η fixed and
moves μ along its orbit, A ← (I+X)A with |det A| held at 1, towards a zero of
r(μ) = (Ric_η(μ) − λ̂·Id)/‖μ‖², which does not change when the metric or the
bracket is scaled (Lauret, Math. Ann. 2001).  On a nilpotent algebra
Ric_η(μ) is taken from its bracket form Q = P(μ, μ♯) = ¼Rᵀ
(curvature.q_bracket_operators, two matmuls on μ), otherwise from the
Levi-Civita route.  Q is bilinear in μ, so its derivative along the orbit
tangent ν = E·μ is its exact differential dQ[ν] = P(ν, μ♯) + η·P(ν, μ♯)ᵀ·η
(curvature.q_bracket_differentials), two matmuls per direction; the
Levi-Civita route has no such form, and there the derivative is exact by
polarization, dRic[ν] = (Ric_η(μ+ν) − Ric_η(μ−ν))/2, two Ricci evaluations
per direction.  Every search takes its steps on one Frobenius-orthonormal
basis of directions E, built once and shared by every restart and
iteration: the n² unit matrices of gl(n), or a basis of the subspace S
below.  Every E in Der(μ) = A·Der(c)·A⁻¹ leaves μ fixed (ν = 0) and gives a
zero Jacobian column, which the damping absorbs:

    algebra                      L3_2  L4_2  L4_3  L5_2  EX8
    directions on all of gl(n)      9    16    16    25   64
    directions on the flag's S      6    11    11    18    -

The paper's theorem says where the Lorentzian Ricci-flat metrics of dimension
n ≤ 5 are: every Lorentzian Einstein nilpotent metric there has a degenerate
center, so it is a double extension, whose null central vector z has a
hyperplane H = z^⊥ ⊇ Z + [g,g] with [H,H] ⊆ Rz.  So when the spec asks for a
Ricci-flat metric of signature (1, n − 1) on a non-abelian nilpotent algebra
of dimension n ≤ 5, the search holds that null flag z ∈ H on every iterate:
z is the first row of Z ∩ [g,g], the admissible H are the kernels of the
nonzero members α of z's α-space, both read from the algebra once by
doubleext._double_extension_reading (which says why [g,g]), and with
ê = (b₀ + b₁)/√2, an η-null frame vector,
- every start I + 0.1·N is turned by the Euclidean Householder reflection
  that sends A·z/|A·z| to ê, which keeps cond(A), and then moved by the
  rank-one A ← A − ηê ⊗ (w − α), where w = êᵀηA and α is its orthogonal
  projection onto the α-space, so that A·z ∥ ê and A⁻¹(ê^⊥) = ker α;
- every step X lies in S = {X : X·ê ∥ ê, Xᵀ·ηê ∥ ηê}, the flag's
  stabilizer, so (I + X)·A keeps A·z on the line of ê and the row êᵀηA on
  the line of α to all orders: B·ê stays a central null vector of the gram
  and its orthogonal hyperplane stays ker α.
S has a basis of n² − 2n + 3 members.  Every other spec (dimension ≥ 6, where
EX6 and EX7 are Ricci-flat with a nondegenerate center; other signatures;
the Einstein target; abelian or non-nilpotent algebras; an empty α-space,
which no catalog algebra of dimension ≤ 5 has) steps on gl(n), and
SearchResult.central_vector and SearchResult.hyperplane are None; such a
spec makes no reading (_held_flag tests its gates first).

All restarts advance together as one stack of factors A[r]: per iteration one
stacked Jacobian call over the restarts still running, and per damping round
one stacked forward call over the (restart, rung) pairs of those still
searching, whose values the accepted ones keep.  A restart's damping rises
×10 per rejected rung d, 10d, 100d, … up to _MAX_DAMPING.  One round body
runs over the widths _ROUND_WIDTHS = (1, 1, 1, rest): one rung each in the
first three rounds, since most iterations settle within three, then every
rung left.  Each restart takes its first rung that lowers ‖r‖ and goes on at
a tenth of it (at least _MIN_DAMPING), one with none from its last rung ×10,
so the rungs and their floats are those of one rung per round; an iteration
makes at most four forward calls, where a restart that collapses climbs about
sixteen rungs.  Every operation acts on each restart alone, so a restart's
trajectory does not depend on its stack mates; each one stops for its own
reason (STOP_REASONS), and the whole search is deterministic for a fixed
spec.  A restart converges only when the classification of its gram at
VERDICT_TOL, the one einstein_classify gives, meets the target and
‖Ric − λ̂·Id‖_F ≤ spec.tol; the restarts of one iteration that reach it are
classified in one pipeline call (_settle), each decided as its own metric is.
Each forward call inverts its factors once, and B = A⁻¹ makes the bracket
μ = A·c and Ric_G = B·Ric_η(μ)·A, which leaves the frame as a metric's
operators do (B·X·A, in curvature._CurvatureFacts), with no solve.  Only candidates
are classified: a restart whose Ric_G is within spec.tol of λ̂·Id but fails
the verdict's Einstein test goes on with no classification.

The forward and Jacobian calls hand the kernel the frame as its signs ε,
η = diag(ε), so every product with η is a sign flip (a gram AᵀηA is
(Aᵀ·ε)·A); _settle and einstein_residual take each gram's own frame.  A
restart stops "degenerating" when cond₂(A) passes _MAX_COND; the bound
‖A‖_F·‖B‖_F ≥ cond₂(A) comes free from the forward call's B, so only the
factors whose bound passes pay the SVD of np.linalg.cond.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .curvature import (
    VERDICT_TOL,
    MetricLieAlgebra,
    Verdict,
    _RICCI_FLAT,
    _CurvatureFacts,
    _einstein_defects,
    _einstein_deviations,
    _identity,
    q_bracket_differentials,
    q_bracket_operators,
    ricci_operators,
)
from .doubleext import _double_extension_reading, _on_its_line
from .errors import InvalidInput
from .liealg import LieAlgebra, act_on_brackets, derivation_defects
from .pseudolin import Gram, _cutoff, _nonnegative, _symmetrized, nullspace

TARGETS = ("einstein", "ricci-flat")

#: the verdicts that meet each target
_TARGET_VERDICTS = {
    "einstein": (Verdict.EINSTEIN, *_RICCI_FLAT),
    "ricci-flat": _RICCI_FLAT,
}

#: why a restart stopped: its gram met the target; the damping passed
#: _MAX_DAMPING with no step lowering the residual; cond(A) passed _MAX_COND,
#: or the classifier found the gram degenerate or its Ricci routes apart; the
#: residual failed to halve over 100 iterations; spec.max_iters used up
STOP_REASONS = ("converged", "step-collapse", "degenerating", "creep", "budget")

_MAX_COND = 1e3
#: bounds of the damping, absolute because r and J are free of scale
_MIN_DAMPING = 1e-12
_MAX_DAMPING = 1e12
#: the rungs each damping round tries: one in each of the first three, since
#: most iterations settle within three, then every rung left (None)
_ROUND_WIDTHS = (1, 1, 1, None)
#: Frobenius norm of the longest step X, which keeps I + X invertible
_MAX_STEP = 0.5
#: up to this dimension every Lorentzian Einstein nilpotent metric has a
#: degenerate center (the paper's theorem), and the Lorentzian Ricci-flat
#: search holds a null flag: a central vector null and its hyperplane
#: admissible
_STRATUM_MAX_DIM = 5


def einstein_residual(algebra: LieAlgebra, gram, target: str = "einstein") -> float:
    """Frobenius norm of Ric − λ̂·Id, with λ̂ = tr(Ric)/n for the Einstein
    target and λ̂ = 0 for the Ricci-flat target."""
    if target not in TARGETS:
        raise InvalidInput(f"target must be one of {TARGETS}")
    ric = MetricLieAlgebra(algebra, gram).ricci_operator()
    return float(_residuals(ric[None], target == "einstein")[0])


@dataclass(frozen=True)
class SearchSpec:
    algebra: LieAlgebra
    target: str = "ricci-flat"
    signature: Tuple[int, int] = (1, 2)  # (minus, plus)
    seed: int = 0
    restarts: int = 8
    max_iters: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if self.target not in TARGETS:
            raise InvalidInput(f"target must be one of {TARGETS}")
        _nonnegative(self.seed, "seed")
        if _nonnegative(self.restarts, "restarts") < 1:
            raise InvalidInput("restarts must be at least 1")
        _nonnegative(self.max_iters, "max_iters")
        _cutoff(self.tol)  # refuses a tol that is not a positive finite number
        sig = self.signature if isinstance(self.signature, (tuple, list)) else ()
        if len(sig) != 2 or sum(_nonnegative(k, "signature entry") for k in sig) != self.algebra.n:
            raise InvalidInput(
                f"signature {self.signature} does not fit dimension {self.algebra.n}"
            )


@dataclass(frozen=True, eq=False)
class SearchResult:
    converged: bool
    best_gram: Optional[Gram]
    #: ‖Ric − λ̂·Id‖_F at the winner's gram
    residual: float
    iterations: int
    restart_index: int
    #: one of STOP_REASONS per restart, in restart order
    stop_reasons: Tuple[str, ...]
    #: the central vector z that every restart held null, read-only (n,),
    #: or None off the flag
    central_vector: Optional[np.ndarray]
    #: the 1-form α of the winner's hyperplane H = z^⊥ = ker α, unit with its
    #: largest entry positive, read-only (n,), or None off the flag
    hyperplane: Optional[np.ndarray]


def _deviations(ric: np.ndarray, einstein: bool) -> np.ndarray:
    """Ric − λ̂·Id for a stack of Ricci operators."""
    return _einstein_deviations(ric)[1] if einstein else ric


def _residuals(ric: np.ndarray, einstein: bool) -> np.ndarray:
    """‖Ric − λ̂·Id‖_F for a stack of Ricci operators."""
    return _norms(_deviations(ric, einstein))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the items of a stack."""
    flat = x.reshape(len(x), math.prod(x.shape[1:]))
    return np.einsum("mi,mi->m", flat, flat)


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_norms(x))


def _unit_det(a: np.ndarray) -> np.ndarray:
    """The stack a, each factor scaled to |det A| = 1."""
    return a / (np.abs(np.linalg.det(a)) ** (1.0 / a.shape[-1]))[:, None, None]


def _scale_free(mu: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """r = (Ric − λ̂·Id)/‖μ‖², and 0 for μ = 0, where Ric = 0 too."""
    sq = _sq_norms(mu)[:, None, None]
    return np.divide(dev, sq, out=np.zeros_like(dev), where=sq > 0)


def _ricci(mu: np.ndarray, eps: np.ndarray, nilpotent: bool) -> np.ndarray:
    """Ric_η(μ) for a stack of brackets μ in the frame η = diag(eps): the
    bracket form when the algebra is nilpotent, else the Levi-Civita route."""
    return q_bracket_operators(mu, eps) if nilpotent else ricci_operators(mu, eps, False)


def _forward(
    a: np.ndarray, c: np.ndarray, eps: np.ndarray, nilpotent: bool, einstein: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(B, μ, Ric_η(μ), r) for a stack of factors A of grams AᵀηA on c, with
    B = A⁻¹ and η = diag(eps)."""
    b = np.linalg.inv(a)
    mu = act_on_brackets(a, b, c)
    ric = _ricci(mu, eps, nilpotent)
    return b, mu, ric, _scale_free(mu, _deviations(ric, einstein))


def _jacobians(
    mu: np.ndarray,
    ric: np.ndarray,
    eps: np.ndarray,
    nilpotent: bool,
    einstein: bool,
    basis: np.ndarray,
) -> np.ndarray:
    """J[m] of shape (n², k), for brackets μ[m] ≠ 0 in the frame η = diag(eps)
    with Ricci operators ric[m] and the matrices E of basis (k, n, n), which
    every m shares: column j is the derivative of r at μ[m] along the orbit
    tangent ν = E_j·μ.  On a nilpotent algebra dRic[ν] is the exact
    differential of the bracket form, one stacked call for all k directions
    of every m; otherwise one stacked call of the Levi-Civita route evaluates
    the 2k sides μ ± ν, and dRic[ν] = (Ric_η(μ+ν) − Ric_η(μ−ν))/2."""
    m, n = mu.shape[:2]
    nu = derivation_defects(mu[:, None], basis)
    k = nu.shape[1]
    sq = _sq_norms(mu)[:, None, None, None]
    if nilpotent:
        d_ric = q_bracket_differentials(mu, eps, nu).reshape(m * k, n, n)
        d_dev = _deviations(d_ric, einstein).reshape(m, k, n, n) / sq
    else:
        sides = np.concatenate([mu[:, None] + nu, mu[:, None] - nu]).reshape(-1, n, n, n)
        plus, minus = _deviations(ricci_operators(sides, eps, False), einstein).reshape(2, m, k, n, n)
        d_dev = (plus - minus) / (2.0 * sq)
    d_sq = 2.0 * (nu.reshape(m, k, -1) @ mu.reshape(m, -1, 1))[..., None]  # d‖μ‖²[ν]
    d_r = d_dev - _deviations(ric, einstein)[:, None] * d_sq / sq**2
    return d_r.reshape(m, k, n * n).transpose(0, 2, 1)


def _held_flag(spec: SearchSpec) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The algebra's doubleext._double_extension_reading (z, forms), read
    only once the spec passes its gates: Ricci-flat target, signature
    (1, n − 1) and n ≤ _STRATUM_MAX_DIM.  None off them, with no reading, and
    with an empty α-space, where the spec steps on gl(n)."""
    n = spec.algebra.n
    if spec.target != "ricci-flat" or tuple(spec.signature) != (1, n - 1) or n > _STRATUM_MAX_DIM:
        return None
    flag = _double_extension_reading(spec.algebra)
    return flag if flag is not None and len(flag[1]) else None


def _null_flag(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(ê, ηê) for η = diag(−1, 1, …, 1): ê = (b₀ + b₁)/√2, a unit η-null
    vector, and ηê, the unit 1-form whose kernel is ê^⊥ ∋ ê."""
    e = np.zeros(n)
    e[:2] = math.sqrt(0.5)
    eta_e = e.copy()
    eta_e[0] = -eta_e[0]
    return e, eta_e


@functools.lru_cache(maxsize=None)
def _flag_directions(n: int) -> np.ndarray:
    """A Frobenius-orthonormal basis (n² − 2n + 3, n, n) of the flag's
    stabilizer S = {X : X·ê ∥ ê, Xᵀ·ηê ∥ ηê}, the kernel of X ↦
    ((I − êêᵀ)·X·ê, (I − ηêêᵀη)·Xᵀ·ηê), by one SVD, made once per n and
    read-only.  Every I + X with X in S maps the null line of ê and the
    hyperplane ê^⊥ onto themselves; the two halves share one condition,
    êᵀηXê = 0."""
    e, eta_e = _null_flag(n)
    units = np.eye(n * n).reshape(n * n, n, n)
    lines = (np.eye(n) - np.outer(e, e)) @ units @ e  # (n², n)
    planes = (np.eye(n) - np.outer(eta_e, eta_e)) @ units.transpose(0, 2, 1) @ eta_e
    # the map's singular values are √2 (once), 1 (2n − 4 times) and 0
    basis = nullspace(np.concatenate([lines, planes], axis=1).T, 0.5).reshape(-1, n, n)
    basis.flags.writeable = False
    return basis


def _onto_null_line(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The stack a, each factor turned by the Euclidean Householder
    reflection H = I − 2vvᵀ/|v|², v = A·z/|A·z| − ê, so that H·A·z ∥ ê;
    H is orthogonal, so cond(H·A) = cond(A)."""
    u = a @ z
    v = u / _norms(u)[:, None] - _null_flag(a.shape[-1])[0]
    return a - (2.0 / _sq_norms(v))[:, None, None] * v[:, :, None] @ (v[:, None, :] @ a)


def _onto_flag(a: np.ndarray, z: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """The stack a turned by _onto_null_line, then each factor moved by the
    rank-one A ← A − ηê ⊗ (w − α), with w = êᵀηA its row and α the orthogonal
    projection of w onto the α-space, of orthonormal rows forms (k, n).  The
    new row êᵀηA is α, since η² = I and |ê| = 1, and A·z stays, since
    w·z = 0 = α·z; so A·z ∥ ê and A⁻¹(ê^⊥) = ker α is an admissible
    hyperplane.  α depends on the restart's own start alone."""
    a = _onto_null_line(a, z)
    eta_e = _null_flag(a.shape[-1])[1]
    w = eta_e @ a
    return a - eta_e[:, None] * (w - w @ forms.T @ forms)[:, None, :]


def _damped_steps(
    normal: np.ndarray, gradient: np.ndarray, damping: np.ndarray, basis: np.ndarray
) -> np.ndarray:
    """X[m] = Σ_j y_j E_j, (n, n), for the minimizer y of ‖r + J y‖² +
    damping·‖y‖², from normal = JᵀJ, gradient = Jᵀr and the basis (k, n, n)
    of J's columns; ‖X‖_F is capped at _MAX_STEP."""
    lhs = normal + damping[:, None, None] * _identity(normal.shape[-1])
    y = -np.linalg.solve(lhs, gradient)
    x = np.einsum("mj,jab->mab", y[..., 0], basis)
    return x * (_MAX_STEP / np.maximum(_norms(x), _MAX_STEP))[:, None, None]


def _ladder(damping: np.ndarray, width: Optional[int]) -> np.ndarray:
    """The rungs d, 10d, 100d, … (s, width) of each damping d of a stack, made
    by repeated ×10; width None makes every rung up to _MAX_DAMPING."""
    if width is None:
        width = 1 + math.ceil(math.log10(_MAX_DAMPING / damping.min()))
    rungs = np.full((len(damping), width), 10.0)
    rungs[:, 0] = damping
    return np.multiply.accumulate(rungs, axis=1, out=rungs)


def _settle(
    spec: SearchSpec, eps: np.ndarray, a: np.ndarray, ric_g: np.ndarray, residual: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(stop reasons, residuals) of the restarts with factors a (k, n, n) whose
    Ricci operators ric_g = Ric_G are within spec.tol of λ̂·Id, at their
    residuals (k,).  Only the members whose Ric_G passes the verdict's
    Einstein test are classified, once and together: their grams AᵀηA,
    η = diag(eps), built as Gram builds them, with the bracket broadcast, go
    through one _CurvatureFacts, as a metric's stack of one does.  A member stops
    "degenerating" when the pipeline does not keep it (its gram is
    degenerate) or its Ricci routes disagree, and "converged" when its
    classification's residual is within spec.tol and its verdict meets the
    target; with "" it goes on, at that residual, or at its own when it was
    not classified."""
    reasons = np.full(len(a), "", dtype=object)
    residual = residual.copy()
    _, defect, cut = _einstein_defects(ric_g, VERDICT_TOL)
    idx = np.flatnonzero(defect <= cut)
    if not idx.size:
        return reasons, residual
    mats = _symmetrized((a[idx].swapaxes(-1, -2) * eps) @ a[idx])
    c = np.broadcast_to(spec.algebra.c, (len(mats),) + spec.algebra.c.shape)
    facts = _CurvatureFacts(c, mats, spec.algebra.tol, spec.algebra.is_nilpotent())
    reasons[idx[~facts.kept]] = "degenerating"
    idx = idx[facts.kept]
    agree = facts.routes_agree()
    reasons[idx[~agree]] = "degenerating"
    residual[idx[agree]] = _residuals(facts.ricci_unchecked()[agree], spec.target == "einstein")
    verdicts = facts.verdicts(VERDICT_TOL)[0]
    met = np.array([v in _TARGET_VERDICTS[spec.target] for v in verdicts], dtype=bool)
    reasons[idx[agree & met & (residual[idx] <= spec.tol)]] = "converged"
    return reasons, residual


def run_search(spec: SearchSpec) -> SearchResult:
    """Multi-restart Levenberg–Marquardt on the scale-free residual.  The
    winner is the converged restart of smallest residual, or, when none
    converged, the restart of smallest residual; ties go to the lowest
    restart index."""
    algebra = spec.algebra
    n = algebra.n
    nilpotent = algebra.is_nilpotent()
    einstein = spec.target == "einstein"
    minus, plus = spec.signature
    eps = np.concatenate([-np.ones(minus), np.ones(plus)])
    flag = _held_flag(spec)
    # the one basis every step of this search is taken on
    basis = np.eye(n * n).reshape(n * n, n, n) if flag is None else _flag_directions(n)

    count = spec.restarts
    starts = [np.random.default_rng([spec.seed, r]).standard_normal((n, n)) for r in range(count)]
    a = np.eye(n) + 0.1 * np.array(starts)
    a = _unit_det(a if flag is None else _onto_flag(a, *flag))
    b, mu, ric, r = _forward(a, algebra.c, eps, nilpotent, einstein)
    f = _norms(r)
    residual = np.zeros(count)
    damping = np.full(count, 1e-3)
    iters = np.zeros(count, dtype=int)
    f_checkpoint = np.full(count, np.inf)
    reasons = np.full(count, "", dtype=object)

    running = np.arange(count)
    while True:
        ric_g = b[running] @ ric[running] @ a[running]
        residual[running] = _residuals(ric_g, einstein)
        near = np.flatnonzero(residual[running] <= spec.tol)
        if near.size:
            idx = running[near]
            reasons[idx], residual[idx] = _settle(spec, eps, a[idx], ric_g[near], residual[idx])
        running = running[reasons[running] == ""]
        # ‖A‖_F·‖B‖_F ≥ cond₂(A), so only the factors whose bound passes
        # _MAX_COND pay the SVD of np.linalg.cond, which decides
        bounded = running[_norms(a[running]) * _norms(b[running]) > _MAX_COND]
        reasons[bounded[np.linalg.cond(a[bounded]) > _MAX_COND]] = "degenerating"
        running = running[reasons[running] == ""]
        reasons[running[iters[running] >= spec.max_iters]] = "budget"
        running = running[reasons[running] == ""]
        if not running.size:
            break
        iters[running] += 1
        jac = _jacobians(mu[running], ric[running], eps, nilpotent, einstein, basis)
        jac_t = jac.transpose(0, 2, 1)
        normal, gradient = jac_t @ jac, jac_t @ r[running].reshape(len(running), -1, 1)
        # the damped step X = Σ y_j E_j, damping ×10 until ‖r‖ drops: each
        # round tries the next rungs of every restart still searching
        searching = np.arange(len(running))
        for width in _ROUND_WIDTHS:
            if not searching.size:
                break
            idx = running[searching]
            rungs = _ladder(damping[idx], width)
            valid = rungs <= _MAX_DAMPING
            rows = valid.nonzero()[0]
            pairs, tried = idx[rows], rungs[valid]
            x = _damped_steps(normal[searching[rows]], gradient[searching[rows]], tried, basis)
            trial = _unit_det((_identity(n) + x) @ a[pairs])
            forward = _forward(trial, algebra.c, eps, nilpotent, einstein)
            values = (trial, *forward, _norms(forward[3]))
            lower = np.zeros(valid.shape, dtype=bool)
            lower[valid] = values[-1] < f[pairs]
            # each restart takes its first rung that lowers ‖r‖
            seen = lower.cumsum(axis=1)
            taken = (lower & (seen == 1))[valid].nonzero()[0]
            winners = pairs[taken]
            for kept, value in zip((a, b, mu, ric, r, f), values):
                kept[winners] = value[taken]
            damping[idx] = rungs[:, -1] * 10.0  # the next rung, for those with none
            damping[winners] = np.maximum(tried[taken] / 10.0, _MIN_DAMPING)
            searching = searching[(seen[:, -1] == 0) & (damping[idx] <= _MAX_DAMPING)]
        # a local stall: no rung up to _MAX_DAMPING lowered ‖r‖
        reasons[running[damping[running] > _MAX_DAMPING]] = "step-collapse"
        running = running[reasons[running] == ""]
        # drop restarts that creep: unless the residual at least halves every
        # 100 iterations, the target is out of reach in budget
        due = iters[running] % 100 == 0
        creeping = due & (f[running] > 0.5 * f_checkpoint[running])
        reasons[running[creeping]] = "creep"
        f_checkpoint[running[due]] = f[running[due]]
        running = running[~creeping]

    converged = reasons == "converged"
    stopped = ~converged
    residual[stopped] = _residuals(b[stopped] @ ric[stopped] @ a[stopped], einstein)
    pool = np.flatnonzero(converged) if converged.any() else np.arange(count)
    best = int(pool[np.argmin(residual[pool])])
    return SearchResult(
        converged=bool(converged[best]),
        best_gram=Gram((a[best].T * eps) @ a[best]) if converged[best] else None,
        residual=float(residual[best]),
        iterations=int(iters[best]),
        restart_index=best,
        stop_reasons=tuple(reasons),
        central_vector=None if flag is None else flag[0],
        hyperplane=None if flag is None else _on_its_line(_null_flag(n)[1] @ a[best]),
    )
