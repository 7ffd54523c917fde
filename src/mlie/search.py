"""Numerical search for Einstein / Ricci-flat left-invariant metrics on a
fixed algebra, by gradient descent on a factor of the gram matrix.

The gram is parameterized as G = Aᵀ η A with η the diagonal of the requested
signature, so every candidate has the right signature by construction; the
smallest singular value of A is floored at 1e-6 to keep G invertible.  The
residual f = ‖Ric − λ̂·Id‖_F is differentiated exactly, in reverse mode:
∂f/∂A = ηA(Ḡ + Ḡᵀ) with Ḡ the pullback through ricci_operators_vjp of
(Ric − λ̂·Id)/f.

All restarts advance together as one stack of factors A[r]: each iteration
makes one stacked forward+backward pass over the restarts still running, and
each round of the line search one stacked forward pass over the restarts
still searching.  Every operation acts on each restart alone, so a restart's
trajectory does not depend on which others share the stack, and each one
stops for its own reason (STOP_REASONS).  The whole procedure is
deterministic for a fixed spec, including the seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .curvature import ricci_operators, ricci_operators_vjp
from .errors import DegenerateGram, InvalidInput
from .liealg import LieAlgebra
from .pseudolin import DEFAULT_TOL, Gram

TARGETS = ("einstein", "ricci-flat")

#: why a restart stopped: residual at most spec.tol; no step down to 1e-14
#: lowered the residual; the residual failed to halve over 100 iterations;
#: spec.max_iters used up
STOP_REASONS = ("converged", "step-collapse", "creep", "budget")

_SV_FLOOR = 1e-6
_MIN_STEP = 1e-14


def einstein_residual(
    algebra: LieAlgebra, gram, target: str = "einstein", tol: float = DEFAULT_TOL
) -> float:
    """Frobenius norm of Ric − λ̂·Id, with λ̂ = tr(Ric)/n for the Einstein
    target and λ̂ = 0 for the Ricci-flat target."""
    if target not in TARGETS:
        raise InvalidInput(f"target must be one of {TARGETS}")
    if not isinstance(gram, Gram):
        gram = Gram(gram)
    if gram.n != algebra.n:
        raise InvalidInput("gram size does not match algebra dimension")
    if not gram.is_nondegenerate(tol):
        raise DegenerateGram("gram matrix is degenerate at tolerance")
    nilpotent = algebra.is_nilpotent(tol)
    return float(_batched_residual(algebra.c, gram.mat[None], nilpotent, target == "einstein")[0])


@dataclass(frozen=True)
class SearchSpec:
    algebra: LieAlgebra
    target: str = "ricci-flat"
    signature: Tuple[int, int] = (1, 2)  # (minus, plus)
    seed: int = 0
    restarts: int = 8
    max_iters: int = 5000
    step0: float = 0.05
    tol: float = 1e-6

    def __post_init__(self):
        if self.target not in TARGETS:
            raise InvalidInput(f"target must be one of {TARGETS}")
        if self.restarts < 1:
            raise InvalidInput("restarts must be at least 1")
        minus, plus = self.signature
        if minus + plus != self.algebra.n or min(minus, plus) < 0:
            raise InvalidInput(
                f"signature {self.signature} does not fit dimension {self.algebra.n}"
            )


@dataclass(frozen=True)
class SearchResult:
    converged: bool
    best_gram: Optional[Gram]
    residual: float
    iterations: int
    restart_index: int
    #: one of STOP_REASONS per restart, in restart order
    stop_reasons: Tuple[str, ...]


def _floor_singular_values(a: np.ndarray) -> np.ndarray:
    """The stack a with, in each matrix whose smallest singular value is below
    _SV_FLOOR, every singular value raised to at least _SV_FLOOR."""
    low = ~(np.linalg.svd(a, compute_uv=False)[:, -1] >= _SV_FLOOR)
    if not low.any():
        return a
    u, s, vt = np.linalg.svd(a[low])
    a = a.copy()
    a[low] = (u * np.maximum(s, _SV_FLOOR)[:, None, :]) @ vt
    return a


def _deviations(ric: np.ndarray, einstein: bool) -> np.ndarray:
    """Ric − λ̂·Id for a stack of Ricci operators."""
    if einstein:
        n = ric.shape[-1]
        lam = np.einsum("mii->m", ric) / n
        ric = ric - lam[:, None, None] * np.eye(n)
    return ric


def _norms(d: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("mij,mij->m", d, d))


def _batched_residual(c: np.ndarray, g: np.ndarray, nilpotent: bool, einstein: bool) -> np.ndarray:
    """Residuals for a stack of grams, in one pass through the curvature kernel."""
    return _norms(_deviations(ricci_operators(c, g, nilpotent), einstein))


def _grams(a: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """G[r] = A[r]ᵀ η A[r] for a stack of factors."""
    return a.transpose(0, 2, 1) @ eta @ a


def _residuals_and_gradients(
    c: np.ndarray, a: np.ndarray, eta: np.ndarray, nilpotent: bool, einstein: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Residuals f[r] of the grams A[r]ᵀηA[r] and their gradients ∂f/∂A[r];
    every residual must be nonzero."""
    ric, pullback = ricci_operators_vjp(c, _grams(a, eta), nilpotent)
    d = _deviations(ric, einstein)
    f = _norms(d)
    # ∂f/∂Ric = d/f: the trace projection of the Einstein target leaves d as is
    g_bar = pullback(d / f[:, None, None])
    return f, eta @ a @ (g_bar + g_bar.transpose(0, 2, 1))


def run_search(spec: SearchSpec) -> SearchResult:
    """Multi-restart descent on the residual; restarts are merged by smallest
    residual, ties broken by lowest restart index."""
    n = spec.algebra.n
    c = spec.algebra.c
    nilpotent = spec.algebra.is_nilpotent()
    einstein = spec.target == "einstein"
    minus, plus = spec.signature
    eta = np.diag(np.concatenate([-np.ones(minus), np.ones(plus)]))

    def residuals(a_batch: np.ndarray) -> np.ndarray:
        return _batched_residual(c, _grams(a_batch, eta), nilpotent, einstein)

    count = spec.restarts
    starts = [np.random.default_rng([spec.seed, r]).standard_normal((n, n)) for r in range(count)]
    a = _floor_singular_values(np.eye(n) + 0.1 * np.array(starts))
    f = residuals(a)
    step = np.full(count, spec.step0)
    iters = np.zeros(count, dtype=int)
    f_checkpoint = np.full(count, np.inf)
    reasons = np.empty(count, dtype=object)
    direction = np.zeros_like(a)

    running = np.arange(count)
    while True:
        converged = f[running] <= spec.tol
        out_of_budget = ~converged & (iters[running] >= spec.max_iters)
        reasons[running[converged]] = "converged"
        reasons[running[out_of_budget]] = "budget"
        running = running[~converged & ~out_of_budget]
        if not running.size:
            break
        iters[running] += 1
        _, direction[running] = _residuals_and_gradients(c, a[running], eta, nilpotent, einstein)
        # descend along −grad, halving each restart's step until its residual drops
        accepted = np.zeros(count, dtype=bool)
        searching = running[step[running] >= _MIN_STEP]
        while searching.size:
            trial = _floor_singular_values(a[searching] - step[searching, None, None] * direction[searching])
            f_trial = residuals(trial)
            better = f_trial < f[searching]
            won = searching[better]
            a[won], f[won] = trial[better], f_trial[better]
            step[won] *= 2.0
            accepted[won] = True
            lost = searching[~better]
            step[lost] *= 0.5
            searching = lost[step[lost] >= _MIN_STEP]
        reasons[running[~accepted[running]]] = "step-collapse"  # a local stall
        running = running[accepted[running]]
        # drop restarts that creep: unless the residual at least halves every
        # 100 iterations, the tolerance is out of reach in budget
        due = (iters[running] % 100 == 0) & (f[running] > spec.tol)
        creeping = due & (f[running] > 0.5 * f_checkpoint[running])
        reasons[running[creeping]] = "creep"
        f_checkpoint[running[due]] = f[running[due]]
        running = running[~creeping]

    r = min(range(count), key=f.__getitem__)
    converged = bool(f[r] <= spec.tol)
    gram = Gram(a[r].T @ eta @ a[r]) if converged else None
    return SearchResult(
        converged=converged,
        best_gram=gram,
        residual=float(f[r]),
        iterations=int(iters[r]),
        restart_index=r,
        stop_reasons=tuple(reasons),
    )
