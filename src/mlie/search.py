"""Numerical search for Einstein / Ricci-flat left-invariant metrics on a
fixed algebra, by gradient descent on a factor of the gram matrix.

The gram is parameterized as G = Aᵀ η A with η the diagonal of the requested
signature, so every candidate has the right signature by construction; the
smallest singular value of A is floored at 1e-6 to keep G invertible.  The
whole procedure is deterministic for a fixed spec, including the seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .curvature import ricci_operators
from .errors import DegenerateGram, InvalidInput
from .liealg import LieAlgebra
from .pseudolin import DEFAULT_TOL, Gram

TARGETS = ("einstein", "ricci-flat")

_SV_FLOOR = 1e-6
_FD_REL_STEP = 1e-5


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


def _floor_singular_values(a: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(a)
    if s[-1] >= _SV_FLOOR:
        return a
    return (u * np.maximum(s, _SV_FLOOR)) @ vt


def _batched_residual(c: np.ndarray, g: np.ndarray, nilpotent: bool, einstein: bool) -> np.ndarray:
    """Residuals for a stack of grams, in one pass through the curvature kernel."""
    n = c.shape[0]
    ric = ricci_operators(c, g, nilpotent)
    if einstein:
        lam = np.einsum("mii->m", ric) / n
        ric = ric - lam[:, None, None] * np.eye(n)
    return np.sqrt(np.einsum("mij,mij->m", ric, ric))


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
        g = a_batch.transpose(0, 2, 1) @ eta @ a_batch
        return _batched_residual(c, g, nilpotent, einstein)

    def objective(a: np.ndarray) -> float:
        return float(residuals(a[None])[0])

    idx = np.arange(n * n)
    best: Optional[Tuple[float, np.ndarray, int, int]] = None
    for r in range(spec.restarts):
        rng = np.random.default_rng([spec.seed, r])
        a = _floor_singular_values(np.eye(n) + 0.1 * rng.standard_normal((n, n)))
        f = objective(a)
        step = spec.step0
        iters = 0
        f_checkpoint = np.inf
        while iters < spec.max_iters and f > spec.tol:
            iters += 1
            h = _FD_REL_STEP * max(1.0, float(np.abs(a).max()))
            # central differences on every entry, evaluated in one batch
            flat = a.reshape(-1)
            batch = np.broadcast_to(flat, (2 * n * n, n * n)).copy()
            batch[idx, idx] += h
            batch[n * n + idx, idx] -= h
            vals = residuals(batch.reshape(-1, n, n))
            grad = ((vals[: n * n] - vals[n * n :]) / (2.0 * h)).reshape(n, n)
            # descend along -grad, halving the step until the residual drops
            accepted = False
            while step >= 1e-14:
                trial = _floor_singular_values(a - step * grad)
                f_trial = objective(trial)
                if f_trial < f:
                    a, f = trial, f_trial
                    step *= 2.0
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break  # step collapsed: a local stall
            # drop restarts that creep: unless the residual at least halves
            # every 100 iterations, the tolerance is out of reach in budget
            if iters % 100 == 0:
                if f > 0.5 * f_checkpoint:
                    break
                f_checkpoint = f
        if best is None or f < best[0]:
            best = (f, a, iters, r)

    f, a, iters, r = best
    converged = f <= spec.tol
    gram = Gram(a.T @ eta @ a) if converged else None
    return SearchResult(
        converged=converged,
        best_gram=gram,
        residual=f,
        iterations=iters,
        restart_index=r,
    )
