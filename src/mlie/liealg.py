"""Finite-dimensional real Lie algebras given by structure constants.

A bracket is stored through its coefficients c[i,j,k] in a fixed basis,
[e_i, e_j] = Σ_k c[i,j,k] e_k.  Only the entries with i < j are taken from
the caller; the opposite triangle is filled with exact negations, so
antisymmetry holds to bit equality.

The center, the derived ideal, the lower central series and the derivations
are the same for c and s·c, s ≠ 0, so their rank decisions are taken on
c/max|c|: a bracket's scale does not change its structure.  They, and
nilpotency, are computed once per algebra object and kept in its memo.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

from .errors import InvalidInput, NotLie
from .pseudolin import (
    DEFAULT_TOL,
    Subspace,
    _as_float_array,
    _cutoff,
    _nonnegative,
    _nullspaces,
    _ranks,
    nullspace,
)

_T = TypeVar("_T")


def _computed_once(method: Callable[..., _T]) -> Callable[..., _T]:
    """A fact of a frozen object, a method or a module function of the object
    alone such as doubleext._double_extension_reading, kept in its ``_memo``
    dict under the function's name.  Every caller gets the same object, so a
    fact must be immutable: a number, a tuple, a Subspace, or an array, which
    is made read-only here.  A call that raises keeps nothing."""
    name = method.__name__

    @functools.wraps(method)
    def once(self) -> _T:
        if name not in self._memo:
            fact = method(self)
            if isinstance(fact, np.ndarray):
                fact.flags.writeable = False
            self._memo[name] = fact
        return self._memo[name]

    return once


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Anticommutative algebra on R^n, n >= 1 read from the (n, n, n) tensor
    c; Jacobi is checked only on request.  Every decision is taken at ``tol``,
    a positive finite number."""

    n: int
    c: np.ndarray = field()
    tol: float

    def __init__(self, c, tol: float = DEFAULT_TOL) -> None:
        _cutoff(tol)  # refuses a tol that is not a positive finite number
        tensor = _as_float_array(c, "structure constants")
        n = tensor.shape[0] if tensor.ndim else 0
        if tensor.shape != (n, n, n):
            raise InvalidInput(f"structure tensor must be an (n, n, n) array, got {tensor.shape}")
        if not n:  # as the file reader refuses dim 0
            raise InvalidInput("a Lie algebra must have dimension n >= 1, got 0")
        clean = _antisymmetric(tensor)
        clean.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", clean)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "_unit", _unit(clean))  # c/max|c|
        object.__setattr__(self, "_memo", {})  # facts computed once, by method

    @classmethod
    def from_brackets(
        cls, n: int, brackets: Mapping[Tuple[int, int], Mapping[int, float]]
    ) -> "LieAlgebra":
        """Build from {(i, j): {k: coeff}} with 0-based integer indices, i < j,
        and real finite coefficients (a bool or a string is refused as either)."""
        c = np.zeros((_nonnegative(n, "n"),) * 3)
        if not isinstance(brackets, Mapping):
            raise InvalidInput("brackets must be a mapping {(i, j): {k: coeff}}")
        for pair, coeffs in brackets.items():
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise InvalidInput(f"bracket key {pair!r} must be a pair (i, j)")
            i, j = (_nonnegative(index, "bracket index") for index in pair)
            if not i < j < n:
                raise InvalidInput(f"bracket indices ({i}, {j}) must satisfy 0 <= i < j < {n}")
            if not isinstance(coeffs, Mapping):
                raise InvalidInput(f"coefficients of bracket ({i}, {j}) must be a mapping")
            for k, val in coeffs.items():
                k = _nonnegative(k, "bracket target index")
                if k >= n:
                    raise InvalidInput(f"bracket target index {k} out of range")
                c[i, j, k] = _as_float_array(val, f"coefficient of e_{k} in [e_{i}, e_{j}]", ndim=0)
        return cls(c)

    @classmethod
    def abelian(cls, n: int) -> "LieAlgebra":
        """The abelian algebra R^n: with a Euclidean metric, the paper's core V
        of a double extension."""
        return cls(np.zeros((_nonnegative(n, "n"),) * 3))

    # -- basic operations -------------------------------------------------

    def _vectors(self, u, name: str) -> np.ndarray:
        """u as real, finite vectors of R^n[..., :] (InvalidInput otherwise)."""
        u = _as_float_array(u, name)
        if u.shape[-1:] != (self.n,):
            raise InvalidInput(f"{name} must have a last axis of length {self.n}, got shape {u.shape}")
        return u

    def bracket(self, u, v) -> np.ndarray:
        """[u, v]; the stack of them for stacks of u[..., :] and v[..., :]."""
        return np.einsum("ijk,...i,...j->...k", self.c, self._vectors(u, "u"), self._vectors(v, "v"))

    def ad(self, u) -> np.ndarray:
        """Matrix of ad_u = [u, ·]; the stack of them for a stack of u[..., :]."""
        return np.einsum("...i,ijk->...kj", self._vectors(u, "u"), self.c)

    def jacobi_defect(self) -> float:
        """Sup-norm of [[u,v],w] + [[v,w],u] + [[w,u],v] over basis triples."""
        d = np.einsum("ijm,mkl->ijkl", self.c, self.c)
        cyc = d + d.transpose(1, 2, 0, 3) + d.transpose(2, 0, 1, 3)
        return float(np.abs(cyc).max(initial=0.0))

    def require_jacobi(self) -> "LieAlgebra":
        """self, unless the Jacobi defect, quadratic in c, exceeds tol·max|c|²."""
        defect = self.jacobi_defect()
        if defect > self.tol * float(np.abs(self.c).max(initial=0.0)) ** 2:
            raise NotLie(f"Jacobi identity fails: defect {defect:.3e}")
        return self

    # -- structure --------------------------------------------------------

    @_computed_once
    def center(self) -> Subspace:
        """{u : [e_i, u] = 0 for all i}, via one stacked nullspace."""
        return Subspace._orthonormal(_centers(self._unit[None], self.tol)[0], self.tol)

    @_computed_once
    def derived_ideal(self) -> Subspace:
        """[g, g]: span of all basis brackets."""
        upper = _triangles(self.n)[0][..., 0]
        return Subspace.column_span(self._unit[upper].T, self.tol)  # columns are brackets

    @_computed_once
    def lower_central_series(self) -> Tuple[Subspace, ...]:
        """g ⊇ [g,g] ⊇ [g,[g,g]] ⊇ ..., until the dimension stabilizes."""
        (series,) = _lower_central_series(self._unit[None], self.tol)
        return tuple(Subspace._orthonormal(rows, self.tol) for rows in series)

    @_computed_once
    def is_nilpotent(self) -> bool:
        """Whether the lower central series reaches 0."""
        return self.lower_central_series()[-1].dim == 0

    # -- derivations ------------------------------------------------------

    @_computed_once
    def derivation_space(self) -> np.ndarray:
        """Basis of the space of derivations, as a read-only (d, n, n) stack.

        The defining equations E[e_i,e_j] = [Ee_i,e_j] + [e_i,Ee_j] for i < j
        are assembled into one homogeneous system in the n² entries of E and
        solved by SVD, which fixes the basis deterministically.
        """
        n = self.n
        units = np.eye(n * n).reshape(n * n, n, n)
        # row (pair, k), column (a, b): entry k of the defect of E = e_a e_bᵀ
        cols = derivation_defects(self._unit, units)[:, _triangles(n)[0][..., 0]]
        return nullspace(cols.reshape(n * n, -1).T, self.tol).reshape(-1, n, n)

    def derivation_defect(self, e) -> float:
        """Sup-norm of E[e_i,e_j] - [Ee_i,e_j] - [e_i,Ee_j] over basis pairs."""
        d = derivation_defects(self.c, _as_float_array(e, "E", square=self.n))
        return float(np.abs(d).max(initial=0.0))

    def find_nonzero_trace_derivation(self) -> Optional[np.ndarray]:
        """A read-only derivation matrix with |trace| above tolerance, or None.

        Trace is a linear functional on the derivation space, so it is nonzero
        on the computed basis iff it is nonzero on the space; the basis element
        with the largest |trace| is returned.
        """
        basis = self.derivation_space()
        if not len(basis):
            return None
        traces = np.abs(np.trace(basis, axis1=1, axis2=2))
        best = int(np.argmax(traces))
        if traces[best] <= _cutoff(self.tol, traces):
            return None
        return basis[best]


@functools.lru_cache(maxsize=None)
def _triangles(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The masks (i < j, i > j) of the pairs of n basis vectors, shaped
    (n, n, 1) to select the pairs of a structure tensor, made once per n.
    The mask i < j without its last axis picks the pairs i < j in row-major
    order, np.triu_indices(n, 1)'s."""
    i, j = np.indices((n, n))
    upper, lower = (i < j)[:, :, None], (i > j)[:, :, None]
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def _antisymmetric(c: np.ndarray) -> np.ndarray:
    """The bracket of structure tensors c[..., :, :, :] as LieAlgebra keeps it:
    the strict upper triangle (i < j) kept, the lower one its exact negation
    and the diagonal zero."""
    upper, lower = _triangles(c.shape[-1])
    return np.where(upper, c, np.where(lower, -c.swapaxes(-3, -2), 0.0))


def _unit(c: np.ndarray) -> np.ndarray:
    """c/max|c| for each bracket c[..., :, :, :], the zero bracket as it is:
    the scale-free bracket every structure decision is taken on."""
    peak = np.abs(c).max(axis=(-3, -2, -1), initial=0.0, keepdims=True)
    return c / np.where(peak > 0.0, peak, 1.0)


def _centers(unit: np.ndarray, tol: float) -> List[np.ndarray]:
    """The rows of the center of each bracket of a stack unit (k, n, n, n) of
    c/max|c|: the kernel of the rows of every ad_{e_i}, one stacked SVD."""
    k, n = unit.shape[:2]
    return _nullspaces(unit.transpose(0, 1, 3, 2).reshape(k, n * n, n), tol)


def _lower_central_series(unit: np.ndarray, tol: float) -> List[List[np.ndarray]]:
    """The lower central series of each bracket of a stack unit (k, n, n, n)
    of c/max|c|, as rows: per member g, [g,g], [g,[g,g]], ... until the
    dimension stabilizes, each step the column span of the brackets [e_i, w]
    decided by one stacked SVD.  A member's rows beyond its dimension enter
    the stack as zeros, which change no rank."""
    k, n = unit.shape[:2]
    series = [[np.eye(n)] for _ in range(k)]
    running = list(range(k))
    while running:
        last = [series[m][-1] for m in running]
        prev = np.zeros((len(running), max(map(len, last)), n))
        for rows, step in zip(prev, last):
            rows[: len(step)] = step
        imgs = prev[:, None] @ (unit if len(running) == k else unit[running])  # rows [e_i, w]
        cols = imgs.reshape(len(running), -1, n).transpose(0, 2, 1)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        still = []
        for m, step, span, rank in zip(running, last, u, _ranks(s, tol)):
            if rank != len(step):
                series[m].append(span[:, :rank].T)
                if rank:
                    still.append(m)
        running = still
    return series


def derivation_defects(c: np.ndarray, e: np.ndarray) -> np.ndarray:
    """d[..., i, j, :] = E[e_i,e_j] − [Ee_i,e_j] − [e_i,Ee_j] for structure
    tensors c[..., :, :, :] and matrices E[..., :, :], their leading axes
    broadcast together.  Bilinear in (c, E); d is also the velocity of the
    bracket c under the change of basis I + tE at t = 0."""
    n = c.shape[-1]
    lead = c.shape[:-3]
    et = np.swapaxes(e, -1, -2)
    image = c.reshape(lead + (n * n, n)) @ et  # E[e_i, e_j]
    e_left = et @ c.reshape(lead + (n, n * n))  # [Ee_i, e_j]
    # [e_i, Ee_j], at [j, i, :]: one product with c, its first two axes swapped
    e_right = et @ np.swapaxes(c, -3, -2).reshape(lead + (n, n * n))
    d = image.reshape(image.shape[:-2] + (n, n, n))
    d -= e_left.reshape(d.shape)
    d -= np.swapaxes(e_right.reshape(d.shape), -3, -2)
    return d


def act_on_brackets(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """μ[r] = A[r]·c[r] for a stack of factors A (m, n, n), their inverses B and
    brackets c (m, n, n, n), or one bracket (n, n, n) that serves every r:
    μ(x, y) = A c(Bx, By), so μ[i,j,k] = Σ B[p,i] B[q,j] c[p,q,l] A[k,l]."""
    n = a.shape[-1]
    b_t = b.transpose(0, 2, 1)
    ca = c @ a.transpose(0, 2, 1)[:, None]  # [p,q,k] = Σ_l c[p,q,l] A[k,l]
    half = (b_t @ ca.reshape(-1, n, n * n)).reshape(-1, n, n, n)  # [i,q,k]
    return b_t[:, None] @ half
