"""Finite-dimensional real Lie algebras given by structure constants.

A bracket is stored through its coefficients c[i,j,k] in a fixed basis,
[e_i, e_j] = Σ_k c[i,j,k] e_k.  Only the entries with i < j are taken from
the caller; the opposite triangle is filled with exact negations, so
antisymmetry holds to bit equality.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .errors import InvalidInput, NotLie
from .pseudolin import DEFAULT_TOL, Subspace, _as_float_array, nullspace, column_space


@dataclass(frozen=True)
class Derivation:
    """Endomorphism E with E[u,v] = [Eu,v] + [u,Ev] on all basis pairs."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_float_array(self.matrix, "derivation matrix")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Anticommutative algebra on R^n; Jacobi is checked only on request."""

    n: int
    c: np.ndarray = field()

    def __init__(self, n: int, c) -> None:
        tensor = _as_float_array(c, "structure constants")
        if tensor.shape != (n, n, n):
            raise InvalidInput(f"structure tensor must have shape {(n, n, n)}")
        # keep the strict upper triangle, reflect with exact sign flips
        clean = np.zeros((n, n, n))
        iu, ju = np.triu_indices(n, k=1)
        clean[iu, ju, :] = tensor[iu, ju, :]
        clean[ju, iu, :] = -tensor[iu, ju, :]
        clean.flags.writeable = False
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "c", clean)

    @classmethod
    def from_brackets(
        cls, n: int, brackets: Mapping[Tuple[int, int], Mapping[int, float]]
    ) -> "LieAlgebra":
        """Build from {(i, j): {k: coeff}} with 0-based indices and i < j."""
        c = np.zeros((n, n, n))
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < n):
                raise InvalidInput(f"bracket indices ({i}, {j}) must satisfy 0 <= i < j < {n}")
            for k, val in coeffs.items():
                if not (0 <= k < n):
                    raise InvalidInput(f"bracket target index {k} out of range")
                c[i, j, k] = float(val)
        return cls(n, c)

    @classmethod
    def abelian(cls, n: int) -> "LieAlgebra":
        return cls(n, np.zeros((n, n, n)))

    # -- basic operations -------------------------------------------------

    def bracket(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.einsum("ijk,i,j->k", self.c, u, v)

    def ad(self, u) -> np.ndarray:
        """Matrix of ad_u = [u, ·]; the stack of them for a stack of u[..., :]."""
        u = np.asarray(u, dtype=float)
        return np.einsum("...i,ijk->...kj", u, self.c)

    def jacobi_defect(self) -> float:
        """Sup-norm of [[u,v],w] + [[v,w],u] + [[w,u],v] over basis triples."""
        d = np.einsum("ijm,mkl->ijkl", self.c, self.c)
        cyc = d + d.transpose(1, 2, 0, 3) + d.transpose(2, 0, 1, 3)
        return float(np.abs(cyc).max(initial=0.0))

    def require_jacobi(self, tol: float = DEFAULT_TOL) -> "LieAlgebra":
        scale = max(1.0, float(np.abs(self.c).max(initial=0.0)) ** 2)
        defect = self.jacobi_defect()
        if defect > tol * scale:
            raise NotLie(f"Jacobi identity fails: defect {defect:.3e}")
        return self

    # -- structure --------------------------------------------------------

    def center(self, tol: float = DEFAULT_TOL) -> Subspace:
        """{u : [e_i, u] = 0 for all i}, via one stacked nullspace."""
        stacked = self.c.transpose(0, 2, 1).reshape(-1, self.n)  # rows of every ad_{e_i}
        return Subspace(self.n, nullspace(stacked, tol), tol)

    def derived_ideal(self, tol: float = DEFAULT_TOL) -> Subspace:
        """[g, g]: span of all basis brackets."""
        iu, ju = np.triu_indices(self.n, k=1)
        cols = self.c[iu, ju, :].T  # columns are bracket vectors
        return Subspace(self.n, column_space(cols, tol), tol)

    def lower_central_series(self, tol: float = DEFAULT_TOL) -> List[Subspace]:
        """g ⊇ [g,g] ⊇ [g,[g,g]] ⊇ ..., until the dimension stabilizes."""
        series = [Subspace.full(self.n)]
        while True:
            prev = series[-1]
            if prev.dim == 0:
                break
            imgs = (prev.basis @ self.c).reshape(-1, self.n)  # rows [e_i, w]
            nxt = Subspace(self.n, column_space(imgs.T, tol), tol)
            if nxt.dim == prev.dim:
                break
            series.append(nxt)
        return series

    def is_nilpotent(self, tol: float = DEFAULT_TOL) -> bool:
        return self.lower_central_series(tol)[-1].dim == 0

    # -- derivations ------------------------------------------------------

    def derivation_space(self, tol: float = DEFAULT_TOL) -> List[Derivation]:
        """Basis of the space of derivations.

        The defining equations E[e_i,e_j] = [Ee_i,e_j] + [e_i,Ee_j] for i < j
        are assembled into one homogeneous system in the n² entries of E and
        solved by SVD, which fixes the basis deterministically.
        """
        n = self.n
        iu, ju = np.triu_indices(n, k=1)
        units = np.eye(n * n).reshape(n * n, n, n)
        # row (pair, k), column (a, b): entry k of the defect of E = e_a e_bᵀ
        cols = self.derivation_defect_map(units)[:, iu, ju, :]
        basis = nullspace(cols.reshape(n * n, -1).T, tol)
        return [Derivation(vec.reshape(n, n)) for vec in basis]

    def derivation_defect_map(self, e) -> np.ndarray:
        """d[..., i, j, :] = E[e_i,e_j] − [Ee_i,e_j] − [e_i,Ee_j] for a matrix
        or a stack of matrices E[..., :, :]; linear in E, zero iff E is a
        derivation."""
        et = np.swapaxes(np.asarray(getattr(e, "matrix", e), dtype=float), -1, -2)
        c, t = self.c, et[..., None, :, :]
        e_left = (et @ c.reshape(self.n, -1)).reshape(et.shape[:-2] + c.shape)  # [Ee_i, e_j]
        return c @ t - e_left - t @ c

    def derivation_defect(self, e) -> float:
        """Sup-norm of E[e_i,e_j] - [Ee_i,e_j] - [e_i,Ee_j] over basis pairs."""
        return float(np.abs(self.derivation_defect_map(e)).max(initial=0.0))

    def find_nonzero_trace_derivation(
        self, tol: float = DEFAULT_TOL
    ) -> Optional[Derivation]:
        """A derivation with |trace| above tolerance, or None.

        Trace is a linear functional on the derivation space, so it is nonzero
        on the computed basis iff it is nonzero on the space; the basis element
        with the largest |trace| is returned.
        """
        basis = self.derivation_space(tol)
        if not basis:
            return None
        traces = [abs(d.trace) for d in basis]
        best = int(np.argmax(traces))
        if traces[best] <= tol * max(1.0, traces[best]):
            return None
        return basis[best]
