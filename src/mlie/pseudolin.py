"""Pseudo-Euclidean linear algebra: signatures, subspaces, isotropic vectors.

All tolerance tests are relative to a problem scale max(1, largest magnitude
involved); eigenvalues whose magnitude lands at or below the threshold count
as null.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidInput

#: Default relative tolerance for rank / signature / degeneracy decisions.
DEFAULT_TOL = 1e-9


def _as_float_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


class Signature(NamedTuple):
    """Inertia counts (minus, plus, null) of a symmetric bilinear form."""

    minus: int
    plus: int
    null: int


class SubspaceTag(Enum):
    EUCLIDEAN = "EuclideanNondegenerate"
    LORENTZIAN = "LorentzianNondegenerate"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class SubspaceClass:
    """Degeneracy classification of a restricted bilinear form."""

    tag: SubspaceTag
    null_dim: int = 0

    def __str__(self) -> str:
        if self.tag is SubspaceTag.DEGENERATE:
            return f"{self.tag.value}(null_dim={self.null_dim})"
        return self.tag.value


@dataclass(frozen=True, eq=False)
class Gram:
    """Symmetric bilinear form ⟨·,·⟩ given by its matrix in a working basis.

    The stored matrix is symmetrized at construction, so ``mat`` is symmetric
    to exact bit equality afterwards.
    """

    mat: np.ndarray = field()

    def __init__(self, mat) -> None:
        m = _as_float_array(mat, "gram matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput(f"gram matrix must be square, got shape {m.shape}")
        m = (m + m.T) / 2.0  # float addition commutes, so this is exactly symmetric
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @classmethod
    def from_diagonal(cls, diag) -> "Gram":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    @classmethod
    def euclidean(cls, n: int) -> "Gram":
        return cls(np.eye(n))

    @classmethod
    def minkowski(cls, n: int) -> "Gram":
        """diag(-1, 1, ..., 1) on n dimensions."""
        d = np.ones(n)
        d[0] = -1.0
        return cls(np.diag(d))

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def inner(self, u, v) -> float:
        """⟨u, v⟩ in working-basis coordinates."""
        return float(np.asarray(u, dtype=float) @ self.mat @ np.asarray(v, dtype=float))

    def is_nondegenerate(self, tol: float = DEFAULT_TOL) -> bool:
        s = np.linalg.svd(self.mat, compute_uv=False)
        if s.size == 0:
            return True
        return bool(s[-1] > tol * max(1.0, s[0]))


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace of R^n spanned by the rows of ``basis``.

    The rows must be linearly independent (numerical rank equals the row
    count); factory helpers in this package return Euclidean-orthonormal rows
    coming out of an SVD.
    """

    ambient_dim: int
    basis: np.ndarray = field()

    def __init__(self, ambient_dim: int, basis, tol: float = DEFAULT_TOL) -> None:
        b = _as_float_array(basis, "subspace basis")
        if b.ndim != 2 or b.shape[1] != ambient_dim:
            raise InvalidInput(
                f"basis must have shape (k, {ambient_dim}), got {b.shape}"
            )
        if b.shape[0] > 0 and numerical_rank(b, tol) != b.shape[0]:
            raise InvalidInput("subspace basis rows are linearly dependent at tolerance")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "basis", b)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, v, tol: float = DEFAULT_TOL) -> bool:
        """Whether v lies in the span of the basis rows, at tolerance."""
        v = _as_float_array(v, "vector")
        if self.dim == 0:
            return bool(np.linalg.norm(v) <= tol * max(1.0, np.abs(v).max(initial=0.0)))
        coeffs, *_ = np.linalg.lstsq(self.basis.T, v, rcond=None)
        resid = self.basis.T @ coeffs - v
        scale = max(1.0, float(np.abs(v).max()))
        return bool(np.abs(resid).max() <= tol * scale)


def numerical_rank(m, tol: float = DEFAULT_TOL) -> int:
    """Rank of a matrix: number of singular values above tol * largest."""
    m = _as_float_array(m, "matrix")
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * max(1.0, s[0])))


def nullspace(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Euclidean-orthonormal basis (rows) of the kernel of m."""
    m = _as_float_array(m, "matrix")
    if m.shape[0] == 0:
        return np.eye(m.shape[1])
    u, s, vt = np.linalg.svd(m)
    cutoff = tol * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return vt[rank:]


def column_space(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Euclidean-orthonormal basis (rows) of the column span of m."""
    m = _as_float_array(m, "matrix")
    if m.size == 0:
        return np.zeros((0, m.shape[0]))
    u, s, vt = np.linalg.svd(m)
    cutoff = tol * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return u[:, :rank].T


def signature(g: Gram, tol: float = DEFAULT_TOL) -> Signature:
    """Inertia (minus, plus, null) of g via a symmetric eigendecomposition.

    Eigenvalues within tol * max(1, |λ|_max) of zero count as null; ties
    exactly at the boundary also count as null.
    """
    w = np.linalg.eigvalsh(g.mat)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    cut = tol * scale
    plus = int(np.count_nonzero(w > cut))
    minus = int(np.count_nonzero(w < -cut))
    return Signature(minus=minus, plus=plus, null=g.n - plus - minus)


def restricted_gram(g: Gram, f: Subspace) -> Gram:
    """The form of g restricted to f, in f's basis coordinates."""
    if f.ambient_dim != g.n:
        raise InvalidInput("subspace ambient dimension does not match gram size")
    return Gram(f.basis @ g.mat @ f.basis.T)


def classify_subspace(g: Gram, f: Subspace, tol: float = DEFAULT_TOL) -> SubspaceClass:
    """Degeneracy class of g restricted to f.

    Nondegenerate restrictions are tagged Euclidean (definite) or Lorentzian
    (index one); restrictions of index two or more do not occur inside a
    Lorentzian ambient space and are rejected.
    """
    sig = signature(restricted_gram(g, f), tol)
    if sig.null > 0:
        return SubspaceClass(SubspaceTag.DEGENERATE, null_dim=sig.null)
    if sig.minus == 0:
        return SubspaceClass(SubspaceTag.EUCLIDEAN)
    if sig.minus == 1:
        return SubspaceClass(SubspaceTag.LORENTZIAN)
    raise InvalidInput(
        f"restriction has signature {sig}; index >= 2 is outside the supported "
        "Lorentzian setting"
    )


def orthogonal_complement(g: Gram, f: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """F-perp with respect to g: all u with ⟨b, u⟩ = 0 for every basis row b."""
    if f.ambient_dim != g.n:
        raise InvalidInput("subspace ambient dimension does not match gram size")
    if f.dim == 0:
        return Subspace.full(g.n)
    return Subspace(g.n, nullspace(f.basis @ g.mat, tol), tol)


def find_isotropic_in(g: Gram, f: Subspace, tol: float = DEFAULT_TOL) -> Optional[np.ndarray]:
    """A unit (Euclidean norm) vector v in f with ⟨v, v⟩ = 0 at tolerance.

    Returns None when the restriction of g to f is definite, which is exactly
    the case with no isotropic directions.  The choice is deterministic: it is
    built from the eigendecomposition of the restricted form, preferring a
    null eigenvector and otherwise mixing the extreme positive and negative
    eigenvectors to u+/√λ+ + u-/√(-λ-).
    """
    if f.dim == 0:
        return None
    r = restricted_gram(g, f).mat
    w, vecs = np.linalg.eigh(r)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    cut = tol * scale
    null_idx = np.nonzero(np.abs(w) <= cut)[0]
    if null_idx.size > 0:
        coeffs = vecs[:, null_idx[0]]
    else:
        if w[0] > cut or w[-1] < -cut:  # definite: all same strict sign
            return None
        # eigh sorts ascending: w[0] most negative, w[-1] most positive
        coeffs = vecs[:, -1] / np.sqrt(w[-1]) + vecs[:, 0] / np.sqrt(-w[0])
    v = coeffs @ f.basis
    return v / np.linalg.norm(v)


def orthonormal_basis(g: Gram, tol: float = DEFAULT_TOL):
    """Pseudo-orthonormal basis for a nondegenerate g.

    Returns (B, eps) where the columns of B satisfy ⟨b_a, b_b⟩ = eps_a δ_ab
    with eps_a = ±1, ordered minus-first (eigenvalue ascending).
    """
    w, vecs = np.linalg.eigh(g.mat)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if np.abs(w).min(initial=np.inf) <= tol * scale:
        raise InvalidInput("gram matrix is degenerate at tolerance")
    b = vecs / np.sqrt(np.abs(w))
    return b, np.sign(w)
