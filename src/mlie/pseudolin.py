"""Pseudo-Euclidean linear algebra: signatures, subspaces, isotropic vectors.

Tolerance tests compare against ``_cutoff``: a tol times the problem scale
max(1, largest magnitude involved); eigenvalues whose magnitude lands at or
below the cutoff count as null.  Every inertia decision (signatures, subspace
classes, isotropic vectors, metric frames) reads the one eigendecomposition,
_orthonormal_bases.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DEGENERATE_GRAM, DegenerateGram, InvalidInput

#: Default relative tolerance for rank / signature / degeneracy decisions.
DEFAULT_TOL = 1e-9


def _cutoff(tol: float, *arrays, stack: bool = False):
    """tol * max(1, largest |entry| of the arrays, a number counting as one
    entry): the one place a tolerance is validated (InvalidInput unless it is
    a positive finite number, so ``_cutoff(tol)`` validates alone) and turned
    into the cutoff every rank, degeneracy, inertia, verdict, admissibility
    and parameter decision compares against.  With ``stack`` the arrays are
    stacks (k, ...) and the cutoff is taken per member, an array (k,), the
    member's own cutoff bit for bit.  Left outside on purpose: the
    bound of ``LieAlgebra.require_jacobi``, tol·max|c|² with no floor so that
    a scaled bracket keeps its Jacobi verdict; the roundoff scale of
    ``curvature._flatness_defects``, which the verdict and
    ``MetricLieAlgebra.flatness_defect`` share; ``verify``'s
    check bounds, the checks' stated claims; ``SearchSpec.tol``, absolute on
    a residual; and the (0, 1) range of ``--tol`` in ``cli._tols``.
    """
    # refused: a bool (not read as 1.0) and what is not a real number; NaN fails the test
    real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
    if not real or not 0.0 < tol < np.inf:
        raise InvalidInput("tol must be a positive finite number")
    if stack:
        largest = _peaks(np.abs(arrays[0]), 1.0)
        for a in arrays[1:]:
            largest = np.maximum(largest, _peaks(np.abs(a), 1.0))
        return tol * largest
    largest = 1.0
    for a in arrays:
        largest = max(largest, float(np.abs(a).max(initial=0.0)))
    return tol * largest


def _peaks(size: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """max(floor, largest entry) of each member of a stack of magnitudes
    size (k, ...): a (k,) array, empty for an empty stack (whose row length
    reshape(k, -1) cannot infer)."""
    rows = size.reshape(len(size), math.prod(size.shape[1:]))
    return np.maximum.reduce(rows, axis=1, initial=floor)


def _nonnegative(n: int, name: str) -> int:
    """n, a size, as an int; InvalidInput unless it is a nonnegative integer
    (a bool is refused, not read as 1/0, as the file readers refuse it)."""
    try:
        size = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        size = None
    if size is None:
        raise InvalidInput(f"{name} must be an integer, got {n!r}")
    if size < 0:
        raise InvalidInput(f"{name} must be nonnegative, got {size}")
    return size


def _as_float_array(
    a, name: str, ndim: Optional[int] = None, square: Optional[int] = None
) -> np.ndarray:
    """a as a float array; InvalidInput unless it is an array of numbers (not
    ragged, not text) that are real (not bool or complex) and finite, has ndim
    axes when ndim is given, and is a matrix of shape (square, square) or a
    stack of them when square is given."""
    try:
        arr = np.asarray(a)
        if arr.dtype.kind == "O" and not all(isinstance(x, numbers.Number) for x in arr.flat):
            raise TypeError  # the cast would read None as NaN and parse a string
        if arr.dtype.kind in "iufO":
            arr = arr.astype(float, copy=False)
    except (TypeError, ValueError):  # a ragged nesting, or an entry that is no number
        raise InvalidInput(f"{name} must be an array of numbers") from None
    if arr.dtype.kind != "f":
        raise InvalidInput(f"{name} must have real entries, got dtype {arr.dtype}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise InvalidInput(f"{name} contains non-finite entries")
    if ndim is not None and arr.ndim != ndim:
        raise InvalidInput(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    if square is not None and arr.shape[-2:] != (square, square):
        raise InvalidInput(
            f"{name} must be a matrix of shape ({square}, {square}) or a stack of them,"
            f" got shape {arr.shape}"
        )
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


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(M + Mᵀ)/2 of a matrix or of each matrix of a stack: exactly symmetric,
    as float addition commutes."""
    return (m + m.swapaxes(-1, -2)) / 2.0


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
        m = _symmetrized(m)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @classmethod
    def from_diagonal(cls, diag) -> "Gram":
        return cls(np.diag(_as_float_array(diag, "gram diagonal", ndim=1)))


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace of R^n spanned by the rows of ``basis``, a (k, n)
    array, decided at ``tol``: membership and the class of a form restricted
    to it are decided at the same tol.

    The constructor takes rows from the caller and checks that they are
    linearly independent (numerical rank equals the row count).
    ``column_span`` builds a subspace from the one SVD that decides it; its
    rows are Euclidean-orthonormal, so they are not checked a second time.
    """

    basis: np.ndarray = field()
    tol: float

    def __init__(self, basis, tol: float) -> None:
        b = _as_float_array(basis, "subspace basis")
        if b.ndim != 2:
            raise InvalidInput(f"basis must be a (k, n) array of rows, got shape {b.shape}")
        if numerical_rank(b, tol) != b.shape[0]:
            raise InvalidInput("subspace basis rows are linearly dependent at tolerance")
        self._keep(b, tol)

    def _keep(self, rows: np.ndarray, tol: float) -> None:
        _cutoff(tol)  # refuses a tol that is not a positive finite number
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "tol", tol)

    @classmethod
    def _orthonormal(cls, rows: np.ndarray, tol: float) -> "Subspace":
        f = cls.__new__(cls)
        f._keep(rows, tol)
        return f

    @classmethod
    def column_span(cls, m, tol: float) -> "Subspace":
        """The span of the columns of m, decided by one SVD at tol (economy
        size: only the leading columns of u are kept)."""
        u, s, _ = np.linalg.svd(_as_float_array(m, "matrix", 2), full_matrices=False)
        return cls._orthonormal(u[:, : _ranks(s[None], tol)[0]].T, tol)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, v) -> bool:
        """Whether the vector v of R^ambient_dim lies in the span of the basis
        rows, at the subspace's tol."""
        v = _as_float_array(v, "vector", ndim=1)
        if len(v) != self.ambient_dim:
            raise InvalidInput(f"vector must have length {self.ambient_dim}, got {len(v)}")
        coeffs, *_ = np.linalg.lstsq(self.basis.T, v, rcond=None)
        return bool(np.abs(self.basis.T @ coeffs - v).max(initial=0.0) <= _cutoff(self.tol, v))


def _ranks(s: np.ndarray, tol: float) -> np.ndarray:
    """Per row of a stack s (k, r) of singular values (descending), the number
    above the row's _cutoff(tol, s)."""
    return (s > _cutoff(tol, s, stack=True)[:, None]).sum(axis=1)


def numerical_rank(m, tol: float) -> int:
    """Rank of a matrix: number of singular values above _cutoff(tol, s)."""
    s = np.linalg.svd(_as_float_array(m, "matrix", 2)[None], compute_uv=False)
    return int(_ranks(s, tol)[0])


def nullspace(m, tol: float) -> np.ndarray:
    """Euclidean-orthonormal basis (rows) of the kernel of m; I if m has no rows."""
    return _nullspaces(_as_float_array(m, "matrix", 2)[None], tol)[0]


def _nullspaces(m: np.ndarray, tol: float) -> List[np.ndarray]:
    """nullspace of each matrix of a stack m (k, r, c), by one stacked SVD.

    The full vt is computed only for wide matrices, whose kernel rows an
    economy SVD would leave out; for tall ones the economy SVD has every row
    of vt and skips the (r x r) u.
    """
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[-2] < m.shape[-1])
    return [rows[rank:] for rows, rank in zip(vt, _ranks(s, tol))]


def _signatures(mats: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """signature for a stack of gram matrices (k, n, n): per member the counts
    (minus, plus, null), (k,) arrays, of the signs and null eigenvalues of
    _orthonormal_bases."""
    _, eps, null = _orthonormal_bases(mats, tol)
    minus = ((eps < 0.0) & ~null).sum(axis=1)
    nulls = null.sum(axis=1)
    return minus, eps.shape[1] - minus - nulls, nulls


def signature(g: Gram, tol: float = DEFAULT_TOL) -> Signature:
    """Inertia (minus, plus, null) of g: _signatures on the stack of one."""
    return Signature(*(int(x[0]) for x in _signatures(g.mat[None], tol)))


def _restricted_grams(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (k, d, d) stack of Z·G·Zᵀ, symmetrized as Gram symmetrizes, for a stack
    of grams G (k, n, n) and the orthonormal rows Z (d, n) of one subspace, or
    a stack of grams and a stack of subspaces' rows (k, d, n), member by
    member: the package's one restricted form, and its one refusal
    (InvalidInput) of rows not in R^n."""
    if rows.shape[-1] != mats.shape[-1]:
        raise InvalidInput("subspace ambient dimension does not match gram size")
    return _symmetrized(rows @ mats @ rows.swapaxes(-1, -2))


def classify_subspace(g: Gram, f: Subspace) -> SubspaceClass:
    """Degeneracy class of g restricted to f, at f.tol: _form_classes of the
    stack of one _restricted_grams makes."""
    return _form_classes(_restricted_grams(g.mat[None], f.basis), f.tol)[0]


def _form_classes(forms: np.ndarray, tol: float) -> List[SubspaceClass]:
    """The classes at tol of a stack of restricted forms (k, d, d), as
    _restricted_grams makes them: one stacked signature, and the class rule
    per member."""
    counts = zip(*(x.tolist() for x in _signatures(forms, tol)))
    return [_subspace_class(Signature(*sig)) for sig in counts]


def _subspace_class(sig: Signature) -> SubspaceClass:
    """The class of a restricted form of signature sig.

    Nondegenerate restrictions are tagged Euclidean (definite) or Lorentzian
    (index one); restrictions of index two or more do not occur inside a
    Lorentzian ambient space and are rejected.
    """
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


def find_isotropic_in(g: Gram, f: Subspace) -> Optional[np.ndarray]:
    """A unit (Euclidean norm) vector v in f with ⟨v, v⟩ = 0 at f.tol.

    Returns None when the restriction of g to f is definite, which is exactly
    the case with no isotropic directions.  It is _isotropic_vectors on the
    stack of one, whose _restricted_grams refuses an f not in R^n.
    """
    return _isotropic_vectors(g.mat[None], f.basis[None], f.tol)[0]


def _isotropic_vectors(mats: np.ndarray, rows: np.ndarray, tol: float) -> List[Optional[np.ndarray]]:
    """find_isotropic_in for a stack of grams G (k, n, n) and a stack of
    subspaces of one dimension, given by their orthonormal rows Z (k, d, n),
    member by member: the forms Z·G·Zᵀ of _restricted_grams take one stacked
    _orthonormal_bases at tol.  Per member the choice is deterministic: the
    first null column of its frame B, or, with none, the sum of the extreme
    negative and positive columns u-/√(-λ-) + u+/√λ+, or None when every sign
    agrees (a definite restriction, or d = 0); the vector is those
    coefficients times Z, scaled to unit norm."""
    b, eps, null = _orthonormal_bases(_restricted_grams(mats, rows), tol)
    vectors = []
    for z, b_m, eps_m, null_m in zip(rows, b, eps, null):
        if np.count_nonzero(null_m):
            coeffs = b_m[:, np.flatnonzero(null_m)[0]]
        elif np.all(eps_m > 0.0) or np.all(eps_m < 0.0):
            vectors.append(None)
            continue
        else:
            coeffs = b_m[:, -1] + b_m[:, 0]  # minus-first: column 0 the most negative eigenvalue
        v = coeffs @ z
        vectors.append(v / np.linalg.norm(v))
    return vectors


def orthonormal_basis(g: Gram, tol: float):
    """Pseudo-orthonormal basis for a nondegenerate g, decided at tol.

    Returns (B, eps) where the columns of B satisfy ⟨b_a, b_b⟩ = eps_a δ_ab
    with eps_a = ±1, ordered minus-first (eigenvalue ascending); an eigenvalue
    that signature would count as null raises DegenerateGram.  It is
    _orthonormal_bases on the stack of one."""
    b, eps, null = _orthonormal_bases(g.mat[None], tol)
    if np.count_nonzero(null):
        raise DegenerateGram(DEGENERATE_GRAM)
    return b[0], eps[0]


def _orthonormal_bases(mats: np.ndarray, tol: float):
    """orthonormal_basis for a stack of gram matrices (k, n, n), from one
    stacked eigh, the package's only eigendecomposition: (B, eps, null).  The
    inertia rule is written here once: null (k, n) is True where an eigenvalue
    lies at or within the member's _cutoff(tol, w) = tol * max(1, |λ|_max) of
    zero, and every other eigenvalue counts by its sign eps.  A member with a
    null eigenvalue is degenerate: its B and eps are no frame, and its null
    columns are the unit eigenvectors."""
    w, vecs = np.linalg.eigh(mats)
    size = np.abs(w)
    null = size <= _cutoff(tol, size, stack=True)[:, None]
    if np.count_nonzero(null):
        size = np.where(null, 1.0, size)  # a null column left unscaled: no division by zero
    return vecs / np.sqrt(size)[:, None, :], np.sign(w), null
