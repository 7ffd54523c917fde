"""Curvature of left-invariant pseudo-Riemannian metrics, computed on the
Lie algebra.

Conventions, for a Lie algebra g with bracket [,] and a nondegenerate
symmetric form ⟨,⟩:

* Levi-Civita product u·v, determined by the Koszul identity
  2⟨u·v, w⟩ = ⟨[u,v], w⟩ + ⟨[w,u], v⟩ + ⟨[w,v], u⟩.
* L_u v = u·v (skew-symmetric in ⟨,⟩), R_u v = v·u, ad_u = L_u − R_u.
* Curvature K(u,v)w = L_[u,v] w − [L_u, L_v] w; flat means K ≡ 0.
* Ricci ric(u,v) = −tr(R_u ∘ R_v) + tr(R_{u·v}).
* Structure endomorphisms S_i, defined by [u,v] = Σ_i ⟨S_i u, v⟩ e_i; each
  S_i is ⟨,⟩-skew.
* J_u = Σ_i ⟨u, e_i⟩ S_i, equivalently J_u(v) = ad_v^*(u); ker J = [g,g]^⊥.
* 𝒥₁ = −Σ_{i,j} ⟨e_i,e_j⟩ S_i∘S_j and 𝒥₂ u = −Σ_{i,j} ⟨e_i,u⟩ tr(S_i∘S_j) e_j,
  both ⟨,⟩-self-adjoint with tr 𝒥₁ = tr 𝒥₂.
* Mean vector H with ⟨H, u⟩ = tr(ad_u).
* For nilpotent g the Ricci operator is Ric = −½𝒥₁ + ¼𝒥₂; in general
  ric(u,v) = −½tr(ad_u∘ad_v) − ½tr(ad_u∘ad_v^*) − ¼tr(J_u∘J_v)
             − ½⟨ad_H u, v⟩ − ½⟨ad_H v, u⟩.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateGram, InvalidInput, NotNilpotent
from .liealg import LieAlgebra
from .pseudolin import DEFAULT_TOL, Gram, Signature, signature

#: Default relative tolerance for Einstein/flatness verdicts.
VERDICT_TOL = 1e-8


class Verdict(Enum):
    EINSTEIN = "Einstein"
    RICCI_FLAT = "RicciFlat"
    FLAT = "Flat"
    NOT_EINSTEIN = "NotEinstein"


@dataclass(frozen=True)
class CurvatureReport:
    """Summary verdict for one metric Lie algebra."""

    verdict: Verdict
    ricci_operator: np.ndarray
    ricci_form: np.ndarray
    scalar_curvature: float
    einstein_lambda: Optional[float]
    einstein_residual: float
    flat: bool
    signature: Signature


# -- the stacked kernel ---------------------------------------------------
#
# Pure array functions on one structure tensor c of shape (n,n,n) and a stack
# of grams g of shape (m,n,n); MetricLieAlgebra calls them with a stack of one,
# the search with a whole batch.  The contractions are spelled as reshapes and
# matmuls: at these sizes planning an einsum path costs more than doing it.


def levi_civita_tensors(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """lc[m,i,j,:] = e_i·e_j under g[m], solving the Koszul identity
    2 G (e_i·e_j) = T[i,j,:] with T[i,j,l] = ⟨[e_i,e_j],e_l⟩ + ⟨[e_l,e_i],e_j⟩
    + ⟨[e_l,e_j],e_i⟩."""
    m, n = len(g), c.shape[0]
    cg = c @ g[:, None]  # cg[m,i,j,l] = ⟨[e_i,e_j], e_l⟩
    t = cg + cg.transpose(0, 2, 3, 1) + cg.transpose(0, 3, 2, 1)
    lc = 0.5 * np.linalg.solve(g, t.reshape(m, n * n, n).transpose(0, 2, 1))
    return lc.transpose(0, 2, 1).reshape(m, n, n, n)


def structure_endo_tensors(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """s[m,i] = S_i under g[m]: S_i = −G⁻¹M_i with M_i[j,k] = c[j,k,i]."""
    n = c.shape[0]
    rhs = np.broadcast_to(c.transpose(0, 2, 1).reshape(n, n * n), (len(g), n, n * n))
    return -np.linalg.solve(g, rhs).reshape(-1, n, n, n).transpose(0, 2, 1, 3)


def j1_j2_operators(s: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """𝒥₁ = −Σ_{i,j} ⟨e_i,e_j⟩ S_i∘S_j and 𝒥₂ = −(tr(S_i∘S_j))_{i,j}·G, from
    the stack s of structure_endo_tensors."""
    m, n = g.shape[:2]
    flat = s.reshape(m, n, n * n)
    gs = (g.transpose(0, 2, 1) @ flat).reshape(m, n, n, n)  # gs[j] = Σ_i ⟨e_i,e_j⟩ S_i
    j1 = -(gs.transpose(0, 2, 1, 3).reshape(m, n, n * n) @ s.reshape(m, n * n, n))
    # tr(S_i∘S_j) = Σ_{a,b} S_i[a,b] S_j[b,a]
    t = flat @ s.transpose(0, 1, 3, 2).reshape(m, n, n * n).transpose(0, 2, 1)
    return j1, -t @ g


def q_operators(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Q = −½𝒥₁ + ¼𝒥₂, the Ricci operator of a nilpotent algebra."""
    j1, j2 = j1_j2_operators(s, g)
    return -0.5 * j1 + 0.25 * j2


def ricci_forms(lc: np.ndarray) -> np.ndarray:
    """ric(e_a,e_b) = −tr(R_a∘R_b) + tr(R_{e_a·e_b}), symmetrized, from the
    stack lc of levi_civita_tensors; R_a[k,j] = lc[j,a,k]."""
    m, n = lc.shape[:2]
    r = lc.transpose(0, 2, 1, 3).reshape(m, n, n * n)  # r[a,(j,k)] = R_a[k,j]
    r_t = lc.transpose(0, 2, 3, 1).reshape(m, n, n * n)  # r_t[b,(j,k)] = R_b[j,k]
    r_traces = np.trace(lc, axis1=1, axis2=3)  # tr R_a = Σ_k lc[k,a,k]
    term2 = (lc.reshape(m, n * n, n) @ r_traces[:, :, None]).reshape(m, n, n)
    ric = term2 - r @ r_t.transpose(0, 2, 1)
    return (ric + ric.transpose(0, 2, 1)) / 2.0


def ricci_operators(c: np.ndarray, g: np.ndarray, nilpotent: bool) -> np.ndarray:
    """Ricci operators for a stack of grams: Q from the S_i when the algebra
    is nilpotent, G⁻¹·ric from the Levi-Civita product otherwise.  No
    degeneracy checks: the caller vouches for every gram."""
    if nilpotent:
        return q_operators(structure_endo_tensors(c, g), g)
    return np.linalg.solve(g, ricci_forms(levi_civita_tensors(c, g)))


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra:
    """A Lie algebra together with a nondegenerate ⟨,⟩, caches built eagerly.

    All cached tensors are read-only, so instances are safe to share.
    """

    algebra: LieAlgebra
    gram: Gram

    def __init__(self, algebra: LieAlgebra, gram: Gram, tol: float = DEFAULT_TOL) -> None:
        if not isinstance(gram, Gram):
            gram = Gram(gram)
        if gram.n != algebra.n:
            raise InvalidInput("gram size does not match algebra dimension")
        if not gram.is_nondegenerate(tol):
            raise DegenerateGram("metric gram matrix is degenerate at tolerance")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_cache", {})
        self._build_caches()

    # -- cached tensors ---------------------------------------------------

    def _build_caches(self) -> None:
        g = self.gram.mat
        c = self.algebra.c
        cache = self._cache
        cache["gram_inv"] = np.linalg.inv(g)
        cache["levi_civita"] = levi_civita_tensors(c, g[None])[0]
        cache["structure_endos"] = structure_endo_tensors(c, g[None])[0]
        for key in ("gram_inv", "levi_civita", "structure_endos"):
            cache[key].flags.writeable = False

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def gram_inv(self) -> np.ndarray:
        return self._cache["gram_inv"]

    def signature(self, tol: float = DEFAULT_TOL) -> Signature:
        return signature(self.gram, tol)

    def adjoint(self, m) -> np.ndarray:
        """⟨,⟩-adjoint: M* = G^{-1} Mᵀ G, of a matrix or a stack of them."""
        return self.gram_inv @ np.swapaxes(np.asarray(m, dtype=float), -1, -2) @ self.gram.mat

    # -- Levi-Civita ------------------------------------------------------

    def levi_civita(self, u, v) -> np.ndarray:
        """The product u·v defined by the Koszul identity."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.einsum("ijk,i,j->k", self._cache["levi_civita"], u, v)

    def left_mult(self, u) -> np.ndarray:
        """Matrix of L_u : v ↦ u·v."""
        return np.einsum("ijk,i->kj", self._cache["levi_civita"], np.asarray(u, dtype=float))

    def right_mult(self, u) -> np.ndarray:
        """Matrix of R_u : v ↦ v·u."""
        return np.einsum("jik,i->kj", self._cache["levi_civita"], np.asarray(u, dtype=float))

    def left_mult_skewness_defect(self, u) -> float:
        """Sup-norm of G L_u + L_uᵀ G; zero for the metric product."""
        l = self.left_mult(u)
        return float(np.abs(self.gram.mat @ l + l.T @ self.gram.mat).max())

    def torsion_defect(self) -> float:
        """Sup-norm of e_i·e_j − e_j·e_i − [e_i,e_j] over basis pairs."""
        lc = self._cache["levi_civita"]
        return float(np.abs(lc - lc.transpose(1, 0, 2) - self.algebra.c).max(initial=0.0))

    # -- curvature --------------------------------------------------------

    def curvature_tensor(self) -> np.ndarray:
        """K[i,j,k,:] = K(e_i,e_j)e_k = (L_[e_i,e_j] − [L_i, L_j]) e_k."""
        lc = self._cache["levi_civita"]
        c = self.algebra.c
        l_all = lc.transpose(0, 2, 1)  # l_all[i] = matrix of L_{e_i}
        term_bracket = np.einsum("ijm,mlk->ijkl", c, l_all)
        ll = np.einsum("iab,jbc->ijac", l_all, l_all)
        commutator = ll - ll.transpose(1, 0, 2, 3)
        return term_bracket - commutator.transpose(0, 1, 3, 2)

    def flatness_defect(self) -> Tuple[float, float]:
        """(sup-norm of the curvature tensor, its roundoff scale)."""
        k = self.curvature_tensor()
        lc_max = float(np.abs(self._cache["levi_civita"]).max(initial=0.0))
        scale = max(1.0, lc_max) ** 2
        return float(np.abs(k).max(initial=0.0)), scale

    # -- Ricci, three routes ----------------------------------------------

    def ricci_via_definition(self) -> np.ndarray:
        """ric(e_i,e_j) = −tr(R_i R_j) + tr(R_{e_i·e_j}); symmetric matrix."""
        return ricci_forms(self._cache["levi_civita"][None])[0]

    def structure_endos(self) -> np.ndarray:
        """Stack S[i] of the structure endomorphisms."""
        return self._cache["structure_endos"]

    def j_map(self, u) -> np.ndarray:
        """J_u = Σ_i ⟨u, e_i⟩ S_i; the stack of them for a stack of u[..., :]."""
        w = np.asarray(u, dtype=float) @ self.gram.mat
        return np.tensordot(w, self._cache["structure_endos"], axes=1)

    def mean_vector(self) -> np.ndarray:
        """H with ⟨H, u⟩ = tr(ad_u) for all u."""
        traces = np.trace(self.algebra.c, axis1=1, axis2=2)  # tr ad_{e_i} = Σ_k c[i,k,k]
        return np.linalg.solve(self.gram.mat, traces)

    def j1_j2(self) -> Tuple[np.ndarray, np.ndarray]:
        """The self-adjoint operators 𝒥₁ and 𝒥₂ built from the S_i."""
        j1, j2 = j1_j2_operators(self._cache["structure_endos"][None], self.gram.mat[None])
        return j1[0], j2[0]

    def _q(self) -> np.ndarray:
        """Q from the cached S_i; the Ricci operator only if nilpotent."""
        return q_operators(self._cache["structure_endos"][None], self.gram.mat[None])[0]

    def ricci_nilpotent(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Ricci operator −½𝒥₁ + ¼𝒥₂; only valid on nilpotent algebras."""
        if not self.algebra.is_nilpotent(tol):
            raise NotNilpotent("the 𝒥-form of the Ricci operator needs a nilpotent algebra")
        return self._q()

    def ricci_general(self) -> np.ndarray:
        """Ricci form from the adjoint/J/mean-vector expression; any algebra."""
        g = self.gram.mat
        basis = np.eye(self.n)
        ads = self.algebra.ad(basis)
        ad_star = self.adjoint(ads)
        js = self.j_map(basis)
        ad_h = self.algebra.ad(self.mean_vector())

        t_adad = np.einsum("iab,jba->ij", ads, ads)
        t_adstar = np.einsum("iab,jba->ij", ads, ad_star)
        t_jj = np.einsum("iab,jba->ij", js, js)
        # ⟨ad_H e_i, e_j⟩ = Σ_k (ad_H)[k,i] G[k,j] = (ad_Hᵀ G)[i,j]
        bh = ad_h.T @ g
        ric = -0.5 * t_adad - 0.5 * t_adstar - 0.25 * t_jj - 0.5 * (bh + bh.T)
        return (ric + ric.T) / 2.0

    def killing_form(self) -> np.ndarray:
        """B(e_i,e_j) = tr(ad_i ∘ ad_j)."""
        ads = self.algebra.ad(np.eye(self.n))
        return np.einsum("iab,jba->ij", ads, ads)

    # -- trace identity ---------------------------------------------------

    def trace_q_times(self, e) -> Tuple[float, float]:
        """Both sides of the trace identity for Q = −½𝒥₁ + ¼𝒥₂.

        Returns (tr(Q∘E), ¼ Σ_{i,j,a,b} G^{ia} G^{jb} ⟨E[e_i,e_j] − [Ee_i,e_j]
        − [e_i,Ee_j], [e_a,e_b]⟩) with (G^{ij}) = G⁻¹; in a pseudo-orthonormal
        basis (b_i), ⟨b_i,b_i⟩ = ε_i, the sum is ¼ Σ_{i,j} ε_i ε_j ⟨E[b_i,b_j] −
        [Eb_i,b_j] − [b_i,Eb_j], [b_i,b_j]⟩.  The two sides agree for any E, and
        both vanish when E is a derivation.
        """
        e = np.asarray(getattr(e, "matrix", e), dtype=float)
        lhs = float(np.trace(self._q() @ e))

        # c_sharp[i,j,:] = Σ_{a,b} G^{ia} G^{jb} G[e_a,e_b], so that
        # rhs = ¼ Σ_{i,j} d[i,j,:]·c_sharp[i,j,:] with d the derivation defect of E
        cg, g_inv = self.algebra.c @ self.gram.mat, self.gram_inv
        c_sharp = g_inv @ (g_inv @ cg.reshape(self.n, -1)).reshape(cg.shape)
        rhs = 0.25 * float(np.sum(self.algebra.derivation_defect_map(e) * c_sharp))
        return lhs, rhs

    # -- verdicts ---------------------------------------------------------

    def ricci_operator(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Ric = G^{-1}·ric, via the 𝒥-route when nilpotent (cross-checked
        against the definitional route), the definitional route otherwise."""
        return self._ricci_operator(self.ricci_via_definition(), tol)

    def _ricci_operator(self, ric_form: np.ndarray, tol: float) -> np.ndarray:
        """ricci_operator, given the definitional Ricci form."""
        ric_def = self.gram_inv @ ric_form
        if self.algebra.is_nilpotent(tol):
            ric_nil = self._q()
            scale = max(1.0, float(np.abs(ric_nil).max(initial=0.0)))
            if np.abs(ric_nil - ric_def).max(initial=0.0) > 1e-6 * scale:
                raise RuntimeError("internal Ricci routes disagree beyond cross-check bound")
            return ric_nil
        return ric_def

    def einstein_classify(self, tol: float = VERDICT_TOL) -> CurvatureReport:
        """Classify as Flat / RicciFlat / Einstein(λ≠0) / NotEinstein.

        Residuals are measured against max(1, ‖Ric‖∞); flatness against the
        squared Levi-Civita magnitude.
        """
        ric_form = self.ricci_via_definition()
        ric_op = self._ricci_operator(ric_form, DEFAULT_TOL)
        lam = float(np.trace(ric_op)) / self.n
        scale = max(1.0, float(np.abs(ric_op).max(initial=0.0)))
        residual = float(np.abs(ric_op - lam * np.eye(self.n)).max(initial=0.0))
        scalar = float(np.trace(self.gram_inv @ ric_form))

        k_defect, k_scale = self.flatness_defect()
        flat = k_defect <= tol * k_scale

        if residual > tol * scale:
            verdict = Verdict.NOT_EINSTEIN
            lam_out = None
        elif flat:
            verdict = Verdict.FLAT
            lam_out = lam
        elif abs(lam) <= tol * scale:
            verdict = Verdict.RICCI_FLAT
            lam_out = lam
        else:
            verdict = Verdict.EINSTEIN
            lam_out = lam
        return CurvatureReport(
            verdict=verdict,
            ricci_operator=ric_op,
            ricci_form=ric_form,
            scalar_curvature=scalar,
            einstein_lambda=lam_out,
            einstein_residual=residual,
            flat=flat,
            signature=self.signature(),
        )
