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

from .errors import ROUTE_MISMATCH, DegenerateGram, InvalidInput, NotNilpotent
from .liealg import LieAlgebra, _computed_once, derivation_defects
from .pseudolin import Gram, Signature, _as_float_array, _cutoff, signatures

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
# Pure array functions on one structure tensor c of shape (n,n,n) or a stack
# of them of shape (m,n,n,n), and a metric g that is either a stack of grams
# of shape (m,n,n), one per c (MetricLieAlgebra, verify, einstein_residual),
# or the signs ε of shape (n,) of a pseudo-orthonormal frame, where G = G⁻¹ =
# η = diag(ε) (the search, which moves the bracket μ and keeps its frame).
# Every product with the metric goes through _raise_index (G⁻¹·x, a solve
# against a gram, a sign flip for ε) and _lower_index (x·G or Gᵀ·x, a matmul,
# a sign flip for ε), whose sign flips give the bits of the solve and the
# matmul; ricci_operators alone assembles a Ricci route, the 𝒥-route or
# G⁻¹·ric.  ricci_forms takes no metric; ricci_general_forms and trace_q_sides
# take grams only.  Contractions are reshapes and matmuls: at these sizes
# planning an einsum path costs more than doing it.  With g fixed, the Koszul
# solve and the S_i are linear in c, and the Ricci operators are quadratic.


def _raise_index(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G⁻¹·x for the grams g (m,n,n), broadcast against x (..., n, k); for the
    signs ε, the rows of x times ε, in C order as the solve returns them (the
    bits of the Ricci form built from them depend on that layout)."""
    if g.ndim == 1:
        return np.multiply(g[:, None], x, order="C")
    return np.linalg.solve(g, x)


def _lower_index(x: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """Σ_i G[i,j]·x[..., i, ...], the index on axis -1 (x·G) or -2 (Gᵀ·x) of
    x lowered by the grams g (m,n,n), broadcast against x; for the signs ε, x
    times ε along that axis."""
    if g.ndim == 1:
        return np.multiply(x, g if axis == -1 else g[:, None], order="C")
    return x @ g if axis == -1 else g.swapaxes(-1, -2) @ x


def levi_civita_tensors(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """lc[m,i,j,:] = e_i·e_j under g[m], solving the Koszul identity
    2 G (e_i·e_j) = T[i,j,:] with T[i,j,l] = ⟨[e_i,e_j],e_l⟩ + ⟨[e_l,e_i],e_j⟩
    + ⟨[e_l,e_j],e_i⟩."""
    n = c.shape[-1]
    # cg[m,i,j,l] = ⟨[e_i,e_j], e_l⟩, one c lowered by every g
    cg = _lower_index(c.reshape(c.shape[:-3] + (n * n, n)), g).reshape(-1, n, n, n)
    t = cg + cg.transpose(0, 2, 3, 1) + cg.transpose(0, 3, 2, 1)
    lc = 0.5 * _raise_index(g, t.reshape(-1, n * n, n).transpose(0, 2, 1))
    return lc.transpose(0, 2, 1).reshape(-1, n, n, n)


def structure_endo_tensors(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """s[m,i] = S_i under g[m]: S_i = −G⁻¹M_i with M_i[j,k] = c[j,k,i]."""
    n = c.shape[-1]
    rhs = np.swapaxes(c, -1, -2).reshape(c.shape[:-3] + (n, n * n))  # one c is solved against every g
    return -_raise_index(g, rhs).reshape(-1, n, n, n).transpose(0, 2, 1, 3)


def _pair_traces(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t[..., i, j] = tr(x[..., i] ∘ y[..., j]) for stacks of n x n matrices
    x[..., i, :, :] and y[..., j, :, :], their leading axes broadcast together."""
    n = x.shape[-1]
    x_flat = x.reshape(x.shape[:-2] + (n * n,))  # x_flat[i,(a,b)] = x_i[a,b]
    y_t = y.swapaxes(-1, -2).reshape(y.shape[:-2] + (n * n,))  # y_t[j,(a,b)] = y_j[b,a]
    return x_flat @ y_t.swapaxes(-1, -2)


def j1_j2_operators(s: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """𝒥₁ = −Σ_{i,j} ⟨e_i,e_j⟩ S_i∘S_j and 𝒥₂ = −(tr(S_i∘S_j))_{i,j}·G, from
    the stack s of structure_endo_tensors."""
    m, n = s.shape[:2]
    # gs[j] = Σ_i ⟨e_i,e_j⟩ S_i
    gs = _lower_index(s.reshape(m, n, n * n), g, axis=-2).reshape(m, n, n, n)
    j1 = -(gs.transpose(0, 2, 1, 3).reshape(m, n, n * n) @ s.reshape(m, n * n, n))
    return j1, _lower_index(-_pair_traces(s, s), g)


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


def ricci_general_forms(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """ric(u,v) = −½tr(ad_u∘ad_v) − ½tr(ad_u∘ad_v^*) − ¼tr(J_u∘J_v)
    − ½⟨ad_H u, v⟩ − ½⟨ad_H v, u⟩ on the basis, symmetrized; any algebra.
    ad_{e_i} = c[i]ᵀ, its adjoint G⁻¹·c[i]·G, J_{e_i} = Σ_k G[i,k] S_k and H =
    G⁻¹τ with τ_i = tr ad_{e_i}."""
    m, n = g.shape[:2]
    ads = np.swapaxes(c, -1, -2)  # ads[..., i, k, j] = c[..., i, j, k]
    ad_stars = _raise_index(g[:, None], _lower_index(c, g[:, None]))
    s = structure_endo_tensors(c, g).reshape(m, n, n * n)
    js = _lower_index(s, g, axis=-2).reshape(m, n, n, n)
    h = _raise_index(g, np.trace(c, axis1=-2, axis2=-1).reshape(-1, n, 1))  # H = G⁻¹τ
    ad_h = (np.swapaxes(h, -1, -2) @ ads.reshape(ads.shape[:-3] + (n, n * n))).reshape(m, n, n)
    bh = _lower_index(np.swapaxes(ad_h, -1, -2), g)  # bh[i,j] = ⟨ad_H e_i, e_j⟩
    ric = (
        -0.5 * _pair_traces(ads, ads)
        - 0.5 * _pair_traces(ads, ad_stars)
        - 0.25 * _pair_traces(js, js)
        - 0.5 * (bh + np.swapaxes(bh, -1, -2))
    )
    return (ric + np.swapaxes(ric, -1, -2)) / 2.0


def trace_q_sides(c: np.ndarray, g: np.ndarray, e: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both sides of the trace identity for Q = −½𝒥₁ + ¼𝒥₂, for every gram
    g[m] and every matrix E[..., :, :], each of shape (m,) + E.shape[:-2].

    They are tr(Q∘E) and ¼ Σ_{i,j,a,b} G^{ia} G^{jb} ⟨E[e_i,e_j] − [Ee_i,e_j]
    − [e_i,Ee_j], [e_a,e_b]⟩, with (G^{ij}) = G⁻¹; in a pseudo-orthonormal
    basis (b_i), ⟨b_i,b_i⟩ = ε_i, the sum is ¼ Σ_{i,j} ε_i ε_j ⟨E[b_i,b_j] −
    [Eb_i,b_j] − [b_i,Eb_j], [b_i,b_j]⟩.  Both sides are linear in E and agree
    for any E, and both vanish when E is a derivation.  One structure tensor
    c of shape (n,n,n) only: the derivation defects of E do not depend on g.
    """
    m, n = g.shape[:2]
    q = ricci_operators(c, g, True)
    lhs = np.trace(q.reshape((m,) + (1,) * (e.ndim - 2) + (n, n)) @ e, axis1=-2, axis2=-1)

    # rhs = ¼ Σ_{i,j} d[i,j,:]·c_sharp[i,j,:] with d the derivation defect of E
    # and c_sharp[i,j,:] = Σ_{a,b} G^{ia} G^{jb} G[e_a,e_b]: one (m, n³) @ (n³, K)
    # matmul over the K matrices E, never the (m, K, n, n, n) product d·c_sharp
    cg = _lower_index(c.reshape(n * n, n), g).reshape(m, n, n * n)
    c_sharp = _raise_index(g[:, None], _raise_index(g, cg).reshape(m, n, n, n))
    d = derivation_defects(c, e).reshape(-1, n**3)
    rhs = 0.25 * (c_sharp.reshape(m, n**3) @ d.T)
    return lhs, rhs.reshape(lhs.shape)


def ricci_operators(c: np.ndarray, g: np.ndarray, nilpotent: bool) -> np.ndarray:
    """Ricci operators for a stack of grams, or for a stack of brackets in the
    frame of the signs ε: Q from the S_i when the algebra is nilpotent, G⁻¹·ric
    from the Levi-Civita product otherwise.  No degeneracy checks: the caller
    vouches for every gram."""
    if nilpotent:
        return q_operators(structure_endo_tensors(c, g), g)
    return _raise_index(g, ricci_forms(levi_civita_tensors(c, g)))


def _checked_gram(grams: np.ndarray, algebra: LieAlgebra) -> Signature:
    """The inertia of a stack of symmetric grams (k, n, n), such as
    Gram.mat[None], as signatures gives it, decided by one eigvalsh at
    algebra.tol; refused unless every gram is n x n and nondegenerate."""
    if grams.shape[1:] != (algebra.n, algebra.n):
        raise InvalidInput("gram size does not match algebra dimension")
    inertia = signatures(grams, algebra.tol)
    if inertia.null.any():
        raise DegenerateGram("metric gram matrix is degenerate at tolerance")
    return inertia


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra:
    """A Lie algebra together with a nondegenerate ⟨,⟩, whose signature and
    nilpotency (which picks the Ricci route) are decided once, at the
    algebra's ``tol``.

    Building one only checks the gram.  The Levi-Civita tensor, the Ricci
    facts and the flatness defect (not the S_i) are computed on first use and
    kept read-only, as the algebra keeps its facts, so instances are safe to
    share; the report of ``einstein_classify`` is computed once per tol and kept.
    """

    algebra: LieAlgebra
    gram: Gram

    def __init__(self, algebra: LieAlgebra, gram: Gram) -> None:
        if not isinstance(gram, Gram):
            gram = Gram(gram)
        minus, plus, null = _checked_gram(gram.mat[None], algebra)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_signature", Signature(int(minus[0]), int(plus[0]), int(null[0])))
        object.__setattr__(self, "_memo", {})  # facts computed once, by method
        object.__setattr__(self, "_reports", {})  # einstein_classify's reports, by tol

    @property
    def n(self) -> int:
        return self.algebra.n

    def signature(self) -> Signature:
        return self._signature

    @_computed_once
    def _levi_civita(self) -> np.ndarray:
        return levi_civita_tensors(self.algebra.c, self.gram.mat[None])[0]

    # -- curvature --------------------------------------------------------

    def curvature_tensor(self) -> np.ndarray:
        """K[i,j,k,:] = K(e_i,e_j)e_k = (L_[e_i,e_j] − [L_i, L_j]) e_k."""
        lc = self._levi_civita()  # lc[i, k, :] = L_{e_i} e_k
        n = self.n
        # K[i,j,k,:] = Σ_m c[i,j,m] lc[m,k,:] + (lc[i] @ lc[j] − lc[j] @ lc[i])[k,:],
        # each term one matmul over reshaped stacks
        term_bracket = self.algebra.c.reshape(n * n, n) @ lc.reshape(n, n * n)
        products = lc.reshape(n * n, n) @ lc.transpose(1, 0, 2).reshape(n, n * n)
        products = products.reshape(n, n, n, n).transpose(0, 2, 1, 3)  # [i,j] = lc[i] @ lc[j]
        return term_bracket.reshape(n, n, n, n) + products - products.transpose(1, 0, 2, 3)

    @_computed_once
    def flatness_defect(self) -> Tuple[float, float]:
        """(sup-norm of the curvature tensor, its roundoff scale)."""
        scale = max(1.0, float(np.abs(self._levi_civita()).max(initial=0.0))) ** 2
        return float(np.abs(self.curvature_tensor()).max(initial=0.0)), scale

    # -- Ricci, three routes ----------------------------------------------

    @_computed_once
    def ricci_via_definition(self) -> np.ndarray:
        """ric(e_i,e_j) = −tr(R_i R_j) + tr(R_{e_i·e_j}); symmetric matrix."""
        return ricci_forms(self._levi_civita()[None])[0]

    def j1_j2(self) -> Tuple[np.ndarray, np.ndarray]:
        """The self-adjoint operators 𝒥₁ and 𝒥₂ built from the S_i."""
        g = self.gram.mat[None]
        j1, j2 = j1_j2_operators(structure_endo_tensors(self.algebra.c, g), g)
        return j1[0], j2[0]

    @_computed_once
    def ricci_nilpotent(self) -> np.ndarray:
        """Ricci operator −½𝒥₁ + ¼𝒥₂; only valid on nilpotent algebras."""
        if not self.algebra.is_nilpotent():
            raise NotNilpotent("the 𝒥-form of the Ricci operator needs a nilpotent algebra")
        return ricci_operators(self.algebra.c, self.gram.mat[None], True)[0]

    def ricci_general(self) -> np.ndarray:
        """Ricci form from the adjoint/J/mean-vector expression; any algebra."""
        return ricci_general_forms(self.algebra.c, self.gram.mat[None])[0]

    # -- trace identity ---------------------------------------------------

    def trace_q_times(self, e) -> Tuple[np.ndarray, np.ndarray]:
        """Both sides of the trace identity (see trace_q_sides) for a matrix
        or a stack of matrices E[..., :, :], each of shape E.shape[:-2] (numpy
        scalars for one matrix)."""
        e = _as_float_array(e, "E", square=self.n)
        lhs, rhs = trace_q_sides(self.algebra.c, self.gram.mat[None], e)
        return lhs[0], rhs[0]

    # -- verdicts ---------------------------------------------------------

    @_computed_once
    def _ricci_definitional(self) -> np.ndarray:
        """G⁻¹·ric, the Ricci operator of the definitional route."""
        return _raise_index(self.gram.mat[None], self.ricci_via_definition()[None])[0]

    @_computed_once
    def ricci_operator(self) -> np.ndarray:
        """Ric = G^{-1}·ric: the 𝒥-route when nilpotent, cross-checked against
        the definitional route (ROUTE_MISMATCH), the definitional route otherwise."""
        ric_def = self._ricci_definitional()
        if not self.algebra.is_nilpotent():
            return ric_def
        ric_nil = self.ricci_nilpotent()
        if np.abs(ric_nil - ric_def).max(initial=0.0) > _cutoff(1e-6, ric_nil):
            raise RuntimeError(ROUTE_MISMATCH)
        return ric_nil

    def einstein_classify(self, tol: float = VERDICT_TOL) -> CurvatureReport:
        """Classify as Flat / RicciFlat / Einstein(λ≠0) / NotEinstein.

        The residual and λ are measured against _cutoff(tol, Ric), that is
        tol·max(1, ‖Ric‖∞); flatness against the squared Levi-Civita magnitude.
        The report, whose arrays are the metric's read-only Ricci facts, is
        computed once per tol: a call at an equal tol returns the same object.
        A call that raises (a bad tol, the Ricci cross-check) keeps nothing
        and raises again.
        """
        _cutoff(tol)  # validates tol before it keys the reports (an unhashable one included)
        report = self._reports.get(tol)
        if report is None:
            report = self._reports[tol] = self._classify(tol)
        return report

    def _classify(self, tol: float) -> CurvatureReport:
        """einstein_classify, computed from the kept facts."""
        ric_op = self.ricci_operator()
        lam = float(np.trace(ric_op)) / self.n
        cut = _cutoff(tol, ric_op)
        residual = float(np.abs(ric_op - lam * np.eye(self.n)).max(initial=0.0))
        scalar = float(np.trace(self._ricci_definitional()))

        k_defect, k_scale = self.flatness_defect()
        flat = k_defect <= _cutoff(tol, k_scale)

        if residual > cut:
            verdict = Verdict.NOT_EINSTEIN
        elif flat:
            verdict = Verdict.FLAT
        elif abs(lam) <= cut:
            verdict = Verdict.RICCI_FLAT
        else:
            verdict = Verdict.EINSTEIN
        return CurvatureReport(
            verdict=verdict,
            ricci_operator=ric_op,
            ricci_form=self.ricci_via_definition(),
            scalar_curvature=scalar,
            einstein_lambda=None if verdict is Verdict.NOT_EINSTEIN else lam,
            einstein_residual=residual,
            flat=flat,
            signature=self._signature,
        )
