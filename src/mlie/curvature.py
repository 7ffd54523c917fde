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

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import DEGENERATE_GRAM, ROUTE_MISMATCH, DegenerateGram, InvalidInput, NotNilpotent
from .liealg import LieAlgebra, act_on_brackets
from .pseudolin import (
    Gram,
    Signature,
    _as_float_array,
    _cutoff,
    _orthonormal_bases,
    _peaks,
    _symmetrized,
)

#: Default relative tolerance for Einstein/flatness verdicts.
VERDICT_TOL = 1e-8


class Verdict(Enum):
    EINSTEIN = "Einstein"
    RICCI_FLAT = "RicciFlat"
    FLAT = "Flat"
    NOT_EINSTEIN = "NotEinstein"


#: the verdicts of a Ricci-flat metric
_RICCI_FLAT = (Verdict.RICCI_FLAT, Verdict.FLAT)


@dataclass(frozen=True, eq=False)
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
# Pure array functions on a stack of brackets μ (m,n,n,n), each written in a
# pseudo-orthonormal frame ⟨b_i,b_j⟩ = ε_i δ_ij whose signs ε (..., n) have one
# row per bracket or one for the stack.  There G = G⁻¹ = η = diag(ε): every
# product with the metric is a sign flip in C order (the Ricci form's bits
# depend on that layout), _raise_index or _lower_index, and nothing is solved.
# ricci_operators assembles the 𝒥- and Levi-Civita routes (η·ric is also
# raised from ricci_forms by _CurvatureFacts, from the Levi-Civita tensor it
# keeps for flatness, and by verify's route-equivalence); the bracket form of
# the nilpotent Q, which the search and the bracket side of the trace
# identity read, is q_bracket_operators, and the search's Jacobian reads its
# exact differential, q_bracket_differentials.  Contractions are reshapes and
# matmuls: at these sizes planning an einsum path costs more than doing it.
# With ε fixed, the Koszul product and the S_i are linear in μ, and the Ricci
# operators are quadratic.


def _raise_index(eps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """η·x: the rows of x (..., n, k) times the signs ε (..., n)."""
    return np.multiply(eps[..., :, None], x, order="C")


def _lower_index(x: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """x·η: the columns of x (..., k, n) times the signs ε (..., n)."""
    return np.multiply(x, eps[..., None, :], order="C")


def levi_civita_tensors(mu: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """lc[m,i,j,:] = b_i·b_j for the bracket μ[m] in the frame of the signs ε,
    from the Koszul identity 2 η (b_i·b_j) = T[i,j,:] with T[i,j,l] =
    ⟨[b_i,b_j],b_l⟩ + ⟨[b_l,b_i],b_j⟩ + ⟨[b_l,b_j],b_i⟩."""
    m, n = mu.shape[:2]
    cg = _lower_index(mu.reshape(m, n * n, n), eps).reshape(m, n, n, n)  # ⟨[b_i,b_j], b_l⟩
    t = cg + cg.transpose(0, 2, 3, 1) + cg.transpose(0, 3, 2, 1)
    lc = 0.5 * _raise_index(eps, t.reshape(m, n * n, n).transpose(0, 2, 1))
    return lc.transpose(0, 2, 1).reshape(m, n, n, n)


def structure_endo_tensors(mu: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """s[m,i] = S_i for the bracket μ[m] in the frame of the signs ε:
    S_i = −η·M_i with M_i[j,k] = μ[j,k,i]."""
    m, n = mu.shape[:2]
    rhs = np.swapaxes(mu, -1, -2).reshape(m, n, n * n)
    return -_raise_index(eps, rhs).reshape(m, n, n, n).transpose(0, 2, 1, 3)


def _pair_traces(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t[..., i, j] = tr(x[..., i] ∘ y[..., j]) for stacks of n x n matrices
    x[..., i, :, :] and y[..., j, :, :], their leading axes broadcast together."""
    n = x.shape[-1]
    x_flat = x.reshape(x.shape[:-2] + (n * n,))  # x_flat[i,(a,b)] = x_i[a,b]
    y_t = y.swapaxes(-1, -2).reshape(y.shape[:-2] + (n * n,))  # y_t[j,(a,b)] = y_j[b,a]
    return x_flat @ y_t.swapaxes(-1, -2)


def j1_j2_operators(s: np.ndarray, eps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """𝒥₁ = −Σ_i ε_i S_i∘S_i and 𝒥₂ = −(tr(S_i∘S_j))_{i,j}·η, from the stack s
    of structure_endo_tensors in the frame of the signs ε."""
    m, n = s.shape[:2]
    gs = _raise_index(eps, s.reshape(m, n, n * n)).reshape(m, n, n, n)  # gs[j] = ε_j S_j
    j1 = -(gs.transpose(0, 2, 1, 3).reshape(m, n, n * n) @ s.reshape(m, n * n, n))
    return j1, _lower_index(-_pair_traces(s, s), eps)


def q_operators(s: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Q = −½𝒥₁ + ¼𝒥₂, the Ricci operator of a nilpotent algebra."""
    j1, j2 = j1_j2_operators(s, eps)
    return -0.5 * j1 + 0.25 * j2


def _sharp(mu: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """μ♯[..., i,j,p] = ε_i ε_j ε_p μ[..., i,j,p], exact: each entry changes
    sign or not."""
    return mu * (eps[..., :, None, None] * eps[..., None, :, None] * eps[..., None, None, :])


def _pair_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P(x, y) = ¼(xᵀ·y − 2·y·xᵀ) for stacks of brackets x and y (..., n, n, n),
    their leading axes broadcast together: the first product on the (n², n)
    reshapes, the second on the (n, n²) ones, so P(x, y)[l,k] = ¼(Σ_{ij}
    x[i,j,l] y[i,j,k] − 2 Σ_{jp} y[l,j,p] x[k,j,p])."""
    n = x.shape[-1]
    x_cols, y_cols = (z.reshape(z.shape[:-3] + (n * n, n)) for z in (x, y))
    x_rows, y_rows = (z.reshape(z.shape[:-3] + (n, n * n)) for z in (x, y))
    rt = np.swapaxes(x_cols, -1, -2) @ y_cols
    rt -= 2.0 * (y_rows @ np.swapaxes(x_rows, -1, -2))
    return 0.25 * rt


def q_bracket_operators(mu: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Q = ¼Rᵀ = P(μ, μ♯), the Ricci operator of a nilpotent algebra from the
    bracket μ alone, in the frame of the signs ε: R[k,l] = Σ_{ij} c♯[i,j,k]
    μ[i,j,l] − 2 Σ_{jp} μ[k,j,p] c♯[l,j,p] with c♯ = μ♯.  It is the bracket
    side of the trace identity (trace_q_sides), ¼⟨R, E⟩ = tr(Q∘E) for every
    E, and, with ε fixed, a quadratic form in μ."""
    return _pair_products(mu, _sharp(mu, eps))


def q_bracket_differentials(mu: np.ndarray, eps: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """dQ[ν] = P(ν, μ♯) + η·P(ν, μ♯)ᵀ·η, the exact differential of
    q_bracket_operators at the brackets μ (m, n, n, n) along the directions
    ν (m, k, n, n, n), in the frame of the signs ε (n,) or (m, n): Q = P(μ, μ♯)
    is bilinear in μ, and P(μ, ν♯) = η·P(ν, μ♯)ᵀ·η, so each direction costs
    the two products of one P."""
    e = eps[..., None, :]  # one row of signs for the k directions of each μ
    p = _pair_products(nu, _sharp(mu[:, None], e))
    return p + np.swapaxes(p, -1, -2) * (e[..., :, None] * e[..., None, :])


def ricci_forms(lc: np.ndarray) -> np.ndarray:
    """ric(e_a,e_b) = −tr(R_a∘R_b) + tr(R_{e_a·e_b}), symmetrized, from the
    stack lc of levi_civita_tensors; R_a[k,j] = lc[j,a,k]."""
    m, n = lc.shape[:2]
    r = lc.transpose(0, 2, 1, 3).reshape(m, n, n * n)  # r[a,(j,k)] = R_a[k,j]
    r_t = lc.transpose(0, 2, 3, 1).reshape(m, n, n * n)  # r_t[b,(j,k)] = R_b[j,k]
    r_traces = np.trace(lc, axis1=1, axis2=3)  # tr R_a = Σ_k lc[k,a,k]
    term2 = (lc.reshape(m, n * n, n) @ r_traces[:, :, None]).reshape(m, n, n)
    return _symmetrized(term2 - r @ r_t.transpose(0, 2, 1))


def ricci_general_forms(mu: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """ric(u,v) = −½tr(ad_u∘ad_v) − ½tr(ad_u∘ad_v^*) − ¼tr(J_u∘J_v)
    − ½⟨ad_H u, v⟩ − ½⟨ad_H v, u⟩ on the frame, symmetrized; any algebra.
    ad_{b_i} = μ[i]ᵀ, its adjoint η·μ[i]·η, J_{b_i} = ε_i S_i and H = η·τ with
    τ_i = tr ad_{b_i}."""
    m, n = mu.shape[:2]
    ads = np.swapaxes(mu, -1, -2)  # ads[m, i, k, j] = μ[m, i, j, k]
    ad_stars = _raise_index(eps[..., None, :], _lower_index(mu, eps[..., None, :]))
    s = structure_endo_tensors(mu, eps).reshape(m, n, n * n)
    js = _raise_index(eps, s).reshape(m, n, n, n)
    h = _raise_index(eps, np.trace(mu, axis1=-2, axis2=-1).reshape(m, n, 1))  # H = η·τ
    ad_h = (np.swapaxes(h, -1, -2) @ ads.reshape(m, n, n * n)).reshape(m, n, n)
    bh = _lower_index(np.swapaxes(ad_h, -1, -2), eps)  # bh[i,j] = ⟨ad_H b_i, b_j⟩
    return _symmetrized(
        -0.5 * _pair_traces(ads, ads)
        - 0.5 * _pair_traces(ads, ad_stars)
        - 0.25 * _pair_traces(js, js)
        - 0.5 * (bh + np.swapaxes(bh, -1, -2))
    )


def trace_q_sides(mu: np.ndarray, eps: np.ndarray, e: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both sides of the trace identity for Q = −½𝒥₁ + ¼𝒥₂, for every bracket
    μ[m] in the frame of the signs ε and the matrices E[m, ..., :, :] in that
    frame, each of shape E.shape[:-2]: tr(Q∘E) and ¼ Σ_{i,j} ε_i ε_j
    ⟨E[b_i,b_j] − [Eb_i,b_j] − [b_i,Eb_j], [b_i,b_j]⟩ (in any basis, G^{ia}
    G^{jb} in place of ε_i ε_j).  Both sides are linear in E and agree for any
    E, and both vanish when E is a derivation.  The left side takes Q from the
    S_i (ricci_operators), the right side is ¼⟨R, E⟩ = ⟨Q_bᵀ, E⟩ with Q_b from
    q_bracket_operators (the three terms of the derivation defect, two equal
    as μ is skew): two independent formulas, and never a stack of defects."""
    m, n = mu.shape[:2]
    flat_e = e.reshape(m, -1, n * n)
    lhs, rhs = (
        flat_e @ q.swapaxes(-1, -2).reshape(m, n * n, 1)  # tr(Q∘E) = ⟨Qᵀ, E⟩
        for q in (ricci_operators(mu, eps, True), q_bracket_operators(mu, eps))
    )
    return lhs.reshape(e.shape[:-2]), rhs.reshape(e.shape[:-2])


def ricci_operators(mu: np.ndarray, eps: np.ndarray, nilpotent: bool) -> np.ndarray:
    """Ricci operators for a stack of brackets in the frame of the signs ε: Q
    from the S_i when the algebra is nilpotent, η·ric from the Levi-Civita
    product otherwise."""
    if nilpotent:
        return q_operators(structure_endo_tensors(mu, eps), eps)
    return _raise_index(eps, ricci_forms(levi_civita_tensors(mu, eps)))


# -- the verdict on stacks ----------------------------------------------
#
# einstein_classify on a stack of metrics given by their brackets c (k,n,n,n)
# in the input basis and their frames (ε, A, B), stacks of k or of one that
# every member shares.  _CurvatureFacts is the one place a metric's curvature
# facts are computed, on a stack, in three kept passes through the kernel:
# MetricLieAlgebra reads them for its stack of one, verify's checks once per
# group, and the search's settle once per iteration.  The layers it calls
# are array functions; each decision is taken per member in the input basis,
# at the member's own cutoff, and an empty stack gives empty results.


def _frames(mats: np.ndarray, tol: float):
    """The pseudo-orthonormal frames G = AᵀηA of a stack of gram matrices
    (k, n, n), decided at tol by one stacked eigh (_orthonormal_bases):
    ((ε, A, B), degenerate), each a stack of k, with the signs ε minus-first,
    the bases B and A = B⁻¹ = η·Bᵀ·G, as BᵀGB = η; degenerate (k,) is True
    for a member with a null direction, whose (ε, A, B) is no frame."""
    b, eps, null = _orthonormal_bases(mats, tol)
    return (eps, (eps[..., :, None] * b.swapaxes(-1, -2)) @ mats, b), null.any(axis=1)


def _check_routes(ric_nil: np.ndarray, ric_def: np.ndarray) -> np.ndarray:
    """The Ricci cross-check in the frames, per member (k,): True where the
    𝒥-route and the definitional route agree within _cutoff(1e-6, Q)."""
    return ~(_peaks(np.abs(ric_nil - ric_def)) > _cutoff(1e-6, ric_nil, stack=True))


def _curvature_tensors(c: np.ndarray, lc: np.ndarray) -> np.ndarray:
    """K[m,i,j,k,:] = (L_[e_i,e_j] − [L_i, L_j]) e_k for brackets c (k, n, n, n),
    or one (n, n, n) all share, and Levi-Civita tensors lc[m, i, k, :] =
    L_{e_i} e_k (k, n, n, n)."""
    m, n = lc.shape[:2]
    # K[i,j,k,:] = Σ_m c[i,j,m] lc[m,k,:] + (lc[i] @ lc[j] − lc[j] @ lc[i])[k,:],
    # each term one matmul over reshaped stacks
    curv = (c.reshape(-1, n * n, n) @ lc.reshape(m, n, n * n)).reshape(m, n, n, n, n)
    products = lc.reshape(m, n * n, n) @ lc.transpose(0, 2, 1, 3).reshape(m, n, n * n)
    products = products.reshape(m, n, n, n, n).transpose(0, 1, 3, 2, 4)  # [i,j] = lc[i] @ lc[j]
    curv += products
    curv -= products.transpose(0, 2, 1, 3, 4)
    return curv


def _flatness_defects(c: np.ndarray, lc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(sup-norm of each curvature tensor, its roundoff scale max(1, max|lc|)²,
    squared by the C library's pow, as Python squares a number)."""
    scale = np.float_power(_peaks(np.abs(lc), 1.0), 2)
    curv = _curvature_tensors(c, lc)
    return _peaks(np.abs(curv, out=curv)), scale


@dataclass(eq=False)
class _CurvatureFacts:
    """The curvature facts of the metrics with brackets c (k, n, n, n), or one
    bracket all share, in their frames (ε, A, B): read-only stacks, one member
    per metric, from three passes through the stacked kernel, each run on the
    first read of one of its facts and kept, so a caller pays only for the
    passes it reads.  _frame_pass: μ = A·c and, from its Levi-Civita tensor,
    η·ric, the Ricci form moved back by Aᵀ·X·A and the tensor moved back by B;
    _route_pass: the Ricci operators moved back by B·X·A (the 𝒥-route on a
    nilpotent algebra, else η·ric) and per member whether they pass the
    cross-check against η·ric; _flatness_pass: the flatness numbers.  Only
    ricci() raises on a route mismatch, so every other fact stays readable;
    MetricLieAlgebra.einstein_classify reads the passes directly, the scalar
    curvature as the trace of η·ric."""

    c: np.ndarray
    frame: tuple
    nilpotent: bool

    @functools.cached_property
    def _frame_pass(self) -> Tuple[np.ndarray, ...]:
        """(μ, η·ric, ricci_form, levi_civita)."""
        eps, a, b = self.frame
        mu = act_on_brackets(a, b, self.c)
        lc = levi_civita_tensors(mu, eps)
        ric = ricci_forms(lc)
        form = _symmetrized(a.swapaxes(-1, -2) @ ric @ a)
        facts = mu, _raise_index(eps, ric), form, act_on_brackets(b, a, lc)
        for fact in facts:
            fact.flags.writeable = False
        return facts

    @functools.cached_property
    def _route_pass(self) -> Tuple[np.ndarray, np.ndarray]:
        """(ricci_unchecked, routes_agree)."""
        eps, a, b = self.frame
        mu, eta_ric = self._frame_pass[:2]
        if self.nilpotent:
            q = ricci_operators(mu, eps, True)
            agree = _check_routes(q, eta_ric)
        else:  # η·ric is the operator itself
            q, agree = eta_ric, np.ones(len(eps), dtype=bool)
        ric = b @ q @ a
        ric.flags.writeable = False
        return ric, agree

    @functools.cached_property
    def _flatness_pass(self) -> Tuple[np.ndarray, np.ndarray]:
        return _flatness_defects(self.c, self._frame_pass[3])

    def brackets(self) -> np.ndarray:
        return self._frame_pass[0]

    def routes_agree(self) -> np.ndarray:
        return self._route_pass[1]

    def ricci_unchecked(self) -> np.ndarray:
        return self._route_pass[0]

    def ricci(self) -> np.ndarray:
        ric, agree = self._route_pass
        if not agree.all():
            raise RuntimeError(ROUTE_MISMATCH)
        return ric

    def ricci_form(self) -> np.ndarray:
        return self._frame_pass[2]

    def levi_civita(self) -> np.ndarray:
        return self._frame_pass[3]

    def flatness(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._flatness_pass

    def verdicts(self, tol: float) -> Tuple[list, list, list, list]:
        return _verdicts(self._route_pass[0], *self._flatness_pass, tol)


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, made once per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _einstein_deviations(ric: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(λ̂, Ric − λ̂·Id) for each Ricci operator of a stack (k, n, n), with
    λ̂ = tr(Ric)/n: the verdict's Einstein test and the search's Einstein
    target both read it."""
    n = ric.shape[1]
    lam = ric.trace(axis1=1, axis2=2) / n
    return lam, ric - lam[:, None, None] * _identity(n)


def _einstein_defects(ric: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(λ, max|Ric − λ·Id|, cutoff) for each Ricci operator of a stack (k, n, n),
    with λ = tr(Ric)/n and cutoff _cutoff(tol, Ric): the verdict's Einstein
    test passes when the residual is within the cutoff."""
    lam, deviation = _einstein_deviations(ric)
    return lam, _peaks(np.abs(deviation)), _cutoff(tol, ric, stack=True)


def _verdicts(
    ric: np.ndarray, defect: np.ndarray, scale: np.ndarray, tol: float
) -> Tuple[list, list, list, list]:
    """The verdict rule on a stack: from the Ricci operators (k, n, n) and the
    flatness defects and scales (k,) in the input basis, the lists (verdicts,
    λ, residuals, flat), one entry per member.  NotEinstein when the Einstein
    test fails; else Flat when the curvature is within _cutoff(tol, scale),
    RicciFlat when |λ| is within the Einstein cutoff, and Einstein otherwise."""
    lam, residual, cut = _einstein_defects(ric, tol)
    lam, residual, cut = lam.tolist(), residual.tolist(), cut.tolist()
    flat = (defect <= _cutoff(tol, scale, stack=True)).tolist()
    verdicts = []
    for l_m, r, c_m, f in zip(lam, residual, cut, flat):
        verdicts.append(
            Verdict.NOT_EINSTEIN if r > c_m
            else Verdict.FLAT if f
            else Verdict.RICCI_FLAT if abs(l_m) <= c_m
            else Verdict.EINSTEIN
        )
    return verdicts, lam, residual, flat


@dataclass(frozen=True, eq=False)
class MetricLieAlgebra:
    """A Lie algebra together with a nondegenerate ⟨,⟩, whose signature,
    pseudo-orthonormal frame G = AᵀηA and nilpotency (which picks the Ricci
    route) are decided once, at the algebra's ``tol``.

    Building one only takes the frame.  Its curvature facts (not the S_i) are
    those of the _CurvatureFacts of its stack of one, _facts, a cached
    property made on first read: each is computed at the bracket μ = A·c of
    the frame and mapped back to the input basis once (an operator X by
    B·X·A, a form by Aᵀ·X·A, the Levi-Civita tensor by B = A⁻¹).  Its memo
    keeps the Ricci operator and form as one read-only array each, so
    instances are safe to share, and the report of ``einstein_classify``
    once per tol.
    """

    algebra: LieAlgebra
    gram: Gram

    def __init__(self, algebra: LieAlgebra, gram: Gram) -> None:
        gram = gram if isinstance(gram, Gram) else Gram(gram)
        if len(gram.mat) != algebra.n:
            raise InvalidInput("gram size does not match algebra dimension")
        frame, degenerate = _frames(gram.mat[None], algebra.tol)  # ε, A, B: a stack of one
        if degenerate[0]:
            raise DegenerateGram(DEGENERATE_GRAM)
        minus = int(np.count_nonzero(frame[0] < 0))  # ε is minus-first
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_signature", Signature(minus, algebra.n - minus, 0))
        object.__setattr__(self, "_frame", frame)
        object.__setattr__(self, "_memo", {})  # the kept Ricci arrays, reports by tol

    @property
    def n(self) -> int:
        return self.algebra.n

    def signature(self) -> Signature:
        return self._signature

    @functools.cached_property
    def _facts(self) -> _CurvatureFacts:
        """The _CurvatureFacts of the stack of one, made on first read and kept."""
        return _CurvatureFacts(self.algebra.c, self._frame, self.algebra.is_nilpotent())

    # -- curvature --------------------------------------------------------

    def curvature_tensor(self) -> np.ndarray:
        """K[i,j,k,:] = K(e_i,e_j)e_k = (L_[e_i,e_j] − [L_i, L_j]) e_k."""
        return _curvature_tensors(self.algebra.c, self._facts.levi_civita())[0]

    def flatness_defect(self) -> Tuple[float, float]:
        """(sup-norm of the curvature tensor, its roundoff scale)."""
        defect, scale = self._facts.flatness()
        return float(defect[0]), float(scale[0])

    # -- Ricci, three routes ----------------------------------------------

    def ricci_via_definition(self) -> np.ndarray:
        """ric(e_i,e_j) = −tr(R_i R_j) + tr(R_{e_i·e_j}); symmetric matrix."""
        return self._memo.setdefault("ricci_via_definition", self._facts.ricci_form()[0])

    def j1_j2(self) -> Tuple[np.ndarray, np.ndarray]:
        """The self-adjoint operators 𝒥₁ and 𝒥₂ built from the S_i."""
        eps, a, b = self._frame
        j1, j2 = j1_j2_operators(structure_endo_tensors(self._facts.brackets(), eps), eps)
        return (b @ j1 @ a)[0], (b @ j2 @ a)[0]

    def ricci_nilpotent(self) -> np.ndarray:
        """Ricci operator −½𝒥₁ + ¼𝒥₂, cross-checked (ricci_operator); only
        valid on nilpotent algebras."""
        if not self.algebra.is_nilpotent():
            raise NotNilpotent("the 𝒥-form of the Ricci operator needs a nilpotent algebra")
        return self.ricci_operator()

    def ricci_general(self) -> np.ndarray:
        """Ricci form from the adjoint/J/mean-vector expression; any algebra."""
        eps, a, _ = self._frame
        form = ricci_general_forms(self._facts.brackets(), eps)
        return _symmetrized(a.swapaxes(-1, -2) @ form @ a)[0]

    # -- trace identity ---------------------------------------------------

    def trace_q_times(self, e) -> Tuple[np.ndarray, np.ndarray]:
        """Both sides of the trace identity (see trace_q_sides) for a matrix or a
        stack E[..., :, :], each of shape E.shape[:-2] (numpy scalars for one)."""
        e = _as_float_array(e, "E", square=self.n)
        eps, a, b = self._frame
        lhs, rhs = trace_q_sides(self._facts.brackets(), eps, (a[0] @ e @ b[0])[None])  # E in the frame
        return lhs[0], rhs[0]

    # -- verdicts ---------------------------------------------------------

    def ricci_operator(self) -> np.ndarray:
        """Ric = G^{-1}·ric: the 𝒥-route when nilpotent, cross-checked in the frame
        against the definitional route (ROUTE_MISMATCH), else the definitional."""
        return self._memo.setdefault("ricci_operator", self._facts.ricci()[0])

    def einstein_classify(self, tol: float = VERDICT_TOL) -> CurvatureReport:
        """Classify as Flat / RicciFlat / Einstein(λ≠0) / NotEinstein.

        The residual and λ are measured against _cutoff(tol, Ric), that is
        tol·max(1, ‖Ric‖∞); flatness against the squared Levi-Civita magnitude.
        The report, whose arrays are the metric's read-only Ricci facts, is
        computed once per tol, in one pass over the facts: a call at an equal
        tol returns the same object.  A call that raises (a bad tol, the Ricci
        cross-check) keeps nothing and raises again.
        """
        _cutoff(tol)  # validates tol before it keys the memo (an unhashable one included)
        key = ("einstein_classify", tol)
        if key not in self._memo:
            facts = self._facts
            (ric, agree), (_, eta_ric, form, _) = facts._route_pass, facts._frame_pass
            if not agree.all():
                raise RuntimeError(ROUTE_MISMATCH)
            (verdict,), (lam,), (residual,), (flat,) = _verdicts(ric, *facts._flatness_pass, tol)
            self._memo[key] = CurvatureReport(
                verdict=verdict,
                ricci_operator=self._memo.setdefault("ricci_operator", ric[0]),
                ricci_form=self._memo.setdefault("ricci_via_definition", form[0]),
                scalar_curvature=float(eta_ric.trace(axis1=1, axis2=2)[0]),
                einstein_lambda=None if verdict is Verdict.NOT_EINSTEIN else lam,
                einstein_residual=residual,
                flat=flat,
                signature=self._signature,
            )
        return self._memo[key]
