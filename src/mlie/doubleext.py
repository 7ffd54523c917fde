"""Double extensions of Euclidean abelian algebras and their inverses.

The model algebra for data (K, D, μ, b) on a Euclidean V = R^v is
g = Re ⊕ V ⊕ Rē, basis ordered (e, f_1..f_v, ē), with

    [ē, e] = μ e,   [ē, u] = D(u) + ⟨b, u⟩₀ e,   [u, v] = ⟨K(u), v⟩₀ e

for u, v ∈ V, and the Lorentzian gram: ⟨,⟩₀ the identity on V, e and ē
isotropic with ⟨e, ē⟩ = 1, both orthogonal to V.

Facts used throughout (K skew, D arbitrary, D* = Dᵀ on Euclidean V):

* Jacobi holds iff K∘D + D*∘K = μK.
* The extension is nilpotent iff additionally μ = 0 and D is nilpotent.
* It is Einstein iff additionally 4μ tr(D) = tr(K²) + 2tr(D²) + 2tr(DDᵀ),
  in which case it is Ricci-flat.
* Re ⊕ V ⊆ ker ric always, and
  ric(ē, ē) = −½tr(D²) − ½tr(DDᵀ) − ¼tr(K²) + μ tr(D).
* Killing form: Re ⊕ V ⊆ ker B and B(ē, ē) = μ² + tr(D²).
* Every Einstein nilpotent non-abelian Lorentzian algebra with an isotropic
  central vector is Ricci-flat and arises this way with μ = 0, D nilpotent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .curvature import MetricLieAlgebra, Verdict
from .errors import (
    ConstraintViolation,
    InvalidInput,
    NotApplicable,
    NotLie,
    SingularK0,
)
from .liealg import LieAlgebra
from .pseudolin import (
    DEFAULT_TOL,
    Gram,
    _as_float_array,
    find_isotropic_in,
    signature,
)


@dataclass(frozen=True, eq=False)
class ExtensionData:
    """(K, D, μ, b) on a Euclidean core of dimension v_dim.

    K is stored with its strict lower triangle set to the exact negation of
    the upper one, so skewness holds bitwise.
    """

    v_dim: int
    K: np.ndarray = field()
    D: np.ndarray = field()
    mu: float = 0.0
    b: np.ndarray = field(default=None)

    def __init__(self, v_dim: int, K, D, mu: float = 0.0, b=None) -> None:
        v = int(v_dim)
        k = _as_float_array(K, "K")
        d = _as_float_array(D, "D")
        if k.shape != (v, v) or d.shape != (v, v):
            raise InvalidInput(f"K and D must have shape {(v, v)}")
        if not np.isfinite(mu):
            raise InvalidInput("mu must be finite")
        bb = np.zeros(v) if b is None else _as_float_array(b, "b")
        if bb.shape != (v,):
            raise InvalidInput(f"b must have shape ({v},)")
        skew = np.triu(k, k=1)
        k = skew - skew.T
        d = d.copy()
        bb = bb.copy()
        for arr in (k, d, bb):
            arr.flags.writeable = False
        object.__setattr__(self, "v_dim", v)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "D", d)
        object.__setattr__(self, "mu", float(mu))
        object.__setattr__(self, "b", bb)


class Admissibility(NamedTuple):
    is_lie: bool
    is_nilpotent: bool
    is_einstein: bool
    lie_residual: float
    trace_residual: float


def check_admissible(data: ExtensionData, tol: float = DEFAULT_TOL) -> Admissibility:
    """Evaluate the bracket, nilpotency and trace conditions for the data."""
    k, d, mu = data.K, data.D, data.mu
    kd = k @ d
    dk = d.T @ k
    lie_residual = float(np.abs(kd + dk - mu * k).max(initial=0.0))
    lie_scale = max(
        1.0,
        float(np.abs(kd).max(initial=0.0)),
        float(np.abs(dk).max(initial=0.0)),
        abs(mu) * float(np.abs(k).max(initial=0.0)),
    )
    is_lie = lie_residual <= tol * lie_scale

    v = data.v_dim
    d_power = np.linalg.matrix_power(d, v) if v > 0 else np.zeros((0, 0))
    d_scale = max(1.0, float(np.abs(d).max(initial=0.0)) ** max(v, 1))
    is_nilp = (
        is_lie
        and abs(mu) <= tol
        and float(np.abs(d_power).max(initial=0.0)) <= tol * d_scale
    )

    tr_k2 = float(np.trace(k @ k))
    tr_d2 = float(np.trace(d @ d))
    tr_ddt = float(np.trace(d @ d.T))
    trace_residual = abs(4.0 * mu * np.trace(d) - tr_k2 - 2.0 * tr_d2 - 2.0 * tr_ddt)
    tr_scale = max(1.0, abs(tr_k2), 2.0 * abs(tr_d2), 2.0 * tr_ddt, 4.0 * abs(mu * np.trace(d)))
    is_einstein = is_lie and trace_residual <= tol * tr_scale

    return Admissibility(is_lie, is_nilp, is_einstein, lie_residual, trace_residual)


def extend(data: ExtensionData, tol: float = DEFAULT_TOL) -> MetricLieAlgebra:
    """Build the model metric algebra on basis (e, f_1..f_v, ē).

    Raises NotLie when the data fails the bracket condition, since the result
    would not satisfy Jacobi.
    """
    adm = check_admissible(data, tol)
    if not adm.is_lie:
        raise NotLie(f"K∘D + Dᵀ∘K = μK fails with residual {adm.lie_residual:.3e}")
    v = data.v_dim
    n = v + 2
    c = np.zeros((n, n, n))
    # [ē, e] = μ e; ē is the last basis vector, e the first, so store the
    # i<j pair (e, ē) with the opposite sign.
    c[0, n - 1, 0] = -data.mu
    # [ē, f_j] = D f_j + ⟨b, f_j⟩ e, stored on the pair (f_j, ē)
    for j in range(v):
        c[1 + j, n - 1, 1 : 1 + v] = -data.D[:, j]
        c[1 + j, n - 1, 0] = -data.b[j]
    # [f_i, f_j] = ⟨K f_i, f_j⟩ e = K[j,i] e
    for i in range(v):
        for j in range(i + 1, v):
            c[1 + i, 1 + j, 0] = data.K[j, i]
    algebra = LieAlgebra(n, c)

    g = np.zeros((n, n))
    g[0, n - 1] = g[n - 1, 0] = 1.0
    g[1 : 1 + v, 1 : 1 + v] = np.eye(v)
    return MetricLieAlgebra(algebra, Gram(g))


def ricci_ebar(data: ExtensionData) -> float:
    """ric(ē, ē) of the extension; all other slots vanish."""
    k, d, mu = data.K, data.D, data.mu
    return float(
        -0.5 * np.trace(d @ d)
        - 0.5 * np.trace(d @ d.T)
        - 0.25 * np.trace(k @ k)
        + mu * np.trace(d)
    )


def killing_ebar(data: ExtensionData) -> float:
    """B(ē, ē) of the extension; the rest of the Killing form vanishes."""
    return float(data.mu**2 + np.trace(data.D @ data.D))


class Decomposition(NamedTuple):
    data: ExtensionData
    basis_change: np.ndarray  # columns are (e, f_1.., ē) in input coordinates


def decompose(
    m: MetricLieAlgebra, tol: float = DEFAULT_TOL, verdict_tol: Optional[float] = None
) -> Optional[Decomposition]:
    """Express a Ricci-flat nilpotent Lorentzian algebra as a double extension.

    Requires the input to be nilpotent, Lorentzian and at least Ricci-flat
    (NotApplicable otherwise).  Returns None when the center is definite, the
    one case with no isotropic central vector.  Otherwise returns extension
    data with μ = 0 together with the basis change, whose columns give
    (e, f_1..f_v, ē) in the input coordinates.
    """
    n = m.n
    sig = signature(m.gram, tol)
    if (sig.minus, sig.null) != (1, 0):
        raise NotApplicable(f"metric is not Lorentzian: signature {tuple(sig)}")
    if not m.algebra.is_nilpotent(tol):
        raise NotApplicable("algebra is not nilpotent")
    report = m.einstein_classify() if verdict_tol is None else m.einstein_classify(verdict_tol)
    if report.verdict not in (Verdict.RICCI_FLAT, Verdict.FLAT):
        raise NotApplicable(f"metric is not Ricci-flat: verdict {report.verdict.value}")

    center = m.algebra.center(tol)
    e = find_isotropic_in(m.gram, center, tol)
    if e is None:
        return None

    g = m.gram.mat
    w = g @ e
    x0 = w / float(w @ w)  # ⟨e, x0⟩ = 1
    ebar = x0 - 0.5 * float(x0 @ g @ x0) * e  # isotropy correction

    # V = {e, ē}-perp is Euclidean; orthonormalize it against the metric.
    span = np.vstack([e, ebar])
    _, _, vt = np.linalg.svd(span @ g)
    raw = vt[2:]
    r = raw @ g @ raw.T
    chol = np.linalg.cholesky(r)
    f = np.linalg.solve(chol, raw)  # rows f_i with ⟨f_i, f_j⟩ = δ_ij

    brk = f @ m.algebra.ad(ebar).T @ g  # row i: ⟨[ē, f_i], ·⟩
    pair = m.algebra.c @ (g @ ebar)  # pair[a,b] = ⟨[e_a, e_b], ē⟩
    kmat = f @ pair.T @ f.T  # K[j,i] = ⟨[f_i, f_j], ē⟩
    dmat = f @ brk.T  # D[j,i] = ⟨[ē, f_i], f_j⟩
    data = ExtensionData(n - 2, kmat, dmat, mu=0.0, b=brk @ ebar)
    basis_change = np.column_stack([e, *f, ebar])
    return Decomposition(data, basis_change)


def model_residual(
    m: MetricLieAlgebra, dec: Decomposition, tol: float = DEFAULT_TOL
) -> float:
    """Largest entrywise mismatch between m pulled through the basis change
    and the model extension of dec.data; small for a correct decomposition."""
    model = extend(dec.data, tol)
    p = dec.basis_change
    c_out = m.algebra.c @ np.linalg.inv(p).T  # c_new[a,b,:] = P⁻¹[Pe_a, Pe_b]
    c_new = p.T @ (p.T @ c_out.reshape(len(p), -1)).reshape(c_out.shape)
    g_new = p.T @ m.gram.mat @ p
    db = float(np.abs(c_new - model.algebra.c).max(initial=0.0))
    dg = float(np.abs(g_new - model.gram.mat).max(initial=0.0))
    return max(db, dg)


def kd_generate(
    f_dim: int, fperp_dim: int, D1, D2, K0, S, tol: float = DEFAULT_TOL
) -> ExtensionData:
    """Solutions of K∘D + Dᵀ∘K = 0 in block form.

    With F = ker K of dimension f_dim and F-perp of dimension fperp_dim, all
    solutions have K = 0 ⊕ K0 with K0 skew invertible, and
    D = [[D1, D2], [0, K0⁻¹S]] with S symmetric.
    """
    f_dim = int(f_dim)
    fperp_dim = int(fperp_dim)
    d1 = _as_float_array(D1, "D1")
    d2 = _as_float_array(D2, "D2")
    k0 = _as_float_array(K0, "K0")
    s = _as_float_array(S, "S")
    if d1.shape != (f_dim, f_dim) or d2.shape != (f_dim, fperp_dim):
        raise InvalidInput("D1 must be f x f and D2 must be f x fperp")
    if k0.shape != (fperp_dim, fperp_dim) or s.shape != (fperp_dim, fperp_dim):
        raise InvalidInput("K0 and S must be fperp x fperp")
    scale_k0 = max(1.0, float(np.abs(k0).max(initial=0.0)))
    if float(np.abs(k0 + k0.T).max(initial=0.0)) > tol * scale_k0:
        raise InvalidInput("K0 must be skew-symmetric")
    scale_s = max(1.0, float(np.abs(s).max(initial=0.0)))
    if float(np.abs(s - s.T).max(initial=0.0)) > tol * scale_s:
        raise InvalidInput("S must be symmetric")
    if fperp_dim > 0:
        sv = np.linalg.svd(k0, compute_uv=False)
        if sv[-1] <= tol * max(1.0, sv[0]):
            raise SingularK0("K0 is singular at tolerance")
        d3 = np.linalg.solve(k0, s)
    else:
        d3 = np.zeros((0, 0))

    v = f_dim + fperp_dim
    k = np.zeros((v, v))
    k[f_dim:, f_dim:] = k0
    d = np.zeros((v, v))
    d[:f_dim, :f_dim] = d1
    d[:f_dim, f_dim:] = d2
    d[f_dim:, f_dim:] = d3
    return ExtensionData(v, k, d, mu=0.0)


def guediri_2step(
    p: int, q: int, alpha, c, a, abelian_dim: int = 0, tol: float = DEFAULT_TOL
) -> MetricLieAlgebra:
    """Two-step nilpotent Ricci-flat Lorentzian algebras, basis
    (e, z_1..z_p, ē, e_1..e_q) plus an orthogonal Euclidean abelian block.

    Brackets: [ē, e_i] = α_i e + Σ_k c_ik z_k and [e_i, e_j] = a_ij e, with
    the skew matrix a subject to Σ_{i,j} a_ij² = 2 Σ_{i,k} c_ik²; e, ē are
    isotropic with ⟨e, ē⟩ = 1 and everything else is orthonormal.
    """
    p = int(p)
    q = int(q)
    abelian_dim = int(abelian_dim)
    if min(p, q, abelian_dim) < 0:
        raise InvalidInput("dimensions must be nonnegative")
    alpha = _as_float_array(alpha, "alpha").reshape(q)
    cmat = _as_float_array(c, "c").reshape(q, p)
    amat = _as_float_array(a, "a").reshape(q, q)
    scale_a = max(1.0, float(np.abs(amat).max(initial=0.0)))
    if float(np.abs(amat + amat.T).max(initial=0.0)) > tol * scale_a:
        raise InvalidInput("a must be skew-symmetric")
    lhs = float(np.sum(amat**2))
    rhs = 2.0 * float(np.sum(cmat**2))
    if abs(lhs - rhs) > tol * max(1.0, lhs, rhs):
        raise ConstraintViolation(
            f"Σ a_ij² = 2 Σ c_ik² fails: {lhs:.6g} vs {rhs:.6g}"
        )

    n = 2 + p + q + abelian_dim
    i_e = 0
    i_z = 1  # z block starts here
    i_ebar = 1 + p
    i_ei = 2 + p  # e_i block starts here
    tensor = np.zeros((n, n, n))

    def put(i, j, vec):
        if i < j:
            tensor[i, j, :] += vec
        else:
            tensor[j, i, :] -= vec

    for i in range(q):
        vec = np.zeros(n)
        vec[i_e] = alpha[i]
        vec[i_z : i_z + p] = cmat[i]
        put(i_ebar, i_ei + i, vec)
        for j in range(i + 1, q):
            vec = np.zeros(n)
            vec[i_e] = amat[i, j]
            put(i_ei + i, i_ei + j, vec)
    algebra = LieAlgebra(n, tensor)

    g = np.eye(n)
    g[i_e, i_e] = g[i_ebar, i_ebar] = 0.0
    g[i_e, i_ebar] = g[i_ebar, i_e] = 1.0
    return MetricLieAlgebra(algebra, Gram(g))


def random_admissible(
    rng: np.random.Generator,
    f_dim: int = 2,
    blocks: int = 1,
    nilpotent: bool = True,
) -> ExtensionData:
    """Random data passing check_admissible, for fuzzing.

    The F-perp part is a direct sum of 2x2 rotation-like blocks, paired with
    a strictly triangular block on D so that D is nilpotent when requested;
    K is then rescaled so the trace condition holds exactly (with μ = 0 the
    condition reads tr(K²) + 2tr(D²) + 2tr(DDᵀ) = 0).  With nilpotent=False
    a μ(D − μ/2·Id)-style shift produces lie-admissible data with μ ≠ 0.
    """
    fperp = 2 * blocks
    d1 = np.triu(rng.normal(size=(f_dim, f_dim)), k=1)
    d2 = rng.normal(size=(f_dim, fperp))
    k0 = np.zeros((fperp, fperp))
    d3 = np.zeros((fperp, fperp))
    for bl in range(blocks):
        i = 2 * bl
        k0[i, i + 1] = -1.0
        k0[i + 1, i] = 1.0
        d3[i, i + 1] = rng.normal()
    v = f_dim + fperp
    k = np.zeros((v, v))
    k[f_dim:, f_dim:] = k0
    d = np.zeros((v, v))
    d[:f_dim, :f_dim] = d1
    d[:f_dim, f_dim:] = d2
    d[f_dim:, f_dim:] = d3
    b = rng.normal(size=v)

    mu = 0.0
    if not nilpotent:
        mu = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        d = d + 0.5 * mu * np.eye(v)

    # rescale K so 4μ tr(D) = tr(K²) + 2 tr(D²) + 2 tr(DDᵀ) exactly
    target = 4.0 * mu * np.trace(d) - 2.0 * np.trace(d @ d) - 2.0 * np.trace(d @ d.T)
    tr_k2 = np.trace(k @ k)  # = -2·blocks here
    if tr_k2 != 0.0 and target / tr_k2 > 0:
        k = k * np.sqrt(target / tr_k2)
    elif target != 0.0:
        # cannot balance with this K; drop the trace condition by zeroing K
        k = np.zeros_like(k)
    return ExtensionData(v, k, d, mu=mu, b=b)
