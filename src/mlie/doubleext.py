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

The admissibility test, the model bracket, decompose's Witt reading, the
round trip of model_residual, ric(ē, ē) and the random draw are written once,
on stacks of data of one core dimension v given as arrays K, D (m, v, v),
μ (m,) and b (m, v): _admissibilities, _models, _witt_decompositions,
_model_residuals, _ricci_ebars and _random_admissibles.  The public functions
(check_admissible, extend, decompose, model_residual, ricci_ebar,
random_admissible) call them on the stack of one of their ExtensionData,
extend only the bracket condition (_lie_tests), and verify's double-extension
and guediri checks on a stack per core dimension; double-extension draws its
data as stacks, one draw per shape, and builds no ExtensionData.
guediri_2step is Guediri's data (_guediri_data) followed by extend.
_double_extension_reading reads the model back from an algebra, once per
algebra: a central z that can play e, and its α-space (_admissible_forms),
the 1-forms whose kernels can play e^⊥ = Re ⊕ V.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .curvature import _RICCI_FLAT, VERDICT_TOL, MetricLieAlgebra
from .errors import (
    ConstraintViolation,
    InvalidInput,
    NotApplicable,
    NotLie,
    SingularK0,
)
from .liealg import LieAlgebra, _antisymmetric, _computed_once, act_on_brackets
from .pseudolin import (
    DEFAULT_TOL,
    Gram,
    _as_float_array,
    _cutoff,
    _nonnegative,
    _nullspaces,
    _peaks,
    find_isotropic_in,
    nullspace,
    numerical_rank,
)


@dataclass(frozen=True, eq=False)
class ExtensionData:
    """(K, D, μ, b) on a Euclidean core R^v: K and D are (v, v), b is (v,)
    (zero by default), and v_dim = v is read from K.

    K is stored with its strict lower triangle set to the exact negation of
    the upper one, so skewness holds bitwise.
    """

    v_dim: int
    K: np.ndarray = field()
    D: np.ndarray = field()
    mu: float = 0.0
    b: np.ndarray = field(default=None)

    def __init__(self, K, D, mu: float = 0.0, b=None) -> None:
        k = _as_float_array(K, "K")
        d = _as_float_array(D, "D")
        v = k.shape[0] if k.ndim else 0
        if k.shape != (v, v) or d.shape != k.shape:
            raise InvalidInput(f"K must be square and D must have K's shape: {k.shape}, {d.shape}")
        mu = _as_float_array(mu, "mu", ndim=0)
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


def _stack_of_one(data: ExtensionData) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(K, D, μ, b) of one ExtensionData as stacks of one."""
    return data.K[None], data.D[None], np.array([data.mu]), data.b[None]


class Admissibility(NamedTuple):
    is_lie: bool
    is_nilpotent: bool
    is_einstein: bool
    lie_residual: float
    trace_residual: float


def _ebar_terms(k: np.ndarray, d: np.ndarray, mu) -> np.ndarray:
    """(4μ tr D, −2 tr D², −2 tr DDᵀ, −tr K²) on the first axis, for K and D
    (..., v, v) and μ (...), whose sum is 4·ric(ē, ē): an extension of Lie
    data is Einstein iff the sum vanishes."""
    terms = np.array([d, d @ d, d @ d.swapaxes(-1, -2), k @ k]).trace(axis1=-2, axis2=-1)
    terms[0] *= 4.0 * mu
    terms[1:3] *= -2.0
    terms[3] *= -1.0
    return terms


def _lie_tests(
    k: np.ndarray, d: np.ndarray, mu: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The bracket condition K∘D + Dᵀ∘K = μK on stacks K, D (m, v, v) and
    μ (m,): each member's residual and whether it is within the member's own
    cutoff, (m,) arrays: the condition under which the extension satisfies
    Jacobi."""
    kd, dk, muk = k @ d, d.swapaxes(-1, -2) @ k, mu[:, None, None] * k
    residual = _peaks(np.abs(kd + dk - muk))
    return residual, residual <= _cutoff(tol, kd, dk, muk, stack=True)


def _admissibilities(k: np.ndarray, d: np.ndarray, mu: np.ndarray, tol: float) -> Admissibility:
    """check_admissible on stacks K, D (m, v, v) and μ (m,): an Admissibility
    of (m,) arrays, each decision at the member's own cutoff.  The power Dᵛ
    is taken only when a member is Lie with μ within tol."""
    v = k.shape[-1]
    lie_residual, is_lie = _lie_tests(k, d, mu, tol)

    is_nilp = is_lie & (np.abs(mu) <= _cutoff(tol))
    if np.count_nonzero(is_nilp):
        # raised as Python's ** raises a number, by the C library's pow
        bound = _cutoff(tol, np.float_power(_peaks(np.abs(d)), max(v, 1))[:, None], stack=True)
        is_nilp &= _peaks(np.abs(np.linalg.matrix_power(d, v))) <= bound

    t0, t1, t2, t3 = terms = _ebar_terms(k, d, mu)
    trace_residual = np.abs(t0 + t1 + t2 + t3)  # summed in order, as sum() sums a tuple
    is_einstein = is_lie & (trace_residual <= _cutoff(tol, terms.T, stack=True))
    return Admissibility(is_lie, is_nilp, is_einstein, lie_residual, trace_residual)


def check_admissible(data: ExtensionData, tol: float) -> Admissibility:
    """Evaluate the bracket, nilpotency and trace conditions for the data."""
    k, d, mu, _ = _stack_of_one(data)
    return Admissibility(*[x.item() for x in _admissibilities(k, d, mu, tol)])


def _not_lie(residual: float) -> NotLie:
    """extend's refusal of data that fail the bracket condition."""
    return NotLie(f"K∘D + Dᵀ∘K = μK fails with residual {residual:.3e}")


def extend(data: ExtensionData, tol: float = DEFAULT_TOL) -> MetricLieAlgebra:
    """Build the model metric algebra on basis (e, f_1..f_v, ē), its bracket
    at tol.

    Raises NotLie when the data fails the bracket condition, since the result
    would not satisfy Jacobi.
    """
    k, d, mu, b = _stack_of_one(data)
    residual, is_lie = _lie_tests(k, d, mu, tol)  # check_admissible's is_lie
    if not is_lie[0]:
        raise _not_lie(residual[0])
    algebra = LieAlgebra(_models(k, d, mu, b)[0], tol)
    return MetricLieAlgebra(algebra, Gram(_witt_gram(data.v_dim + 2)))


@_computed_once
def _double_extension_reading(algebra: LieAlgebra) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(z, forms), read-only: z, the first row of Z ∩ [g,g], unit with its
    largest entry positive, and the orthonormal rows (k, n), k ≥ 0, of its
    α-space (_admissible_forms); None for an abelian or non-nilpotent algebra.
    Made once per algebra object.  A Lorentzian Ricci-flat metric with a null
    central line Re is a double extension (K, D, b) of an abelian Euclidean V,
    with [g,g] ⊂ Re ⊕ D(V): if e were outside [g,g], K = 0, Ricci-flatness
    ‖K‖² = 2‖D‖² would force D = 0, and then b = 0, so the algebra would be
    abelian.  So z can be that e, and an admissible H = ker α its e^⊥."""
    if not algebra.is_nilpotent():
        return None
    center, derived = algebra.center().basis, algebra.derived_ideal().basis
    if not len(derived):  # abelian
        return None
    # x = Dᵀy lies in Z when its part off Z, (I − ZᵀZ)·Dᵀy, vanishes
    off_center = derived.T - center.T @ (center @ derived.T)
    z = _on_its_line(nullspace(off_center, algebra.tol)[0] @ derived)
    forms = _admissible_forms(algebra, z)
    forms.flags.writeable = False
    return z, forms


def _on_its_line(v: np.ndarray) -> np.ndarray:
    """v/|v| with its largest entry positive, whatever the signs of the
    computation that gave v (+ 0.0 clears −0), read-only."""
    v = v / np.linalg.norm(v)
    v = v * np.sign(v[np.argmax(np.abs(v))]) + 0.0
    v.flags.writeable = False
    return v


def _admissible_forms(algebra: LieAlgebra, z: np.ndarray) -> np.ndarray:
    """An orthonormal basis (rows, (k, n)) of the α-space of a central z: the
    1-forms α with α(Z) = α([g,g]) = 0 and α ∧ (λ∘c) = 0 for every λ that
    kills z, every rank decided at algebra.tol on c/max|c|, so a scaled
    bracket has the same α-space.  A 2-form ω vanishes on
    ker α ≠ 0 iff α ∧ ω = 0, so every nonzero α in it has a kernel
    H ⊇ Z + [g,g] with [H,H] ⊆ Rz: the hyperplane e^⊥ = Re ⊕ V of a double
    extension whose null central vector e is z.  It is the nullspace of one
    stacked linear map: the rows of Z and [g,g], and (α∧ω)(a,b,c) =
    α(a)ω(b,c) + α(b)ω(c,a) + α(c)ω(a,b) for ω = λ∘c and λ running over a
    basis of z's annihilator, written as rows acting on α."""
    n = algebra.n
    omega = np.einsum("lk,ijk->lij", nullspace(z[None], algebra.tol), algebra._unit)
    term = np.einsum("ap,lbc->labcp", np.eye(n), omega)  # α(a)ω(b,c) as rows on α
    wedge = term + term.transpose(0, 2, 3, 1, 4) + term.transpose(0, 3, 1, 2, 4)
    rows = np.concatenate([wedge.reshape(-1, n), algebra.center().basis, algebra.derived_ideal().basis])
    return nullspace(rows, algebra.tol)


def _models(k: np.ndarray, d: np.ndarray, mu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The brackets of extend's model for stacks K, D (m, v, v), μ (m,) and
    b (m, v), a (m, n, n, n) stack written as LieAlgebra reads a bracket (its
    pairs i < j), so liealg._antisymmetric gives the bracket LieAlgebra keeps;
    K enters through its strict upper triangle, the one ExtensionData keeps.
    Unchecked: Jacobi holds only for the members that pass _lie_tests."""
    n = k.shape[-1] + 2
    c = np.zeros((len(k), n, n, n))
    k_t, minus_d_t, minus_b = _slots(c)
    # [ē, e] = μ e; ē is the last basis vector, e the first, so store the
    # i<j pair (e, ē) with the opposite sign.
    c[:, 0, n - 1, 0] = -mu
    # [f_i, f_j] = ⟨K f_i, f_j⟩ e = K[j,i] e, which is 0.0 − K[i,j] for i < j
    # as ExtensionData keeps K (so a zero enters as +0.0, not −0.0)
    k_t[:] = 0.0 - k
    minus_d_t[:] = -d.swapaxes(-1, -2)  # [ē, f_j] = D f_j + ⟨b, f_j⟩ e, on the pair (f_j, ē)
    minus_b[:] = -b
    return c


def _slots(c: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The views (Kᵀ, −Dᵀ, −b) of brackets c[..., :, :, :] on (e, f_1..f_v, ē)
    where the model keeps its data: ⟨[f_i, f_j], ē⟩, the f-part of [f_j, ē]
    and its e-part."""
    return c[..., 1:-1, 1:-1, 0], c[..., 1:-1, -1, 1:-1], c[..., 1:-1, -1, 0]


def _witt_gram(n: int) -> np.ndarray:
    """The model gram on (e, f_1..f_v, ē), its own inverse: e and ē isotropic
    with ⟨e, ē⟩ = 1, both orthogonal to the orthonormal f_i."""
    return np.eye(n)[[n - 1, *range(1, n - 1), 0]]


def ricci_ebar(data: ExtensionData) -> float:
    """ric(ē, ē) of the extension; all other slots vanish."""
    k, d, mu, _ = _stack_of_one(data)
    return float(_ricci_ebars(k, d, mu)[0])


def _ricci_ebars(k: np.ndarray, d: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """ricci_ebar on stacks K, D (m, v, v) and μ (m,): the (m,) ric(ē, ē)."""
    t0, t1, t2, t3 = _ebar_terms(k, d, mu)
    return 0.25 * (t0 + t1 + t2 + t3)


def killing_ebar(data: ExtensionData) -> float:
    """B(ē, ē) of the extension; the rest of the Killing form vanishes."""
    return float(data.mu**2 + np.trace(data.D @ data.D))


class Decomposition(NamedTuple):
    data: ExtensionData
    basis_change: np.ndarray  # columns are (e, f_1.., ē) in input coordinates


def decompose(m: MetricLieAlgebra, verdict_tol: float = VERDICT_TOL) -> Optional[Decomposition]:
    """Express a Ricci-flat nilpotent Lorentzian algebra as a double extension.

    Requires the input to be nilpotent, Lorentzian and at least Ricci-flat
    (NotApplicable otherwise); every rank and inertia decision is taken at
    m.algebra.tol, the verdict at verdict_tol.  Returns None when the center is
    definite, the one case with no isotropic central vector.  Otherwise
    returns extension data with μ = 0 together with the basis change, whose
    columns give (e, f_1..f_v, ē) in the input coordinates.
    """
    _cutoff(verdict_tol)  # refuses a bad verdict_tol before the other decisions
    sig = m.signature()
    if (sig.minus, sig.null) != (1, 0):
        raise NotApplicable(f"metric is not Lorentzian: signature {tuple(sig)}")
    if not m.algebra.is_nilpotent():
        raise NotApplicable("algebra is not nilpotent")
    report = m.einstein_classify(verdict_tol)
    if report.verdict not in _RICCI_FLAT:
        raise NotApplicable(f"metric is not Ricci-flat: verdict {report.verdict.value}")

    e = find_isotropic_in(m.gram, m.algebra.center())
    if e is None:
        return None
    (k, d, _, b), p = _witt_decompositions(m._facts.brackets(), m._frame, e[None], m.algebra.tol)
    return Decomposition(ExtensionData(k[0], d[0], b=b[0]), p[0])


def _witt_decompositions(mu: np.ndarray, frame, e: np.ndarray, tol: float):
    """decompose's reading of a stack of brackets μ (m, n, n, n), all in the
    one frame (ε, A, B) of their metric (stacks of one), with null central
    vectors e (m, n) in input coordinates: the stacks (K, D, μ = 0, b) read
    from the bracket in the Witt basis, of which K counts through its upper
    triangle, as ExtensionData and _models read it, and the basis changes
    (m, n, n), every rank decided at tol.

    The Witt basis W = [e, f, ē] of a frame, where G = η = diag(−1, 1, ..):
    e = (1, u) on the null line of A·e, ē = (−1, u)/2 and f_i = (0, v_i) with
    v_i orthonormal in u-perp.  Then Wᵀ·η·W = g₀ = g₀⁻¹, so W⁻¹ = g₀·Wᵀ·η."""
    eps, a, b = frame
    m, n = mu.shape[:2]
    u = np.zeros((m, n - 1))
    for r in range(m):
        a_e = a[0] @ e[r]
        u[r] = np.sign(a_e[0]) * a_e[1:] / np.linalg.norm(a_e[1:])
    w = np.zeros((m, n, n))
    w[:, 0, 0], w[:, 1:, 0] = 1.0, u
    w[:, 1:, 1:-1] = np.swapaxes(_nullspaces(u[:, None], tol), -1, -2)
    w[:, 0, -1], w[:, 1:, -1] = -0.5, 0.5 * u
    w_inv = _witt_gram(n) @ (w.transpose(0, 2, 1) * eps[:, None])
    k_t, minus_d_t, minus_b = _slots(act_on_brackets(w_inv, w, mu))
    data = (k_t.swapaxes(-1, -2), -minus_d_t.swapaxes(-1, -2), np.zeros(m), -minus_b)
    return data, b @ w


def model_residual(m: MetricLieAlgebra, dec: Decomposition) -> float:
    """Largest entrywise mismatch between m pulled through the basis change
    and the model extension of dec.data; small for a correct decomposition.
    A measurement only: dec.data is not checked for the bracket condition,
    but data whose model has another dimension than m, or a singular basis
    change, is refused (InvalidInput)."""
    p = _as_float_array(dec.basis_change, "basis change", ndim=2, square=m.n)
    v = dec.data.v_dim
    if v + 2 != m.n:
        raise InvalidInput(
            f"data of core dimension {v} extend to dimension {v + 2}, "
            f"the metric has dimension {m.n}"
        )
    try:
        return float(_model_residuals(m.algebra.c, m.gram.mat, p[None], _stack_of_one(dec.data))[0])
    except np.linalg.LinAlgError:
        raise InvalidInput("basis change is singular") from None


def _model_residuals(c: np.ndarray, g: np.ndarray, p: np.ndarray, data) -> np.ndarray:
    """model_residual for a stack of basis changes P (m, n, n) with their data,
    the stacks (K, D, μ, b) of _models, of the brackets c (m, n, n, n), or of
    one (n, n, n) that all share, and the gram g (n, n)."""
    c_new = act_on_brackets(np.linalg.inv(p), p, c)  # P⁻¹[Pe_a, Pe_b]
    g_new = p.transpose(0, 2, 1) @ g @ p
    db = _peaks(np.abs(c_new - _antisymmetric(_models(*data))))
    dg = _peaks(np.abs(g_new - _witt_gram(len(g))))
    return np.maximum(db, dg)


def _blocks(k0, d1, d2, d3) -> Tuple[np.ndarray, np.ndarray]:
    """K = 0 ⊕ K0 and D = [[D1, D2], [0, D3]] on V = F ⊕ F-perp, F of
    dimension f, read from D1 (..., f, f), and F-perp of dimension read from
    K0; the blocks may be stacks, with the same leading axes."""
    f_dim = d1.shape[-1]
    v = f_dim + k0.shape[-1]
    k = np.zeros(k0.shape[:-2] + (v, v))
    k[..., f_dim:, f_dim:] = k0
    d = np.zeros(k.shape)
    d[..., :f_dim, :f_dim] = d1
    d[..., :f_dim, f_dim:] = d2
    d[..., f_dim:, f_dim:] = d3
    return k, d


def kd_generate(D1, D2, K0, S, tol: float) -> ExtensionData:
    """Solutions of K∘D + Dᵀ∘K = 0 in block form.

    With F = ker K, of dimension f read from the f x f matrix D1, and F-perp,
    of dimension f' read from the f' x f' matrix K0, all solutions have
    K = 0 ⊕ K0 with K0 skew invertible, and D = [[D1, D2], [0, K0⁻¹S]] with
    D2 an f x f' matrix and S a symmetric f' x f' matrix.
    """
    d1 = _as_float_array(D1, "D1")
    d2 = _as_float_array(D2, "D2")
    k0 = _as_float_array(K0, "K0")
    s = _as_float_array(S, "S")
    f_dim = d1.shape[0] if d1.ndim else 0
    fperp_dim = k0.shape[0] if k0.ndim else 0
    if d1.shape != (f_dim, f_dim) or d2.shape != (f_dim, fperp_dim):
        raise InvalidInput("D1 must be f x f and D2 must be f x fperp")
    if k0.shape != (fperp_dim, fperp_dim) or s.shape != k0.shape:
        raise InvalidInput("K0 and S must be fperp x fperp")
    if float(np.abs(k0 + k0.T).max(initial=0.0)) > _cutoff(tol, k0):
        raise InvalidInput("K0 must be skew-symmetric")
    if float(np.abs(s - s.T).max(initial=0.0)) > _cutoff(tol, s):
        raise InvalidInput("S must be symmetric")
    if numerical_rank(k0, tol) < fperp_dim:
        raise SingularK0("K0 is singular at tolerance")
    return ExtensionData(*_blocks(k0, d1, d2, np.linalg.solve(k0, s)))


def guediri_2step(alpha, c, a, abelian_dim: int = 0, tol: float = DEFAULT_TOL) -> MetricLieAlgebra:
    """Two-step nilpotent Ricci-flat Lorentzian algebras, extended from
    V = (z_1..z_p, e_1..e_q, abelian block): basis (e, z, e_i, abelian, ē),
    with (q, p) read from the shape of c.

    Brackets: [ē, e_i] = α_i e + Σ_k c_ik z_k and [e_i, e_j] = a_ij e, with
    alpha of shape (q,), the skew (q, q) matrix a subject to
    Σ_{i,j} a_ij² = 2 Σ_{i,k} c_ik² (the trace condition of check_admissible);
    e, ē are isotropic with ⟨e, ē⟩ = 1 and everything else is orthonormal.
    """
    data = _guediri_data(alpha, c, a, abelian_dim, tol)
    if not check_admissible(data, tol).is_einstein:  # is_einstein implies is_lie
        raise _unbalanced(data.K, data.D)
    return extend(data, tol)


def _guediri_data(alpha, c, a, abelian_dim: int, tol: float) -> ExtensionData:
    """guediri_2step's data (K, D, b) on V = (z, e_i, abelian), its inputs
    validated (InvalidInput) and its constraint not yet tested."""
    alpha = _as_float_array(alpha, "alpha")
    cmat = _as_float_array(c, "c")
    amat = _as_float_array(a, "a")
    if cmat.ndim != 2:
        raise InvalidInput(f"c must be a (q, p) matrix, got shape {cmat.shape}")
    q, p = cmat.shape
    if alpha.shape != (q,) or amat.shape != (q, q):
        raise InvalidInput(f"alpha must have shape ({q},) and a shape ({q}, {q})")
    abelian_dim = _nonnegative(abelian_dim, "abelian_dim")
    if float(np.abs(amat + amat.T).max(initial=0.0)) > _cutoff(tol, amat):
        raise InvalidInput("a must be skew-symmetric")

    v = p + q + abelian_dim
    e_block = slice(p, p + q)
    k = np.zeros((v, v))
    k[e_block, e_block] = -amat  # ⟨K e_i, e_j⟩ = a_ij, read from a's upper triangle
    d = np.zeros((v, v))
    d[:p, e_block] = cmat.T  # D e_i = Σ_k c_ik z_k
    b = np.zeros(v)
    b[e_block] = alpha
    return ExtensionData(k, d, b=b)


def _unbalanced(k: np.ndarray, d: np.ndarray) -> ConstraintViolation:
    """guediri_2step's refusal of its data (K, D) when the trace condition
    fails: Σ a_ij² is Σ K² and Σ c_ik² is Σ D², the only blocks the data fill."""
    lhs, rhs = float(np.sum(k**2)), 2.0 * float(np.sum(d**2))
    return ConstraintViolation(f"Σ a_ij² = 2 Σ c_ik² fails: {lhs:.6g} vs {rhs:.6g}")


def random_admissible(
    rng: np.random.Generator,
    f_dim: int = 2,
    blocks: int = 1,
    nilpotent: bool = True,
) -> ExtensionData:
    """Random Lie data for fuzzing, on F ⊕ F-perp of dimension f_dim + 2·blocks.

    The F-perp part is a direct sum of 2x2 rotation-like blocks, paired with
    a strictly triangular block on D so that D is nilpotent when requested;
    K is then rescaled so the trace condition holds exactly (with μ = 0 the
    condition reads tr(K²) + 2tr(D²) + 2tr(DDᵀ) = 0).  A nilpotent draw with
    no block and f_dim >= 2 has no K to rescale, so it is refused
    (InvalidInput).  With nilpotent=False a shift D + μ/2·Id produces Lie data
    with μ ≠ 0, which meet the trace condition only when the shift allows a
    rescaled K, and otherwise keep K = 0 and fail it.  It is
    _random_admissibles on the stack of one.
    """
    k, d, mu, b = _random_admissibles(rng, 1, f_dim, blocks, nilpotent)
    return ExtensionData(k[0], d[0], mu=mu[0], b=b[0])


def _random_admissibles(
    rng: np.random.Generator, m: int, f_dim: int, blocks: int, nilpotent: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """m draws of random_admissible's data of one shape, as the stacks
    (K, D, μ, b) of _models: K and D (m, v, v), v = f_dim + 2·blocks, with K
    exactly skew, μ (m,) and b (m, v).  The rng is called in
    random_admissible's order, each call drawing for the whole stack, so a
    stack of one draws random_admissible's bits."""
    _nonnegative(f_dim, "f_dim")
    _nonnegative(blocks, "blocks")
    if nilpotent and blocks == 0 and f_dim >= 2:
        raise InvalidInput("a nilpotent draw with f_dim >= 2 needs blocks >= 1")
    fperp = 2 * blocks
    rows = np.arange(0, fperp, 2)  # block i of F-perp on its rows and columns i, i + 1
    cols = rows + 1
    k0 = np.zeros((m, fperp, fperp))
    k0[:, rows, cols] = -1.0
    k0[:, cols, rows] = 1.0
    d1 = np.triu(rng.normal(size=(m, f_dim, f_dim)), k=1)
    d2 = rng.normal(size=(m, f_dim, fperp))
    d3 = np.zeros((m, fperp, fperp))
    d3[:, rows, cols] = rng.normal(size=(m, blocks))
    k, d = _blocks(k0, d1, d2, d3)
    v = f_dim + fperp
    b = rng.normal(size=(m, v))

    mu = np.zeros(m)
    if not nilpotent:
        mu = rng.uniform(0.5, 1.5, size=m) * rng.choice([-1.0, 1.0], size=m)
        d = d + 0.5 * mu[:, None, None] * np.eye(v)

    # rescale K so 4μ tr(D) = tr(K²) + 2 tr(D²) + 2 tr(DDᵀ) exactly; a member
    # that cannot balance with this K drops the trace condition, K zeroed
    t0, t1, t2, neg_tr_k2 = _ebar_terms(k, d, mu)
    target = t0 + t1 + t2
    if blocks:  # tr(K²) = −2·blocks; with no block K is zero already
        ratio = target / -neg_tr_k2
        # K × √ratio where ratio > 0, else K kept where target = 0, else K zeroed
        k *= np.where(ratio > 0, np.sqrt(np.abs(ratio)), target == 0.0)[:, None, None]
        k += 0.0  # a zeroed −1 is −0.0; +0.0 is what np.zeros would give
    return k, d, mu, b
