import numpy as np
import pytest

from mlie import curvature, doubleext, pseudolin
from mlie.catalog import make_algebra, make_metric
from mlie.curvature import MetricLieAlgebra
from mlie.doubleext import ExtensionData, kd_generate
from mlie.errors import DEGENERATE_GRAM, DegenerateGram, InvalidInput, SingularK0
from mlie.liealg import LieAlgebra
from mlie.pseudolin import (
    DEFAULT_TOL,
    Gram,
    Signature,
    Subspace,
    SubspaceClass,
    SubspaceTag,
    classify_subspace,
    find_isotropic_in,
    nullspace,
    numerical_rank,
    orthonormal_basis,
    restricted_gram,
    signature,
)


def minkowski(n):
    """diag(-1, 1, ..., 1) on n dimensions."""
    return Gram.from_diagonal([-1.0] + [1.0] * (n - 1))


def test_gram_symmetrized_bit_exact():
    g = Gram(np.array([[1.0, 0.3], [0.7, 2.0]]))
    assert np.array_equal(g.mat, g.mat.T)
    assert g.mat[0, 1] == 0.5


def test_gram_factories():
    assert np.array_equal(Gram(np.eye(3)).mat, np.eye(3))
    mink = minkowski(4)
    assert mink.mat[0, 0] == -1.0
    assert np.array_equal(mink.mat, np.diag([-1.0, 1.0, 1.0, 1.0]))
    u = np.array([1.0, 0.0])
    assert u @ Gram.from_diagonal([2.0, -3.0]).mat @ u == 2.0


def test_gram_rejects_nonsquare():
    with pytest.raises(InvalidInput):
        Gram(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "name, build",
    [
        ("gram matrix", lambda: Gram(np.eye(2) * (1 + 1j))),
        ("gram matrix", lambda: Gram(np.eye(2, dtype=bool))),
        ("structure constants", lambda: LieAlgebra(make_algebra("L3_2").c * (1 + 1j))),
        ("E", lambda: make_metric("EX8").trace_q_times(1j * np.eye(8))),
        ("subspace basis", lambda: Subspace([[True, False]], DEFAULT_TOL)),
    ],
    ids=["complex-gram", "bool-gram", "complex-tensor", "complex-E", "bool-basis"],
)
def test_complex_and_bool_entries_are_refused_not_cast(name, build):
    # a cast would drop an imaginary part, or read a bool as 1.0/0.0
    with pytest.raises(InvalidInput, match=f"^{name} must have real entries, got dtype"):
        build()


_RAGGED_TENSOR = [[[0.0, 1.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Gram([[1, 2], [3]]),
        lambda: Gram("x"),
        lambda: Gram([["1", "0"], ["0", "1"]]),
        lambda: LieAlgebra(_RAGGED_TENSOR),
        lambda: LieAlgebra("c"),
        lambda: Subspace([[1.0, 0.0], [0.0]], DEFAULT_TOL),
        lambda: MetricLieAlgebra(make_algebra("L3_2"), [[1.0, 0.0, 0.0], [0.0, 1.0]]),
        lambda: ExtensionData([[0.0, 1.0], [-1.0]], np.zeros((2, 2))),
        lambda: ExtensionData(np.zeros((2, 2)), "D"),
        lambda: ExtensionData(np.zeros((2, 2)), np.zeros((2, 2)), mu=np.array([1.0, 2.0])),
        lambda: ExtensionData(np.zeros((2, 2)), np.zeros((2, 2)), mu="a"),
        lambda: ExtensionData(np.zeros((2, 2)), np.zeros((2, 2)), mu=True),
        lambda: ExtensionData(np.zeros((2, 2)), np.zeros((2, 2)), b=[0.0, "b"]),
        lambda: Gram([[None, 1], [1, 0]]),
        lambda: Gram(np.array([[None, 1], [1, 0]])),
        lambda: Gram(np.array([["1", 0], [0, 1]], dtype=object)),
        lambda: Gram.from_diagonal([True, False, True]),
        lambda: Gram.from_diagonal(["1", "2"]),
        lambda: Gram.from_diagonal([1j, 1, 1]),
        lambda: Gram.from_diagonal([None, 1.0]),
    ],
    ids=[
        "ragged-gram",
        "text-gram",
        "numeric-text-gram",
        "ragged-tensor",
        "text-tensor",
        "ragged-basis",
        "ragged-metric-gram",
        "ragged-K",
        "text-D",
        "array-mu",
        "text-mu",
        "bool-mu",
        "text-b",
        "none-gram",
        "none-object-gram",
        "numeric-text-object-gram",
        "bool-diagonal",
        "numeric-text-diagonal",
        "complex-diagonal",
        "none-diagonal",
    ],
)
def test_arrays_that_are_not_numbers_are_refused(build):
    # a ragged nesting, text or None is refused as input, not let out as a
    # numpy error; a numeric string is not cast, and None is not read as NaN
    with pytest.raises(InvalidInput) as err:
        build()
    assert "non-finite" not in str(err.value)


def test_signature_minkowski():
    assert signature(minkowski(4)) == Signature(minus=1, plus=3, null=0)


def test_signature_with_null_direction():
    g = Gram.from_diagonal([1.0, 0.0, -2.0])
    assert signature(g) == Signature(minus=1, plus=1, null=1)


def test_signature_boundary_counts_null():
    # eigenvalues straddling the tolerance cut: exactly-at-cut goes to null
    g = Gram.from_diagonal([1.0, 1e-12])
    assert signature(g) == Signature(minus=0, plus=1, null=1)

    # the cutoff is tol * max(1, largest) = 1e-9 here; at the exact tie every
    # rank, degeneracy and inertia decision says degenerate, just above it none does
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    no_d1, no_d2, no_s = np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 2))
    tie = Gram.from_diagonal([1.0, 1e-9])
    assert signature(tie).null != 0
    assert signature(tie) == Signature(minus=0, plus=1, null=1)
    assert signature(Gram.from_diagonal([-1.0, -1e-9])) == Signature(minus=1, plus=0, null=1)
    assert numerical_rank(tie.mat, DEFAULT_TOL) == 1
    assert nullspace(tie.mat, DEFAULT_TOL).shape == (1, 2)
    assert Subspace.column_span(tie.mat, DEFAULT_TOL).basis.shape == (1, 2)
    v = find_isotropic_in(tie, Subspace.full(2, DEFAULT_TOL))
    assert np.array_equal(np.abs(v), [0.0, 1.0])
    with pytest.raises(InvalidInput):
        orthonormal_basis(tie, DEFAULT_TOL)
    with pytest.raises(SingularK0):
        kd_generate(no_d1, no_d2, 1e-9 * rot, no_s, DEFAULT_TOL)

    above = Gram.from_diagonal([1.0, 1.0000001e-9])
    assert signature(above).null == 0
    assert signature(above) == Signature(minus=0, plus=2, null=0)
    assert signature(Gram.from_diagonal([-1.0, -1.0000001e-9])) == Signature(2, 0, 0)
    assert numerical_rank(above.mat, DEFAULT_TOL) == 2
    assert nullspace(above.mat, DEFAULT_TOL).shape == (0, 2)
    assert Subspace.column_span(above.mat, DEFAULT_TOL).basis.shape == (2, 2)
    assert find_isotropic_in(above, Subspace.full(2, DEFAULT_TOL)) is None
    _, eps = orthonormal_basis(above, DEFAULT_TOL)
    assert np.array_equal(eps, [1.0, 1.0])
    assert kd_generate(
        no_d1, no_d2, 1.0000001e-9 * rot, no_s, DEFAULT_TOL
    ).v_dim == 2

    # the trace test of find_nonzero_trace_derivation: on R the derivation
    # basis is (1), of trace 1, whose cutoff is tol * max(1, 1) = tol
    line = LieAlgebra.abelian(1)
    assert LieAlgebra(line.c, 1.0).find_nonzero_trace_derivation() is None
    assert LieAlgebra(line.c, 0.9999999).find_nonzero_trace_derivation() is not None


def test_numerical_rank_and_nullspace():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert numerical_rank(m, DEFAULT_TOL) == 1
    ns = nullspace(m, DEFAULT_TOL)
    assert ns.shape == (1, 2)
    assert np.allclose(m @ ns[0], 0.0)
    # the kernel is taken from the SVD factor it needs (the full vt only for a
    # wide matrix): it spans the kernel a full-matrices SVD gives, with
    # orthonormal rows, on a wide, a tall, a (0, n) and an (n, 0) matrix
    rng = np.random.default_rng(3)
    wide = rng.normal(size=(2, 5))
    tall = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 3))  # rank 2
    for a in (wide, tall, np.zeros((0, 4)), np.zeros((4, 0))):
        ns = nullspace(a, DEFAULT_TOL)
        _, s, vt = np.linalg.svd(a, full_matrices=True)
        want = vt[numerical_rank(a, DEFAULT_TOL):]
        assert ns.shape == want.shape
        assert np.allclose(ns @ ns.T, np.eye(len(ns)))
        assert np.allclose(ns.T @ ns, want.T @ want)  # the same orthogonal projector
    assert np.array_equal(nullspace(np.zeros((0, 4)), DEFAULT_TOL), np.eye(4))
    # a matrix with no columns spans {0} of its row count's space
    assert Subspace.column_span(np.zeros((3, 0)), DEFAULT_TOL).basis.shape == (0, 3)
    assert Subspace.column_span(np.zeros((0, 3)), DEFAULT_TOL).basis.shape == (0, 0)
    # an array that is not a matrix is refused by every rank helper
    for bad in (np.zeros((2, 3, 4)), np.zeros(3), 1.0):
        for helper in (numerical_rank, nullspace, Subspace.column_span, Subspace.kernel):
            with pytest.raises(InvalidInput, match="2-D"):
                helper(bad, DEFAULT_TOL)


def test_subspace_validation():
    with pytest.raises(InvalidInput):
        Subspace(np.array([[1.0, 0.0], [2.0, 0.0]]), DEFAULT_TOL)  # dependent rows
    s = Subspace(np.array([[1.0, 0.0, 0.0]]), DEFAULT_TOL)
    assert s.dim == 1
    assert s.contains([2.0, 0.0, 0.0])
    assert not s.contains([0.0, 1.0, 0.0])
    # a vector of another space is refused, not handed to numpy's lstsq
    for space in (s, make_algebra("L3_2").center(), Subspace.full(3, DEFAULT_TOL)):
        with pytest.raises(InvalidInput, match="vector must have length 3, got 2"):
            space.contains([1.0, 0.0])
    for bad in (0.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(InvalidInput, match="positive finite"):
            Subspace(np.zeros((0, 3)), bad)
    # the zero subspace contains by the sup-norm residual rule of every
    # subspace, as a line does: (9e-10,)*3 has 2-norm 1.6e-9 > 1e-9
    zero = Subspace.kernel(np.eye(3), DEFAULT_TOL)
    assert zero.dim == 0
    assert zero.contains([9e-10] * 3)
    assert s.contains([0.0, 9e-10, 9e-10])
    assert not zero.contains([2e-9, 0.0, 0.0])
    assert Subspace.full(0, DEFAULT_TOL).contains(np.zeros(0))


def test_classify_trichotomy():
    g = minkowski(3)
    spacelike = Subspace(np.array([[0.0, 1.0, 0.0]]), DEFAULT_TOL)
    assert classify_subspace(g, spacelike).tag is SubspaceTag.EUCLIDEAN
    timelike_plane = Subspace(np.eye(3)[:2], DEFAULT_TOL)
    assert classify_subspace(g, timelike_plane).tag is SubspaceTag.LORENTZIAN
    lightlike = Subspace(np.array([[1.0, 1.0, 0.0]]), DEFAULT_TOL)
    cls = classify_subspace(g, lightlike)
    assert cls.tag is SubspaceTag.DEGENERATE
    assert cls.null_dim == 1


def test_classify_rejects_higher_index():
    g = Gram.from_diagonal([-1.0, -1.0, 1.0])
    f = Subspace(np.eye(3)[:2], DEFAULT_TOL)
    with pytest.raises(InvalidInput):
        classify_subspace(g, f)


def test_a_subspace_is_classified_at_the_tol_it_was_decided_at():
    # the center of L3_2 is the e3 axis; g's 1e-8 there is null at 1e-6, not at 1e-9
    center = LieAlgebra(make_algebra("L3_2").c, 1e-6).center()
    assert center.tol == 1e-6
    g = Gram.from_diagonal([-1.0, 1.0, 1e-8])
    assert classify_subspace(g, center) == SubspaceClass(SubspaceTag.DEGENERATE, null_dim=1)
    v = find_isotropic_in(g, center)
    assert v is not None
    assert np.array_equal(np.abs(v), [0.0, 0.0, 1.0])


def test_restricted_gram():
    g = minkowski(3)
    f = Subspace(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), DEFAULT_TOL)
    r = restricted_gram(g, f)
    assert r.mat == pytest.approx(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_stacked_restricted_grams_are_restricted_gram_bit_for_bit():
    # _restricted_grams and _subspace_classes on a stack of grams are
    # restricted_gram and classify_subspace member for member
    rng = np.random.default_rng(9)
    for n in range(1, 7):
        a = np.eye(n) + 0.3 * rng.normal(size=(6, n, n))
        eta = np.where(np.arange(n) == 0, -1.0, 1.0)
        mats = np.array([Gram(x.T @ np.diag(eta) @ x).mat for x in a])
        mats[::3, :, -1] = mats[::3, -1, :] = 0.0  # a null direction in every third gram
        for d in range(n + 1):
            f = Subspace._orthonormal(np.linalg.qr(rng.normal(size=(n, n)))[0][:d], 1e-9)
            stacked = pseudolin._restricted_grams(mats, f.basis)
            classes = pseudolin._subspace_classes(mats, f)
            for r, mat in enumerate(mats):
                assert restricted_gram(Gram(mat), f).mat.tobytes() == stacked[r].tobytes()
                assert classify_subspace(Gram(mat), f) == classes[r]


#: every path to a form restricted to a subspace: the public calls and the stacked layer
_RESTRICTIONS = {
    "restricted_gram": restricted_gram,
    "classify_subspace": classify_subspace,
    "find_isotropic_in": find_isotropic_in,
    "_subspace_classes": lambda g, f: pseudolin._subspace_classes(g.mat[None], f),
}


@pytest.mark.parametrize("rows", [np.eye(3)[:2], np.zeros((0, 3))], ids=["plane", "zero"])
@pytest.mark.parametrize("path", list(_RESTRICTIONS))
def test_a_subspace_of_another_ambient_dimension_is_refused(path, rows):
    # a subspace of R³ under a 4 x 4 gram, refused by the one stacked
    # restriction every path reads, before any class or vector is decided
    f = Subspace(rows, DEFAULT_TOL)
    with pytest.raises(InvalidInput, match="^subspace ambient dimension does not match gram size$"):
        _RESTRICTIONS[path](minkowski(4), f)


def test_orthogonal_complement():
    g = minkowski(3)
    f = Subspace(np.array([[1.0, 1.0, 0.0]]), DEFAULT_TOL)
    comp = Subspace(nullspace(f.basis @ g.mat, DEFAULT_TOL), DEFAULT_TOL)  # ⟨f, u⟩ = 0
    assert comp.dim == 2
    # the isotropic line lies in its own complement
    assert comp.contains([1.0, 1.0, 0.0])


def test_find_isotropic_none_in_definite():
    g = minkowski(3)
    f = Subspace(np.eye(3)[1:], DEFAULT_TOL)
    assert find_isotropic_in(g, f) is None


def test_find_isotropic_in_degenerate_and_lorentzian():
    g = minkowski(3)
    lightlike = Subspace(np.array([[1.0, 1.0, 0.0]]), DEFAULT_TOL)
    v = find_isotropic_in(g, lightlike)
    assert v is not None
    assert v @ g.mat @ v == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0)

    plane = Subspace(np.eye(3)[:2], DEFAULT_TOL)
    w = find_isotropic_in(g, plane)
    assert w is not None
    assert w @ g.mat @ w == pytest.approx(0.0, abs=1e-12)
    assert plane.contains(w)


def test_find_isotropic_random_lorentzian_planes():
    rng = np.random.default_rng(5)
    g = minkowski(4)
    for _ in range(25):
        while True:
            rows = rng.normal(size=(2, 4))
            f = Subspace(rows, 1e-6) if numerical_rank(rows, DEFAULT_TOL) == 2 else None
            if f is not None and classify_subspace(g, f).tag is SubspaceTag.LORENTZIAN:
                break
        v = find_isotropic_in(g, f)
        assert v is not None
        assert abs(v @ g.mat @ v) < 1e-10
        # v lies in f to 1e-8, tighter than f's own 1e-6 (v is a unit vector)
        coeffs, *_ = np.linalg.lstsq(f.basis.T, v, rcond=None)
        assert np.abs(f.basis.T @ coeffs - v).max() <= 1e-8


@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_isotropic_vectors_are_find_isotropic_in_bit_for_bit(n):
    # one gram and a stack of subspaces of each dimension d, Lorentzian,
    # definite and degenerate restrictions among them: each member's vector
    # (or None) is find_isotropic_in's on its own subspace, bit for bit
    rng = np.random.default_rng([67, n])
    g = minkowski(n)
    lightlike = np.zeros(n)
    lightlike[:2] = np.sqrt(0.5)  # a null line: some restrictions through it are degenerate
    for d in range(n + 1):
        stack = []
        for _ in range(6):
            rows = rng.normal(size=(n, n))
            if d and len(stack) % 3 == 0:
                rows[0] = lightlike
            stack.append(np.linalg.qr(rows.T)[0].T[:d])
        rows = np.array(stack).reshape(6, d, n)
        got = pseudolin._isotropic_vectors(g.mat, rows, DEFAULT_TOL)
        assert len(got) == 6
        for z, v in zip(rows, got):
            want = find_isotropic_in(g, Subspace._orthonormal(z, DEFAULT_TOL))
            assert (v is None and want is None) or v.tobytes() == want.tobytes()
        if d == 0:
            assert got == [None] * 6


def _band_grams(rng, count, lorentzian):
    """count grams Q·diag(λ)·Qᵀ of 2 to 5 dimensions, λ positive but for one
    negative entry when lorentzian, with one eigenvalue placed within 2e-6 of
    the cutoff tol·max(1, |λ|_max) in relative terms, where two eigensolves
    of one gram can fall on either side of it."""
    for _ in range(count):
        n = int(rng.integers(2, 6))
        lam = rng.uniform(0.5, 2.0, size=n - 1)
        if lorentzian:
            lam[0] = -lam[0]
        cut = DEFAULT_TOL * max(1.0, np.abs(lam).max())
        lam = np.append(lam, cut * (1.0 + 2e-6 * rng.uniform(-1.0, 1.0)))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        yield Gram(q @ np.diag(lam) @ q.T)


def test_every_inertia_decision_agrees_at_the_cutoff():
    # signature, the metric build, classify_subspace and find_isotropic_in
    # read one eigendecomposition, so they agree on every gram of the band
    for g in _band_grams(np.random.default_rng(5), 1000, lorentzian=True):
        try:
            MetricLieAlgebra(LieAlgebra(np.zeros((g.n,) * 3), DEFAULT_TOL), g)
            degenerate = False
        except DegenerateGram:
            degenerate = True
        assert (signature(g, DEFAULT_TOL).null > 0) == degenerate
    for g in _band_grams(np.random.default_rng(9), 1000, lorentzian=False):
        full = Subspace.full(g.n, DEFAULT_TOL)
        definite = classify_subspace(g, full).tag is not SubspaceTag.DEGENERATE
        assert definite == (find_isotropic_in(g, full) is None)


def test_orthonormal_basis_minkowski():
    g = minkowski(3)
    b, eps = orthonormal_basis(g, DEFAULT_TOL)
    prod = b.T @ g.mat @ b
    assert prod == pytest.approx(np.diag(eps), abs=1e-12)
    assert sorted(eps) == [-1.0, 1.0, 1.0]


def test_orthonormal_basis_random_nondegenerate():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        eta = rng.choice([-1.0, 1.0], size=n)
        g = Gram(a.T @ np.diag(eta) @ a)
        b, eps = orthonormal_basis(g, DEFAULT_TOL)
        assert b.T @ g.mat @ b == pytest.approx(np.diag(eps), abs=1e-9)


def test_orthonormal_basis_rejects_degenerate():
    with pytest.raises(InvalidInput):
        orthonormal_basis(Gram.from_diagonal([1.0, 0.0]), DEFAULT_TOL)


@pytest.mark.parametrize(
    "build",
    [lambda g: orthonormal_basis(g, DEFAULT_TOL), lambda g: MetricLieAlgebra(LieAlgebra.abelian(2), g)],
    ids=["orthonormal_basis", "MetricLieAlgebra"],
)
def test_both_frame_paths_refuse_a_degenerate_gram_with_one_message(build):
    # make_metric callers and perfbench's raises gate self-test read this text
    with pytest.raises(DegenerateGram) as err:
        build(Gram.from_diagonal([1.0, 0.0]))
    assert str(err.value) == DEGENERATE_GRAM == "metric gram matrix is degenerate at tolerance"


def _empty_facts():
    """The curvature facts of no metric of L4_3, in the frames of no gram."""
    c = make_algebra("L4_3").c
    frame, _ = curvature._frames(np.zeros((0, 4, 4)), DEFAULT_TOL)
    facts = curvature._CurvatureFacts(c, frame, True)
    return (
        facts.brackets(),
        facts.routes_agree(),
        facts.ricci(),
        facts.ricci_form(),
        facts.levi_civita(),
        *facts.flatness(),
    )


#: each stacked layer on a stack of no member, its results as a tuple
_EMPTY_STACKS = {
    "_cutoff": lambda: (pseudolin._cutoff(1e-9, np.zeros((0, 3)), stack=True),),
    "_cutoff of two stacks": lambda: (
        pseudolin._cutoff(1e-9, np.zeros((0, 3)), np.zeros((0, 2, 2)), stack=True),
    ),
    "_ranks": lambda: (pseudolin._ranks(np.zeros((0, 3)), 1e-9),),
    "_orthonormal_bases": lambda: pseudolin._orthonormal_bases(np.zeros((0, 3, 3)), 1e-9),
    "_signatures": lambda: pseudolin._signatures(np.zeros((0, 3, 3)), 1e-9),
    "_check_routes": lambda: (curvature._check_routes(np.zeros((0, 3, 3)), np.zeros((0, 3, 3))),),
    "_einstein_defects": lambda: curvature._einstein_defects(np.zeros((0, 3, 3)), 1e-8),
    "_flatness_defects": lambda: curvature._flatness_defects(
        np.zeros((0, 3, 3, 3)), np.zeros((0, 3, 3, 3))
    ),
    "_verdicts": lambda: curvature._verdicts(np.zeros((0, 3, 3)), np.zeros(0), np.zeros(0), 1e-8),
    "_CurvatureFacts": _empty_facts,
    "_lie_tests": lambda: doubleext._lie_tests(
        np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), np.zeros(0), 1e-9
    ),
    "_admissibilities": lambda: doubleext._admissibilities(
        np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), np.zeros(0), 1e-9
    ),
}


@pytest.mark.parametrize("layer", list(_EMPTY_STACKS))
def test_a_stacked_layer_takes_an_empty_stack(layer):
    # k = 0 members give k = 0 results, not a reshape error
    assert all(len(x) == 0 for x in _EMPTY_STACKS[layer]())
