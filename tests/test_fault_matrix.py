"""The fault matrix: which rows of the twelve checks catch a fault.

Each case applies one fault by monkeypatching the attribute the package
reads, runs every check at the default tol, and pins the set of rows that
fail.  A change to a check keeps every caught cell caught.
"""
import pytest

from mlie import curvature, doubleext, verify
from mlie.pseudolin import _symmetrized
from mlie.verify import CHECK_NAMES, run_checks


def _without_the_trace_term(ricci_forms):
    """ricci_forms without tr(R_{e_a·e_b}): −tr(R_a∘R_b) alone, symmetrized."""

    def faulty(lc):
        m, n = lc.shape[:2]
        r = lc.transpose(0, 2, 1, 3).reshape(m, n, n * n)
        r_t = lc.transpose(0, 2, 3, 1).reshape(m, n, n * n)
        return _symmetrized(-(r @ r_t.transpose(0, 2, 1)))

    return faulty


def _ebar_terms_with(fault):
    """_ebar_terms with fault applied in place to its terms (4μ tr D,
    −2 tr D², −2 tr DDᵀ, −tr K²)."""

    def patch(ebar_terms):
        def faulty(k, d, mu):
            terms = ebar_terms(k, d, mu)
            fault(terms)
            return terms

        return faulty

    return patch


def _flip_the_mu_term(terms):
    terms[0] *= -1.0


def _drop_the_ddt_term(terms):
    terms[2] = 0.0


def _k_scaled(models):
    return lambda k, *rest: models(1.01 * k, *rest)


def _d_scaled(witt_decompositions):
    def faulty(*args):
        (k, d, mu, b), p = witt_decompositions(*args)
        return (k, 1.01 * d, mu, b), p

    return faulty


#: (id, module, attribute, patch of the attribute, the rows that fail)
_CELLS = [
    ("ricci-forms-trace-term", curvature, "ricci_forms", _without_the_trace_term, {"double-extension"}),
    ("ebar-mu-sign", doubleext, "_ebar_terms", _ebar_terms_with(_flip_the_mu_term), {"double-extension"}),
    ("ebar-ddt", doubleext, "_ebar_terms", _ebar_terms_with(_drop_the_ddt_term), {"double-extension", "guediri"}),
    ("models-k", doubleext, "_models", _k_scaled, {"double-extension"}),
    ("witt-decompositions-d", verify, "_witt_decompositions", _d_scaled, {"double-extension"}),
]


@pytest.mark.parametrize("module, name, patch, rows", [pytest.param(*cell[1:], id=cell[0]) for cell in _CELLS])
def test_a_fault_fails_exactly_its_rows(monkeypatch, module, name, patch, rows):
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    results = run_checks()
    assert [r.name for r in results] == list(CHECK_NAMES)  # every row is made
    assert {r.name for r in results if not r.passed} == rows
