"""Acceptance gate: every verification check must pass at its stated tolerance.

Each check in mlie.verify bundles one verifiable claim about the library
(curvature route equivalences, trace identities, the catalog's Ricci-flat
classification, the double-extension round trip, ...) together with its
frozen expected values and tolerances.  This file runs each check as its
own test so that ``pytest -v`` shows one pass/fail line per criterion,
and prints the check's summary row for the test log.
"""

import pytest

from mlie import curvature, verify
from mlie.catalog import ALGEBRA_NAMES
from mlie.curvature import VERDICT_TOL, MetricLieAlgebra
from mlie.errors import InvalidInput
from mlie.verify import CHECK_NAMES, check_trace_formula, format_row, run_checks


@pytest.mark.parametrize("name", CHECK_NAMES, ids=CHECK_NAMES)
def test_acceptance(name):
    (result,) = run_checks([name])
    print(format_row(result))
    assert result.name == name
    detail = "; ".join(result.failures[:5]) if result.failures else ""
    assert result.passed, (
        f"{result.name}: expected {result.expected}, observed {result.observed}"
        f" (residual {result.residual:.3e}){'; ' + detail if detail else ''}"
    )


def test_trace_formula_check_fails_on_a_perturbed_q(monkeypatch):
    # tr(QE) on the unit E = e_1 e_0ᵀ reads Q[0,1]; a 1e-6 error there must fail
    exact_q = curvature.q_operators

    def perturbed_q(s, g):
        q = exact_q(s, g).copy()
        q[:, 0, 1] += 1e-6
        return q

    monkeypatch.setattr(curvature, "q_operators", perturbed_q)
    result = check_trace_formula(VERDICT_TOL)
    assert not result.passed
    assert "unit E[1,0]" in result.failures[0]


def test_the_catalog_checks_make_one_stacked_kernel_call_per_algebra(monkeypatch):
    # route-equivalence, trace-j1-j2 and trace-formula each hand the kernel one
    # stack of 20 frames per catalog algebra and build no MetricLieAlgebra
    kernels = {
        "route-equivalence": "ricci_general_forms",
        "trace-j1-j2": "j1_j2_operators",
        "trace-formula": "trace_q_sides",
    }
    stacks = {name: [] for name in kernels.values()}
    builds = []

    def spy(name):
        kernel = getattr(verify, name)

        def recording(*args):
            stacks[name].append(args[1].shape[0])  # the signs ε follow μ, or the S_i
            return kernel(*args)

        return recording

    for name in kernels.values():
        monkeypatch.setattr(verify, name, spy(name))
    build = MetricLieAlgebra.__init__
    monkeypatch.setattr(
        MetricLieAlgebra, "__init__", lambda self, *args: builds.append(args) or build(self, *args)
    )
    results = run_checks(list(kernels))
    assert all(r.passed for r in results)
    assert builds == []
    assert stacks == {name: [20] * len(ALGEBRA_NAMES) for name in kernels.values()}


@pytest.mark.parametrize("names", [[], (), iter([])])
def test_run_checks_refuses_a_selection_of_no_check(names):
    with pytest.raises(InvalidInput, match="no check selected"):
        run_checks(names)


def test_run_checks_takes_every_verdict_at_its_tol(monkeypatch):
    # examples, double-extension (through decompose too) and guediri classify
    # at the tol run_checks is given, not at the default verdict tolerance
    seen = set()
    classify = MetricLieAlgebra.einstein_classify

    def spy(self, tol=VERDICT_TOL):
        seen.add(tol)
        return classify(self, tol)

    monkeypatch.setattr(MetricLieAlgebra, "einstein_classify", spy)
    results = run_checks(["examples", "double-extension", "guediri"], tol=1e-7)
    assert seen == {1e-7}
    assert all(r.passed for r in results)
