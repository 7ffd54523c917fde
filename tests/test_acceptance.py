"""Acceptance gate: every verification check must pass at its stated tolerance.

Each check in mlie.verify bundles one verifiable claim about the library
(curvature route equivalences, trace identities, the catalog's Ricci-flat
classification, the double-extension round trip, ...) together with its
frozen expected values and tolerances.  This file runs each check as its
own test so that ``pytest -v`` shows one pass/fail line per criterion,
and prints the check's summary row for the test log.
"""

import pytest

from mlie.curvature import VERDICT_TOL, MetricLieAlgebra
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
    exact_q = MetricLieAlgebra._q

    def perturbed_q(self):
        q = exact_q(self).copy()
        q[0, 1] += 1e-6
        return q

    monkeypatch.setattr(MetricLieAlgebra, "_q", perturbed_q)
    result = check_trace_formula(VERDICT_TOL)
    assert not result.passed
    assert "unit E[1,0]" in result.failures[0]


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
