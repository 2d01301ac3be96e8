"""Every ``isoclifford verify`` check as its own test case.

The suites in :mod:`isoclifford.suites` are the one home of the invariants
they check; this module runs them once and reports each record under its
check name, so a failing invariant fails by name.
"""

import pytest

from isoclifford.suites import run_suite

CHECKS, _ = run_suite("all")


@pytest.mark.parametrize("check", CHECKS, ids=[c.name for c in CHECKS])
def test_check(check):
    assert check.passed, f"residual {check.residual:.3e} > tolerance {check.tolerance:.1e}"
