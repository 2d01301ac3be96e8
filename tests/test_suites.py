"""Every ``isoclifford verify`` check as its own test case, from one run.

The suites in :mod:`isoclifford.suites` are the one home of the invariants
they check.  This module runs ``python -m isoclifford verify --suite all
--format json`` once, at collection, and that run serves four checks: each
record of its report as a test case under its check name, so a failing
invariant fails by name; the exit code; the 60 s bound; and the report's
pin (:mod:`pins`).  The recorder's own rule, how one sample becomes a
residual and how samples fold into a check, is tested here directly.
"""

import json
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from isoclifford import multivector, suites
from isoclifford.multivector import Multivector, Signature
from isoclifford.suites import _Recorder
from pins import assert_pinned, verify_argv

_start = time.monotonic()
RUN = subprocess.run([sys.executable, "-m", "isoclifford", *verify_argv()],
                     capture_output=True, text=True)
ELAPSED = time.monotonic() - _start
try:
    CHECKS = json.loads(RUN.stdout)["checks"]
except ValueError:  # no report: test_verify_all_exits_zero shows stderr
    CHECKS = []


@pytest.mark.parametrize("check", CHECKS, ids=[c["name"] for c in CHECKS])
def test_check(check):
    assert check["pass"], f"residual {check['residual']:.3e} > tolerance {check['tolerance']:.1e}"


def test_verify_all_exits_zero():
    assert RUN.returncode == 0, RUN.stderr


def test_verify_all_runs_within_60_s():
    assert ELAPSED <= 60.0


def test_verify_all_report_matches_its_pin():
    assert_pinned("verify", "all", "json", RUN.stdout)


@pytest.mark.parametrize("suite", ["clifford", "isotopy", "octonion", "su3", "su6", "dirac"])
def test_no_kernel_call_of_a_suite_exceeds_the_batch_cap(monkeypatch, suite):
    """The batched checks and the structure-constant oracle hand the array
    kernel many products a call, and no call more than ``_BATCH_PAIRS``
    term pairs: a bound on its arrays' memory that does not depend on how
    many samples a check or generators a family has."""
    calls = []
    array_terms = multivector._blade_terms_numpy

    def counted(operands, pairs, sig):
        calls.append((len(pairs), sum(len(operands[i]) * len(operands[j]) for i, j in pairs)))
        return array_terms(operands, pairs, sig)

    monkeypatch.setattr(multivector, "_blade_terms_numpy", counted)
    suites._SUITE_FUNCS[suite](_Recorder(suite))
    assert max(products for products, _ in calls) > 1
    assert max(pairs for _, pairs in calls) <= multivector._BATCH_PAIRS


@pytest.mark.parametrize("suite, bound_mb", [("clifford", 5.7), ("su6", 4.1)])
def test_a_suite_peak_memory_stays_under_its_bound(suite, bound_mb):
    """The traced peak of an in-process suite, run once untraced first so
    the sign tables exist.  Each check holds its sample lists and its
    products only until their residuals are recorded.  Measured (Python
    3.11, numpy 2.4, x86-64), each bound leaving 10%:

    - clifford 5.16 MB, bound 5.7 MB.  A suite that also kept the first
      products ``a b`` and ``b c`` of its associativity check alive read
      5.93 MB.
    - su6 3.73 MB, bound 4.1 MB.  A suite whose iso-transport also kept
      the two lists of ``g_a ζ⁻¹ g_b`` products alive read 4.75 MB.
    """
    def run():
        suites._SUITE_FUNCS[suite](_Recorder(suite))

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"


SIG = Signature(1, 3)
A = Multivector(SIG, {0: 1.0, 3: -2.5})


@pytest.mark.parametrize("got,small,large", [
    (A, A - 0.5 * SIG.e(1), A + 2.0 * SIG.e(2)),
    (np.array([1.0, -2.5]), np.array([1.5, -2.5]), np.array([1.0, -0.5])),
    (1 - 2.5j, 1.5 - 2.5j, 1 - 0.5j),
], ids=["multivector", "array", "number"])
def test_the_recorder_keeps_the_largest_got_minus_want(got, small, large):
    rec = _Recorder("demo")
    rec.add("check", got, got, 1e-9)
    assert rec.checks == {"demo.check": (0.0, 1e-9)}
    rec.add("check", got, large, 1e-9)
    rec.add("check", got, small, 1e-9)
    assert rec.checks == {"demo.check": (2.0, 1e-9)}
    # a Multivector refuses the NaN itself; an array or a number measures it
    with pytest.raises(ValueError, match=r"^check demo\.check[ :]"):
        rec.add("check", got, math.nan, 1e-9)


def test_the_recorder_names_the_check_only_for_a_non_finite_error():
    class Refuses:
        def __sub__(self, other):
            raise ValueError("not a coefficient")

    with pytest.raises(ValueError, match="^not a coefficient$"):
        _Recorder("demo").add("check", Refuses(), 0.0, 1e-9)
