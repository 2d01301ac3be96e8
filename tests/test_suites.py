"""Every ``isoclifford verify`` check as its own test case, from one run.

The suites in :mod:`isoclifford.suites` are the one home of the invariants
they check.  This module runs ``python -m isoclifford verify --suite all
--format json`` once, at collection, and that run serves four checks: each
record of its report as a test case under its check name, so a failing
invariant fails by name; the exit code; the 60 s bound; and the SHA-256
pin in ``perfbench/reference.json``.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

REFERENCE = json.loads((Path(__file__).resolve().parent.parent
                        / "perfbench" / "reference.json").read_text())

_start = time.monotonic()
RUN = subprocess.run([sys.executable, "-m", "isoclifford", *REFERENCE["verify_argv"]],
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


def test_verify_all_report_matches_reference_digest():
    digest = hashlib.sha256(RUN.stdout.encode()).hexdigest()
    assert digest == REFERENCE["verify_stdout_sha256"]
