"""Acceptance criteria that the ``verify`` suites cannot express.

The invariants live in the suites and run one case per check in
``test_suites.py``, from one end-to-end ``verify --suite all`` run that
also checks its exit code, its 60 s bound and its SHA-256 pin.  A
criterion stays here when it is stricter than its suite twin (more
contexts or samples), pins a literal value no suite holds, or drives the
command line end to end.

Every criterion prints a single pass/fail line (run with ``pytest -s`` to
see them as they happen).  Residual-style criteria report the worst
residual observed against the pinned tolerance.
"""

import json
import subprocess
import sys

import numpy as np

from isoclifford import flavor, lie_su
from isoclifford.flavor_matrices import iso_mass_operator
from isoclifford.isotopy import (
    IsoContext,
    iso_commutator,
    lift,
    random_invertible_context,
)
from isoclifford.multivector import Signature, random_multivector

S13 = Signature(1, 3)


def _criterion(num: int, label: str, residual: float, tolerance: float) -> None:
    status = "PASS" if residual <= tolerance else "FAIL"
    print(f"[acceptance] criterion {num:02d} {label}: {status} "
          f"(residual {residual:.3e}, tolerance {tolerance:.1e})")
    assert residual <= tolerance, f"criterion {num}: {residual} > {tolerance}"


def test_criterion_03_case1_commutator_example():
    # The first two generators close on the third alone, with one
    # zeta-independent factor.  The oracle fixes that factor at 2i; the
    # bare factor i quoted alongside the construction omits its own
    # normalization scalar (delta^(-1/2) = 2), and the report flags this.
    rng = np.random.default_rng(0xC1F0)
    contexts = [IsoContext.identity(S13)]
    contexts += [random_invertible_context(S13, rng) for _ in range(20)]
    worst = 0.0
    for ctx in contexts:
        gs = lie_su.su3_case1_generators(ctx)
        comm = iso_commutator(ctx, gs.generators[0], gs.generators[1])
        worst = max(worst, (comm - 2j * gs.generators[2]).max_abs())
    # the naked factor i does not reproduce the commutator; keep that fact pinned
    rigid = lie_su.su3_case1_generators()
    plain = iso_commutator(rigid.context, rigid.generators[0], rigid.generators[1])
    assert (plain - 1j * rigid.generators[2]).max_abs() > 0.4
    _criterion(3, "case-1 commutator closes on third generator, factor 2i "
                  "(quoted bare factor i flagged as mismatch)", worst, 1e-9)


def test_criterion_04_lifted_commutator_transport():
    rng = np.random.default_rng(0xC1F0)
    worst = 0.0
    for sig in (Signature(3, 0), Signature(1, 3), Signature(0, 7)):
        ctx = random_invertible_context(sig, rng)
        for _ in range(100):
            a = random_multivector(sig, rng, 6)
            b = random_multivector(sig, rng, 6)
            lhs = iso_commutator(ctx, lift(ctx, a), lift(ctx, b))
            rhs = lift(ctx, a * b - b * a)
            worst = max(worst, (lhs - rhs).max_abs())
    _criterion(4, "lifted commutator identity in three algebras", worst, 1e-9)


def test_criterion_09_su3_flavor_numbers():
    masses = (2.25, 5.0, 90.0)
    zeta = flavor.equal_mass_params(masses, "su3")
    gm = 1012.5 ** (1.0 / 3.0)
    iso_m = iso_mass_operator(zeta, masses)
    _criterion(9, "iso mass matrix is (1012.5)^(1/3) I",
               float(np.abs(iso_m - gm * np.eye(3)).max()) / gm, 1e-9)


def test_criterion_11_interval_report():
    bounds = flavor.QuarkMassBounds.reference()
    # independent corner-evaluation oracle for the first su3 parameter
    lo_oracle = (1.5 ** 2 / (7.0 * 110.0)) ** (1 / 3)
    hi_oracle = (3.0 ** 2 / (3.0 * 70.0)) ** (1 / 3)
    iv3 = flavor.param_intervals(bounds, "su3")
    lo, hi = iv3["alpha"]["rigorous"]
    worst = max(abs(lo - lo_oracle), abs(hi - hi_oracle))
    _criterion(11, "rigorous su3 alpha interval vs corner oracle", worst, 1e-3)
    # the reference intervals are echoed with mismatch flags
    assert iv3["alpha"]["reference"] == [0.2204, 0.2638]
    assert iv3["beta"]["reference"] == [0.2768, 0.3057]
    assert not iv3["beta"]["matches_rigorous"]
    iv6 = flavor.param_intervals(bounds, "su6")
    assert set(iv6) == {"alpha", "beta", "omega", "kappa", "tau"}
    assert iv6["tau"]["reference"] == [486.938, 677.379]
    flagged = sum(1 for ent in iv6.values()
                  if "matches_joint" in ent and "matches_rigorous" in ent)
    _criterion(11, "reference intervals reported side-by-side with flags",
               0.0 if flagged == 5 else 1.0, 0.5)


def test_criterion_13_end_to_end_cli(tmp_path):
    # the end-to-end `verify --suite all` run (exit code, 60 s bound and
    # reference SHA-256) is made once, in test_suites.py
    masses = {fl: {"min": lo, "max": hi}
              for fl, (lo, hi) in flavor.REFERENCE_MASS_BOUNDS_MEV.items()}
    path = tmp_path / "masses.json"
    path.write_text(json.dumps(masses))
    proc = subprocess.run([sys.executable, "-m", "isoclifford", "flavor",
                           "--group", "su6", "--masses", str(path), "--intervals"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    once = json.dumps(report, indent=2, sort_keys=True)
    twice = json.dumps(json.loads(once), indent=2, sort_keys=True)
    roundtrips = (once == twice) and (once == proc.stdout.strip())
    _criterion(13, "flavor su6 interval report round-trips as JSON",
               0.0 if roundtrips else 1.0, 0.5)
