"""Acceptance criteria that the ``verify`` suites cannot express.

The invariants live in the suites and run one case per check in
``test_suites.py``, from one end-to-end ``verify --suite all`` run that
also checks its exit code, its 60 s bound and its SHA-256 pin.  A
criterion stays here only when it is stricter than its suite twin: more
contexts, more samples or a tighter bound.

Every criterion prints a single pass/fail line (run with ``pytest -s`` to
see them as they happen).  Residual-style criteria report the worst
residual observed against the pinned tolerance.
"""

import numpy as np

from isoclifford import lie_su
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
