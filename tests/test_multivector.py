"""Core blade arithmetic: products, involutions, grades, inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclifford.multivector import (
    Multivector,
    NonInvertibleError,
    Signature,
    SignatureMismatchError,
    conjugation,
    geometric_product,
    grade_involution,
    grade_project,
    inverse,
    left_contraction,
    random_multivector,
    random_vector,
    reversion,
    wedge,
)

S30 = Signature(3, 0)
S13 = Signature(1, 3)
S07 = Signature(0, 7)
SIGS = (S30, S13, S07)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 0)
    with pytest.raises(ValueError):
        Signature(7, 6)
    assert Signature(12, 0).blade_count == 4096


def test_idempotent_difference_vanishes():
    # (1 + e1)(1 - e1) = 1 - e1^2 = 0 when e1^2 = 1
    e1 = S30.e(0)
    assert ((1 + e1) * (1 - e1)).max_abs() == 0.0


def test_signature_mismatch_rejected():
    with pytest.raises(SignatureMismatchError):
        geometric_product(S30.e(0), S13.e(0))


def test_wedge_basics():
    e1, e2 = S30.e(0), S30.e(1)
    assert wedge(e1, e1).max_abs() == 0.0
    assert wedge(e1, e2) == S30.e(0, 1)
    assert wedge(e1, e1 * e2).max_abs() == 0.0


def test_wedge_half_sum_formula():
    # v ^ psi = (v psi + hat(psi) v) / 2 for any 1-vector v
    rng = np.random.default_rng(1)
    for sig in SIGS:
        for _ in range(25):
            v = random_vector(sig, rng)
            psi = random_multivector(sig, rng, 8)
            direct = wedge(v, psi)
            half = 0.5 * (v * psi + grade_involution(psi) * v)
            assert (direct - half).max_abs() < 1e-12


def test_left_contraction_examples():
    assert left_contraction(S30.e(0), S30.scalar(5.0)).max_abs() == 0.0
    got = left_contraction(S30.e(0), S30.e(0, 1))
    assert got == S30.e(1)
    got13 = left_contraction(S13.e(1), S13.e(1, 2))
    assert got13 == -1 * S13.e(2)


def test_contraction_half_difference_formula():
    rng = np.random.default_rng(2)
    for sig in SIGS:
        for _ in range(25):
            v = random_vector(sig, rng)
            psi = random_multivector(sig, rng, 8)
            direct = left_contraction(v, psi)
            half = 0.5 * (v * psi - grade_involution(psi) * v)
            assert (direct - half).max_abs() < 1e-12


def test_involutions():
    e12 = S30.e(0, 1)
    assert reversion(e12) == -1 * e12
    assert grade_involution(S30.e(0)) == -1 * S30.e(0)
    e123 = S30.e(0, 1, 2)
    assert conjugation(e123) == e123


@given(st.integers(0, 2), st.lists(st.floats(-4, 4), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_associativity_hypothesis(sig_index, comps):
    sig = SIGS[sig_index]
    n = sig.blade_count
    a = Multivector(sig, {(7 * k) % n: complex(c) for k, c in enumerate(comps)})
    b = Multivector(sig, {(5 * k + 1) % n: complex(c) for k, c in enumerate(comps)})
    c = Multivector(sig, {(3 * k + 2) % n: complex(c) for k, c in enumerate(comps)})
    assert ((a * b) * c - a * (b * c)).max_abs() < 1e-10


def test_grade_project():
    m = S30.scalar(1.0) + S30.e(0) + S30.e(0, 1)
    assert grade_project(m, 1) == S30.e(0)
    assert grade_project(S30.e(0, 1), 0).max_abs() == 0.0
    prod = (1 + S30.e(0)) * (1 + S30.e(1))
    assert grade_project(prod, 2) == S30.e(0, 1)
    recon = sum((grade_project(m, k) for k in range(4)), S30.scalar(0))
    assert (recon - m).max_abs() == 0.0
    with pytest.raises(ValueError):
        grade_project(m, 5)


def test_inverse_examples():
    # e1 in Cl(0,7) squares to -1
    assert inverse(S07.e(0)) == -1 * S07.e(0)
    assert inverse(S30.scalar(2.0)) == S30.scalar(0.5)
    s20 = Signature(2, 0)
    got = inverse(s20.scalar(1.0) + s20.e(0, 1))
    want = 0.5 * (s20.scalar(1.0) - s20.e(0, 1))
    assert (got - want).max_abs() < 1e-12


def test_inverse_rejects_singular():
    f = 0.5 * (S13.scalar(1.0) + S13.e(0))  # idempotent, not invertible
    with pytest.raises(NonInvertibleError):
        inverse(f)
    with pytest.raises(NonInvertibleError):
        inverse(S30.scalar(0.0))


def test_coefficients_pruned_and_finite():
    m = Multivector(S30, {0: 1e-16, 1: 2.0})
    assert 0 not in m.terms
    with pytest.raises(ValueError):
        Multivector(S30, {0: float("nan")})
    with pytest.raises(ValueError):
        Multivector(S30, {999: 1.0})


def test_immutability():
    m = S30.scalar(1.0)
    with pytest.raises(AttributeError):
        m.signature = S13
    with pytest.raises(TypeError):
        m.terms[0] = 2.0


@pytest.mark.parametrize("make_rng", [np.random.default_rng, np.random.RandomState],
                         ids=["Generator", "RandomState"])
@pytest.mark.parametrize("sig,n_terms,scale,grades", [
    (S13, 8, 1.0, None), (S13, 6, 0.4, None), (S07, 8, 1.0, (1, 2)),
    (S30, 20, 1.0, None), (S13, 0, 1.0, None),
], ids=["cl13_8", "cl13_scaled", "cl07_grades", "cl30_capped", "empty"])
def test_random_multivector_draws_the_per_term_stream(make_rng, sig, n_terms, scale, grades):
    """One batched normal draw gives the terms, and leaves the generator in
    the state, that one ``standard_normal(2)`` per term does."""
    rng, ref = make_rng(0xC1F0), make_rng(0xC1F0)
    got = random_multivector(sig, rng, n_terms, scale=scale, grades=grades)

    pool = [m for m in range(sig.blade_count) if grades is None or m.bit_count() in grades]
    terms = {}
    for k in ref.choice(len(pool), size=min(n_terms, len(pool)), replace=False):
        re, im = ref.standard_normal(2)
        terms[pool[int(k)]] = scale * complex(re, im)
    want = Multivector(sig, terms)

    assert list(got.terms.items()) == list(want.terms.items())
    assert rng.standard_normal(3).tolist() == ref.standard_normal(3).tolist()
