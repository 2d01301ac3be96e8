"""Core blade arithmetic: products, involutions, grades, inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bit_identity import bits
from isoclifford import lie_su, multivector, suites
from isoclifford.dirac import regular_representation
from isoclifford.isotopy import IsoContext
from isoclifford.multivector import (
    Multivector,
    NonInvertibleError,
    Signature,
    SignatureMismatchError,
    geometric_product,
    grade_involution,
    grade_select,
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
    # a count is an integer: no float, however integral, and no bool
    for p, q in ((1.5, 2), (2.0, 2), (True, 3), (1, False)):
        with pytest.raises(ValueError):
            Signature(p, q)
    assert Signature(12, 0).blade_count == 4096
    sig = Signature(np.int64(1), 3)
    assert sig == Signature(1, 3) and type(sig.p) is int


@pytest.mark.parametrize("index", [-1, 3, 12, True, False, 1.0, "0"])
def test_basis_vectors_reject_what_is_not_an_index_of_the_algebra(index):
    """``e`` and ``metric`` name the index they reject."""
    for call in (S30.e, S30.metric):
        with pytest.raises(ValueError, match=f"basis index {index!r}"):
            call(index)
    with pytest.raises(ValueError, match=f"basis index {index!r}"):
        S30.e(0, index)


def test_basis_vectors_take_integer_indices():
    assert S13.e() == S13.scalar(1.0)
    assert bits(S13.e(np.int64(2), 0)) == bits(S13.e(2, 0))
    assert S13.e(2, 0) == -S13.e(0, 2)
    assert [S13.metric(np.int64(i)) for i in range(4)] == [1, -1, -1, -1]


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


@given(st.integers(0, 2), st.lists(st.floats(-4, 4), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_associativity_hypothesis(sig_index, comps):
    sig = SIGS[sig_index]
    n = sig.blade_count
    a = Multivector(sig, {(7 * k) % n: complex(c) for k, c in enumerate(comps)})
    b = Multivector(sig, {(5 * k + 1) % n: complex(c) for k, c in enumerate(comps)})
    c = Multivector(sig, {(3 * k + 2) % n: complex(c) for k, c in enumerate(comps)})
    assert ((a * b) * c - a * (b * c)).max_abs() < 1e-10


def test_grade_select():
    m = S30.scalar(1.0) + S30.e(0) + S30.e(0, 1)
    assert grade_select(m, (1,)) == S30.e(0)
    assert grade_select(S30.e(0, 1), (0,)).max_abs() == 0.0
    prod = (1 + S30.e(0)) * (1 + S30.e(1))
    assert grade_select(prod, (2,)) == S30.e(0, 1)
    recon = sum((grade_select(m, (k,)) for k in range(4)), S30.scalar(0))
    assert (recon - m).max_abs() == 0.0


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
    # a dense element that 1 - e0 annihilates on the right
    x = random_multivector(S13, np.random.default_rng(41), 16) + 2.0
    for singular in (f, x * (S13.scalar(1.0) + S13.e(0))):
        with pytest.raises(NonInvertibleError):
            inverse(singular)
    with pytest.raises(NonInvertibleError):
        inverse(S30.scalar(0.0))


def _regular_path_element(sig, rng):
    """A 16-term element led by its scalar whose ``a ã`` is no scalar, so
    ``inverse`` takes the regular solve, as in the ``dense_api`` benchmark."""
    a = random_multivector(sig, rng, 16, scale=0.2) + 2.0
    gram = geometric_product(a, reversion(a))
    assert (gram - gram.scalar_part).max_abs() > 1e-12 * abs(gram.scalar_part)
    return a


@pytest.mark.parametrize("sig", [S13, S07, Signature(4, 4)], ids=str)
def test_a_regular_solve_inverse_keeps_the_solution_bits(sig):
    """The candidate is the solve's coefficients, pruned, bit for bit, and
    its check against the solved matrix passes."""
    rng = np.random.default_rng(40 + sig.dim)
    rhs = np.zeros(sig.blade_count, dtype=complex)
    rhs[0] = 1.0
    for _ in range(3):
        a = _regular_path_element(sig, rng)
        solved = np.linalg.solve(regular_representation(a), rhs)
        got = inverse(a)
        assert bits(got) == bits(Multivector(sig, dict(enumerate(solved.tolist()))))
        assert (a * got - 1).max_abs() < 1e-12


def test_a_solution_past_the_float_range_raises_value_error(monkeypatch):
    """A solve whose finite coefficients of 6e307 overflow ``a a^{-1}``."""
    a = _regular_path_element(S13, np.random.default_rng(42))
    monkeypatch.setattr(np.linalg, "solve", lambda mat, rhs: np.full(rhs.shape, 6e307 + 6e307j))
    with pytest.raises(ValueError, match="finite"):
        inverse(a)


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


def _random_multivector_ref(sig, rng, n_terms=8, scale=1.0, grades=None):
    """``random_multivector`` written with a list of every blade and an
    ``int`` per drawn index, through the validating constructor."""
    if grades is None:
        pool = list(range(sig.blade_count))
    else:
        wanted = set(grades)
        pool = [m for m in range(sig.blade_count) if m.bit_count() in wanted]
    n = min(n_terms, len(pool))
    masks = rng.choice(len(pool), size=n, replace=False)
    parts = rng.standard_normal(2 * n).tolist()
    return Multivector(sig, {pool[int(k)]: scale * complex(re, im)
                             for k, re, im in zip(masks, parts[::2], parts[1::2])})


@pytest.mark.parametrize("make_rng", [np.random.default_rng, np.random.RandomState],
                         ids=["Generator", "RandomState"])
@pytest.mark.parametrize("scale", [1.0, 0.3, np.float64(0.3)], ids=["unit", "float", "numpy"])
@pytest.mark.parametrize("sig,n_terms,grades", [
    (S30, 20, None), (S13, 16, None), (S07, 8, None), (Signature(12, 0), 128, None),
    (Signature(12, 0), 6, (2,)),
], ids=["cl30", "cl13", "cl07", "cl12", "cl12_grade2"])
def test_random_multivector_equals_its_reference_draw(make_rng, scale, sig, n_terms, grades):
    """Same terms, order and bits, coefficients Python ``complex`` even for
    a numpy ``scale``, and the generator left in the same state."""
    rng, ref = make_rng(0xD5A), make_rng(0xD5A)
    for _ in range(3):
        got = random_multivector(sig, rng, n_terms, scale=scale, grades=grades)
        assert bits(got) == bits(_random_multivector_ref(sig, ref, n_terms, scale, grades))
    assert rng.standard_normal(3).tolist() == ref.standard_normal(3).tolist()


def _correctly_rounded_sum(values, start=0):
    """A float sum with no rounding until the end, as the compensated
    builtin ``sum()`` of Python 3.12 on approaches; complex values sum their
    parts apart."""
    values = [start, *values]
    if all(isinstance(v, (int, float)) for v in values):
        return math.fsum(values)
    return complex(math.fsum(complex(v).real for v in values),
                   math.fsum(complex(v).imag for v in values))


def test_float_sums_do_not_depend_on_the_interpreter(monkeypatch):
    """``norm`` and the case-1 factor of the su(3) suite fold their sums left
    to right: after 1e16, each added 1.0 rounds away, so a compensated
    ``sum()`` would give other bits."""
    sig = Signature(10, 0)
    lam3 = Multivector(sig, {3: 1e8, **{m: 1.0 for m in range(4, 1004)}})
    gs = lie_su.GeneratorSet("sums", IsoContext.identity(sig), (sig.e(0), sig.e(1), lam3))
    # [e0, e1] = 2 e01, and e01 is blade 3 of lam3
    want_factor = 2e8 / 1e16
    before = lam3.norm(), suites._case1_factor(gs)
    for module in (multivector, suites):
        monkeypatch.setattr(module, "sum", _correctly_rounded_sum, raising=False)
    assert (lam3.norm(), suites._case1_factor(gs)) == before
    assert lam3.norm() == 1e8
    assert before[1][0] == want_factor
