"""Isotopic lifting layer: diamond products, isofields, iso exponential."""

import numpy as np
import pytest

from isoclifford import isotopy
from isoclifford.dirac import build_dirac_rep, iso_spin_plus_check, regular_representation
from isoclifford.isotopy import (
    IsoComplex,
    IsoContext,
    clifford_exp,
    geno_commutator,
    iso_commutator,
    iso_commutators,
    iso_exp,
    iso_exp_series,
    iso_involution,
    iso_product,
    iso_wedge,
    lift,
    random_invertible_context,
)
from isoclifford.lie_su import su3_case1_generators, su3_case2_generators, su_n_generators
from isoclifford.multivector import (
    AlgebraError,
    NonInvertibleError,
    RightFactor,
    Signature,
    SignatureMismatchError,
    geometric_product,
    inverse,
    random_multivector,
    random_vector,
    wedge,
)
from isoclifford.octonion import SIG07, oct_isotope_left, oct_isotope_right, oct_unit

S30 = Signature(3, 0)
S13 = Signature(1, 3)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_identity_isounit_recovers_plain_product(rng):
    ctx = IsoContext.identity(S30)
    a = random_multivector(S30, rng, 6)
    b = random_multivector(S30, rng, 6)
    assert (iso_product(ctx, a, b) - a * b).max_abs() < 1e-14


def test_blade_isounit_example():
    # zeta = e1 in Cl(3,0): e2 <> e3 = e2 e1 e3 = -e123
    ctx = IsoContext.create(S30.e(0))
    got = iso_product(ctx, S30.e(1), S30.e(2))
    assert (got + S30.e(0, 1, 2)).max_abs() < 1e-14


def test_context_validation():
    with pytest.raises(NonInvertibleError, match="misses 1"):
        IsoContext(S30.e(0), S30.e(1))
    with pytest.raises(SignatureMismatchError):
        IsoContext(S30.e(0), S13.e(0))
    # a ζ just off an eigenvalue of its regular representation: ``inverse``
    # accepts its residual of some 6e-9, the context's 1e-10 bound does not
    z0 = random_multivector(S13, np.random.default_rng(7), 16)
    z = z0 - (np.linalg.eigvals(regular_representation(z0))[0] - 1e-7)
    residual = (z * inverse(z) - 1).max_abs()
    assert 1e-10 < residual <= 1e-8
    with pytest.raises(NonInvertibleError, match="misses 1"):
        IsoContext.create(z)


def test_random_context_draws_again_past_the_context_bound(monkeypatch):
    # the first ζ⁻¹ passes a residual check of 1e-8 but not the context's 1e-10
    calls = []

    def off_by_5e_9(z):
        calls.append(z)
        zi = inverse(z)
        return zi + 5e-9 * z.signature.e(0) if len(calls) == 1 else zi

    monkeypatch.setattr(isotopy, "inverse", off_by_5e_9)
    ctx = random_invertible_context(S13, np.random.default_rng(42))
    assert len(calls) == 2
    assert ctx.zeta == calls[1] and ctx.zeta_inv == inverse(calls[1])


def test_only_a_non_finite_error_in_a_series_step_is_an_overflow(monkeypatch):
    """A series turns the kernel's ``NonFiniteError`` into a
    ``ConvergenceError``; any other ``ValueError`` propagates as itself."""
    def refuse(self, term):
        raise ValueError("not an overflow")

    monkeypatch.setattr(RightFactor, "_product", refuse)
    with pytest.raises(ValueError, match="^not an overflow$") as caught:
        clifford_exp(S30.e(1))
    assert type(caught.value) is ValueError


def test_a_context_holds_its_isounit_and_inverse_alone(rng):
    """Products, lifts, involutions, exponentials and commutators leave a
    context as they found it: nothing they prepare is kept on it."""
    ctx = random_invertible_context(S13, rng)
    a, b = random_multivector(S13, rng, 16), random_multivector(S13, rng, 16, scale=0.3)
    lift(ctx, a)
    iso_product(ctx, a, b)
    iso_involution(ctx, a)
    iso_exp(ctx, b)
    iso_exp_series(ctx, b)
    iso_commutators(ctx, [a, b], [b, a])
    assert vars(ctx).keys() == {"zeta", "zeta_inv"}


def test_lift_of_one_is_the_isounit(rng):
    ctx = random_invertible_context(S13, rng)
    assert (lift(ctx, S13.scalar(1.0)) - ctx.zeta).max_abs() < 1e-14


def test_diamond_associativity(rng):
    for _ in range(5):
        ctx = random_invertible_context(S30, rng)
        a, b, c = (random_multivector(S30, rng, 6) for _ in range(3))
        lhs = iso_product(ctx, iso_product(ctx, a, b), c)
        rhs = iso_product(ctx, a, iso_product(ctx, b, c))
        assert (lhs - rhs).max_abs() < 1e-9


def test_isocommutator(rng):
    ctx = random_invertible_context(S13, rng)
    a = random_multivector(S13, rng, 6)
    assert iso_commutator(ctx, a, a).max_abs() < 1e-12
    ctx1 = IsoContext.identity(S30)
    got = iso_commutator(ctx1, S30.e(0), S30.e(1))
    assert (got - 2 * S30.e(0, 1)).max_abs() < 1e-14


def test_genocommutator_two_units(rng):
    ctx = random_invertible_context(S13, rng)
    xi = random_invertible_context(S13, rng)
    a = random_multivector(S13, rng, 6)
    b = random_multivector(S13, rng, 6)
    general = geno_commutator(ctx, xi, a, b)
    direct = (geometric_product(geometric_product(a, ctx.zeta_inv), b)
              - geometric_product(geometric_product(b, xi.zeta_inv), a))
    assert (general - direct).max_abs() < 1e-12


def test_iso_wedge_identity_unit(rng):
    ctx = IsoContext.identity(S13)
    v = random_vector(S13, rng)
    psi = random_multivector(S13, rng, 8)
    assert (iso_wedge(ctx, v, psi) - wedge(v, psi)).max_abs() < 1e-12
    assert iso_wedge(ctx, v, v).max_abs() < 1e-12


# Each ⋄ operation of a Cl(1,3) context fed a Cl(3,0) operand, the Dirac
# representation fed a Cl(3,0) operand, and each generator family built on
# a context of another algebra: each raises SignatureMismatchError.  The
# Spin⁺ check is fed an even and an odd Cl(3,0) operand: it refuses both
# before its odd-grade shortcut.  Each octonion isotope fed a Cl(0,7)
# bivector: the paravector check refuses it with an AlgebraError.
_CTX = IsoContext.create(S13.scalar(1.0) + 0.5 * S13.e(0, 1))
_FOREIGN = S30.scalar(1.0) + S30.e(0, 1)
_BIVECTOR = SIG07.e(0, 1)
_ONE, _E1 = oct_unit(0), oct_unit(1)
FOREIGN_OPERANDS = {
    "iso_product_left": lambda: iso_product(_CTX, _FOREIGN, S13.e(0)),
    "iso_product_right": lambda: iso_product(_CTX, S13.e(0), _FOREIGN),
    "lift": lambda: lift(_CTX, _FOREIGN),
    "iso_exp": lambda: iso_exp(_CTX, _FOREIGN),
    "iso_exp_series": lambda: iso_exp_series(_CTX, _FOREIGN),
    "iso_involution": lambda: iso_involution(_CTX, _FOREIGN),
    "iso_spin_plus_check": lambda: iso_spin_plus_check(_CTX, _FOREIGN),
    "iso_spin_plus_check_odd": lambda: iso_spin_plus_check(_CTX, S30.e(0)),
    "dirac_rep": lambda: build_dirac_rep().rep(_FOREIGN),
    "su_n_generators": lambda: su_n_generators(2, _CTX),
    "su3_case1_generators": lambda: su3_case1_generators(IsoContext.identity(S30)),
    "su3_case2_generators": lambda: su3_case2_generators(IsoContext.identity(S30)),
    "oct_isotope_right_a": lambda: oct_isotope_right(_ONE, _BIVECTOR, _E1),
    "oct_isotope_right_b": lambda: oct_isotope_right(_ONE, _E1, _BIVECTOR),
    "oct_isotope_left_a": lambda: oct_isotope_left(_ONE, _BIVECTOR, _E1),
    "oct_isotope_left_b": lambda: oct_isotope_left(_ONE, _E1, _BIVECTOR),
}


@pytest.mark.parametrize("operation", FOREIGN_OPERANDS)
def test_an_operand_of_another_algebra_is_refused(operation):
    with pytest.raises(AlgebraError if operation.startswith("oct_") else SignatureMismatchError):
        FOREIGN_OPERANDS[operation]()


def test_isoscalar_action(rng):
    ctx = random_invertible_context(S13, rng)
    two = IsoComplex.from_scalar(ctx, 2.0)
    # isoscalar acting through the diamond product rescales plain operators
    a = random_multivector(S13, rng, 6)
    acted = iso_product(ctx, two.value, a)
    assert (acted - 2.0 * a).max_abs() < 1e-9


def test_isocomplex_rejects_non_proportional(rng):
    ctx = random_invertible_context(S13, rng)
    with pytest.raises(AlgebraError):
        IsoComplex(ctx, ctx.zeta + S13.e(0) * 10.0)


def test_iso_exp_basics(rng):
    ctx = random_invertible_context(S13, rng)
    assert (iso_exp(ctx, S13.scalar(0.0)) - ctx.zeta).max_abs() < 1e-12
    ident = IsoContext.identity(S13)
    a = random_multivector(S13, rng, 5, scale=0.3)
    assert (iso_exp(ident, a) - clifford_exp(a)).max_abs() < 1e-12
    # isoscalar argument: diamond powers of t*zeta are t^k zeta, so the
    # series sums to e^t zeta
    t = 0.7
    got = iso_exp(ctx, lift(ctx, S13.scalar(t)))
    assert (got - np.exp(t) * ctx.zeta).max_abs() < 1e-10


def test_rotor_exponential():
    theta = 0.4
    rotor = clifford_exp(theta * S30.e(0, 1))
    expect = S30.scalar(np.cos(theta)) + np.sin(theta) * S30.e(0, 1)
    assert (rotor - expect).max_abs() < 1e-12
