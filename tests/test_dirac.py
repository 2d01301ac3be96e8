"""The 4x4 spacetime-algebra representation and the regular representation."""

import warnings

import numpy as np
import pytest

from isoclifford.dirac import (
    build_dirac_rep,
    iso_spin_plus_check,
    regular_representation,
)
from isoclifford.flavor_matrices import iso_tensor
from isoclifford.isotopy import IsoContext, clifford_exp
from isoclifford.multivector import (
    Multivector,
    Signature,
    geometric_product,
    random_multivector,
)

S13 = Signature(1, 3)


@pytest.fixture(scope="module")
def d():
    return build_dirac_rep()


def test_gamma0_diagonal(d):
    assert np.array_equal(d.gamma[0], np.diag([1, 1, -1, -1]).astype(complex))


def test_rep_identity(d):
    assert np.array_equal(d.rep(S13.scalar(1.0)), np.eye(4))


def test_rep_inverse_rejects_wrong_shape(d):
    # the 16 blade images span all of M(4,C), so nothing is out of reach;
    # a shape error is still rejected
    with pytest.raises(Exception):
        d.rep_inverse(np.eye(3))


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e12, 1e100, 1e300])
def test_rep_inverse_takes_every_matrix_at_large_scales(d, scale):
    """The blade images span M(4,C) at any scale: an absolute residual
    bound on the inverse refused entries near 1e8.  Small scales are left
    out, as the absolute prune of the coefficients drops them."""
    rng = np.random.default_rng(41)
    m = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert np.abs(d.rep(d.rep_inverse(m)) - m).max() <= 1e-14 * np.abs(m).max()


def _non_finite_matrices():
    """4x4 matrices with an inf, a -inf or a NaN entry, or all entries inf,
    each built without a numpy warning."""
    for value in (np.inf, -np.inf, np.nan, complex(1.0, np.nan)):
        m = np.eye(4, dtype=complex)
        m[1, 2] = value
        yield m
    yield np.full((4, 4), np.inf)


def test_non_finite_matrices_are_rejected_before_any_arithmetic(d):
    """A non-finite matrix raises ``ValueError`` from the check, not a
    numpy ``RuntimeWarning`` from the arithmetic behind it, with warnings
    as errors."""
    eye = np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in _non_finite_matrices():
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                d.rep_inverse(m)
            for args in ((m, eye, eye), (eye, m, eye), (eye, eye, m)):
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    iso_tensor(*args)


def test_idempotent_image(d):
    f = 0.5 * (S13.scalar(1.0) + S13.e(0))
    rf = d.rep(f)
    assert np.array_equal(rf, np.diag([1, 1, 0, 0]).astype(complex))


def test_entry_formula_first_row(d):
    # the (0,0) entry of the image collects scalar, e0, e12 and e012 parts
    rng = np.random.default_rng(3)
    coeffs = {m: complex(rng.standard_normal()) for m in range(16)}
    ups = Multivector(S13, coeffs)
    m = d.rep(ups)

    def c(mask):
        return coeffs[mask].real

    a1 = c(0b0000) + c(0b0001) + 1j * (c(0b0110) + c(0b0111))
    assert abs(m[0, 0] - a1) < 1e-12


def test_row_conjugation_structure(d):
    # for real coefficients the image is block-quaternionic:
    # rows 1,3 repeat rows 0,2 through (-conj, conj) pairing
    rng = np.random.default_rng(4)
    coeffs = {m: complex(rng.standard_normal()) for m in range(16)}
    m = d.rep(Multivector(S13, coeffs))
    assert abs(m[1, 0] + np.conj(m[0, 1])) < 1e-12
    assert abs(m[1, 1] - np.conj(m[0, 0])) < 1e-12
    assert abs(m[1, 2] + np.conj(m[0, 3])) < 1e-12
    assert abs(m[1, 3] - np.conj(m[0, 2])) < 1e-12
    assert abs(m[3, 0] + np.conj(m[2, 1])) < 1e-12
    assert abs(m[3, 1] - np.conj(m[2, 0])) < 1e-12


def test_regular_representation_property():
    for sig in (Signature(1, 1), Signature(3, 0)):
        rng = np.random.default_rng(5)
        assert np.array_equal(regular_representation(sig.scalar(1.0)),
                              np.eye(sig.blade_count))
        for _ in range(20):
            a = random_multivector(sig, rng, 3)
            b = random_multivector(sig, rng, 3)
            lhs = regular_representation(geometric_product(a, b))
            rhs = regular_representation(a) @ regular_representation(b)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_regular_representation_blade_permutation():
    sig = Signature(1, 1)
    m = regular_representation(sig.e(0))
    for row in m:
        assert np.sum(np.abs(row) > 0) == 1
        assert set(np.abs(row[np.abs(row) > 0])) == {1.0}


def test_spin_plus_membership():
    rigid = IsoContext.identity(S13)
    assert iso_spin_plus_check(rigid, S13.scalar(1.0))
    rotor = clifford_exp(0.8 * S13.e(1, 2))
    assert iso_spin_plus_check(rigid, rotor)
    boost = clifford_exp(0.5 * S13.e(0, 1))
    assert iso_spin_plus_check(rigid, boost)
    assert not iso_spin_plus_check(rigid, 2.0 * rotor)        # wrong normalization


def test_iso_spin_plus_membership():
    rotor = clifford_exp(0.37 * S13.e(1, 2))
    # a reversion-symmetric central isounit passes for every rotor
    zeta5 = S13.scalar(1.0) + 0.5 * S13.e(0, 1, 2, 3)
    ctx5 = IsoContext.create(zeta5)
    assert iso_spin_plus_check(ctx5, geometric_product(rotor, zeta5))
