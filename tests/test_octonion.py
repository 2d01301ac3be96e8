"""Octonion product on Cl(0,7) paravectors and its isotopes."""

import numpy as np
import pytest

from bit_identity import bits
from isoclifford.multivector import (
    AlgebraError,
    Multivector,
    NonInvertibleError,
    geometric_product,
    grade_select,
)
from isoclifford.octonion import (
    CYCLES,
    SIG07,
    epsilon_table,
    is_paravector,
    oct_conjugate,
    oct_inverse,
    oct_isotope_left,
    oct_isotope_right,
    oct_norm,
    oct_product,
    oct_products,
    oct_unit,
    structure_trivector,
    table_product,
)


def rand_paravector(rng):
    comps = rng.standard_normal(8)
    return Multivector(SIG07, {0: complex(comps[0]),
                               **{1 << i: complex(comps[i + 1]) for i in range(7)}})


def test_structure_trivector_shape():
    psi = structure_trivector()
    assert (grade_select(psi, (3,)) - psi).max_abs() == 0.0
    assert len(psi.terms) == 7
    e124 = SIG07.e(0, 1, 3)
    mask = next(iter(e124.terms))
    assert psi.coeff(mask) == 1.0


def test_epsilon_from_cycles():
    table = epsilon_table()
    assert table[(1, 2)] == 4
    assert table[(2, 1)] == -4
    assert len(table) == 42
    for a, b, c in CYCLES:
        assert table[(a, b)] == c and table[(b, c)] == a and table[(c, a)] == b


def test_specific_products():
    assert (oct_product(oct_unit(1), oct_unit(1)) + 1).max_abs() == 0.0
    assert (oct_product(oct_unit(1), oct_unit(2)) - oct_unit(4)).max_abs() == 0.0
    assert (oct_product(oct_unit(2), oct_unit(1)) + oct_unit(4)).max_abs() == 0.0
    # computed from the projection formula, not read off by hand
    assert (oct_product(oct_unit(2), oct_unit(5)) + oct_unit(3)).max_abs() == 0.0


def test_shift_rule():
    # e_a o e_{a+1} = e_{a+3 mod 7} with 1-based wraparound
    for a in range(1, 8):
        b = a % 7 + 1
        c = (a + 2) % 7 + 1
        assert (oct_product(oct_unit(a), oct_unit(b)) - oct_unit(c)).max_abs() < 1e-12


@pytest.mark.parametrize("a,b", [(9, 9), (-1, -1), (8, 1), (1, 8)])
def test_table_product_rejects_indices_outside_0_to_7(a, b):
    with pytest.raises(ValueError, match=r"octonion basis index must be in 0\.\.7"):
        table_product(a, b)


@pytest.mark.parametrize("a", [True, False, 1.0, 0.0, "1", -1, 8])
def test_oct_unit_rejects_what_is_not_an_index_in_0_to_7(a):
    with pytest.raises(ValueError, match=f"octonion basis index {a!r}|not {a}$"):
        oct_unit(a)


def test_oct_unit_takes_integer_indices():
    assert oct_unit(0) == SIG07.scalar(1.0)
    for a in range(1, 8):
        assert bits(oct_unit(a)) == bits(oct_unit(np.int64(a))) == bits(SIG07.e(a - 1))


def test_conjugate_and_inverse():
    rng = np.random.default_rng(3)
    x = rand_paravector(rng)
    assert (oct_product(x, oct_conjugate(x)) - oct_norm(x) ** 2).max_abs() < 1e-9
    inv = oct_inverse(x)
    assert (oct_product(x, inv) - oct_unit(0)).max_abs() < 1e-9
    assert (oct_inverse(oct_unit(1)) + oct_unit(1)).max_abs() == 0.0
    with pytest.raises(NonInvertibleError):
        oct_inverse(SIG07.scalar(0.0))


@pytest.mark.parametrize("scale", [1e200, 1e154, 1e-200])
def test_norm_far_from_one_keeps_its_digits(scale):
    """The squares of 3s and 4s overflow or underflow the plain fold; the
    norm is still 5s.  Coefficients below the prune are built through
    ``_from_kept``, as an element far below 1 cannot be constructed."""
    x = Multivector._from_kept(SIG07, {0: 3 * scale + 0j, 1: 4 * scale + 0j})
    assert oct_norm(x) == pytest.approx(5 * scale, rel=1e-15, abs=0)


@pytest.mark.parametrize("coeffs", [{0: 1e200}, {0: 7e13, 1: 1e13}],
                         ids=["past-the-float-range", "partly-under-the-prune"])
def test_inverse_that_falls_under_the_prune_is_refused(coeffs):
    """``1e-200`` falls wholly under the prune, and the ``e1`` term of the
    second inverse (``-4e-16``) does, which would miss 1 by 0.14."""
    with pytest.raises(NonInvertibleError, match="octonion inverse residual"):
        oct_inverse(Multivector(SIG07, coeffs))


def test_isotope_identity_unit():
    one = oct_unit(0)
    e2, e5 = oct_unit(2), oct_unit(5)
    want = oct_product(e2, e5)
    assert (oct_isotope_right(one, e2, e5) - want).max_abs() < 1e-12
    assert (oct_isotope_left(one, e2, e5) - want).max_abs() < 1e-12


def test_isotope_units_are_one_sided():
    rng = np.random.default_rng(4)
    zeta = rand_paravector(rng)
    x = rand_paravector(rng)
    assert (oct_isotope_right(zeta, x, zeta) - x).max_abs() < 1e-9
    assert (oct_isotope_left(zeta, zeta, x) - x).max_abs() < 1e-9


def test_paravector_guard():
    bivector = SIG07.e(0, 1)
    assert not is_paravector(bivector)
    with pytest.raises(AlgebraError):
        oct_product(bivector, oct_unit(1))


def test_products_keep_the_grade_projection_of_the_full_product_bit_for_bit():
    """``oct_products`` batches the full product and a single
    ``oct_product`` is a batch of one; both give the projection of the
    per-pair product's bits, term order included."""
    rng = np.random.default_rng(400)
    one_minus_psi = SIG07.scalar(1.0) - structure_trivector()
    xs, ys = zip(*((rand_paravector(rng), rand_paravector(rng)) for _ in range(400)))

    def want(xs, ys):
        return [bits(grade_select(geometric_product(geometric_product(x, y), one_minus_psi),
                                  (0, 1))) for x, y in zip(xs, ys)]

    assert [bits(oct_product(x, y)) for x, y in zip(xs, ys)] == want(xs, ys)
    assert [bits(x) for x in oct_products(xs, ys)] == want(xs, ys)
    with pytest.raises(AlgebraError):
        oct_products(xs[:1], [SIG07.e(0, 1)])
    with pytest.raises(AlgebraError):
        oct_products([SIG07.e(0, 1)], ys[:1])
