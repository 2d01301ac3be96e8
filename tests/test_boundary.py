"""Validation at the public constructor, and results that skip it.

``Multivector(sig, terms)`` checks and coerces its input once; results of
arithmetic on validated operands are built by ``Multivector._from_terms``,
which only prunes and rejects non-finite coefficients.  Each reference
below forms the same expression in the same order and builds its result
through the public constructor, so every comparison is exact: identical
term order and the same bits in every coefficient.  The four blade
products, on every route the package has to them, are held to one
reference in ``test_paths.py``.  A pickled element is rebuilt through the
public constructor too.
"""

import math
import pickle
import sys

import numpy as np
import pytest

from bit_identity import bits
from isoclifford import multivector
from isoclifford.isotopy import (
    iso_commutator,
    iso_exp_series,
    iso_product,
    random_invertible_context,
)
from isoclifford.lie_su import su3_case1_generators
from isoclifford.multivector import (
    Multivector,
    Signature,
    geometric_product,
    grade_involution,
    grade_select,
    random_multivector,
    reversion,
)
from isoclifford.octonion import SIG07, oct_conjugate

SIGNATURES = [Signature(3, 0), Signature(1, 3), Signature(0, 7), Signature(12, 0)]


def _operands(sig, seed):
    rng = np.random.default_rng(seed)
    pool = [random_multivector(sig, rng, k) for k in (1, 3, 8, 8)]
    pool.append(random_multivector(sig, rng, 8, grades=[1, 2]))
    a = pool[2]
    # shares every blade of ``a``: sums and differences cancel to exact zeros
    pool.append(Multivector(sig, {m: -c for m, c in a.terms.items()}))
    pool.append(Multivector(sig, {}))
    return pool


# -- references ------------------------------------------------------------------------


def _add_ref(a, b):
    out = dict(a.terms)
    for m, c in b.terms.items():
        out[m] = out.get(m, 0j) + c
    return Multivector(a.signature, out)


def _neg_ref(a):
    return Multivector(a.signature, {m: -c for m, c in a.terms.items()})


def _scale_ref(a, s):
    return Multivector(a.signature, {m: c * complex(s) for m, c in a.terms.items()})


def _grade_signed_ref(a, sign_of_grade):
    return Multivector(a.signature,
                       {m: sign_of_grade(m.bit_count()) * c for m, c in a.terms.items()})


# -- arithmetic on validated operands --------------------------------------------------


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"cl{s.p}_{s.q}")
def test_linear_structure_equals_the_public_constructor_reference(sig):
    pool = _operands(sig, 83 + sig.dim)
    for a in pool:
        assert bits(-a) == bits(_neg_ref(a))
        for s in (2, -0.5, 1.5 - 2j, np.float64(0.25), np.complex128(0.5 + 3j), 0, 1e-15):
            assert bits(a * s) == bits(_scale_ref(a, s))
            assert bits(s * a) == bits(_scale_ref(a, s))
        assert bits(a / 4.0) == bits(_scale_ref(a, 1.0 / 4.0))
        assert bits(a + 1.5) == bits(_add_ref(a, sig.scalar(1.5)))
        assert bits(a - 1.5) == bits(_add_ref(a, _neg_ref(sig.scalar(1.5))))
        for b in pool:
            assert bits(a + b) == bits(_add_ref(a, b))
            assert bits(a - b) == bits(_add_ref(a, _neg_ref(b)))


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: f"cl{s.p}_{s.q}")
def test_involutions_and_grade_parts_equal_the_public_constructor_reference(sig):
    def rev(k):
        return -1 if (k // 2) & 1 else 1

    def inv(k):
        return -1 if k & 1 else 1

    for a in _operands(sig, 97 + sig.dim):
        assert bits(reversion(a)) == bits(_grade_signed_ref(a, rev))
        assert bits(grade_involution(a)) == bits(_grade_signed_ref(a, inv))
        for k in range(sig.dim + 1):
            assert bits(grade_select(a, (k,))) == bits(Multivector(
                sig, {m: c for m, c in a.terms.items() if m.bit_count() == k}))
        assert bits(grade_select(a, (0, 2))) == bits(Multivector(
            sig, {m: c for m, c in a.terms.items() if m.bit_count() in (0, 2)}))


def test_octonion_conjugate_equals_the_public_constructor_reference():
    rng = np.random.default_rng(5)
    comps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = Multivector(SIG07, {0: comps[0], **{1 << i: comps[i + 1] for i in range(7)}})
    want = Multivector(SIG07, {m: (c if m == 0 else -c) for m, c in x.terms.items()})
    assert bits(oct_conjugate(x)) == bits(want)


def test_numpy_scalar_factor_leaves_python_complex_coefficients():
    a = Signature(1, 3).e(0, 2) + 3.0
    for s in (np.complex128(2 - 1j), np.float64(0.5), np.int64(3)):
        for got in (a * s, s * a, a / s):
            assert got.terms
            assert all(type(c) is complex for c in got.terms.values())


def test_kernel_results_still_reject_non_finite_coefficients():
    sig = Signature(3, 0)
    big = Multivector(sig, {1: 1e200})
    with pytest.raises(ValueError, match="finite"):
        geometric_product(big, big)
    with pytest.raises(ValueError, match="finite"):
        big * 1e200
    with pytest.raises(ValueError, match="finite"):
        big * float("nan")
    # finite components whose modulus exceeds the float range
    with pytest.raises(ValueError, match="finite"):
        Multivector(sig, {1: 1.5e308}) * (1 + 1j)


def test_kernel_results_still_prune():
    sig = Signature(3, 0)
    tiny = Multivector(sig, {1: 1e-8})
    assert not geometric_product(tiny, tiny)
    a = Multivector(sig, {0: 1.0, 3: 2.0})
    assert not a - a
    assert not a * 0
    assert grade_select(a, (1,)) == sig.scalar(0.0)


def _prune_outcome(prune, c):
    """What one prune makes of a coefficient ``c``: its kept terms and their
    largest modulus as bits, or the ``ValueError`` it raised."""
    try:
        kept, top = prune(c)
    except ValueError:
        return "ValueError"
    return bits(kept.items()), top.hex()


def _element_then_factor(c, factor):
    """The prune rule as public arithmetic: the element ``c``, then ``* factor``."""
    x = Multivector(Signature(3, 0), {1: c})
    if factor is not None:
        x = x * factor
    return dict(x.terms), x.max_abs()


_EDGES = [multivector.PRUNE_EPS, math.nextafter(multivector.PRUNE_EPS, math.inf),
          math.inf, math.nan, complex(1e308, 1e308)]
# moduli within an ulp of PRUNE_EPS on which numpy's complex ``np.abs`` and
# Python's ``abs`` fall on opposite sides of it on an AVX-512 x86-64 (numpy
# 2.4): the first ``np.abs`` keeps and ``abs`` drops, the second the reverse.
# Found among values of modulus PRUNE_EPS and uniform phase drawn with seed 2025.
_SPLIT_MODULI = [complex(float.fromhex("0x1.778e02fd1484ap-48"),
                         float.fromhex("-0x1.337c2f04b0d2cp-47")),
                 complex(float.fromhex("0x1.651f8d6a2c931p-47"),
                         float.fromhex("0x1.7d30aadcdfac6p-50"))]


# moduli at the top of the float range: ``x + xj`` for the three floats
# ``x`` nearest the largest float over √2, whose exact moduli lie below it,
# above it but rounding down to it, and above it rounding to inf; a modulus
# rounding to the largest float from a large real part; and one past it
_TOP = sys.float_info.max
_LARGEST_MODULI = [complex(x, x) for x in map(float.fromhex, ["0x1.6a09e667f3bcbp+1023",
                                                              "0x1.6a09e667f3bccp+1023",
                                                              "0x1.6a09e667f3bcdp+1023"])]
_LARGEST_MODULI += [complex(_TOP, 1e300), complex(_TOP, _TOP)]


@pytest.mark.parametrize("factor", [None, 1 + 0j, 0.5 + 0j, 2 + 0j], ids=str)
@pytest.mark.parametrize("c", [complex(v) for v in _EDGES] + [complex(0.0, v) for v in _EDGES[:4]]
                         + _SPLIT_MODULI + _LARGEST_MODULI, ids=repr)
def test_one_prune_rule_at_its_edges(c, factor):
    """``_pruned`` with and without a factor, its array twin ``_kept`` and
    the public constructor keep, drop or refuse each edge alike, the two
    moduli that ``np.abs`` and ``abs`` put on opposite sides of
    ``PRUNE_EPS`` and the moduli at the largest float included."""
    got = _prune_outcome(lambda c: multivector._pruned([(1, c)], factor), c)
    assert got == _prune_outcome(lambda c: _element_then_factor(c, factor), c)
    try:
        kept = bool(multivector._kept(np.array([c]))[0])
    except ValueError:
        kept = "ValueError"
    plain = _prune_outcome(lambda c: multivector._pruned([(1, c)]), c)
    assert kept == (plain if plain == "ValueError" else bool(plain[0]))


# -- masks at the public constructor ------------------------------------------------------


@pytest.mark.parametrize("mask", [1.0, np.float64(1.0), True, False, np.bool_(True), "1", None])
def test_non_integer_masks_are_rejected(mask):
    with pytest.raises(ValueError):
        Multivector(Signature(3, 0), {mask: 1.0})


def test_numpy_integer_masks_become_int():
    sig = Signature(3, 0)
    a = Multivector(sig, {np.int64(3): 2.0, np.uint8(1): 1.0})
    assert [type(m) for m in a.terms] == [int, int]
    assert a == Multivector(sig, {3: 2.0, 1: 1.0})
    assert bits(a * a) == bits(geometric_product(Multivector(sig, {3: 2.0, 1: 1.0}),
                                                 Multivector(sig, {3: 2.0, 1: 1.0})))
    with pytest.raises(ValueError):
        Multivector(sig, {np.int64(8): 1.0})


# -- pickling -----------------------------------------------------------------------------


def _round_trip(x):
    return pickle.loads(pickle.dumps(x))


def test_an_element_pickles_bit_for_bit():
    x = Multivector(Signature(1, 3), {5: complex(-0.0, 1.5), 0: 2j, 3: complex(-1.25, -0.0)})
    copy = _round_trip(x)
    assert copy.signature == x.signature
    assert bits(copy) == bits(x)


def test_a_context_pickles_bit_for_bit():
    sig = Signature(1, 3)
    rng = np.random.default_rng(17)
    ctx = random_invertible_context(sig, rng)
    x, y = random_multivector(sig, rng, 16), random_multivector(sig, rng, 16, scale=0.3)
    copy = _round_trip(ctx)
    assert [bits(copy.zeta), bits(copy.zeta_inv)] == [bits(ctx.zeta), bits(ctx.zeta_inv)]
    assert bits(iso_product(copy, x, y)) == bits(iso_product(ctx, x, y))
    assert bits(iso_exp_series(copy, y)) == bits(iso_exp_series(ctx, y))


def test_a_lifted_family_pickles_bit_for_bit():
    gs = su3_case1_generators(random_invertible_context(Signature(1, 3),
                                                        np.random.default_rng(19)))
    copy = _round_trip(gs)
    assert copy.label == gs.label
    assert [bits(g) for g in copy.generators] == [bits(g) for g in gs.generators]
    want = iso_commutator(gs.context, gs.generators[2], gs.generators[5])
    assert bits(iso_commutator(copy.context, copy.generators[2], copy.generators[5])) == bits(want)
