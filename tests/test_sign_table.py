"""The table-driven blade kernel against the bit-loop reference.

The reference below is the per-pair arithmetic the package used before it
read the per-signature sign table: a transposition count by popcount plus
one metric factor per repeated index, and four separate product loops.
The table keeps the arithmetic ``sign * ca * cb`` and the visiting order,
so every comparison here is exact.
"""

import numpy as np
import pytest

from isoclifford.dirac import regular_representation
from isoclifford.multivector import (
    Multivector,
    Signature,
    geometric_product,
    left_contraction,
    random_multivector,
    right_contraction,
    wedge,
)

# -- reference ---------------------------------------------------------------------


def reordering_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of blades ``a`` and ``b``."""
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def blade_geometric(sig: Signature, a: int, b: int) -> tuple[int, int]:
    sign = reordering_sign(a, b)
    common = a & b
    while common:
        i = (common & -common).bit_length() - 1
        sign *= sig.metric(i)
        common &= common - 1
    return a ^ b, sign


def geometric_product_ref(a: Multivector, b: Multivector) -> Multivector:
    sig = a.signature
    out: dict[int, complex] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mask, sign = blade_geometric(sig, ma, mb)
            out[mask] = out.get(mask, 0j) + sign * ca * cb
    return Multivector(sig, out)


def wedge_ref(a: Multivector, b: Multivector) -> Multivector:
    out: dict[int, complex] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            sign = reordering_sign(ma, mb)
            mask = ma | mb
            out[mask] = out.get(mask, 0j) + sign * ca * cb
    return Multivector(a.signature, out)


def left_contraction_ref(a: Multivector, b: Multivector) -> Multivector:
    sig = a.signature
    out: dict[int, complex] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & ~mb:
                continue
            mask, sign = blade_geometric(sig, ma, mb)
            out[mask] = out.get(mask, 0j) + sign * ca * cb
    return Multivector(sig, out)


def right_contraction_ref(a: Multivector, b: Multivector) -> Multivector:
    sig = a.signature
    out: dict[int, complex] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if mb & ~ma:
                continue
            mask, sign = blade_geometric(sig, ma, mb)
            out[mask] = out.get(mask, 0j) + sign * ca * cb
    return Multivector(sig, out)


def regular_representation_ref(a: Multivector) -> np.ndarray:
    sig = a.signature
    n = sig.blade_count
    mat = np.zeros((n, n), dtype=complex)
    for ma, ca in a.terms.items():
        for j in range(n):
            mask, sign = blade_geometric(sig, ma, j)
            mat[mask, j] += sign * ca
    return mat


# -- the sign table --------------------------------------------------------------------

SMALL_SIGNATURES = [Signature(p, n - p) for n in range(9) for p in range(n + 1)]


@pytest.mark.parametrize("sig", SMALL_SIGNATURES, ids=lambda s: f"cl{s.p}_{s.q}")
def test_table_matches_reference_on_every_pair(sig):
    n = sig.blade_count
    for a in range(n):
        for b in range(n):
            assert sig.blade_geometric(a, b) == blade_geometric(sig, a, b), (a, b)


@pytest.mark.parametrize("p,q", [(12, 0), (0, 12), (6, 6)])
def test_table_matches_reference_on_sampled_pairs(p, q):
    sig = Signature(p, q)
    rng = np.random.default_rng(2007 + 13 * p + q)
    pairs = rng.integers(0, sig.blade_count, size=(200_000, 2)).tolist()
    for a, b in pairs:
        assert sig.blade_geometric(a, b) == blade_geometric(sig, a, b), (a, b)


def test_blade_geometric_rejects_masks_outside_the_algebra():
    sig = Signature(1, 3)
    with pytest.raises(ValueError):
        sig.blade_geometric(16, 1)
    with pytest.raises(ValueError):
        sig.blade_geometric(1, -1)


# -- products and the regular representation ---------------------------------------------

PRODUCT_SIGNATURES = [Signature(3, 0), Signature(1, 3), Signature(0, 7),
                      Signature(4, 4), Signature(12, 0)]
PRODUCTS = [
    (geometric_product, geometric_product_ref),
    (wedge, wedge_ref),
    (left_contraction, left_contraction_ref),
    (right_contraction, right_contraction_ref),
]


def _operands(sig, seed):
    rng = np.random.default_rng(seed)
    pool = [random_multivector(sig, rng, k) for k in (1, 3, 8, 8, 24)]
    pool.append(random_multivector(sig, rng, 8, grades=[1, 2]))
    # the negation of an operand, so some sums cancel to exact zeros
    pool.append(Multivector(sig, {m: -c for m, c in pool[2].terms.items()}))
    return pool


@pytest.mark.parametrize("sig", PRODUCT_SIGNATURES, ids=lambda s: f"cl{s.p}_{s.q}")
@pytest.mark.parametrize("product,reference", PRODUCTS, ids=lambda f: f.__name__)
def test_products_equal_the_reference_loops_exactly(sig, product, reference):
    pool = _operands(sig, 41 + sig.dim)
    for a in pool:
        for b in pool:
            got, want = product(a, b), reference(a, b)
            assert got == want
            assert list(got.terms.items()) == list(want.terms.items())


# Cl(12,0) is left out: its 4096 x 4096 complex matrix takes 268 MB.
@pytest.mark.parametrize("sig", PRODUCT_SIGNATURES[:4], ids=lambda s: f"cl{s.p}_{s.q}")
def test_regular_representation_equals_the_reference_loop_exactly(sig):
    for a in _operands(sig, 53 + sig.dim) + [Multivector(sig, {})]:
        assert np.array_equal(regular_representation(a), regular_representation_ref(a))
