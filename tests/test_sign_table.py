"""The table-driven blade kernel against the bit-loop reference.

The reference below is the per-pair arithmetic the package used before it
read the per-signature sign table: a transposition count by popcount plus
one metric factor per repeated index, and four separate product loops.
The table keeps the arithmetic ``sign * ca * cb`` and the visiting order,
so every comparison here is exact.  That includes the numpy path the
kernel takes for large operands, checked bit for bit on both sides of
its threshold.
"""

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bit_identity import bits
from isoclifford import multivector
from isoclifford.dirac import regular_representation
from isoclifford.isotopy import IsoContext
from isoclifford.lie_su import structure_constants, su_n_generators
from isoclifford.multivector import (
    Multivector,
    Signature,
    SignatureMismatchError,
    _batch_products,
    _blade_products,
    _first_occurrence_bins,
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


def table_product(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """Blade mask and sign as the kernel forms them from the sign table."""
    return a ^ b, -1 if (a & sig.sign_table[b]).bit_count() & 1 else 1


@pytest.mark.parametrize("sig", SMALL_SIGNATURES, ids=lambda s: f"cl{s.p}_{s.q}")
def test_table_matches_reference_on_every_pair(sig):
    n = sig.blade_count
    for a in range(n):
        for b in range(n):
            assert table_product(sig, a, b) == blade_geometric(sig, a, b), (a, b)


@pytest.mark.parametrize("p,q", [(12, 0), (0, 12), (6, 6)])
def test_table_matches_reference_on_sampled_pairs(p, q):
    sig = Signature(p, q)
    rng = np.random.default_rng(2007 + 13 * p + q)
    pairs = rng.integers(0, sig.blade_count, size=(200_000, 2)).tolist()
    for a, b in pairs:
        assert table_product(sig, a, b) == blade_geometric(sig, a, b), (a, b)


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
            assert bits(product(a, b)) == bits(reference(a, b))


# Cl(12,0) is left out: its 4096 x 4096 complex matrix takes 268 MB.
@pytest.mark.parametrize("sig", PRODUCT_SIGNATURES[:4], ids=lambda s: f"cl{s.p}_{s.q}")
def test_regular_representation_equals_the_reference_loop_exactly(sig):
    # components of -0.0, which the reference's ``+=`` onto 0.0 turns to 0.0
    signed_zeros = Multivector(sig, {0: complex(-0.0, 2.0), 1: complex(1.5, -0.0),
                                     sig.blade_count - 1: complex(-0.0, -0.5)})
    for a in _operands(sig, 53 + sig.dim) + [signed_zeros, Multivector(sig, {})]:
        assert regular_representation(a).tobytes() == regular_representation_ref(a).tobytes()


# -- the array path of the blade kernel ------------------------------------------------

THRESHOLD = multivector._NUMPY_MIN_PAIRS
ARRAY_SIGNATURES = [Signature(0, 7), Signature(4, 4), Signature(12, 0)]


def _shape(pairs: int) -> tuple[int, int]:
    """The most nearly square ``(len(a), len(b))`` with ``pairs`` term pairs
    that fits in Cl(0,7)'s 128 blades."""
    shapes = [(k, pairs // k) for k in range(1, 129) if pairs % k == 0 and pairs // k <= 128]
    return min(shapes, key=lambda s: abs(s[0] - s[1]))


SHAPES = [_shape(THRESHOLD - 1), _shape(THRESHOLD), _shape(THRESHOLD + 1), (128, 128)]


def _by_path(product, a, b, threshold):
    """``product(a, b)`` with the array path taken from ``threshold`` pairs on."""
    saved = multivector._NUMPY_MIN_PAIRS
    multivector._NUMPY_MIN_PAIRS = threshold
    try:
        return product(a, b)
    finally:
        multivector._NUMPY_MIN_PAIRS = saved


def _assert_both_paths_equal(product, reference, a, b):
    want = reference(a, b)
    for threshold in (0, THRESHOLD, 1 << 30):
        got = _by_path(product, a, b, threshold)
        assert got == want
        assert bits(got) == bits(want)


@pytest.mark.parametrize("sig", ARRAY_SIGNATURES, ids=lambda s: f"cl{s.p}_{s.q}")
@pytest.mark.parametrize("product,reference", PRODUCTS, ids=lambda f: f.__name__)
def test_array_path_equals_the_loop_bit_for_bit(sig, product, reference):
    """The geometric product against its reference on both sides of the
    array threshold.  The wedge and the contractions always take the loop,
    so for them the same shapes check the loop against the reference."""
    rng = np.random.default_rng(71 + sig.dim)
    for na, nb in SHAPES:
        # unit scale, and a scale whose products straddle PRUNE_EPS
        for scale in (1.0, 3e-8):
            a = random_multivector(sig, rng, na, scale=scale)
            b = random_multivector(sig, rng, nb, scale=scale)
            _assert_both_paths_equal(product, reference, a, b)
            # b and -b: the terms of anticommuting blade pairs cancel to exact zeros
            _assert_both_paths_equal(product, reference, b, -b)


@pytest.mark.parametrize("sig", ARRAY_SIGNATURES, ids=lambda s: f"cl{s.p}_{s.q}")
def test_array_path_cancels_exactly(sig):
    # a bivector squares to grades 0 and 4: its grade-2 terms cancel pair by pair
    x = random_multivector(sig, np.random.default_rng(5), 128, grades=[2])
    assert len(x) ** 2 >= THRESHOLD
    square = geometric_product(x, x)
    assert square.grades() <= {0, 4}
    assert bits(square) == bits(geometric_product_ref(x, x))


def test_small_coefficients_reach_the_prune_on_the_array_path():
    sig = Signature(12, 0)
    rng = np.random.default_rng(9)
    a, b = (random_multivector(sig, rng, 128, scale=3e-8) for _ in range(2))
    got = geometric_product(a, b)
    assert bits(got) == bits(geometric_product_ref(a, b))
    # some sums are pruned, some kept just above the threshold
    assert len(got) < len({ma ^ mb for ma in a.terms for mb in b.terms})
    assert min(abs(c) for _, c in got) < 10 * multivector.PRUNE_EPS


def test_the_array_path_starts_at_the_threshold(monkeypatch):
    calls = []
    array_terms = multivector._blade_terms_numpy
    monkeypatch.setattr(multivector, "_blade_terms_numpy",
                        lambda *args: calls.append(1) or array_terms(*args))
    sig = Signature(0, 7)
    rng = np.random.default_rng(3)
    for (na, nb), want in zip(SHAPES[:3], (0, 1, 1)):
        calls.clear()
        a, b = random_multivector(sig, rng, na), random_multivector(sig, rng, nb)
        geometric_product(a, b)
        assert len(calls) == want, (na, nb)


def test_numpy_complex_multiply_would_not_be_bit_identical():
    """The array path writes Python's complex product out in components;
    a kernel using numpy's complex ``*`` differs where numpy fuses a
    multiply and an add."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    y = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    if (x * y).tolist() == [u * v for u, v in zip(x.tolist(), y.tolist())]:
        pytest.skip("numpy's complex multiply rounds like Python's on this machine")

    def mutant(a, b):
        sig = a.signature
        ma = np.fromiter(a.terms.keys(), dtype=np.int64)[:, None]
        mb = np.fromiter(b.terms.keys(), dtype=np.int64)
        ca = np.fromiter(a.terms.values(), dtype=complex)[:, None]
        cb = np.fromiter(b.terms.values(), dtype=complex)
        sign = np.where(np.bitwise_count(ma & sig.sign_array[mb]) & 1, -1, 1)
        terms = (sign * ca) * cb
        out: dict[int, complex] = {}
        for mask, c in zip((ma ^ mb).ravel().tolist(), terms.ravel().tolist()):
            out[mask] = out.get(mask, 0j) + c
        return Multivector(sig, out)

    sig = Signature(0, 7)
    a, b = (random_multivector(sig, rng, 128) for _ in range(2))
    assert mutant(a, b) != geometric_product_ref(a, b)
    assert bits(geometric_product(a, b)) == bits(geometric_product_ref(a, b))


def batch_of_one(a, b):
    return _batch_products([a], [b])[0]


@pytest.mark.parametrize("product", [p for p, _ in PRODUCTS] + [batch_of_one],
                         ids=lambda f: f.__name__)
def test_overflow_raises_the_same_error_on_both_paths(product):
    sig = Signature(0, 7)
    rng = np.random.default_rng(13)
    # infinite components, and finite components whose modulus overflows
    big = [tuple(random_multivector(sig, rng, 64, scale=1e200) for _ in range(2)),
           (Multivector(sig, {0: 1.3e308}), Multivector(sig, {0: 1 + 1j}))]
    with pytest.raises(OverflowError):
        abs(complex(1.3e308) * (1 + 1j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in big:
            for threshold in (0, 1 << 30):
                with pytest.raises(ValueError, match="coefficients must be finite"):
                    _by_path(product, a, b, threshold)


# -- the batched array kernel ------------------------------------------------------------

BATCH_SIGNATURES = [Signature(1, 3), Signature(0, 7), Signature(12, 0)]


@st.composite
def _batches(draw):
    """Operands of mixed sizes (empty ones among them) and the negation of
    one, with pairs of indices into them that include that ``b, -b`` pair."""
    sig = draw(st.sampled_from(BATCH_SIGNATURES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 3e-8]))
    sizes = draw(st.lists(st.integers(0, min(sig.blade_count, 40)), min_size=1, max_size=6))
    operands = [random_multivector(sig, rng, k, scale=scale) for k in sizes]
    operands.append(-operands[-1])
    index = st.integers(0, len(operands) - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=0, max_size=7))
    pairs.append((len(operands) - 2, len(operands) - 1))
    return sig, operands, pairs


def _batch_terms(sig, operands, pairs):
    """Each product of a batch, as the kernel's terms under the prune."""
    product, blades, coeffs = multivector._blade_terms_numpy(
        [x.terms for x in operands], pairs, sig)
    assert np.all(np.diff(product) >= 0)
    return [Multivector._from_terms(sig, dict(zip(blades[product == k].tolist(),
                                                  coeffs[product == k].tolist())))
            for k in range(len(pairs))]


@settings(max_examples=60, deadline=None)
@given(_batches())
def test_batched_kernel_equals_the_loop_bit_for_bit(batch):
    sig, operands, pairs = batch
    want = [_by_path(_blade_products, operands[i], operands[j], 1 << 30) for i, j in pairs]
    got = _batch_terms(sig, operands, pairs)
    assert [bits(x) for x in got] == [bits(x) for x in want]
    # and every product as a batch of one
    for pair, x in zip(pairs, want):
        assert [bits(y) for y in _batch_terms(sig, operands, [pair])] == [bits(x)]


def test_batched_kernel_takes_an_empty_batch():
    product, blades, coeffs = multivector._blade_terms_numpy([], [], Signature(1, 3))
    assert product.size == blades.size == coeffs.size == 0


# -- the batch entry point ------------------------------------------------------------------

CAP = multivector._BATCH_PAIRS


@contextlib.contextmanager
def _constants(min_pairs, batch_pairs):
    """The kernel's ``_NUMPY_MIN_PAIRS`` and ``_BATCH_PAIRS`` set for a block."""
    saved = multivector._NUMPY_MIN_PAIRS, multivector._BATCH_PAIRS
    multivector._NUMPY_MIN_PAIRS, multivector._BATCH_PAIRS = min_pairs, batch_pairs
    try:
        yield
    finally:
        multivector._NUMPY_MIN_PAIRS, multivector._BATCH_PAIRS = saved


@settings(max_examples=60, deadline=None)
@given(_batches())
def test_batch_products_equal_the_per_pair_products_bit_for_bit(batch):
    """Each call on either path, with the default cap and with one small
    enough that most batches cross it; a single element as ``ys`` is the
    right factor of every product, and lists of unequal length are
    refused."""
    _, operands, index = batch
    xs = [operands[i] for i, _ in index]
    ys = [operands[j] for _, j in index]
    y = operands[-1]
    cases = [((xs, ys), zip(xs, ys)), ((xs, y), ((a, y) for a in xs))]
    want = [(args, [bits(geometric_product(a, b)) for a, b in pairs]) for args, pairs in cases]
    for min_pairs in (0, THRESHOLD, 1 << 30):
        for batch_pairs in (CAP, 64):
            with _constants(min_pairs, batch_pairs):
                for args, products in want:
                    assert [bits(p) for p in _batch_products(*args)] == products
    with pytest.raises(ValueError):
        _batch_products(xs, ys[:-1])


def test_batch_products_cut_at_the_cap(monkeypatch):
    """Products on both sides of the array threshold, in a batch that
    crosses the cap, and an empty batch."""
    calls = []
    array_terms = multivector._blade_terms_numpy
    monkeypatch.setattr(multivector, "_blade_terms_numpy", lambda operands, pairs, sig: (
        calls.append(sum(len(operands[i]) * len(operands[j]) for i, j in pairs))
        or array_terms(operands, pairs, sig)))
    sig = Signature(0, 7)
    rng = np.random.default_rng(29)
    shapes = [(na, nb) for na, nb in SHAPES[:3] for _ in range(8)]
    xs, ys = zip(*((random_multivector(sig, rng, na), random_multivector(sig, rng, nb))
                   for na, nb in shapes))
    total = sum(na * nb for na, nb in shapes)
    assert total > CAP
    got = _batch_products(xs, ys)
    assert sum(calls) == total and len(calls) == 2 and max(calls) <= CAP
    assert [bits(x) for x in got] == [bits(geometric_product(a, b)) for a, b in zip(xs, ys)]
    calls.clear()
    assert _batch_products([], []) == [] and calls == []


def test_batch_products_refuse_a_mixed_signature():
    x = Signature(1, 3).e(0)
    with pytest.raises(SignatureMismatchError):
        _batch_products([x, x], [x, Signature(0, 7).e(0)])


def _su6_oracle_keys(monkeypatch):
    """The ``(key, n_keys)`` of the lifted su(6) oracle's last call of
    :func:`_first_occurrence_bins`, which numbers the ``(pair, blade)``
    keys of all its commutators."""
    sig = Signature(12, 0)
    gs = su_n_generators(6, IsoContext.create(sig.scalar(1.7) + 0.4 * sig.e(0, 1)))
    calls = []
    monkeypatch.setattr(multivector, "_first_occurrence_bins", lambda key, n_keys:
                        calls.append((key, n_keys)) or _first_occurrence_bins(key, n_keys))
    structure_constants(gs)
    return calls[-1]


def _first_occurrence_sums(key, weights):
    """The distinct keys in order of first occurrence, and the weights of
    each added in pair order onto 0.0."""
    sums = {}
    for k, w in zip(key.tolist(), weights.tolist()):
        sums[k] = sums.get(k, 0.0) + w
    return list(sums), np.array(list(sums.values()), dtype=float)


def test_first_occurrence_bins_agree_on_both_branches(monkeypatch):
    su6_key, su6_n_keys = _su6_oracle_keys(monkeypatch)
    assert su6_n_keys > su6_key.size  # the oracle's batch takes the sparse branch
    rng = np.random.default_rng(23)
    # the dense branch needs keys below the pair count: the su(6) keys by rank
    ranked = np.searchsorted(np.array(sorted(set(su6_key.tolist()))), su6_key)
    keys = [ranked, rng.integers(0, 5, 300), rng.integers(0, 300, 300),
            rng.permutation(64), np.zeros(7, dtype=np.int64), np.zeros(0, dtype=np.int64)]
    cases = [(key, (key.size, key.size + 1)) for key in keys] + [(su6_key, (su6_n_keys,))]
    for key, branches in cases:
        # magnitudes over 16 decades, so the sums' bits depend on their order
        weights = rng.standard_normal(key.size) * 10.0 ** rng.integers(-8, 9, key.size)
        want_keys, want_sums = _first_occurrence_sums(key, weights)
        for n_keys in branches:
            bins, got_keys, slots = _first_occurrence_bins(key, n_keys)
            assert got_keys.tolist() == want_keys
            assert np.bincount(bins, weights)[slots].tobytes() == want_sums.tobytes()
