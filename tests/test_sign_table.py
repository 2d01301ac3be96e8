"""The sign table and the kernel's policies.

The per-signature sign table is checked against the bit-loop reference of
``test_paths.py`` on every blade pair of the small algebras and on sampled
pairs of the largest, and the regular representation against a loop over
that reference.  The products themselves, on every path and on both sides
of every threshold, are held to the reference in ``test_paths.py``; the
tests here check where the paths are chosen: the array threshold, the
batch cap, the refusals and the two branches of the bins.
"""

import functools

import numpy as np
import pytest

from bit_identity import bits
from isoclifford import multivector
from isoclifford.dirac import regular_representation
from isoclifford.isotopy import IsoContext, iso_commutators
from isoclifford.lie_su import structure_constants, su_n_generators
from isoclifford.multivector import (
    Multivector,
    Signature,
    SignatureMismatchError,
    _batch_products,
    _first_occurrence_bins,
    geometric_product,
    random_multivector,
)
from test_paths import blade_geometric, geometric_product_ref


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

PRODUCT_SIGNATURES = [Signature(3, 0), Signature(1, 3), Signature(0, 7), Signature(4, 4)]


def _operands(sig, seed):
    rng = np.random.default_rng(seed)
    pool = [random_multivector(sig, rng, k) for k in (1, 3, 8, 8, 24)]
    pool.append(random_multivector(sig, rng, 8, grades=[1, 2]))
    # the negation of an operand, so some sums cancel to exact zeros
    pool.append(Multivector(sig, {m: -c for m, c in pool[2].terms.items()}))
    return pool


# Cl(12,0) is left out: its 4096 x 4096 complex matrix takes 268 MB.
@pytest.mark.parametrize("sig", PRODUCT_SIGNATURES, ids=lambda s: f"cl{s.p}_{s.q}")
def test_regular_representation_equals_the_reference_loop_exactly(sig):
    # components of -0.0, which the reference's ``+=`` onto 0.0 turns to 0.0
    signed_zeros = Multivector(sig, {0: complex(-0.0, 2.0), 1: complex(1.5, -0.0),
                                     sig.blade_count - 1: complex(-0.0, -0.5)})
    for a in _operands(sig, 53 + sig.dim) + [signed_zeros, Multivector(sig, {})]:
        assert regular_representation(a).tobytes() == regular_representation_ref(a).tobytes()


# -- where the array path starts ----------------------------------------------------

THRESHOLD = multivector._NUMPY_MIN_PAIRS


def _shape(pairs: int) -> tuple[int, int]:
    """The most nearly square ``(len(a), len(b))`` with ``pairs`` term pairs
    that fits in Cl(0,7)'s 128 blades."""
    shapes = [(k, pairs // k) for k in range(1, 129) if pairs % k == 0 and pairs // k <= 128]
    return min(shapes, key=lambda s: abs(s[0] - s[1]))


SHAPES = [_shape(THRESHOLD - 1), _shape(THRESHOLD), _shape(THRESHOLD + 1)]


def test_the_array_path_starts_at_the_threshold(monkeypatch):
    calls = []
    array_terms = multivector._blade_terms_numpy
    monkeypatch.setattr(multivector, "_blade_terms_numpy",
                        lambda *args: calls.append(1) or array_terms(*args))
    sig = Signature(0, 7)
    rng = np.random.default_rng(3)
    for (na, nb), want in zip(SHAPES, (0, 1, 1)):
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


# -- the batch entry point ------------------------------------------------------------------

CAP = multivector._BATCH_PAIRS


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
    shapes = [(na, nb) for na, nb in SHAPES for _ in range(8)]
    xs, ys = zip(*((random_multivector(sig, rng, na), random_multivector(sig, rng, nb))
                   for na, nb in shapes))
    total = sum(na * nb for na, nb in shapes)
    assert total > CAP
    got = _batch_products(xs, ys)
    assert sum(calls) == total and len(calls) == 2 and max(calls) <= CAP
    assert [bits(x) for x in got] == [bits(geometric_product(a, b)) for a, b in zip(xs, ys)]
    calls.clear()
    assert _batch_products([], []) == [] and calls == []


def test_batches_refuse_a_mixed_signature_and_unequal_lengths():
    x = Signature(1, 3).e(0)
    with pytest.raises(SignatureMismatchError):
        _batch_products([x, x], [x, Signature(0, 7).e(0)])
    commutators = functools.partial(iso_commutators, IsoContext.identity(x.signature))
    for batch in (_batch_products, commutators):
        with pytest.raises(ValueError):
            batch([x, x], [x])


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
