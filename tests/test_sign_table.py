"""The sign table and the kernel's policies.

The per-signature sign table is checked against the bit-loop reference of
``test_paths.py`` on every blade pair of the small algebras and on sampled
pairs of the largest, and the regular representation against a loop over
that reference.  The products and the exponential series themselves, on
every path and on both sides of every threshold, are held to the
references in ``test_paths.py``; the tests here check where the paths are
chosen: the array threshold, the batch cap, the refusals, the two
branches of the bins, where a prepared right factor starts forming plans
and how many it keeps, and that threads running series share its plans.
"""

import functools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bit_identity import bits
from isoclifford import multivector
from isoclifford.dirac import regular_representation
from isoclifford.isotopy import IsoContext, clifford_exp, iso_commutators
from isoclifford.lie_su import structure_constants, su_n_generators
from isoclifford.multivector import (
    Multivector,
    RightFactor,
    Signature,
    SignatureMismatchError,
    _batch_products,
    _first_occurrence_bins,
    geometric_product,
    random_multivector,
)
from test_paths import blade_geometric, geometric_product_ref, series_ref


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


# -- the prepared right factor ------------------------------------------------------

S13 = Signature(1, 3)


@pytest.mark.parametrize("dense", [False, True], ids=["loop", "plan"])
def test_threads_running_series_get_the_serial_bits(dense):
    """Four threads run ``clifford_exp`` at once, switching every
    microsecond, on exponents whose products stay in the loop or, dense,
    go through plans; no series may see another's partial sums."""
    rng = np.random.default_rng(4)
    exponents = [random_multivector(S13, rng, 16 if dense else 3, scale=0.5) for _ in range(6)]
    want = [bits(clifford_exp(a)) for a in exponents]
    same = []  # one entry per series, so a thread that died shows too

    def work():
        for _ in range(5):
            same.extend(bits(clifford_exp(a)) == w for a, w in zip(exponents, want))

    threads = [threading.Thread(target=work) for _ in range(4)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert len(same) == 4 * 5 * len(exponents)
    assert all(same), f"{same.count(False)} of {len(same)} series differ"


def test_plans_of_a_cl12_factor_stay_within_their_budget():
    """A 16-term Cl(12,0) factor fed twice as many 8-term left orders as its
    plan budget holds keeps plans for the first half and no more."""
    sig = Signature(12, 0)
    rng = np.random.default_rng(12)
    b = random_multivector(sig, rng, 16)
    kept = multivector._PLAN_CACHE_PAIRS // (8 * 16)
    xs = [random_multivector(sig, rng, 8) for _ in range(2 * kept)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        times_b = RightFactor(b)
        for x in xs:
            multivector._step(times_b, x.terms)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(times_b._plans) == kept
    # 65536 pairs: 48 bytes of arrays and a blade int each, and each plan's key
    assert held <= 128 * multivector._PLAN_CACHE_PAIRS, held


def test_plans_beyond_the_budget_are_formed_and_not_kept():
    sig = Signature(12, 0)
    rng = np.random.default_rng(17)
    b = random_multivector(sig, rng, 17)
    kept = multivector._PLAN_CACHE_PAIRS // (6 * 17)
    xs = [random_multivector(sig, rng, 6) for _ in range(kept + 20)]
    times_b = RightFactor(b)
    for x in xs + xs[-30:]:
        assert bits(multivector._step(times_b, x.terms)[0].items()) == bits(geometric_product(x, b))
    assert len(times_b._plans) == kept
    assert tuple(xs[kept - 1].terms) in times_b._plans
    assert tuple(xs[kept].terms) not in times_b._plans


def test_a_dense_cl13_series_leaves_the_loop_after_its_first_step(monkeypatch):
    """A 16-term Cl(1,3) exponent: the first step multiplies the scalar 1
    by it in the loop, 16 term pairs, and every later step, 256 pairs, goes
    through a plan formed once for each left blade order the series meets."""
    rng = np.random.default_rng(13)
    a = random_multivector(S13, rng, 16, scale=0.4)
    want = bits(series_ref(S13.scalar(1.0), a, "exponential series"))
    loop, plan, product = multivector._loop_sums, RightFactor._plan, RightFactor._product
    loop_pairs, planned, lefts = [], [], []

    def counted_loop(a_terms, b_terms, table, keep=None):
        loop_pairs.append(len(a_terms) * len(b_terms))
        return loop(a_terms, b_terms, table, keep)

    def counted_plan(self, order):
        planned.append(order)
        return plan(self, order)

    def counted_product(self, term):
        lefts.append(tuple(term))
        return product(self, term)

    monkeypatch.setattr(multivector, "_loop_sums", counted_loop)
    monkeypatch.setattr(RightFactor, "_plan", counted_plan)
    monkeypatch.setattr(RightFactor, "_product", counted_product)
    got = bits(clifford_exp(a))
    monkeypatch.undo()
    assert got == want
    assert len(lefts) > 10 and lefts[0] == (0,)
    assert loop_pairs == [16]
    assert planned == list(dict.fromkeys(lefts[1:]))
