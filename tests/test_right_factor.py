"""The prepared right factor's policies, and the series against the
functions they replaced.

A :class:`~isoclifford.multivector.RightFactor` takes the product loop
below its crossover and sums through a plan from there on, and a series
multiplies by it only through :func:`~isoclifford.multivector._step`.
Each step, on both sides of the crossover, with ``1/k`` and with a
running sum, is held to the reference product in ``test_paths.py``.  The
tests here check the policies: where plans are formed, what they keep,
and that threads share them.  The references below are the series as they
were written with :func:`geometric_product` alone, and every comparison
with them is exact: blades in order, and the bits of every coefficient.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bit_identity import bits
from isoclifford import isotopy, multivector
from isoclifford.isotopy import (
    ConvergenceError,
    IsoContext,
    clifford_exp,
    iso_exp_series,
    random_invertible_context,
)
from isoclifford.multivector import (
    Multivector,
    RightFactor,
    Signature,
    geometric_product,
    random_multivector,
)

S13 = Signature(1, 3)

# -- references --------------------------------------------------------------------


def iso_product_ref(ctx, a, b):
    return geometric_product(geometric_product(a, ctx.zeta_inv), b)


def clifford_exp_ref(a):
    result = a.signature.scalar(1.0)
    term = a.signature.scalar(1.0)
    for k in range(1, isotopy._EXP_MAX_TERMS + 1):
        term = geometric_product(term, a) * (1.0 / k)
        result = result + term
        if term.max_abs() <= isotopy._EXP_REL_TOL * max(result.max_abs(), 1e-300):
            return result
    raise ConvergenceError("exponential series did not settle")


def iso_exp_series_ref(ctx, a):
    result = ctx.zeta
    term = ctx.zeta
    for k in range(1, isotopy._EXP_MAX_TERMS + 1):
        term = iso_product_ref(ctx, term, a) * (1.0 / k)
        result = result + term
        if term.max_abs() <= isotopy._EXP_REL_TOL * max(result.max_abs(), 1e-300):
            return result
    raise ConvergenceError("iso exponential series did not settle")


def _outcome(fn, *args):
    """``fn(*args)`` as comparable data: its terms, or the type it raised."""
    try:
        return bits(fn(*args))
    except ConvergenceError:
        return "ConvergenceError"


def stepped(times_b, x, factor=None, total=None):
    """``x b``, times ``factor`` when given, through one step of a series,
    as an element, with the step's largest modulus; with a ``total`` too,
    the sum as an element and its largest modulus."""
    sig = x.signature
    with np.errstate(all="ignore"):  # as a series enters it
        kept, top, total, total_max = multivector._step(
            times_b, x.terms, None if factor is None else complex(factor),
            None if total is None else dict(total.terms))
    out = Multivector._from_kept(sig, kept), top
    return out if total is None else (*out, Multivector._from_kept(sig, total), total_max)


# -- the prepared product ------------------------------------------------------------


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


def test_a_series_checks_the_signature():
    with pytest.raises(multivector.SignatureMismatchError):
        iso_exp_series(IsoContext.identity(S13), Signature(3, 0).e(1))


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
            stepped(times_b, x)
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
        assert bits(stepped(times_b, x)[0]) == bits(geometric_product(x, b))
    assert len(times_b._plans) == kept
    assert tuple(xs[kept - 1].terms) in times_b._plans
    assert tuple(xs[kept].terms) not in times_b._plans


def test_a_dense_cl13_series_leaves_the_loop_after_its_first_step(monkeypatch):
    """A 16-term Cl(1,3) exponent: the first step multiplies the scalar 1
    by it in the loop, 16 term pairs, and every later step, 256 pairs, goes
    through a plan formed once for each left blade order the series meets."""
    rng = np.random.default_rng(13)
    a = random_multivector(S13, rng, 16, scale=0.4)
    want = bits(clifford_exp_ref(a))
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


# -- the series against the functions they replaced ----------------------------------


def _dense_exponents():
    """Dense Cl(1,3) exponents at ℓ1 norms up to 220: random ones, and ones
    led by the rotation bivector e12, whose series exhaust the 200-term
    cap and raise ConvergenceError from an ℓ1 norm near 90 on."""
    rng = np.random.default_rng(220)
    for norm in (0.01, 0.7, 3.0, 12.0, 40.0, 90.0, 140.0, 180.0, 220.0):
        for lead in (0.0, 0.95):
            x = random_multivector(S13, rng, 16)
            x = x * ((1.0 - lead) * norm / sum(abs(c) for c in x.terms.values()))
            yield x + S13.e(1, 2) * (lead * norm)


def test_clifford_exp_equals_the_product_loop_series():
    outcomes = []
    for a in _dense_exponents():
        outcomes.append(_outcome(clifford_exp, a))
        assert outcomes[-1] == _outcome(clifford_exp_ref, a)
    assert "ConvergenceError" in outcomes
    assert outcomes[0] != "ConvergenceError"


def test_iso_exp_series_equals_the_product_loop_series():
    ctx = random_invertible_context(S13, np.random.default_rng(3))
    outcomes = []
    for a in _dense_exponents():
        outcomes.append(_outcome(iso_exp_series, ctx, a))
        assert outcomes[-1] == _outcome(iso_exp_series_ref, ctx, a)
    assert "ConvergenceError" in outcomes
    assert outcomes[0] != "ConvergenceError"


def test_series_that_reach_the_array_kernel_equal_the_product_loop_series(monkeypatch):
    """A Cl(0,7) exponent of 8 terms: the first products of clifford_exp
    are 8 term pairs, and the terms fill up to 128 blades, so both series
    multiply through the factors' plans, which a series that never left the
    loop would not form."""
    sig = Signature(0, 7)
    rng = np.random.default_rng(8)
    a = random_multivector(sig, rng, 8, scale=0.5)
    ctx = random_invertible_context(sig, rng)
    plans = []
    plan = RightFactor._plan

    def counted(self, order):
        plans.append(order)
        return plan(self, order)

    for series, reference, args in ((clifford_exp, clifford_exp_ref, (a,)),
                                    (iso_exp_series, iso_exp_series_ref, (ctx, a))):
        with monkeypatch.context() as patch:
            patch.setattr(RightFactor, "_plan", counted)
            got = series(*args)
        assert bits(got) == bits(reference(*args))
        assert plans
        plans.clear()


def test_a_term_that_only_the_scaled_prune_drops():
    """In ``0.6 + 1.5e-14 e1`` the square's e1 coefficient, 1.8e-14, passes
    the prune of the product and falls to 0.9e-14 under the 1/2 of term 2,
    so only the second prune of that step drops it."""
    sig = Signature(3, 0)
    a = Multivector(sig, {0: 0.6, 1: 1.5e-14})
    square = geometric_product(a, a)
    assert multivector.PRUNE_EPS < abs(square.coeff(1)) <= 2 * multivector.PRUNE_EPS
    assert 1 not in (square * 0.5).terms
    assert bits(clifford_exp(a)) == bits(clifford_exp_ref(a))
    ctx = IsoContext.identity(sig)
    assert bits(iso_exp_series(ctx, a)) == bits(iso_exp_series_ref(ctx, a))


def test_a_blade_the_running_sum_drops_and_adds_again():
    """``√2 e12`` in Cl(3,0): term 2 is ``(√2)² e12² / 2 = -1.0000000000000002``,
    so the sum's scalar falls to -2.2e-16 and is pruned mid-series, and
    term 4 adds it again after e12, at the end of the sum's order."""
    sig = Signature(3, 0)
    a = sig.e(0, 1) * math.sqrt(2.0)
    got = clifford_exp(a)
    assert list(got.terms) == [3, 0]
    assert bits(got) == bits(clifford_exp_ref(a))
    ctx = IsoContext.identity(sig)
    assert bits(iso_exp_series(ctx, a)) == bits(iso_exp_series_ref(ctx, a))


def _benchmark_exponent(kind):
    """A 16-term Cl(1,3) exponent of each kind of exp in the ``dense_api``
    benchmark, about ``u`` a dense element of unit norm: a moderate one,
    ``-50 + 0.1 u``, whose series cancels catastrophically, and ``200 e12 +
    0.1 u``, whose series exhausts the term cap."""
    u = random_multivector(S13, np.random.default_rng(29), 16)
    u = u * (1.0 / u.norm())
    return {"moderate": u * 3.0, "negative_scalar": u * 0.1 - 50.0,
            "oscillatory": u * 0.1 + S13.e(1, 2) * 200.0}[kind]


@pytest.mark.parametrize("kind", ["moderate", "negative_scalar", "oscillatory"])
def test_series_of_the_benchmark_exp_kinds_equal_the_product_loop_series(kind):
    """Terms and bits, or the ``ConvergenceError`` and its text."""
    a = _benchmark_exponent(kind)
    ctx = IsoContext.create(S13.scalar(1.0) + S13.e(0) * 0.2)
    for series, reference, args, what in (
            (clifford_exp, clifford_exp_ref, (a,), "exponential series"),
            (iso_exp_series, iso_exp_series_ref, (ctx, a), "iso exponential series")):
        try:
            want = bits(reference(*args))
        except ConvergenceError:
            want = f"{what} did not settle in {isotopy._EXP_MAX_TERMS} terms"
        try:
            got = bits(series(*args))
        except ConvergenceError as exc:
            got = str(exc)
        assert got == want
        assert isinstance(want, str) == (kind == "oscillatory")
