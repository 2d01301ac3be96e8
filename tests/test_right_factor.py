"""The prepared right factor's step against the product loop and the
functions it replaced.

A :class:`~isoclifford.multivector.RightFactor` takes the product loop
below its crossover and sums through a plan from there on, in the loop's
visiting order and with each blade-pair sign moved from ``ca`` onto ``cb``,
which can change a term only in the sign of an exact zero.  A series
multiplies by it only through :func:`~isoclifford.multivector._step`.  So
every comparison here is exact: blades in order, and the bits of every
coefficient.  The references below are the series and isotopic products
as they were written with :func:`geometric_product` alone.
"""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bit_identity import bits
from isoclifford import isotopy, multivector
from isoclifford.isotopy import (
    ConvergenceError,
    IsoContext,
    clifford_exp,
    iso_exp,
    iso_exp_series,
    iso_involution,
    iso_product,
    lift,
    random_invertible_context,
)
from isoclifford.multivector import (
    Multivector,
    RightFactor,
    Signature,
    geometric_product,
    grade_involution,
    random_multivector,
)

THRESHOLD = multivector._NUMPY_MIN_PAIRS
CROSSOVER = multivector._PLAN_MIN_PAIRS
SIGNATURES = [Signature(3, 0), Signature(1, 3), Signature(0, 7), Signature(12, 0)]
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


def _element(sig, rng, n_terms, scale, kind):
    """A random element with real, imaginary or complex coefficients."""
    x = random_multivector(sig, rng, n_terms, scale=scale)
    part = {"real": lambda c: complex(c.real, 0.0), "imag": lambda c: complex(0.0, c.imag),
            "mixed": lambda c: c}[kind]
    return Multivector(sig, {m: part(c) for m, c in x.terms.items()})


@st.composite
def _cases(draw):
    """A factor and the left operands it is reused on: random ones of sizes
    on both sides of the array threshold where the algebra allows it, empty
    ones, and the factor and its negation (whose products cancel to exact
    zeros where blades anticommute)."""
    sig = draw(st.sampled_from(SIGNATURES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 3e-8]))
    kind = st.sampled_from(["real", "imag", "mixed"])
    size = st.integers(0, min(sig.blade_count, 40))
    b = _element(sig, rng, draw(size), scale, draw(kind))
    lefts = [_element(sig, rng, k, scale, draw(kind))
             for k in draw(st.lists(size, min_size=1, max_size=8))]
    return b, lefts + [b, -b]


def _dense_cl13_case():
    """A dense Cl(1,3) factor and operand: all 16 rows of a product land on
    the same 16 blades, so every blade sums 16 terms."""
    rng = np.random.default_rng(16)
    b, x = (_element(S13, rng, 16, 1.0, "mixed") for _ in range(2))
    return b, [x, b, -b]


def _crossover_case(pairs):
    """A Cl(0,7) factor and left operands that make ``pairs`` term pairs
    with it, the factor of at most 16 terms."""
    nb = next(n for n in range(16, 0, -1) if pairs % n == 0)
    rng = np.random.default_rng(pairs)
    b = _element(Signature(0, 7), rng, nb, 1.0, "mixed")
    return b, [_element(Signature(0, 7), rng, pairs // nb, 1.0, "mixed") for _ in range(2)]


@settings(max_examples=80, deadline=None)
@given(_cases())
@example(_dense_cl13_case())
@example(_crossover_case(CROSSOVER - 1))
@example(_crossover_case(CROSSOVER))
def test_a_step_equals_the_loop_bit_for_bit(case):
    """The step's term, its largest modulus and the running sum are those
    of ``(x * b) * f`` and ``y + t`` on elements, with and without ``f``."""
    b, lefts = case
    times_b = RightFactor(b)
    # twice over: plans are formed on the first pass and read on the second
    for x, y in zip(lefts + lefts, lefts[1:] + lefts + lefts[:1]):
        want = geometric_product(x, b)
        got, top = stepped(times_b, x)
        assert bits(got) == bits(want) and top == want.max_abs()
        want = want * (1.0 / 3)
        got, top, total, total_max = stepped(times_b, x, 1.0 / 3, y)
        assert bits(got) == bits(want) and top == want.max_abs()
        assert bits(total) == bits(y + want) and total_max == (y + want).max_abs()


@pytest.mark.parametrize("sig", [Signature(0, 7), Signature(12, 0)], ids=str)
@pytest.mark.parametrize("shape", [(11, 33), (28, 13), (13, 28), (40, 40)])
def test_a_step_on_both_sides_of_the_threshold(sig, shape):
    na, nb = shape
    assert (na * nb >= THRESHOLD) == (shape != (11, 33))
    rng = np.random.default_rng(na * nb + sig.dim)
    for scale in (1.0, 3e-8):
        x, b = (random_multivector(sig, rng, n, scale=scale) for n in shape)
        times_b = RightFactor(b)
        for left in (x, x, b, -b):
            assert bits(stepped(times_b, left)[0]) == bits(geometric_product(left, b))


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


@pytest.mark.parametrize("plan", [False, True], ids=["loop", "plan"])
def test_a_step_past_the_float_range_raises_value_error(plan):
    """Terms of 1e200 squared overflow: the step's caller keeps numpy's
    warning silent, as a series does, so with warnings as errors too the
    finite check raises the ``ValueError`` of the loop."""
    rng = np.random.default_rng(9)
    n_terms = 16 if plan else 2
    b, x = (random_multivector(S13, rng, n_terms) * 1e200 for _ in range(2))
    assert (n_terms * n_terms >= CROSSOVER) == plan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            stepped(RightFactor(b), x)


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


# -- the series and the isotopic products against the functions they replaced -----------


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


@pytest.mark.parametrize("sig", SIGNATURES[:3], ids=str)
def test_isotopic_products_equal_the_product_loop(sig):
    rng = np.random.default_rng(31 + sig.dim)
    for ctx in (random_invertible_context(sig, rng), IsoContext.identity(sig)):
        zeta, zeta_inv = ctx.zeta, ctx.zeta_inv
        for _ in range(4):
            a, b = random_multivector(sig, rng, 6), random_multivector(sig, rng, 5)
            assert bits(iso_product(ctx, a, b)) == bits(iso_product_ref(ctx, a, b))
            assert bits(lift(ctx, a)) == bits(geometric_product(a, zeta))
            assert bits(iso_involution(ctx, a)) == bits(
                geometric_product(grade_involution(geometric_product(a, zeta_inv)), zeta))
            small = a * 0.3
            assert bits(iso_exp(ctx, small)) == bits(
                geometric_product(clifford_exp_ref(geometric_product(small, zeta_inv)), zeta))
