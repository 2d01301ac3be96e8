"""Every route to a product, held to one reference.

The reference below is the per-pair arithmetic the package used before it
read the per-signature sign table: a transposition count by popcount plus
one metric factor per repeated index, and a loop for each of the four
blade products.  It keeps the arithmetic ``sign * ca * cb`` and the
visiting order of the kernel, so a route must give the reference's
outcome exactly: the same blades in the same order and the same bits in
every coefficient (``bit_identity.bits``), or the same error type and
text, with warnings as errors.

A route is a plain callable from a context and a list of ``(a, b)`` pairs
to one outcome per pair.  The routes are the shipped product, the loop,
the array kernel forced, the batch entry point at two caps, a prepared
right factor through a series step, the three forms of the
iso-commutator, and the wedge and both contractions.  A route that takes
the pairs in one call has one outcome when it raises: what the
reference's first failing pair raised.  One hypothesis property and one
fixed corpus run every route against the reference: a failure of the
property names the routes that differ, and the corpus runs as one test
per case and route.

The exponential series form a second table on the same helpers.  Its one
reference is the literal series on elements, each product the reference
product above, and its routes are ``clifford_exp`` and ``iso_exp_series``
at the shipped plan constants, with plans from the first pair, in the
loop only and with plans formed and never kept, ``iso_exp`` in closed
form, and ``clifford_exp`` under a 10-term cap.  A fixed corpus of
exponents runs as one test per case and route.
"""

import collections
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bit_identity import bits
from isoclifford import isotopy, multivector
from isoclifford.isotopy import (
    ConvergenceError,
    IsoContext,
    clifford_exp,
    iso_commutator,
    iso_commutators,
    iso_exp,
    iso_exp_series,
    random_invertible_context,
)
from isoclifford.multivector import (
    Multivector,
    RightFactor,
    Signature,
    _batch_products,
    _commutator_terms,
    _kept_terms,
    _loop_sums,
    _split,
    _step,
    geometric_product,
    left_contraction,
    random_multivector,
    right_contraction,
    wedge,
)
from test_boundary import _SPLIT_MODULI

# -- the reference ---------------------------------------------------------------------


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


def geometric_product_ref(a: Multivector, b: Multivector, row_of=None) -> Multivector:
    """``a b``, each blade product by :func:`blade_geometric`, or read from
    ``row_of(sig, ma)[mb]`` when given the memo of :func:`series_ref`."""
    sig = a.signature
    out: dict[int, complex] = {}
    for ma, ca in a.terms.items():
        row = ({mb: blade_geometric(sig, ma, mb) for mb in b.terms} if row_of is None
               else row_of(sig, ma))
        for mb, cb in b.terms.items():
            mask, sign = row[mb]
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


# -- outcomes ------------------------------------------------------------------------------

Raised = collections.namedtuple("Raised", "type text")


def outcome(compute):
    """``compute()``, or the :class:`Raised` of what it raised, with warnings
    as errors: a route that lets numpy warn differs from the reference."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return compute()
        except Exception as exc:  # every route's error is compared with the reference's
            return Raised(type(exc).__name__, str(exc))


def per_pair(form):
    """The route, or reference, that forms ``form(ctx, a, b)`` for each pair
    on its own."""
    return lambda ctx, pairs: [outcome(lambda: form(ctx, a, b)) for a, b in pairs]


def of_each(product):
    """The route, or reference, that forms ``product(a, b)`` for each pair
    on its own."""
    return per_pair(lambda ctx, a, b: bits(product(a, b)))


def in_one_call(products):
    """The route that hands every pair to ``products(ctx, pairs)`` at once:
    the bits of each product, or what the call raised."""
    return lambda ctx, pairs: outcome(lambda: [bits(x) for x in products(ctx, pairs)])


def forced(route, module=multivector, /, **constants):
    """``route`` with the named constants of ``module`` set for it."""
    def forced_route(ctx, inputs):
        with pytest.MonkeyPatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(module, name, value)
            return route(ctx, inputs)
    return forced_route


# -- the routes --------------------------------------------------------------------------


def _loop(a, b):
    sig = a.signature
    return Multivector._from_terms(sig, _loop_sums(a.terms, b.terms, sig.sign_table))


def _kernel_batch(ctx, pairs):
    """Every pair's product in one call of the array kernel."""
    sig = ctx.signature
    operands = [x.terms for pair in pairs for x in pair]
    index = np.arange(len(operands)).reshape(-1, 2)
    return _split(sig, len(pairs), *_kept_terms(operands, index, sig))


def _batch(ctx, pairs):
    return _batch_products([a for a, _ in pairs], [b for _, b in pairs])


def _by_zeta(ctx, pairs):
    """Every operand of the case times ζ, a single right factor."""
    return _batch_products([x for pair in pairs for x in pair], ctx.zeta)


def _commutators(ctx, pairs):
    return iso_commutators(ctx, [a for a, _ in pairs], [b for _, b in pairs])


def _oracle_commutators(ctx, pairs):
    """The commutators as the structure-constant oracle reads them."""
    elements = [x for pair in pairs for x in pair]
    index = np.arange(len(elements))
    pair, blades, coeffs = _commutator_terms(elements, ctx.zeta_inv, index[0::2], index[1::2])
    return [zip(blades[pair == k].tolist(), coeffs[pair == k].tolist()) for k in range(len(pairs))]


def _stepped(factor, summed):
    """The route that forms each ``a b`` as one series step by ``b`` prepared:
    the kept term scaled by ``factor`` and its largest modulus, and with
    ``summed`` the running sum ``a + term`` and its largest modulus.  A
    right factor serves every pair it is the factor of, and each left
    operand is fed twice: one read forms a plan, the next reads it."""
    def step(right, a):
        kept, top, total, total_max = _step(right, a.terms, factor,
                                            dict(a.terms) if summed else None)
        summed_part = (bits(total.items()), total_max.hex()) if summed else ()
        return bits(kept.items()), top.hex(), *summed_part

    def route(ctx, pairs):
        rights, out = {}, []
        with np.errstate(all="ignore"):  # as a series enters it
            for a, b in pairs:
                right = rights.setdefault(id(b), RightFactor(b))
                out.append([outcome(lambda: step(right, a)) for _ in range(2)])
        return out
    return route


def _step_reference(factor, summed):
    def form(ctx, a, b):
        term = geometric_product_ref(a, b)
        if factor is not None:
            term = term * factor
        total = a + term if summed else None
        summed_part = (bits(total), total.max_abs().hex()) if summed else ()
        return bits(term), term.max_abs().hex(), *summed_part

    pairs_once = per_pair(form)
    return lambda ctx, pairs: [[o, o] for o in pairs_once(ctx, pairs)]


def _commutator_ref(ctx, a, b):
    """``a ζ⁻¹ b - b ζ⁻¹ a`` from the reference product."""
    zeta_inv = ctx.zeta_inv
    return bits(geometric_product_ref(geometric_product_ref(a, zeta_inv), b)
                - geometric_product_ref(geometric_product_ref(b, zeta_inv), a))


def _by_zeta_ref(ctx, pairs):
    return PRODUCT(ctx, [(x, ctx.zeta) for pair in pairs for x in pair])


PRODUCT = of_each(geometric_product_ref)
COMMUTATOR = per_pair(_commutator_ref)
STEPS = {"": (None, False), ", 1/k": (complex(1.0 / 3), False),
         ", 1/k and a sum": (complex(1.0 / 3), True)}
STEP_REFERENCES = {label: _step_reference(*args) for label, args in STEPS.items()}

# (name, route, reference): each route's outcomes must be its reference's
ROUTES = [
    ("geometric_product", of_each(geometric_product), PRODUCT),
    ("loop", of_each(_loop), PRODUCT),
    ("array kernel, one product", forced(of_each(geometric_product), _NUMPY_MIN_PAIRS=0), PRODUCT),
    ("array kernel, one call", in_one_call(_kernel_batch), PRODUCT),
    ("_batch_products", in_one_call(_batch), PRODUCT),
    ("_batch_products, cap 64", forced(in_one_call(_batch), _BATCH_PAIRS=64), PRODUCT),
    ("_batch_products by ζ", in_one_call(_by_zeta), _by_zeta_ref),
    ("_batch_products by ζ, cap 64", forced(in_one_call(_by_zeta), _BATCH_PAIRS=64),
     _by_zeta_ref),
    *[(f"_step{label}{plans}", forced(_stepped(*args), _PLAN_MIN_PAIRS=min_pairs),
       STEP_REFERENCES[label])
      for label, args in STEPS.items()
      for plans, min_pairs in (("", multivector._PLAN_MIN_PAIRS), (", plans from 1 pair", 1))],
    ("iso_commutators", in_one_call(_commutators), COMMUTATOR),
    ("iso_commutator", per_pair(lambda ctx, a, b: bits(iso_commutator(ctx, a, b))), COMMUTATOR),
    ("_commutator_terms", in_one_call(_oracle_commutators), COMMUTATOR),
    *[(product.__name__, of_each(product), of_each(reference)) for product, reference in (
        (wedge, wedge_ref), (left_contraction, left_contraction_ref),
        (right_contraction, right_contraction_ref))],
]


def gives(route, want, ctx, pairs) -> bool:
    """Whether ``route``'s outcomes on ``pairs`` are ``want``, its
    reference's."""
    got = route(ctx, pairs)
    if isinstance(got, Raised):
        want = next((o for o in want if isinstance(o, Raised)), want)
    return got == want


def differing_routes(ctx, pairs) -> list[str]:
    """The names of the routes whose outcomes on ``pairs`` are not the
    reference's; each reference runs once."""
    wants = {}
    for _, _, reference in ROUTES:
        if reference not in wants:
            wants[reference] = reference(ctx, pairs)
    return [name for name, route, reference in ROUTES
            if not gives(route, wants[reference], ctx, pairs)]


# -- the cases ---------------------------------------------------------------------------

S30, S13, S07, S44, S12 = (Signature(3, 0), Signature(1, 3), Signature(0, 7), Signature(4, 4),
                           Signature(12, 0))
_context_rng = np.random.default_rng(2007)
CONTEXTS = {
    "cl3_0": random_invertible_context(S30, _context_rng),
    "cl1_3": random_invertible_context(S13, _context_rng),
    "cl1_3, ζ = 1": IsoContext.identity(S13),
    "cl0_7": random_invertible_context(S07, _context_rng),
    "cl4_4": random_invertible_context(S44, _context_rng),
    # a random Cl(12,0) isounit would invert by a 4096 x 4096 solve
    "cl12_0": IsoContext.create(S12.scalar(1.3) + 0.4 * S12.e(2, 7)),
}


def _element(sig, rng, n_terms, scale=1.0, kind="mixed", grades=None):
    """A random element with real, imaginary or complex coefficients."""
    x = random_multivector(sig, rng, n_terms, scale=scale, grades=grades)
    part = {"real": lambda c: complex(c.real, 0.0), "imag": lambda c: complex(0.0, c.imag),
            "mixed": lambda c: c}[kind]
    return Multivector(sig, {m: part(c) for m, c in x.terms.items()})


@st.composite
def _cases(draw):
    """A context and pairs drawn from a pool of elements of mixed sizes and
    kinds, empty ones among them, on both sides of the array threshold
    where the algebra allows: the pool holds the negation of one element
    (``b, -b`` is always a pair) and a copy of one whose real parts are
    -0.0, and an element may recur."""
    ctx = draw(st.sampled_from([CONTEXTS[k] for k in ("cl3_0", "cl1_3", "cl1_3, ζ = 1", "cl0_7",
                                                      "cl12_0")]))
    sig = ctx.signature
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 3e-8]))
    kind = st.sampled_from(["real", "imag", "mixed"])
    sizes = draw(st.lists(st.integers(0, min(sig.blade_count, 40)), min_size=1, max_size=6))
    pool = [_element(sig, rng, k, scale, draw(kind)) for k in sizes]
    pool.append(Multivector(sig, {m: complex(-0.0, c.imag) for m, c in pool[0]}))
    pool.append(-pool[-2])
    index = st.integers(0, len(pool) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=6))
    pairs.append((len(pool) - 3, len(pool) - 1))
    return ctx, [(pool[i], pool[j]) for i, j in pairs]


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_every_route_gives_the_reference_outcome(case):
    assert differing_routes(*case) == []


def _corpus():
    """The fixed cases, by name: each a context and its pairs."""
    rng = np.random.default_rng(31)
    cases = {}

    def shaped(sig, shapes, scale=1.0):
        return [(_element(sig, rng, na, scale), _element(sig, rng, nb, scale)) for na, nb in shapes]

    w = _element(S13, rng, 16)
    z = Multivector(S13, {0: complex(-0.0, 2.0), 1: complex(1.5, -0.0), 15: complex(-0.0, -0.5)})
    cases["signed zeros"] = CONTEXTS["cl1_3"], [(z, z), (z, -z), (z, w), (w, z)]

    tiny = Multivector(S07, {0: complex(1.0, 5e-324), 3: complex(1e-310, 2.0),
                             96: complex(-3.0, -4e-320)})
    huge = Multivector(S07, {0: complex(1e300, 1e-300), 5: complex(-1e-300, 1e300)})
    small = Multivector(S07, {0: complex(1e-300, 1.0), 6: complex(2.0, -1e-300)})
    cases["subnormals and 1e±300"] = CONTEXTS["cl0_7"], [
        (tiny, tiny), (tiny, huge), (huge, small), (small, huge), (small, small), (tiny, small)]

    # products of modulus PRUNE_EPS, an ulp either side, and the two moduli
    # on which np.abs and abs fall on opposite sides of PRUNE_EPS
    eps = multivector.PRUNE_EPS
    edges = [eps, math.nextafter(eps, 0.0), math.nextafter(eps, math.inf), *_SPLIT_MODULI]
    cases["moduli at the prune threshold"] = CONTEXTS["cl3_0"], [
        (S30.scalar(2 * c), S30.scalar(0.5)) for c in edges]

    b = _element(S07, rng, 24)
    square = _element(S07, rng, 21, grades=[2])  # every bivector: 441 term pairs
    cases["b, -b and a bivector squared"] = CONTEXTS["cl0_7"], [(b, -b), (-b, b), (square, square)]
    b, square = _element(S44, rng, 24), _element(S44, rng, 28, grades=[2])
    cases["b, -b and a bivector squared in Cl(4,4)"] = CONTEXTS["cl4_4"], [
        (b, -b), (square, square)]
    square = _element(S12, rng, 66, grades=[2])
    cases["a Cl(12,0) bivector squared"] = CONTEXTS["cl12_0"], [(square, square)]

    zero = Multivector(S13, {})
    cases["empty operands"] = CONTEXTS["cl1_3"], [(zero, w), (w, zero), (zero, zero)]
    cases["an empty batch"] = CONTEXTS["cl1_3"], []

    big = shaped(S07, [(64, 64)], 1e200)
    cases["products past the float range"] = CONTEXTS["cl0_7"], [
        *big, (S07.scalar(1.3e308), S07.scalar(1 + 1j)), (huge, huge), (small, small)]
    cases["sums past the float range"] = CONTEXTS["cl3_0"], [
        (Multivector(S30, {0: 1e308, 1: 1e308}), Multivector(S30, {0: 1.0, 1: 1.0})),
        (S30.scalar(1.5e308), S30.scalar(1.0))]

    # term pairs either side of the plan crossover, the array threshold and the batch cap
    cases["63, 64 and 65 term pairs"] = CONTEXTS["cl0_7"], shaped(S07, [(7, 9), (8, 8), (5, 13)])
    cases["363, 364 and 365 term pairs"] = CONTEXTS["cl0_7"], shaped(
        S07, [(11, 33), (13, 28), (5, 73)]) + shaped(S07, [(13, 28)], 3e-8)
    cases["8064, 8192 and 8320 term pairs"] = CONTEXTS["cl12_0"], shaped(
        S12, [(63, 128), (64, 128), (65, 128)]) + shaped(S12, [(128, 128)], 3e-8)
    return cases


CORPUS = _corpus()


@functools.cache
def _corpus_reference(case, reference):
    """``reference``'s outcomes on a case of either corpus, formed once for
    every route it holds."""
    return reference(*(CORPUS | SERIES_CORPUS)[case])


@pytest.mark.parametrize("name, route, reference", ROUTES, ids=[name for name, _, _ in ROUTES])
@pytest.mark.parametrize("case", CORPUS)
def test_every_route_gives_the_reference_outcome_on_the_corpus(case, name, route, reference):
    assert gives(route, _corpus_reference(case, reference), *CORPUS[case])


def test_a_commutator_past_the_float_range_raises_the_reference_error():
    """``[1e154 e0, 1e154 e1]`` is ``2e308 e01``: each ⋄ product is finite and
    their difference is not."""
    assert differing_routes(CONTEXTS["cl1_3, ζ = 1"], [(S13.e(0) * 1e154, S13.e(1) * 1e154)]) == []


# -- the exponential series ----------------------------------------------------------


@functools.cache
def _blade_row(sig: Signature, ma: int) -> list[tuple[int, int]]:
    """:func:`blade_geometric` of ``ma`` with each blade of ``sig``, memoized:
    a series meets few blade pairs, and each often."""
    return [blade_geometric(sig, ma, mb) for mb in range(sig.blade_count)]


def series_ref(first, a, what, between=None):
    """The series ``Σ_k t_k`` with ``t_0 = first`` and ``t_k = (t_{k-1}
    between a) · (1/k)`` (``between`` left out when None), summed as
    ``sum = sum + t_k`` on elements with the reference product, to the
    first term whose largest modulus is at most ``_EXP_REL_TOL`` times the
    sum's: the literal loop that ``isotopy._exp_series`` must match."""
    term = total = first
    for k in range(1, isotopy._EXP_MAX_TERMS + 1):
        try:
            if between is not None:
                term = geometric_product_ref(term, between, _blade_row)
            term = geometric_product_ref(term, a, _blade_row) * (1.0 / k)
            total = total + term
        except ValueError:  # a non-finite coefficient: the operands are finite
            raise ConvergenceError(f"{what} overflowed at term {k}") from None
        if term.max_abs() <= isotopy._EXP_REL_TOL * max(total.max_abs(), 1e-300):
            return total
    raise ConvergenceError(f"{what} did not settle in {isotopy._EXP_MAX_TERMS} terms")


def _exp_ref(ctx, a):
    return series_ref(a.signature.scalar(1.0), a, "exponential series")


def _clifford_exp(ctx, a):
    return clifford_exp(a)


def _iso_exp_ref(ctx, a):
    """``exp(a ζ⁻¹) ζ``, as :func:`iso_exp` forms it."""
    return geometric_product_ref(_exp_ref(ctx, geometric_product_ref(a, ctx.zeta_inv)), ctx.zeta)


def of_each_exponent(series):
    """The route, or reference, that sums ``series(ctx, a)`` for each
    exponent on its own."""
    return lambda ctx, exponents: [outcome(lambda: bits(series(ctx, a))) for a in exponents]


EXP = of_each_exponent(_exp_ref)
ISO_EXP_SERIES = of_each_exponent(
    lambda ctx, a: series_ref(ctx.zeta, a, "iso exponential series", ctx.zeta_inv))
EXP_IN_10_TERMS = forced(EXP, isotopy, _EXP_MAX_TERMS=10)
PLANS = {"": {}, ", plans from 1 pair": {"_PLAN_MIN_PAIRS": 1},
         ", loop only": {"_PLAN_MIN_PAIRS": 1 << 40}, ", plans not kept": {"_PLAN_CACHE_PAIRS": 0}}

# (name, route, reference), as ROUTES: a route maps a context and its
# exponents to one outcome per exponent
SERIES_ROUTES = [
    *[(f"{name}{label}", forced(of_each_exponent(series), **constants), reference)
      for name, series, reference in (
          ("clifford_exp", _clifford_exp, EXP),
          ("iso_exp_series", iso_exp_series, ISO_EXP_SERIES))
      for label, constants in PLANS.items()],
    ("iso_exp", of_each_exponent(iso_exp), of_each_exponent(_iso_exp_ref)),
    ("clifford_exp, 10 terms", forced(of_each_exponent(_clifford_exp), isotopy, _EXP_MAX_TERMS=10),
     EXP_IN_10_TERMS),
]


def _series_corpus():
    """The fixed series cases, by name: each a context and its exponents."""
    rng = np.random.default_rng(220)
    dense = []
    for norm in (0.01, 0.7, 3.0, 12.0, 40.0, 90.0, 140.0, 180.0, 220.0):
        for lead in (0.0, 0.95):
            x = random_multivector(S13, rng, 16)
            x = x * ((1.0 - lead) * norm / sum(abs(c) for c in x.terms.values()))
            dense.append(x + S13.e(1, 2) * (lead * norm))
    u = random_multivector(S13, np.random.default_rng(29), 16)
    u = u * (1.0 / u.norm())
    far = random_multivector(S13, np.random.default_rng(6), 16)
    rng = np.random.default_rng(8)
    filling = random_multivector(S07, rng, 8, scale=0.5)
    return {
        # random exponents, and ones led by the rotation bivector e12, whose
        # series exhaust the term cap from an ℓ1 norm near 90 on
        "dense, ℓ1 0.01 to 220": (random_invertible_context(S13, np.random.default_rng(3)), dense),
        # about u of unit norm: 3 u; -50 + 0.1 u, which cancels
        # catastrophically; and 200 e12 + 0.1 u, which exhausts the term cap
        "the dense_api exp kinds": (IsoContext.create(S13.scalar(1.0) + S13.e(0) * 0.2),
                                    [u * 3.0, u * 0.1 - 50.0, u * 0.1 + S13.e(1, 2) * 200.0]),
        # the square's e1, 1.8e-14, passes the product's prune and falls to
        # 0.9e-14 under the 1/2 of term 2
        "a term only the scaled prune drops": (
            IsoContext.identity(S30), [Multivector(S30, {0: 0.6, 1: 1.5e-14})]),
        # term 2 is -1.0000000000000002, so the sum's scalar falls to
        # -2.2e-16 and is pruned, and term 4 adds it again after e12
        "a blade the running sum drops and adds again": (
            IsoContext.identity(S30), [S30.e(0, 1) * math.sqrt(2.0)]),
        # terms grow as 1e6**k / k!, and the product of term 67 overflows
        "exp(1e6)": (IsoContext.identity(S30), [S30.scalar(1e6)]),
        # from the second step on, products of 256 term pairs through plans
        "a dense exponent of ℓ1 1e6": (
            CONTEXTS["cl1_3, ζ = 1"], [far * (1e6 / sum(abs(c) for c in far.terms.values()))]),
        # the first products are 8 term pairs; the terms fill in to 72 blades
        "an 8-term Cl(0,7) exponent": (
            random_invertible_context(S07, rng), [filling]),
    }


SERIES_CORPUS = _series_corpus()


@pytest.mark.parametrize("name, route, reference", SERIES_ROUTES,
                         ids=[name for name, _, _ in SERIES_ROUTES])
@pytest.mark.parametrize("case", SERIES_CORPUS)
def test_every_series_route_gives_the_reference_outcome(case, name, route, reference):
    assert gives(route, _corpus_reference(case, reference), *SERIES_CORPUS[case])


def test_the_series_cases_reach_their_edges():
    """The reference outcomes show what each case is named for."""
    def exp(case, reference=EXP):
        return _corpus_reference(case, reference)

    dense = exp("dense, ℓ1 0.01 to 220")
    assert not isinstance(dense[0], Raised) and isinstance(dense[-1], Raised)
    assert [isinstance(o, Raised) for o in exp("the dense_api exp kinds")] == [False, False, True]
    a = SERIES_CORPUS["a term only the scaled prune drops"][1][0]
    eps = multivector.PRUNE_EPS
    assert eps < abs(geometric_product_ref(a, a).coeff(1)) <= 2 * eps
    assert [mask for mask, _, _ in exp("a blade the running sum drops and adds again")[0]] == [3, 0]
    assert exp("exp(1e6)") == [
        Raised("ConvergenceError", "exponential series overflowed at term 67")]
    assert exp("exp(1e6)", EXP_IN_10_TERMS) == [
        Raised("ConvergenceError", "exponential series did not settle in 10 terms")]
    assert "overflowed at term" in exp("a dense exponent of ℓ1 1e6")[0].text
    assert len(exp("an 8-term Cl(0,7) exponent")[0]) == 72
