"""Generator families and the structure-constant oracle."""

import functools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bit_identity import bits
from isoclifford import lie_su
from isoclifford.flavor_matrices import structure_constants_f
from isoclifford.isotopy import (
    IsoContext,
    iso_commutator,
    iso_product,
    random_invertible_context,
)
from isoclifford.lie_su import (
    ClosureViolationError,
    GeneratorSet,
    span_rank,
    structure_constants,
    su3_case1_generators,
    su3_case2_generators,
    su_n_generators,
)
from isoclifford.multivector import Signature, geometric_product, wedge

SIGNATURES = {"su2": Signature(4, 0), "su3": Signature(6, 0), "su6": Signature(12, 0),
              "case1": Signature(1, 3), "case2": Signature(1, 3)}

FAMILIES = {
    "su2": functools.partial(su_n_generators, 2),
    "su3": functools.partial(su_n_generators, 3),
    "su6": functools.partial(su_n_generators, 6),
    "case1": su3_case1_generators,
    "case2": su3_case2_generators,
}


# -- the reference oracle: each commutator as the difference of two ⋄ products,
# and a loop that fills c ----------------------------------------------------------------


def _reference_coefficient_matrix(elements):
    rows = {mask: idx for idx, mask in
            enumerate(sorted({mask for x in elements for mask in x.terms}))}
    mat = np.zeros((len(rows), len(elements)), dtype=complex)
    for k, x in enumerate(elements):
        for mask, coeff in x.terms.items():
            mat[rows[mask], k] = coeff
    return mat


def reference_structure_constants(gs):
    """The per-pair oracle: ``g_i ⋄ g_j - g_j ⋄ g_i`` for each pair, one
    least-squares solve, and a Python loop that fills ``c``."""
    m, g, ctx = len(gs.generators), gs.generators, gs.context
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    comms = [iso_product(ctx, g[i], g[j]) - iso_product(ctx, g[j], g[i]) for i, j in pairs]
    coeffs = _reference_coefficient_matrix([*g, gs.context.zeta, *comms])
    span, targets = coeffs[:, :m + 1], coeffs[:, m + 1:]
    solution, *_ = np.linalg.lstsq(span, targets, rcond=None)
    residuals = np.abs(span @ solution - targets).max(axis=0) if pairs else np.zeros(0)

    c = np.zeros((m, m, m), dtype=complex)
    unit_comp = np.zeros((m, m), dtype=complex)
    worst = 0.0
    for col, (i, j) in enumerate(pairs):
        if residuals[col] > 1e-8:
            raise ClosureViolationError(
                f"{gs.label}: commutator ({i},{j}) escapes the span "
                f"(residual {residuals[col]:.3e})")
        c[i, j, :] = solution[:m, col]
        c[j, i, :] = -solution[:m, col]
        unit_comp[i, j] = solution[m, col]
        unit_comp[j, i] = -solution[m, col]
        worst = max(worst, float(residuals[col]))
    return lie_su.StructureConstants(c, unit_comp, worst)


def _assert_same_bytes(got, want):
    assert got.c.tobytes() == want.c.tobytes()
    assert got.unit_component.tobytes() == want.unit_component.tobytes()
    assert repr(got.max_residual) == repr(want.max_residual)


def _two_term_contexts(sig):
    """Isounits ``s + t e_i e_j`` over several ``i < j``."""
    last = sig.dim - 1
    return [IsoContext.create(sig.scalar(s) + t * sig.e(i, j))
            for (i, j), (s, t) in zip([(0, 1), (1, last), (0, last), (last - 1, last)],
                                      [(1.3, 0.4), (0.9, -0.7), (2.0, 0.25), (1.1, 0.6)])]


def _seeded_context(family):
    """``1.7 + 0.4 e01`` for su(n); for case 1 and case 2, the first and the
    second draw from a generator seeded with 29."""
    sig = SIGNATURES[family]
    if family in ("case1", "case2"):
        rng = np.random.default_rng(29)
        first = random_invertible_context(sig, rng)
        return first if family == "case1" else random_invertible_context(sig, rng)
    return IsoContext.create(sig.scalar(1.7) + 0.4 * sig.e(0, 1))


@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_equals_the_per_pair_reference_byte_for_byte(family):
    sig = SIGNATURES[family]
    contexts = [None, *_two_term_contexts(sig), _seeded_context(family),
                random_invertible_context(sig, np.random.default_rng(31))]
    for ctx in contexts:
        gs = FAMILIES[family]() if ctx is None else FAMILIES[family](ctx)
        _assert_same_bytes(structure_constants(gs), reference_structure_constants(gs))


def test_a_nan_residual_is_a_closure_violation(monkeypatch):
    # the first failing pair in pair order is named; ``residual > 1e-8`` lets NaN pass
    lstsq = np.linalg.lstsq

    def nan_solution(a, b, rcond=None):
        solution, *rest = lstsq(a, b, rcond=rcond)
        solution[:, 1:] = np.nan
        return (solution, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", nan_solution)
    with pytest.raises(ClosureViolationError, match=r"\(0,2\) escapes the span \(residual nan\)"):
        structure_constants(su_n_generators(2))


def test_oracle_memory_stays_bounded():
    # a dense (product, blade) bin array for the 1190 products would take 39 MB
    sig = SIGNATURES["su6"]
    gs = su_n_generators(6, IsoContext.create(sig.scalar(1.1) + 0.3 * sig.e(2, 7)))
    tracemalloc.start()
    try:
        structure_constants(gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


# -- the rigid reference: a family built without a context is the family
# lifted by zeta = 1, bit for bit ------------------------------------------------------


def _plain_wedge_chain(vectors, ctx):
    """The rigid chain: right-folded plain wedges of unlifted basis vectors."""
    out = vectors[-1]
    for v in reversed(vectors[:-1]):
        out = wedge(v, out)
    return out


class _RigidReference:
    """A family on the rigid path: the scalar unit 1 of the ambient algebra
    as both ζ and ζ⁻¹, so that :func:`iso_product` on it is the plain
    product ``ab``."""

    def __init__(self, label, generators):
        self.label = label
        self.generators = generators
        one = generators[0].signature.scalar(1.0)
        self.context = SimpleNamespace(zeta=one, zeta_inv=one)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_without_context_is_the_rigid_reference(family, monkeypatch):
    gs = FAMILIES[family]()
    with monkeypatch.context() as patch:
        # the same formulas on unlifted vectors and plain wedges
        patch.setattr(lie_su, "lift", lambda ctx, a: a)
        patch.setattr(lie_su, "_wedge_chain", _plain_wedge_chain)
        ref = _RigidReference(family, FAMILIES[family]().generators)
    assert len(gs) == len(ref.generators)
    for got, want in zip(gs.generators, ref.generators):
        assert bits(got) == bits(want)
    for i in range(len(gs)):
        for j in range(len(gs)):
            a, b = ref.generators[i], ref.generators[j]
            got = iso_commutator(gs.context, gs.generators[i], gs.generators[j])
            assert bits(got) == bits(a * b - b * a)
    _assert_same_bytes(structure_constants(gs), reference_structure_constants(ref))
    assert span_rank(gs) == span_rank(ref)


# -- families and the oracle ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 6])
def test_sun_unit_component(n):
    sc = structure_constants(su_n_generators(n))
    assert abs(sc.unit_component).max() < 1e-9


def test_sun_rejects_out_of_range():
    with pytest.raises(ValueError):
        su_n_generators(1)
    with pytest.raises(ValueError):
        su_n_generators(7)


def test_sun_generator_shapes():
    gs = su_n_generators(2)
    sig = gs.signature
    e = [sig.e(k) for k in range(4)]
    assert (gs.generators[0] - (wedge(e[0], e[1]) + wedge(e[2], e[3]))).max_abs() == 0.0
    assert (gs.generators[1] - (wedge(e[0], e[3]) - wedge(e[2], e[1]))).max_abs() == 0.0
    assert (gs.generators[2] - (wedge(e[0], e[2]) - wedge(e[1], e[3]))).max_abs() == 0.0


def test_broken_cartan_element_is_rejected():
    # replacing the corrected Cartan element with a null one breaks closure
    gs = su_n_generators(2)
    sig = gs.signature
    broken = GeneratorSet("broken", gs.context, gs.generators[:2] + (sig.scalar(0.0),))
    with pytest.raises(ClosureViolationError):
        structure_constants(broken)


@pytest.mark.parametrize("n", [2, 3])
def test_sun_iso_matches_rigid(n):
    rng = np.random.default_rng(7)
    sig = Signature(2 * n, 0)
    ctx = random_invertible_context(sig, rng)
    rigid = su_n_generators(n)
    iso = su_n_generators(n, ctx)
    for g, gi in zip(rigid.generators, iso.generators):
        assert (geometric_product(g, ctx.zeta) - gi).max_abs() < 1e-9
    c_r = structure_constants(rigid).c
    c_i = structure_constants(iso).c
    assert np.abs(c_r - c_i).max() < 1e-9


def test_structure_constants_antisymmetry():
    sc = structure_constants(su_n_generators(3))
    assert np.abs(sc.c + sc.c.transpose(1, 0, 2)).max() < 1e-10


def test_jacobi_from_constants():
    sc = structure_constants(su_n_generators(2))
    c = sc.c
    m = c.shape[0]
    worst = 0.0
    for a in range(m):
        for b in range(m):
            for d in range(m):
                total = 0.0
                for k in range(m):
                    total += (c[a, b, k] * c[k, d, :] + c[b, d, k] * c[k, a, :]
                              + c[d, a, k] * c[k, b, :])
                worst = max(worst, np.abs(total).max())
    assert worst < 1e-8


def test_case1_closure_and_constants():
    sc = structure_constants(su3_case1_generators())
    assert sc.max_residual < 1e-9
    f = structure_constants_f(3)
    assert np.abs(sc.c - 2j * f).max() < 1e-9


def test_case1_example_commutator():
    gs = su3_case1_generators()
    comm = iso_commutator(gs.context, gs.generators[0], gs.generators[1])
    # single component on the third generator, factor 2i
    assert (comm - 2j * gs.generators[2]).max_abs() < 1e-12
    assert (comm - 1j * gs.generators[2]).max_abs() > 0.4


def test_case2_closure():
    sc = structure_constants(su3_case2_generators())
    assert sc.max_residual < 1e-9
    # constants live exactly on the Gell-Mann pattern with magnitude 2
    f = structure_constants_f(3)
    pattern = np.abs(f) > 1e-12
    assert np.abs(sc.c[~pattern]).max() < 1e-9
    assert np.abs(np.abs(sc.c[pattern]) - 2 * np.abs(f[pattern])).max() < 1e-9


def test_case2_iso_transport():
    rng = np.random.default_rng(13)
    ctx = random_invertible_context(Signature(1, 3), rng)
    rigid = su3_case2_generators()
    iso = su3_case2_generators(ctx)
    for g, gi in zip(rigid.generators, iso.generators):
        assert (geometric_product(g, ctx.zeta) - gi).max_abs() < 1e-9


def test_iso_exponentiation_of_generators():
    # group elements come from iso-exponentials of dressed generators:
    # iso_exp(t * G zeta) = exp(t G) zeta
    from isoclifford.isotopy import clifford_exp, iso_exp

    rng = np.random.default_rng(19)
    ctx = random_invertible_context(Signature(1, 3), rng)
    rigid = su3_case1_generators()
    iso = su3_case1_generators(ctx)
    t = 0.3
    for g, gi in list(zip(rigid.generators, iso.generators))[:3]:
        got = iso_exp(ctx, t * gi)
        want = geometric_product(clifford_exp(t * g), ctx.zeta)
        assert (got - want).max_abs() < 1e-9


def test_appendix_ordering():
    gs = su_n_generators(6)
    # E block first (15), then F (15), then the five Cartan elements
    sig = gs.signature
    e = [sig.e(k) for k in range(12)]
    first_e = wedge(e[0], e[1]) + wedge(e[6], e[7])
    assert (gs.generators[0] - first_e).max_abs() == 0.0
    first_f = wedge(e[0], e[7]) - wedge(e[6], e[1])
    assert (gs.generators[15] - first_f).max_abs() == 0.0
    first_h = wedge(e[0], e[6]) - wedge(e[1], e[7])
    assert (gs.generators[30] - first_h).max_abs() == 0.0
