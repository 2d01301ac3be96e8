"""Generator families and the structure-constant oracle."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from isoclifford import lie_su
from isoclifford.flavor_matrices import structure_constants_f
from isoclifford.isotopy import random_invertible_context
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

FAMILIES = {
    "su2": functools.partial(su_n_generators, 2),
    "su3": functools.partial(su_n_generators, 3),
    "su6": functools.partial(su_n_generators, 6),
    "case1": su3_case1_generators,
    "case2": su3_case2_generators,
}


# -- the rigid reference: a family built without a context is the family
# lifted by zeta = 1, bit for bit ------------------------------------------------------


def _plain_wedge_chain(vectors, ctx):
    """The rigid chain: right-folded plain wedges of unlifted basis vectors."""
    out = vectors[-1]
    for v in reversed(vectors[:-1]):
        out = wedge(v, out)
    return out


class _RigidReference:
    """A family on the rigid path: plain ``ab - ba`` commutators and the
    scalar unit 1 of the ambient algebra."""

    def __init__(self, label, generators):
        self.label = label
        self.generators = generators
        self.context = SimpleNamespace(zeta=generators[0].signature.scalar(1.0))

    def commutator(self, i, j):
        a, b = self.generators[i], self.generators[j]
        return geometric_product(a, b) - geometric_product(b, a)


def _bits(x):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()]


def _assert_bit_identical(got, want):
    assert got == want
    assert _bits(got) == _bits(want)


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
        _assert_bit_identical(got, want)
    for i in range(len(gs)):
        for j in range(len(gs)):
            _assert_bit_identical(gs.commutator(i, j), ref.commutator(i, j))
    got, want = structure_constants(gs), structure_constants(ref)
    assert np.array_equal(got.c, want.c)
    assert np.array_equal(got.unit_component, want.unit_component)
    assert got.max_residual == want.max_residual
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
    comm = gs.commutator(0, 1)
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
