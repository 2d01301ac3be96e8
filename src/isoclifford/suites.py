"""Named verification suites behind ``isoclifford verify``.

Each suite re-runs the module invariants with a fixed random seed and
returns one record per check plus, where relevant, a comparison block
holding previously published values next to the computed ones (those
comparisons are reported, never asserted: several printed values are
not reproducible and the flags say so).

A check whose samples are independent draws all of them first, in the
order the random generator gave them when each sample was formed on its
own (products draw nothing), and then writes its identity over the whole
sample lists: each product in it, ``a b`` then ``(a b) c`` say, is one
call of :func:`~isoclifford.multivector._batch_products` on the lists of
its factors, and each iso-commutator one call of
:func:`~isoclifford.isotopy.iso_commutators`.  Every product and
commutator keeps its bits, so every residual and every report does too.
The kernel bounds the arrays of each of its calls; what a check holds
between calls is its lists of products, a few MB at most
(``tests/test_suites.py`` bounds the clifford and su6 suites' peaks).
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from . import dirac, flavor, lie_su, octonion
from .flavor_matrices import (
    charge_operator,
    decompose_mass,
    decomposition_basis,
    gell_mann,
    hypercharge_operator,
    iso_expectation,
    iso_lift_operator,
    iso_mass_operator,
    iso_matrix_commutator,
    iso_states,
    iso_tensor,
    isospin_operator,
    isounit_inverse,
    mass_operator,
    structure_constants_f,
    su3_closed_form_coefficients,
    su6_quoted_coefficients,
    su6_trace_form_coefficients,
)
from .isotopy import (
    IsoComplex,
    IsoContext,
    clifford_exp,
    geno_commutator,
    iso_add,
    iso_commutator,
    iso_commutators,
    iso_exp,
    iso_exp_series,
    iso_metric,
    iso_mul,
    iso_product,
    iso_wedge,
    lift,
    random_invertible_context,
)
from .multivector import (
    Multivector,
    NonFiniteError,
    Signature,
    _batch_products,
    geometric_product,
    grade_involution,
    inverse,
    left_contraction,
    random_multivector,
    random_vector,
    reversion,
    right_contraction,
    wedge,
)

DEFAULT_SEED = 0xC1F0


class _Recorder:
    """Checks and comparisons of one suite's run, each named
    ``<suite>.<name>``.

    A suite calls :meth:`add` once per sample with the two sides of its
    identity; the recorder is the one place where a residual is measured
    and where samples fold into a check, whose residual is the largest
    ``|got - want|`` recorded under its name.  A check that scales or signs
    its own residual passes that value with ``want = 0``.  ``checks`` maps
    each check name to ``(residual, tolerance)``.
    """

    def __init__(self, suite: str):
        self.checks: dict[str, tuple[float, float]] = {}
        self.comparisons: dict = {}
        self.suite = suite

    def add(self, name: str, got, want, tolerance: float) -> None:
        """Record one sample, ``|got - want|``: the largest coefficient of a
        :class:`Multivector`, the largest entry of an array or the modulus
        of a number.  A residual that is not finite raises ``ValueError``
        naming the check, so no NaN can hide in the fold."""
        name = f"{self.suite}.{name}"
        try:
            diff = got - want
        except NonFiniteError as err:  # a Multivector refuses non-finite coefficients
            raise ValueError(f"check {name}: {err}") from None
        if isinstance(diff, Multivector):
            residual = float(diff.max_abs())
        elif isinstance(diff, np.ndarray):
            residual = float(np.abs(diff).max())
        else:
            residual = float(abs(diff))
        if not math.isfinite(residual):
            raise ValueError(f"check {name} has a non-finite residual ({residual})")
        worst = self.checks.get(name, (0.0, tolerance))[0]
        self.checks[name] = (max(worst, residual), tolerance)

    def add_flag(self, name: str, ok: bool) -> None:
        # boolean checks encoded as residual 0/1
        self.add(name, 0.0 if ok else 1.0, 0.0, 0.5)

    def compare(self, name: str, block: dict) -> None:
        """Record one comparison block; a float in it that is not finite
        raises ``ValueError`` naming the comparison."""
        name = f"{self.suite}.{name}"
        bad = next((x for x in _floats(block) if not math.isfinite(x)), None)
        if bad is not None:
            raise ValueError(f"comparison {name} has a non-finite value ({bad})")
        self.comparisons[name] = block


def _floats(value):
    """The floats in a nest of dicts, lists and tuples."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _floats(item)


def _rng():
    return np.random.default_rng(DEFAULT_SEED)


TEST_SIGNATURES = (Signature(3, 0), Signature(1, 3), Signature(0, 7))


# -- clifford ------------------------------------------------------------------------


def suite_clifford(rec: _Recorder) -> None:
    rng = _rng()
    for sig in TEST_SIGNATURES:
        tag = f"cl{sig.p}{sig.q}"
        a, b, c = zip(*(tuple(random_multivector(sig, rng, 8) for _ in range(3))
                        for _ in range(200)))
        for left, right in zip(_batch_products(_batch_products(a, b), c),
                               _batch_products(a, _batch_products(b, c))):
            rec.add(f"{tag}.associativity", left, right, 1e-10)

        for i in range(sig.dim):
            for j in range(sig.dim):
                ei, ej = sig.e(i), sig.e(j)
                g = 2.0 * (sig.metric(i) if i == j else 0.0)
                rec.add(f"{tag}.clifford_relation", ei * ej + ej * ei, g, 0.0)

        for _ in range(50):
            v = random_vector(sig, rng)
            psi = random_multivector(sig, rng, 8)
            rec.add(f"{tag}.fundamental_identity",
                    v * psi, wedge(v, psi) + left_contraction(v, psi), 1e-12)
            rec.add(f"{tag}.contraction_duality", left_contraction(v, psi),
                    -right_contraction(grade_involution(psi), v), 1e-12)

        a, b = zip(*((random_multivector(sig, rng, 8), random_multivector(sig, rng, 8))
                     for _ in range(50)))
        for ab, rev_ba in zip(_batch_products(a, b),
                              _batch_products([reversion(x) for x in b],
                                              [reversion(x) for x in a])):
            rec.add(f"{tag}.reversion_antiautomorphism", reversion(ab), rev_ba, 1e-10)

        for _ in range(20):
            a = sig.scalar(2.0 + rng.random()) + random_multivector(sig, rng, 6, scale=0.4)
            rec.add(f"{tag}.inverse_roundtrip", a * inverse(a), 1, 1e-9)


# -- isotopy -------------------------------------------------------------------------


def suite_isotopy(rec: _Recorder) -> None:
    rng = _rng()
    sig = Signature(1, 3)

    samples = []
    for _ in range(10):
        ctx = random_invertible_context(sig, rng)
        samples += [(ctx, *(random_multivector(sig, rng, 6) for _ in range(3)))
                    for _ in range(10)]
    # each ⋄ product x ⋄ y = (x ζ⁻¹) y and lift x ζ is formed as isotopy
    # forms it; its right factors give geometric_product's bits
    ctxs, a, b, c = zip(*samples)
    z = [ctx.zeta for ctx in ctxs]
    zi = [ctx.zeta_inv for ctx in ctxs]
    a_zi = _batch_products(a, zi)
    ab_c = _batch_products(_batch_products(_batch_products(a_zi, b), zi), c)   # (a ⋄ b) ⋄ c
    a_bc = _batch_products(a_zi, _batch_products(_batch_products(b, zi), c))   # a ⋄ (b ⋄ c)
    a_unit = _batch_products(a_zi, z)                                         # a ⋄ ζ
    unit_a = _batch_products(_batch_products(z, zi), a)                       # ζ ⋄ a
    lifts = _batch_products(_batch_products(_batch_products(a, z), zi),
                            _batch_products(b, z))                            # a ζ ⋄ b ζ
    lift_ab = _batch_products(_batch_products(a, b), z)                       # (a b) ζ
    for k, x in enumerate(a):
        rec.add("diamond.associativity", ab_c[k], a_bc[k], 1e-9)
        rec.add("diamond.unit_law", a_unit[k], x, 1e-10)
        rec.add("diamond.unit_law", unit_a[k], x, 1e-10)
        rec.add("lift.homomorphism", lifts[k], lift_ab[k], 1e-9)

    for s in TEST_SIGNATURES:
        ctx = random_invertible_context(s, rng)
        a, b = zip(*((random_multivector(s, rng, 6), random_multivector(s, rng, 6))
                     for _ in range(30)))
        # [a ζ, b ζ]_ζ = (a b - b a) ζ
        lifted = iso_commutators(ctx, _batch_products(a, ctx.zeta), _batch_products(b, ctx.zeta))
        want = _batch_products([ab - ba for ab, ba in zip(_batch_products(a, b),
                                                          _batch_products(b, a))], ctx.zeta)
        for got, w in zip(lifted, want):
            rec.add("isocommutator.lift_identity", got, w, 1e-9)

    ctx = random_invertible_context(sig, rng)
    a, b, c = zip(*(tuple(random_multivector(sig, rng, 6) for _ in range(3))
                    for _ in range(30)))
    for x, y, z in zip(iso_commutators(ctx, a, iso_commutators(ctx, b, c)),
                       iso_commutators(ctx, b, iso_commutators(ctx, c, a)),
                       iso_commutators(ctx, c, iso_commutators(ctx, a, b))):
        rec.add("isocommutator.jacobi", x + y + z, 0, 1e-9)

    a = random_multivector(sig, rng, 6)
    b = random_multivector(sig, rng, 6)
    rec.add("genocommutator.iso_degeneration",
            geno_commutator(ctx, ctx, a, b), iso_commutator(ctx, a, b), 1e-12)

    for _ in range(10):
        ctx2 = random_invertible_context(sig, rng)
        for _ in range(5):
            a = random_multivector(sig, rng, 5, scale=0.3)
            rec.add("iso_exp.closed_form_vs_series",
                    iso_exp(ctx2, a), iso_exp_series(ctx2, a), 1e-9)

    x = IsoComplex.from_scalar(ctx, 2.0 - 1.0j)
    y = IsoComplex.from_scalar(ctx, 0.5 + 3.0j)
    s = iso_add(x, y)
    p = iso_mul(x, y)
    rec.add("isofield.sum", s.scalar, x.scalar + y.scalar, 1e-10)
    rec.add("isofield.product", p.scalar, x.scalar * y.scalar, 1e-10)
    rec.add("isofield.closure", p.value, ctx.zeta * (x.scalar * y.scalar), 1e-9)

    for mu in range(4):
        for nu in range(4):
            lu = lift(ctx, sig.e(mu))
            lv = lift(ctx, sig.e(nu))
            g = ctx.zeta * (sig.metric(mu) if mu == nu else 0)
            rec.add("iso_metric.lifted_anticommutation",
                    iso_product(ctx, lu, lv) + iso_product(ctx, lv, lu), 2 * g, 1e-10)
            rec.add("iso_metric.lifted_anticommutation", iso_metric(ctx, lu, lv), g, 1e-10)

    for _ in range(20):
        u = random_vector(sig, rng)
        v = random_vector(sig, rng)
        rec.add("iso_wedge.lifted_pair_identity", iso_wedge(ctx, lift(ctx, u), lift(ctx, v)),
                lift(ctx, wedge(u, v)), 1e-9)


# -- octonion ------------------------------------------------------------------------


def suite_octonion(rec: _Recorder) -> None:
    rng = _rng()
    for a in range(1, 8):
        for b in range(1, 8):
            rec.add(f"table.e{a}_e{b}",
                    octonion.oct_product(octonion.oct_unit(a), octonion.oct_unit(b)),
                    octonion.table_product(a, b), 1e-12)

    one = octonion.oct_unit(0)
    for a in range(8):
        u = octonion.oct_unit(a)
        rec.add("unit_element", octonion.oct_product(one, u), u, 1e-12)
        rec.add("unit_element", octonion.oct_product(u, one), u, 1e-12)

    def rand_par():
        comps = rng.standard_normal(8)
        return Multivector(octonion.SIG07,
                           {0: complex(comps[0]),
                            **{1 << i: complex(comps[i + 1]) for i in range(7)}})

    xs, ys = zip(*((rand_par(), rand_par()) for _ in range(200)))
    for x, y, xy in zip(xs, ys, octonion.oct_products(xs, ys)):
        rec.add("norm_composition", octonion.oct_norm(xy),
                octonion.oct_norm(x) * octonion.oct_norm(y), 1e-9)

    xs, ys = zip(*((rand_par(), rand_par()) for _ in range(100)))
    xx = octonion.oct_products(xs, xs)
    for x_xy, xx_y, yx_x, y_xx in zip(
            octonion.oct_products(xs, octonion.oct_products(xs, ys)),
            octonion.oct_products(xx, ys),
            octonion.oct_products(octonion.oct_products(ys, xs), xs),
            octonion.oct_products(ys, xx)):
        rec.add("alternativity", x_xy, xx_y, 1e-9)
        rec.add("alternativity", yx_x, y_xx, 1e-9)

    witness = False
    for a in range(1, 8):
        for b in range(1, 8):
            for c in range(1, 8):
                ea, eb, ec = (octonion.oct_unit(k) for k in (a, b, c))
                lhs = octonion.oct_product(octonion.oct_product(ea, eb), ec)
                rhs = octonion.oct_product(ea, octonion.oct_product(eb, ec))
                witness |= (lhs - rhs).max_abs() >= 1.0
        if witness:
            break
    rec.add_flag("non_associativity_witness", witness)

    z = octonion.oct_unit(1)
    e2, e5 = octonion.oct_unit(2), octonion.oct_unit(5)
    rec.add("isotope_right.e2_e5",
            octonion.oct_isotope_right(z, e2, e5), -octonion.oct_unit(7), 1e-12)
    rec.add("isotope_left.e2_e5",
            octonion.oct_isotope_left(z, e2, e5), octonion.oct_unit(7), 1e-12)


# -- lie algebra suites -----------------------------------------------------------------


def _case1_factor(gs):
    comm = iso_commutator(gs.context, gs.generators[0], gs.generators[1])
    lam3 = gs.generators[2]
    # least-squares scalar: comm ~ factor * lam3, its sums folded left to
    # right (the builtin sum() compensates float sums from Python 3.12 on)
    num = den = 0
    for m, c in lam3.terms.items():
        num += comm.coeff(m) * np.conj(c)
        den += abs(c) ** 2
    factor = num / den
    return complex(factor), comm, lam3 * factor


def suite_su3(rec: _Recorder) -> None:
    rng = _rng()
    for builder, label in ((lie_su.su3_case2_generators, "case2"),
                           (lie_su.su3_case1_generators, "case1")):
        gs = builder()
        rec.add(f"{label}.dimension", lie_su.span_rank(gs), 8, 0.0)
        sc = lie_su.structure_constants(gs)
        rec.add(f"{label}.closure", sc.max_residual, 0, 1e-8)
        rec.add(f"{label}.unit_component", sc.unit_component, 0, 1e-9)

    # the loop ends on the rigid case-1 family and its structure constants
    factor, comm, fitted = _case1_factor(gs)
    rec.add("case1.example_commutator_on_lam3", comm, fitted, 1e-9)
    rec.add("case1.example_factor_is_2i", factor, 2j, 1e-9)
    rec.compare("example_commutator_factor", {
        "computed": [factor.real, factor.imag],
        "reference": [0.0, 1.0],
        "matches_reference": bool(abs(factor - 1j) < 1e-9),
        "note": "reference display drops its own normalization scalar; "
                "the measured factor is 2i",
    })

    sub = lie_su.GeneratorSet("su2xu1", gs.context, gs.generators[:3])
    sc_sub = lie_su.structure_constants(sub)
    rec.add("case1.su2_subalgebra_closure", sc_sub.max_residual, 0, 1e-9)
    lam8 = gs.generators[7]
    for k in range(3):
        g = gs.generators[k]
        rec.add("case1.lam8_commutes_with_su2", lam8 * g, g * lam8, 1e-9)

    f = structure_constants_f(3)
    rec.add("case1.constants_match_2i_f", sc.c, 2j * f, 1e-6)

    ctx = random_invertible_context(Signature(1, 3), rng)
    gsi = lie_su.su3_case1_generators(ctx)
    for g, gi in zip(gs.generators, gsi.generators):
        rec.add("case1.iso_equals_rigid_times_zeta", geometric_product(g, ctx.zeta), gi, 1e-9)
    sci = lie_su.structure_constants(gsi)
    rec.add("case1.iso_constants_match_rigid", sci.c, sc.c, 1e-9)
    factor_i, comm_i, fitted_i = _case1_factor(gsi)
    rec.add("case1.iso_example_commutator", comm_i, fitted_i, 1e-9)
    rec.add("case1.iso_example_commutator", factor_i, 2j, 1e-9)


def suite_su6(rec: _Recorder) -> None:
    rng = _rng()
    for n in (2, 3, 6):
        gs = lie_su.su_n_generators(n)
        rec.add(f"sun{n}.count", len(gs), n * n - 1, 0.0)
        rec.add(f"sun{n}.rank", lie_su.span_rank(gs), n * n - 1, 0.0)
        sc = lie_su.structure_constants(gs)
        rec.add(f"sun{n}.closure", sc.max_residual, 0, 1e-8)

        # scalar + single bivector: invertible through the versor fast path,
        # which keeps Cl(12,0) clear of the 4096x4096 regular-rep solve
        sig = gs.signature
        zeta = sig.scalar(1.5 + 0.5 * rng.random()) + 0.4 * sig.e(0, 1)
        ctx = IsoContext.create(zeta)
        gsi = lie_su.su_n_generators(n, ctx)
        sci = lie_su.structure_constants(gsi)
        rec.add(f"sun{n}.iso_closure", sci.max_residual, 0, 1e-8)
        rec.add(f"sun{n}.iso_constants_match_rigid", sci.c, sc.c, 1e-9)
        for g, gi in zip(gs.generators, gsi.generators):
            rec.add(f"sun{n}.iso_equals_rigid_times_zeta", geometric_product(g, zeta), gi, 1e-9)

        _transport_checks(rec, f"sun{n}", gs, gsi)

    # the loop ends on rigid su(6), the 35-generator E, F, H family
    rec.add("appendix.count", len(gs), 35, 0.0)
    rec.add("appendix.antisymmetry", sc.c, -sc.c.transpose(1, 0, 2), 1e-10)


def _transport_checks(rec: _Recorder, tag: str, gs, gsi) -> None:
    """``[g_a ζ, g_b ζ]_ζ = [g_a, g_b] ζ`` for every pair ``a < b`` of the
    rigid family ``gs`` and its lift ``gsi``."""
    def commutators(family):
        return iso_commutators(family.context,
                               *zip(*itertools.combinations(family.generators, 2)))

    want = _batch_products(commutators(gs), gsi.context.zeta)
    for got, w in zip(commutators(gsi), want):
        rec.add(f"{tag}.iso_transport", got, w, 1e-9)


# -- dirac ----------------------------------------------------------------------------


def suite_dirac(rec: _Recorder) -> None:
    rng = _rng()
    d = dirac.build_dirac_rep()
    sig = Signature(1, 3)
    for mu in range(4):
        for nu in range(4):
            ac = d.gamma[mu] @ d.gamma[nu] + d.gamma[nu] @ d.gamma[mu]
            g = 2 * (sig.metric(mu) if mu == nu else 0)
            rec.add("gamma.anticommutation", ac, g * np.eye(4), 0.0)

    g5 = d.rep(sig.e(0, 1, 2, 3))
    rec.add("gamma5.squares_to_minus_one", g5 @ g5, -np.eye(4), 0.0)
    for mu in range(4):
        rec.add("gamma5.anticommutes", d.gamma[mu] @ g5, -(g5 @ d.gamma[mu]), 0.0)

    xs, ys = zip(*((random_multivector(sig, rng, 8), random_multivector(sig, rng, 8))
                   for _ in range(200)))
    for x, y, xy in zip(xs, ys, _batch_products(xs, ys)):
        rec.add("rep.homomorphism", d.rep(xy), d.rep(x) @ d.rep(y), 1e-9)
        rec.add("rep.roundtrip", d.rep_inverse(d.rep(x)), x, 1e-9)

    f = 0.5 * (sig.scalar(1.0) + sig.e(0))
    rf = d.rep(f)
    rec.add("idempotent.squares", rf @ rf, rf, 0.0)
    rec.add("idempotent.rank_two", np.linalg.matrix_rank(rf), 2, 0.0)

    basis = np.column_stack([d.blade_images[m].reshape(-1) for m in range(16)])
    rec.add("blade_images.full_rank", np.linalg.matrix_rank(basis), 16, 0.0)

    e5 = sig.e(0, 1, 2, 3)
    samples = ([sig.e(mu) for mu in range(4)]
               + [random_multivector(sig, rng, 8) for _ in range(10)])
    for x in samples:
        rhs = (f * x * f) - (f * x * e5 * f) * e5 - e5 * (f * e5 * x * f) \
            + e5 * (f * e5 * x * e5 * f) * e5
        rec.add("ideal.decomposition_identity", x, rhs, 1e-12)

    sig11 = Signature(1, 1)
    for _ in range(30):
        a = random_multivector(sig11, rng, 3)
        b = random_multivector(sig11, rng, 3)
        rec.add("regular_rep.homomorphism", dirac.regular_representation(a * b),
                dirac.regular_representation(a) @ dirac.regular_representation(b), 1e-10)

    rotor = clifford_exp(0.37 * sig.e(1, 2))
    rigid = IsoContext.identity(sig)
    rec.add_flag("spin.rotor_accepted", dirac.iso_spin_plus_check(rigid, rotor))
    rec.add_flag("spin.vector_rejected", not dirac.iso_spin_plus_check(rigid, sig.e(1)))
    ctx = IsoContext.create(sig.scalar(2.0))
    rec.add_flag("spin.iso_scaled_rotor_accepted",
                 dirac.iso_spin_plus_check(ctx, geometric_product(rotor, ctx.zeta)))
    zeta = sig.scalar(1.0) + 0.5 * sig.e(0, 1)
    ctx2 = IsoContext.create(zeta)
    rec.add_flag("spin.iso_nonscalar_unit_rejected",
                 not dirac.iso_spin_plus_check(ctx2, geometric_product(rotor, zeta)))

    rec.compare("matrix_entry_table", _entry_table_comparison(d, rng))


def _entry_table_comparison(d, rng) -> dict:
    """Entry-by-entry comparison of the constructed 4x4 image against the
    published entry formulas (real coefficients); structural row pairing
    is checked separately since it is basis independent."""
    sig = Signature(1, 3)
    coeffs = {m: complex(rng.standard_normal()) for m in range(16)}
    ups = Multivector(sig, coeffs)
    M = d.rep(ups)

    def c(*idx):
        mask = 0
        for i in idx:
            mask |= 1 << i
        return coeffs[mask].real

    c0 = coeffs[0].real
    formulas = {
        "a1": (M[0, 0], c0 + c(0) + 1j * (c(1, 2) + c(0, 1, 2))),
        "b1": (M[0, 1], -c(1, 3) - c(0, 1, 3) + 1j * (c(2, 3) + c(0, 2, 3))),
        "d1": (M[0, 2], -c(1, 2, 3) + c(0, 1, 2, 3) + 1j * (c(3) - c(0, 3))),
        "f1": (M[0, 3], c(2) - c(0, 2) + 1j * (c(1) - c(0, 1))),
        "a2": (M[2, 0], -c(1, 2, 3) - c(0, 1, 2, 3) + 1j * (c(3) + c(0, 3))),
        "b2": (M[2, 1], -c(1, 2, 3) - c(0, 1, 2, 3) - 1j * (c(3) + c(0, 3))),
        "d2": (M[2, 2], -c(2, 3) + c(0, 2, 3) + 1j * (-c(1, 3) + c(0, 1, 3))),
        "f2": (M[2, 3], c(2, 3) - c(0, 2, 3) + 1j * (-c(1, 3) + c(0, 1, 3))),
    }
    # np.max, not max: a NaN among the pairings propagates instead of vanishing
    row_pairing = float(np.max(np.abs([
        M[1, 0] + np.conj(M[0, 1]),
        M[1, 1] - np.conj(M[0, 0]),
        M[1, 2] + np.conj(M[0, 3]),
        M[1, 3] - np.conj(M[0, 2]),
        M[3, 0] + np.conj(M[2, 1]),
        M[3, 1] - np.conj(M[2, 0]),
        M[3, 2] + np.conj(M[2, 3]),
        M[3, 3] - np.conj(M[2, 2]),
    ])))
    return {
        "entry_formula_holds": {k: bool(abs(got - want) < 1e-9)
                                for k, (got, want) in formulas.items()},
        "row_conjugation_structure_residual": row_pairing,
        "note": "entries that fail reflect an ideal-basis ordering mismatch in "
                "the published table; the constructed representation is "
                "validated by anticommutation and the homomorphism checks",
    }


# -- flavor ---------------------------------------------------------------------------


def suite_flavor(rec: _Recorder) -> None:
    rng = _rng()
    for n in (3, 6):
        lams = gell_mann(n)
        gram = np.array([[np.trace(a @ b) for b in lams] for a in lams])
        rec.add(f"gellmann{n}.trace_orthonormal", gram, 2 * np.eye(len(lams)), 1e-12)
        for l in lams:
            rec.add(f"gellmann{n}.hermitian", l, l.conj().T, 1e-12)
            rec.add(f"gellmann{n}.traceless", np.trace(l), 0, 1e-12)

    f3 = structure_constants_f(3)
    for delta in (1.0, 2.5):
        entries = np.exp(rng.standard_normal(2))
        diag = np.concatenate([entries, [1.0 / entries.prod()]])
        zeta = flavor.FlavorIsoUnit("su3", diag, delta)
        lams = gell_mann(3)
        lifted = [iso_lift_operator(zeta, l) for l in lams]
        for a in range(8):
            for b in range(8):
                rec.add("iso_gellmann.commutator_relation",
                        iso_matrix_commutator(zeta, lifted[a], lifted[b]),
                        sum(2j * f3[a, b, c] * delta ** -0.5 * lifted[c] for c in range(8)),
                        1e-10)

    bounds = flavor.QuarkMassBounds.reference()
    m3 = bounds.centrals("su3")
    zeta3 = flavor.equal_mass_params(m3, "su3")
    rec.add("su3.det_zeta", zeta3.det_residual(), 0, 1e-12)
    gm3 = flavor.common_iso_mass(m3, "su3")
    rec.add("su3.equal_mass_fixed_point",
            np.abs(iso_mass_operator(zeta3, m3) - gm3 * np.eye(3)).max() / gm3, 0, 1e-12)
    rec.add("su3.alpha_value", zeta3.params[0], 0.22407, 1e-4)

    states = iso_states(zeta3)
    mz = iso_mass_operator(zeta3, m3)
    y = hypercharge_operator(zeta3)
    i3 = isospin_operator(zeta3)
    q = charge_operator(zeta3)
    zinv = isounit_inverse(zeta3)
    for s, m, yv, i3v, qv in zip(states, m3, (1 / 6, 1 / 6, -1 / 3), (0.5, -0.5, 0.0),
                                 (2 / 3, -1 / 3, -1 / 3)):
        rec.add("su3.state_normalization", s.norm_residual(), 0, 1e-12)
        rec.add("su3.mass_expectations", iso_expectation(s, mz), m, 1e-12)
        rec.add("su3.hypercharge_expectations", iso_expectation(s, y), yv, 1e-12)
        rec.add("su3.isospin_expectations", iso_expectation(s, i3), i3v, 1e-12)
        rec.add("su3.charge_expectations", iso_expectation(s, q), qv, 1e-12)
        rec.add("su3.eigenvalue_isoequation", zinv @ mz @ s.vector, m * s.vector, 1e-12)

    ident = flavor.FlavorIsoUnit.identity("su3")
    rec.add("su3.limit_recovery", iso_mass_operator(ident, m3), mass_operator(m3, "su3"), 1e-12)

    co = decompose_mass(m3, "su3")
    rec.add("su3.decomposition_matches_closed_form", co, su3_closed_form_coefficients(m3), 1e-9)
    rec.add("su3.decomposition_reconstructs",
            sum(c * b for c, b in zip(co, decomposition_basis("su3"))),
            mass_operator(m3, "su3"), 1e-9)

    m6 = bounds.centrals("su6")
    zeta6 = flavor.equal_mass_params(m6, "su6")
    rec.add("su6.det_zeta", zeta6.det_residual(), 0, 1e-12)
    gm6 = flavor.common_iso_mass(m6, "su6")
    rec.add("su6.six_fold_equal_mass",
            np.abs(np.diag(iso_mass_operator(zeta6, m6)) - gm6).max() / gm6, 0, 1e-12)
    co6 = decompose_mass(m6, "su6")
    rec.add("su6.decomposition_reconstructs",
            sum(c * b for c, b in zip(co6, decomposition_basis("su6"))),
            mass_operator(m6, "su6"), 1e-9)
    rec.add("su6.decomposition_matches_trace_oracle",
            np.abs(co6 - su6_trace_form_coefficients(m6)).max() / max(m6), 0, 1e-12)
    a, b, w, k, t = zeta6.params
    chain = np.array([m6[0] / a, m6[1] / b, m6[2] / w, m6[3] / k, m6[4] / t,
                      a * b * w * k * t * m6[5]])
    rec.add("su6.equal_mass_chain", (chain.max() - chain.min()) / gm6, 0, 1e-9)

    iv3 = flavor.param_intervals(bounds, "su3")
    rec.add("su3.alpha_interval_low", iv3["alpha"]["rigorous"][0], 0.1430, 1e-3)
    rec.add("su3.alpha_interval_high", iv3["alpha"]["rigorous"][1], 0.3499, 1e-3)

    iv6 = flavor.param_intervals(bounds, "su6")
    for _ in range(1000):
        sample = {fl: bounds.lo[fl] + (bounds.hi[fl] - bounds.lo[fl]) * rng.random()
                  for fl in flavor.FLAVORS}
        for group, iv in (("su3", iv3), ("su6", iv6)):
            masses = tuple(sample[fl] for fl in flavor.GROUP_FLAVORS[group])
            for which, name in enumerate(flavor.PARAM_NAMES[group]):
                val = flavor.param_value(group, which, masses)
                lo, hi = iv[name]["rigorous"]
                # a signed margin: a NaN leads, so max cannot drop it
                rec.add("intervals.sampled_containment", max(lo - val, val - hi, 0.0), 0, 0.0)

    ok = True
    base = np.array(bounds.centrals("su6"))
    for j in range(6):
        bumped = base.copy()
        bumped[j] *= 1.01
        diff = flavor.param_value("su6", 0, tuple(bumped)) - flavor.param_value("su6", 0, tuple(base))
        ok = ok and ((diff > 0) == (j == 0))
    rec.add_flag("alpha.monotonicity_signs", ok)

    d = dirac.build_dirac_rep()
    sig = Signature(1, 3)
    g0 = d.gamma[0]
    t0 = iso_tensor(np.eye(4, dtype=complex), np.eye(4, dtype=complex),
                    np.eye(4, dtype=complex))
    rec.add("iso_tensor.identity_reduction", t0, np.kron(np.eye(4), g0), 1e-12)
    a_mat = d.rep(random_multivector(sig, rng, 6))
    b_mat = d.rep(random_multivector(sig, rng, 6))
    z_mat = d.rep(sig.scalar(1.0) + 0.4 * sig.e(0, 1))
    rec.add("iso_tensor.bilinearity", iso_tensor(z_mat, 2 * a_mat, b_mat),
            2 * iso_tensor(z_mat, a_mat, b_mat), 1e-12)

    rec.compare("parameter_intervals", {
        "su3": iv3,
        "su6": iv6,
        "note": "reference intervals are echoed for comparison; no computed "
                "convention reproduces all of them and the flags record this",
    })
    quoted = su6_quoted_coefficients(m6)
    rec.compare("su6_decomposition", {
        "solved": [float(x.real) for x in co6],
        "quoted": [float(x.real) for x in quoted],
        "max_deviation": float(np.abs(co6 - quoted).max()),
        "note": "solved coefficients reconstruct diag(m); the quoted ones do not",
    })


# _run_one looks the functions up here at call time, so a caller may
# rebind the values (a tracer wrapping each suite, say); forked workers
# inherit the rebinding.
_SUITE_FUNCS = {
    "clifford": suite_clifford,
    "isotopy": suite_isotopy,
    "octonion": suite_octonion,
    "su3": suite_su3,
    "su6": suite_su6,
    "dirac": suite_dirac,
    "flavor": suite_flavor,
}
SUITE_NAMES = tuple(_SUITE_FUNCS)


def _run_one(suite: str):
    """Run one suite on its own recorder; returns its ``checks`` and ``comparisons``."""
    rec = _Recorder(suite)
    _SUITE_FUNCS[suite](rec)
    return rec.checks, rec.comparisons


def _map_suites(names: tuple[str, ...]) -> list:
    """``_run_one`` over ``names``, in the order the suites finish.

    Several suites fan out to a ``fork`` pool of one worker per usable CPU
    (at most one per suite): each suite seeds its own generator and shares
    no state with the others, so the results are the same as in process.
    The first suite to fail re-raises here with its own type, and leaving
    the pool stops the rest.  With one suite, one CPU, no ``fork`` start
    method or no affinity mask (outside Linux) the same function runs in
    process.  ``multiprocessing`` is imported only here, so single-suite
    runs and ``flavor`` do not pay its import.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(names))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                return list(pool.imap_unordered(_run_one, names))
    return list(map(_run_one, names))


def run_suite(name: str) -> tuple[list[tuple[str, float, float]], dict]:
    """Run one named suite (or ``all``); returns (checks, comparisons).

    ``all`` runs the suites in parallel worker processes where the machine
    has more than one CPU (see :func:`_map_suites`); a single suite runs in
    process.  ``checks`` is a list of ``(name, residual, tolerance)``
    sorted by name, so the order in which suites finish never reaches a
    report.  A check or comparison holding a value that is not finite
    raises ``ValueError`` (see :meth:`_Recorder.add` and
    :meth:`_Recorder.compare`).
    """
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITE_FUNCS:
        names = (name,)
    else:
        raise KeyError(name)
    records: dict[str, tuple[float, float]] = {}
    comparisons: dict = {}
    for suite_records, suite_comparisons in _map_suites(names):
        records.update(suite_records)
        comparisons.update(suite_comparisons)
    return [(check, *record) for check, record in sorted(records.items())], comparisons
