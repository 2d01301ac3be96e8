"""Isotopic liftings: ⋄ products steered by a fixed invertible isounit.

The associative isotope replaces the product ``AB`` by ``A ⋄ B = A ζ⁻¹ B``
for a fixed invertible element ζ, which becomes the new two-sided unit.
Lifted elements ``Aζ`` multiply like the originals (``Aζ ⋄ Bζ = ABζ``),
which is what transports algebra identities into isospace unchanged.

A context is ζ and ζ⁻¹ and nothing else: every ⋄ product, lift and iso
involution is a :func:`~isoclifford.multivector.geometric_product`.  A
right factor that recurs is prepared as a
:class:`~isoclifford.multivector.RightFactor` by the series it recurs in
and belongs to it: each exponential series prepares its exponent, and the
literal ⋄ series ζ⁻¹ too, at its start, so a prepared factor lives
exactly as long as the series that reads its plans again.  Outside a
series the products by ζ and ζ⁻¹ seldom repeat a left operand's blade
order: in the isotopy, su3 and su6 suites of ``verify``, ζ and ζ⁻¹
prepared once per context would read their plans again for 123 products
and form 94 plans; :mod:`~isoclifford.multivector` gives what a plan
costs.

The iso-commutator ``[x, y]_ζ = x ζ⁻¹ y - y ζ⁻¹ x`` is written once, as a
batch: :func:`iso_commutators` hands its pairs and ζ⁻¹ to
:func:`~isoclifford.multivector._commutator_terms`, which forms each ``x
ζ⁻¹`` once, sends both ⋄ products of every pair through the array kernel
in calls of at most ``_BATCH_PAIRS`` term pairs, and subtracts them on
arrays in the terms, order and bits of the ``Multivector`` difference of
the two ⋄ products.  :func:`iso_commutator` is a batch of one, and the
structure-constant oracle of :mod:`~isoclifford.lie_su` reads the same
terms as arrays from the same call.

Both exponential series, :func:`clifford_exp` and the literal
:func:`iso_exp_series`, run through one driver, which takes each product
by a prepared factor as one :func:`~isoclifford.multivector._step` and
builds no element per step.  The terms, sums and stopping term keep the
bits of the series written with whole elements.  A series whose terms
overflow raises :class:`ConvergenceError` naming the term.  A dense
16-term Cl(1,3) exponent makes one loop product of 16 term pairs and
then products of 256 through plans, one for each left blade order the
series meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .multivector import (
    AlgebraError,
    Multivector,
    NonFiniteError,
    NonInvertibleError,
    RightFactor,
    Signature,
    SignatureMismatchError,
    _commutator_terms,
    _indexed,
    _split,
    _step,
    geometric_product,
    grade_involution,
    inverse,
    random_multivector,
)

# Both exponential series stop at a term below _EXP_REL_TOL times the sum
# and raise ConvergenceError after _EXP_MAX_TERMS terms.
_EXP_MAX_TERMS = 200
_EXP_REL_TOL = 1e-12


class ConvergenceError(AlgebraError):
    """An exponential power series failed to converge under the term cap."""


@dataclass(frozen=True)
class IsoContext:
    """A fixed isounit ζ with its precomputed isotopic element ζ⁻¹; a pair
    from two algebras raises :class:`SignatureMismatchError`, and one whose
    ζ ζ⁻¹ misses 1 by more than 1e-10 :class:`NonInvertibleError`."""

    zeta: Multivector
    zeta_inv: Multivector

    def __post_init__(self):
        if self.zeta.signature != self.zeta_inv.signature:
            raise SignatureMismatchError("isounit and isotopic element must share a signature")
        residual = (geometric_product(self.zeta, self.zeta_inv) - 1).max_abs()
        if residual > 1e-10:
            raise NonInvertibleError(f"zeta * zeta_inv misses 1 by {residual:.3e}")

    @classmethod
    def create(cls, zeta: Multivector) -> "IsoContext":
        """Build a context by inverting ζ."""
        return cls(zeta, inverse(zeta))

    @classmethod
    def identity(cls, sig: Signature) -> "IsoContext":
        one = sig.scalar(1.0)
        return cls(one, one)

    @property
    def signature(self) -> Signature:
        return self.zeta.signature


# -- associative isotope ---------------------------------------------------------


def iso_product(ctx: IsoContext, a: Multivector, b: Multivector) -> Multivector:
    """``a ⋄ b = a ζ⁻¹ b``; ζ is the two-sided unit of this product."""
    return geometric_product(geometric_product(a, ctx.zeta_inv), b)


def lift(ctx: IsoContext, a: Multivector) -> Multivector:
    """Send ``a`` to its isospace avatar ``aζ``."""
    return geometric_product(a, ctx.zeta)


def iso_commutator(ctx: IsoContext, a: Multivector, b: Multivector) -> Multivector:
    """``[a, b]_ζ = a ⋄ b - b ⋄ a``."""
    return iso_commutators(ctx, [a], [b])[0]


def iso_commutators(ctx: IsoContext, xs: Sequence[Multivector],
                    ys: Sequence[Multivector]) -> list[Multivector]:
    """``[x, y]_ζ`` for each ``x, y`` of ``xs, ys``, bit for bit and term
    order for term order ``iso_product(ctx, x, y) - iso_product(ctx, y,
    x)``.  Lists of unequal length raise ``ValueError``.  Every batch goes
    through :func:`~isoclifford.multivector._commutator_terms` with ζ⁻¹
    between the factors, which multiplies an element that recurs in the
    lists by ζ⁻¹ once.
    """
    pairs = list(zip(xs, ys, strict=True))
    elements, at = _indexed([x for pair in pairs for x in pair])
    return _split(ctx.signature, len(xs),
                  *_commutator_terms(elements, ctx.zeta_inv, at[0::2], at[1::2]))


def geno_commutator(ctx_left: IsoContext, ctx_right: IsoContext,
                    a: Multivector, b: Multivector) -> Multivector:
    """Two-unit generalization ``a ζ⁻¹ b - b ξ⁻¹ a``; reduces to the
    isocommutator when both contexts share their unit."""
    return iso_product(ctx_left, a, b) - iso_product(ctx_right, b, a)


def iso_involution(ctx: IsoContext, a: Multivector) -> Multivector:
    """Grade involution transported to isospace: ``hat(a ζ⁻¹) ζ``.

    For a lifted element ``ψζ`` this is ``ψ̂ ζ``, i.e. the involution acts
    on the underlying element and leaves the unit alone.  Only with this
    reading does the iso exterior product of lifted vectors land on
    ``(u ∧ v) ζ`` for every invertible ζ; taking the plain involution of
    ``ψζ`` would drag a spurious ``ζ̂ ζ⁻¹`` factor in whenever ζ has odd
    grades.
    """
    return lift(ctx, grade_involution(geometric_product(a, ctx.zeta_inv)))


def iso_wedge(ctx: IsoContext, v: Multivector, psi: Multivector) -> Multivector:
    """Iso exterior product ``½(v ⋄ ψ + ψ̂ ⋄ v)`` with the iso involution."""
    return 0.5 * (iso_product(ctx, v, psi) + iso_product(ctx, iso_involution(ctx, psi), v))


def iso_metric(ctx: IsoContext, psi: Multivector, phi: Multivector) -> Multivector:
    """``½(ψ ⋄ φ + φ ⋄ ψ)``; for lifted vectors ``uζ, vζ`` this is ``g(u,v) ζ``."""
    return 0.5 * (iso_product(ctx, psi, phi) + iso_product(ctx, phi, psi))


# -- isocomplex numbers -----------------------------------------------------------


@dataclass(frozen=True)
class IsoComplex:
    """An isoscalar ``aζ``: the image of the complex number ``a`` in isospace."""

    context: IsoContext
    value: Multivector

    def __post_init__(self):
        a = self.scalar
        residual = (self.value - self.context.zeta * a).max_abs()
        bound = 1e-10 * max(1.0, abs(a) * self.context.zeta.max_abs())
        if residual > bound:
            raise AlgebraError("value is not proportional to the isounit")

    @classmethod
    def from_scalar(cls, ctx: IsoContext, a: complex) -> "IsoComplex":
        return cls(ctx, ctx.zeta * complex(a))

    @property
    def scalar(self) -> complex:
        """The complex number this isoscalar lifts."""
        mask = max(self.context.zeta.terms, key=lambda m: abs(self.context.zeta.coeff(m)))
        return self.value.coeff(mask) / self.context.zeta.coeff(mask)

    def _check(self, other: "IsoComplex") -> None:
        if self.context is not other.context and self.context != other.context:
            raise AlgebraError("isocomplex operands use different contexts")


def iso_add(x: IsoComplex, y: IsoComplex) -> IsoComplex:
    """``a₁ζ +^ζ a₂ζ = (a₁ + a₂)ζ``."""
    x._check(y)
    return IsoComplex(x.context, x.value + y.value)


def iso_mul(x: IsoComplex, y: IsoComplex) -> IsoComplex:
    """``a₁ζ ⋄ a₂ζ = (a₁ a₂)ζ``."""
    x._check(y)
    return IsoComplex(x.context, iso_product(x.context, x.value, y.value))


# -- exponentials -------------------------------------------------------------------


def _exp_series(first: Multivector, a: Multivector, what: str,
                between: RightFactor | None = None) -> Multivector:
    """``Σ_k t_k`` with ``t_0 = first`` and ``t_k = t_{k-1} between a / k``
    (``between`` left out when None), to the first term whose largest
    modulus is at most ``_EXP_REL_TOL`` times the sum's.

    Each product is one :func:`~isoclifford.multivector._step`, and the
    step by ``a`` also scales by ``1/k`` and adds into the running sum.
    The terms, the sums and the term the series stops at are those of the
    loop on :class:`Multivector` values, ``t = (t * between.element * a) *
    (1.0 / k)`` and ``sum = sum + t``, bit for bit.  A term or sum that overflows raises
    :class:`ConvergenceError` naming the term, as does a series still
    above the tolerance after ``_EXP_MAX_TERMS`` terms.
    """
    first._check_signature(a)
    times_a = RightFactor(a)
    term, total = first.terms, dict(first.terms)
    with np.errstate(all="ignore"):  # inf and NaN reach the finite check of _step
        for k in range(1, _EXP_MAX_TERMS + 1):
            try:
                if between is not None:
                    term = _step(between, term)[0]
                term, term_max, total, total_max = _step(times_a, term, complex(1.0 / k), total)
            except NonFiniteError as exc:  # the operands are finite: an overflow
                raise ConvergenceError(f"{what} overflowed at term {k}") from exc
            if term_max <= _EXP_REL_TOL * max(total_max, 1e-300):
                return Multivector._from_kept(first.signature, total)
    raise ConvergenceError(f"{what} did not settle in {_EXP_MAX_TERMS} terms")


def clifford_exp(a: Multivector) -> Multivector:
    """Ordinary Clifford exponential by power series."""
    return _exp_series(a.signature.scalar(1.0), a, "exponential series")


def iso_exp(ctx: IsoContext, a: Multivector) -> Multivector:
    """Iso exponential ``Σ a^{⋄k}/k!`` with ``a^{⋄0} = ζ``.

    Since ``a^{⋄k} = (a ζ⁻¹)^k ζ`` this is evaluated in closed form as
    ``exp(a ζ⁻¹) ζ`` with one ordinary series; :func:`iso_exp_series`
    keeps the literal ⋄-power sum around as a cross-check.
    """
    return lift(ctx, clifford_exp(geometric_product(a, ctx.zeta_inv)))


def iso_exp_series(ctx: IsoContext, a: Multivector) -> Multivector:
    """Literal ⋄-power series for the iso exponential (slow path, oracle)."""
    return _exp_series(ctx.zeta, a, "iso exponential series", RightFactor(ctx.zeta_inv))


def random_invertible_context(sig: Signature, rng) -> IsoContext:
    """Random isounit drawn until inversion succeeds (well-conditioned)."""
    for _ in range(20):
        zeta = sig.scalar(1.0 + 0.5 * rng.standard_normal()) + random_multivector(
            sig, rng, n_terms=6, scale=0.3)
        try:
            return IsoContext.create(zeta)
        except NonInvertibleError:
            continue
    raise AlgebraError("no invertible isounit found in 20 attempts")
