"""Lie algebra generators inside Clifford algebras.

Three families are built here: the E/F/H bivector realization of su(n)
in Cl(2n,0), and two eight-element su(3) families in complexified
Cl(1,3).  Every family is built from basis vectors lifted by an isounit
ζ and iso-wedged; the rigid family is the one lifted by ζ = 1, which is
what a builder called without a context uses.  Printed commutator tables
are never hard-coded; a brute-force structure-constant oracle
(least-squares decomposition of every pairwise iso-commutator over the
generator span) is the single source of truth for closure, dimension and
normalization factors.  It reads the commutators as arrays of terms from
:func:`~isoclifford.multivector._commutator_terms` with ζ⁻¹ between the
factors, the one batched iso-commutator that
:func:`~isoclifford.isotopy.iso_commutators` goes through too.

The Cartan elements use the corrected form
``H^r = e^r ∧ e^{r+n} - e^{r+1} ∧ e^{r+n+1}``; the published variant
wedges a vector with itself, which is identically zero and breaks
closure (the oracle rejects it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .isotopy import IsoContext, iso_wedge, lift
from .multivector import (
    AlgebraError,
    Multivector,
    Signature,
    SignatureMismatchError,
    _commutator_terms,
    _term_arrays,
)

SIG13 = Signature(1, 3)


class ClosureViolationError(AlgebraError):
    """A commutator escaped the span of the generator set."""


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered family of algebra generators lifted by ``context``'s ζ."""

    label: str
    context: IsoContext
    generators: tuple[Multivector, ...]

    @property
    def signature(self) -> Signature:
        return self.context.signature

    def __len__(self) -> int:
        return len(self.generators)


def _wedge_chain(lifted: Sequence[Multivector], ctx: IsoContext) -> Multivector:
    """Right-folded iso-wedge of lifted basis vectors, e.g. v1ζ ∧ (v2ζ ∧ v3ζ).

    The half-sum wedge formula expects a 1-vector on the left, so chains
    associate to the right.
    """
    out = lifted[-1]
    for v in reversed(lifted[:-1]):
        out = iso_wedge(ctx, v, out)
    return out


def _lifted_basis(sig: Signature, ctx: IsoContext | None, family: str):
    """The shared set-up of every family: the context (ζ = 1 when
    omitted), the lifted basis vectors ``v`` and the lifted wedge chain
    ``w(*indices)``, all over 0-based basis indices."""
    if ctx is None:
        ctx = IsoContext.identity(sig)
    elif ctx.signature != sig:
        raise SignatureMismatchError(f"{family} lives in Cl({sig.p},{sig.q})")
    v = [lift(ctx, sig.e(i)) for i in range(sig.dim)]

    def w(*indices):
        return _wedge_chain([v[i] for i in indices], ctx)

    return ctx, v, w


def su_n_generators(n: int, ctx: IsoContext | None = None) -> GeneratorSet:
    """The n²-1 su(n) generators as bivectors of Cl(2n,0).

    Ordering: all ``E`` (p<q lexicographic), then all ``F``, then the
    n-1 Cartan elements ``H``.  Every generator is built from basis
    vectors lifted by ``ctx`` (ζ = 1 when omitted) and equals its rigid
    twin times ζ.
    """
    if not 2 <= n <= 6:
        raise ValueError("su(n) construction supports 2 <= n <= 6")
    ctx, _, w = _lifted_basis(Signature(2 * n, 0), ctx, f"su({n})")
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    gens = ([w(p, q) + w(p + n, q + n) for p, q in pairs]
            + [w(p, q + n) - w(p + n, q) for p, q in pairs]
            + [w(r, r + n) - w(r + 1, r + n + 1) for r in range(n - 1)])
    return GeneratorSet(f"su({n})", ctx, tuple(gens))


def su3_case1_generators(ctx: IsoContext | None = None) -> GeneratorSet:
    """Case-1 su(3) family in Cl(1,3;C).

    These eight elements pull back the embedded 3x3 Gell-Mann matrices
    through a chiral representation: under it every generator maps to
    ``lambda_a + zero row/column``, so the family closes with structure
    constants exactly ``2i f_abc``.  The sixth element carries the factor
    i on both of its terms (mirroring the seventh); dropping it from the
    trivector term breaks closure, which the oracle flags immediately.
    """
    ctx, v, w = _lifted_basis(SIG13, ctx, "case-1 su(3)")
    s3 = math.sqrt(3.0)
    gens = (
        0.5 * (w(0, 1) + 1j * w(2, 3)),
        0.5 * (w(0, 2) - 1j * w(1, 3)),
        0.5 * (w(0, 3) + 1j * w(1, 2)),
        0.5 * (v[0] + 1j * w(0, 1, 2)),
        0.5 * (1j * v[3] - w(1, 2, 3)),
        0.5j * (v[2] + w(0, 2, 3)),
        0.5j * (v[1] + w(0, 1, 3)),
        (1j / s3) * w(0, 1, 2, 3) + (1 / (2 * s3)) * w(0, 3) - (1j / (2 * s3)) * w(1, 2),
    )
    return GeneratorSet("case1-su3", ctx, gens)


def su3_case2_generators(ctx: IsoContext | None = None) -> GeneratorSet:
    """Case-2 su(3) family in Cl(1,3;C), mixing vectors, bivectors and
    trivectors.

    The first three elements share one shape (bivector plus matching
    trivector, factor i/2 on both terms); the closure oracle pins the
    relative phases of the remaining elements.  Structure constants land
    on the Gell-Mann pattern with magnitude 2, up to a relabeling
    automorphism of the basis.
    """
    ctx, v, w = _lifted_basis(SIG13, ctx, "case-2 su(3)")
    s3 = math.sqrt(3.0)
    gens = (
        -0.5j * (w(2, 3) + w(0, 2, 3)),
        0.5j * (w(1, 3) + w(0, 1, 3)),
        0.5j * (w(1, 2) + w(0, 1, 2)),
        0.5 * (w(0, 1, 2, 3) + 1j * w(0, 3)),
        0.5 * (v[3] - 1j * w(1, 2, 3)),
        0.5 * (v[2] - 1j * w(0, 1)),
        0.5 * (v[1] + 1j * w(0, 2)),
        (1j / (2 * s3)) * (2 * v[0] + 1j * w(1, 2) - 1j * w(0, 1, 2)),
    )
    return GeneratorSet("case2-su3", ctx, gens)


def _element_terms(elements: Sequence[Multivector]) -> tuple[np.ndarray, ...]:
    """The terms of ``elements`` as arrays ``(column, blade, coefficient)``,
    column ``k`` holding ``elements[k]``: :func:`_term_arrays` flattens
    them, and each term's column repeats ``k`` over its element's size."""
    sizes, blades, coeffs = _term_arrays([x.terms for x in elements])
    return np.repeat(np.arange(sizes.size), sizes), blades, coeffs


def _coefficient_matrix(columns: np.ndarray, blades: np.ndarray, coeffs: np.ndarray,
                        width: int) -> np.ndarray:
    """Blade coefficients with ``width`` columns and one row per blade that
    occurs, in ascending mask order; term ``k`` is entry
    ``(row of blades[k], columns[k])``."""
    masks, rows = np.unique(blades, return_inverse=True)
    mat = np.zeros((masks.size, width), dtype=complex)
    mat[rows, columns] = coeffs
    return mat


@dataclass(frozen=True)
class StructureConstants:
    """Oracle output: ``c[i, j, k]`` with ``[g_i, g_j] = Σ_k c[i,j,k] g_k``
    (+ a unit component per pair, normally zero), and the worst
    decomposition residual over all pairs."""

    c: np.ndarray
    unit_component: np.ndarray
    max_residual: float


def structure_constants(gs: GeneratorSet) -> StructureConstants:
    """Brute-force extraction of structure constants.

    Every pairwise iso-commutator is decomposed by least squares over
    the span of the generators plus the family's unit ζ; a residual
    above 1e-8 (or NaN) means the set does not close and raises
    :class:`ClosureViolationError` for the first such pair.

    The commutators are those of
    :func:`~isoclifford.isotopy.iso_commutators`, bit for bit, read as
    arrays of terms.
    """
    m = len(gs)
    first, second = np.triu_indices(m, 1)
    span_columns, span_blades, span_coeffs = _element_terms((*gs.generators, gs.context.zeta))
    pair, blades, diffs = _commutator_terms(gs.generators, gs.context.zeta_inv, first, second)
    # columns: the generators, ζ, then one commutator per pair
    coeffs = _coefficient_matrix(np.concatenate([span_columns, m + 1 + pair]),
                                 np.concatenate([span_blades, blades]),
                                 np.concatenate([span_coeffs, diffs]), m + 1 + first.size)
    span, targets = coeffs[:, :m + 1], coeffs[:, m + 1:]
    solution, *_ = np.linalg.lstsq(span, targets, rcond=None)
    residuals = np.abs(span @ solution - targets).max(axis=0) if first.size else np.zeros(0)
    failed = np.flatnonzero(~(residuals <= 1e-8))
    if failed.size:
        col = failed[0]
        raise ClosureViolationError(
            f"{gs.label}: commutator ({first[col]},{second[col]}) escapes the span "
            f"(residual {residuals[col]:.3e})")

    c = np.zeros((m, m, m), dtype=complex)
    unit_comp = np.zeros((m, m), dtype=complex)
    c[first, second] = solution[:m].T
    c[second, first] = -solution[:m].T
    unit_comp[first, second] = solution[m]
    unit_comp[second, first] = -solution[m]
    return StructureConstants(c, unit_comp, float(residuals.max(initial=0.0)))


def span_rank(gs: GeneratorSet) -> int:
    """Number of linearly independent generators (blade-coefficient rank)."""
    return int(np.linalg.matrix_rank(
        _coefficient_matrix(*_element_terms(gs.generators), len(gs.generators)), tol=1e-9))
