"""Lie algebra generators inside Clifford algebras.

Three families are built here: the E/F/H bivector realization of su(n)
in Cl(2n,0), and two eight-element su(3) families in complexified
Cl(1,3).  Printed commutator tables are never hard-coded; a brute-force
structure-constant oracle (least-squares decomposition of every pairwise
commutator over the generator span) is the single source of truth for
closure, dimension and normalization factors.

The Cartan elements use the corrected form
``H^r = e^r ∧ e^{r+n} - e^{r+1} ∧ e^{r+n+1}``; the published variant
wedges a vector with itself, which is identically zero and breaks
closure (the oracle rejects it).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .isotopy import IsoContext, iso_wedge, lift
from .multivector import (
    AlgebraError,
    Multivector,
    Signature,
    geometric_product,
    wedge,
)

SIG13 = Signature(1, 3)


class ClosureViolationError(AlgebraError):
    """A commutator escaped the span of the generator set."""


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered family of algebra generators, rigid or iso-lifted."""

    label: str
    signature: Signature
    generators: tuple[Multivector, ...]
    context: IsoContext | None = None

    def __len__(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def _left(self) -> tuple[Multivector, ...]:
        """``g_k ζ⁻¹`` for every generator of a lifted family."""
        zeta_inv = self.context.zeta_inv
        return tuple(geometric_product(g, zeta_inv) for g in self.generators)

    def commutator(self, i: int, j: int) -> Multivector:
        """``[g_i, g_j]``, or ``(g_i ζ⁻¹) g_j - (g_j ζ⁻¹) g_i`` when lifted: the
        association of :func:`~isoclifford.isotopy.iso_commutator`, with each
        ``g ζ⁻¹`` formed once per family."""
        a, b = self.generators[i], self.generators[j]
        if self.context is None:
            return geometric_product(a, b) - geometric_product(b, a)
        left = self._left
        return geometric_product(left[i], b) - geometric_product(left[j], a)

    def unit(self) -> Multivector:
        """The scalar unit of the family's ambient algebra (ζ when lifted)."""
        if self.context is None:
            return self.signature.scalar(1.0)
        return self.context.zeta


def _wedge_chain(vectors: Sequence[Multivector],
                 ctx: IsoContext | None) -> Multivector:
    """Right-folded (iso-)wedge of basis vectors, e.g. v1 ∧ (v2 ∧ v3).

    The half-sum wedge formula expects a 1-vector on the left, so chains
    associate to the right; in the lifted case every factor enters as vζ.
    """
    if ctx is None:
        out = vectors[-1]
        for v in reversed(vectors[:-1]):
            out = wedge(v, out)
        return out
    out = lift(ctx, vectors[-1])
    for v in reversed(vectors[:-1]):
        out = iso_wedge(ctx, lift(ctx, v), out)
    return out


def su_n_generators(n: int, ctx: IsoContext | None = None) -> GeneratorSet:
    """The n²-1 su(n) generators as bivectors of Cl(2n,0).

    Ordering: all ``E`` (p<q lexicographic), then all ``F``, then the
    n-1 Cartan elements ``H``.  With a context, every generator is built
    from lifted basis vectors and equals its rigid twin times ζ.
    """
    if not 2 <= n <= 6:
        raise ValueError("su(n) construction supports 2 <= n <= 6")
    sig = Signature(2 * n, 0)
    if ctx is not None and ctx.signature != sig:
        raise AlgebraError(f"iso context must live in Cl({2 * n},0)")
    e = [sig.e(m) for m in range(2 * n)]

    def w(p, q):
        # paper indices are 1-based; internal masks 0-based
        return _wedge_chain((e[p - 1], e[q - 1]), ctx)

    gens: list[Multivector] = []
    labels: list[str] = []
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            gens.append(w(p, q) + w(p + n, q + n))
            labels.append(f"E{p}{q}")
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            gens.append(w(p, q + n) - w(p + n, q))
            labels.append(f"F{p}{q}")
    for r in range(1, n):
        gens.append(w(r, r + n) - w(r + 1, r + n + 1))
        labels.append(f"H{r}")
    tag = "rigid" if ctx is None else "iso"
    return GeneratorSet(f"su({n})-{tag}", sig, tuple(gens), ctx)


def su3_case1_generators(ctx: IsoContext | None = None) -> GeneratorSet:
    """Case-1 su(3) family in Cl(1,3;C).

    These eight elements pull back the embedded 3x3 Gell-Mann matrices
    through a chiral representation: under it every generator maps to
    ``lambda_a + zero row/column``, so the family closes with structure
    constants exactly ``2i f_abc``.  The sixth element carries the factor
    i on both of its terms (mirroring the seventh); dropping it from the
    trivector term breaks closure, which the oracle flags immediately.
    """
    if ctx is not None and ctx.signature != SIG13:
        raise AlgebraError("case-1 su(3) lives in Cl(1,3)")
    e = [SIG13.e(mu) for mu in range(4)]

    def v(mu):
        return e[mu] if ctx is None else lift(ctx, e[mu])

    def w(*mus):
        return _wedge_chain([e[mu] for mu in mus], ctx)

    s3 = math.sqrt(3.0)
    gens = (
        0.5 * (w(0, 1) + 1j * w(2, 3)),
        0.5 * (w(0, 2) - 1j * w(1, 3)),
        0.5 * (w(0, 3) + 1j * w(1, 2)),
        0.5 * (v(0) + 1j * w(0, 1, 2)),
        0.5 * (1j * v(3) - w(1, 2, 3)),
        0.5j * (v(2) + w(0, 2, 3)),
        0.5j * (v(1) + w(0, 1, 3)),
        (1j / s3) * w(0, 1, 2, 3) + (1 / (2 * s3)) * w(0, 3) - (1j / (2 * s3)) * w(1, 2),
    )
    tag = "rigid" if ctx is None else "iso"
    return GeneratorSet(f"case1-su3-{tag}", SIG13, gens, ctx)


def su3_case2_generators(ctx: IsoContext | None = None) -> GeneratorSet:
    """Case-2 su(3) family in Cl(1,3;C), mixing vectors, bivectors and
    trivectors.

    The first three elements share one shape (bivector plus matching
    trivector, factor i/2 on both terms); the closure oracle pins the
    relative phases of the remaining elements.  Structure constants land
    on the Gell-Mann pattern with magnitude 2, up to a relabeling
    automorphism of the basis.
    """
    if ctx is not None and ctx.signature != SIG13:
        raise AlgebraError("case-2 su(3) lives in Cl(1,3)")
    e = [SIG13.e(mu) for mu in range(4)]

    def v(mu):
        return e[mu] if ctx is None else lift(ctx, e[mu])

    def w(*mus):
        return _wedge_chain([e[mu] for mu in mus], ctx)

    s3 = math.sqrt(3.0)
    gens = (
        -0.5j * (w(2, 3) + w(0, 2, 3)),
        0.5j * (w(1, 3) + w(0, 1, 3)),
        0.5j * (w(1, 2) + w(0, 1, 2)),
        0.5 * (w(0, 1, 2, 3) + 1j * w(0, 3)),
        0.5 * (v(3) - 1j * w(1, 2, 3)),
        0.5 * (v(2) - 1j * w(0, 1)),
        0.5 * (v(1) + 1j * w(0, 2)),
        (1j / (2 * s3)) * (2 * v(0) + 1j * w(1, 2) - 1j * w(0, 1, 2)),
    )
    tag = "rigid" if ctx is None else "iso"
    return GeneratorSet(f"case2-su3-{tag}", SIG13, gens, ctx)


def _coefficient_matrix(elements: Sequence[Multivector]) -> np.ndarray:
    """Blade coefficients with one column per element and one row per blade
    that any element holds, in ascending mask order."""
    rows = {mask: idx for idx, mask in
            enumerate(sorted({mask for x in elements for mask in x.terms}))}
    mat = np.zeros((len(rows), len(elements)), dtype=complex)
    for k, x in enumerate(elements):
        for mask, coeff in x.terms.items():
            mat[rows[mask], k] = coeff
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

    Every pairwise (iso-)commutator is decomposed by least squares over
    the span of the generators plus the family's unit element; a residual
    above 1e-8 means the set does not close and raises
    :class:`ClosureViolationError`.
    """
    m = len(gs.generators)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    comms = [gs.commutator(i, j) for i, j in pairs]
    coeffs = _coefficient_matrix([*gs.generators, gs.unit(), *comms])
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
    return StructureConstants(c, unit_comp, worst)


def span_rank(gs: GeneratorSet) -> int:
    """Number of linearly independent generators (blade-coefficient rank)."""
    return int(np.linalg.matrix_rank(_coefficient_matrix(gs.generators), tol=1e-9))
