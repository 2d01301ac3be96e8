"""Octonions realized on the paravectors (grades 0 and 1) of Cl(0,7).

The product is the grade-projected Clifford expression
``A ∘ B = <A B (1 - psi)>_{0+1}`` with ``psi`` a fixed trivector built
from seven index cycles.  The signed multiplication table that falls out
(``e_a ∘ e_b = eps_ab^c e_c - delta_ab``) is generated from the same
cycles, so the projection formula and the table can check each other.

The octonion product is not associative, so an isounit ζ gives two
one-sided isotopes here, where the grouping matters: ``A ∘ (ζ⁻¹ ∘ B)``
with ζ as its right unit and ``(A ∘ ζ⁻¹) ∘ B`` with ζ as its left unit.
"""

from __future__ import annotations

from typing import Sequence

from .isotopy import IsoContext
from .multivector import (
    AlgebraError,
    Multivector,
    NonInvertibleError,
    Signature,
    _as_int,
    _batch_products,
    grade_select,
)

SIG07 = Signature(0, 7)

# Index triples (1-based) carrying eps = +1 in cyclic order.
CYCLES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def oct_unit(a: int) -> Multivector:
    """Imaginary octonion unit ``e_a`` for a in 1..7 (``a = 0`` is the scalar 1)."""
    a = _as_int(a, "octonion basis index")
    if not 0 <= a <= 7:
        raise ValueError(f"octonion basis index must be in 0..7, not {a}")
    return SIG07.e(a - 1) if a else SIG07.scalar(1.0)


def structure_trivector() -> Multivector:
    """The fixed grade-3 element steering the paravector product.

    One positively oriented trivector term per cycle; reordering signs are
    left to the blade kernel rather than typed by hand.
    """
    psi = SIG07.scalar(0.0)
    for a, b, c in CYCLES:
        psi = psi + SIG07.e(a - 1, b - 1, c - 1)
    return psi


_PSI = structure_trivector()
_ONE_MINUS_PSI = SIG07.scalar(1.0) - _PSI


def is_paravector(a: Multivector) -> bool:
    return a.signature == SIG07 and a.grades() <= {0, 1}


def _require_paravector(a: Multivector) -> None:
    if not is_paravector(a):
        raise AlgebraError("octonion operands must be Cl(0,7) paravectors")


def oct_product(a: Multivector, b: Multivector) -> Multivector:
    """Octonion product ``<A B (1 - psi)>_{0+1}`` of two paravectors."""
    return oct_products([a], [b])[0]


def oct_products(xs: Sequence[Multivector], ys: Sequence[Multivector]) -> list[Multivector]:
    """``[oct_product(x, y) for x, y in zip(xs, ys, strict=True)]``, through
    two calls of :func:`~isoclifford.multivector._batch_products`, which
    give each product the bits it has when formed alone."""
    for x in (*xs, *ys):
        _require_paravector(x)
    full = _batch_products(_batch_products(xs, ys), _ONE_MINUS_PSI)
    return [grade_select(x, (0, 1)) for x in full]


def epsilon_table() -> dict[tuple[int, int], int]:
    """Antisymmetrized structure signs: ``eps[(a,b)] -> c`` encoded as
    ``{(a, b): +/-c}`` for the 42 non-vanishing ordered pairs."""
    table: dict[tuple[int, int], int] = {}
    for a, b, c in CYCLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = z
            table[(y, x)] = -z
    return table


def table_product(a: int, b: int) -> Multivector:
    """``e_a ∘ e_b`` read off the cycle table (independent of the projection)."""
    ea, eb = oct_unit(a), oct_unit(b)  # checks both indices
    if a == 0:
        return eb
    if b == 0:
        return ea
    if a == b:
        return SIG07.scalar(-1.0)
    signed = epsilon_table()[(a, b)]
    return oct_unit(abs(signed)) * (1 if signed > 0 else -1)


def oct_conjugate(a: Multivector) -> Multivector:
    """Scalar part minus vector part."""
    _require_paravector(a)
    return Multivector._from_terms(
        a.signature, {m: (c if m == 0 else -c) for m, c in a.terms.items()})


def oct_norm(a: Multivector) -> float:
    """Euclidean norm of the eight paravector coefficients."""
    _require_paravector(a)
    return a.norm()


def oct_inverse(a: Multivector) -> Multivector:
    """Composition-algebra inverse ``conj(A) / |A|^2``.

    The result is validated as :func:`~isoclifford.multivector.inverse`
    validates its own: if ``A ∘ A⁻¹`` misses 1 by more than 1e-8, because
    coefficients of the inverse fell under the prune (all of them do once
    ``|A|^2`` passes the largest float), ``NonInvertibleError`` is raised.
    """
    n = oct_norm(a)
    if n == 0.0:
        raise NonInvertibleError("zero octonion has no inverse")
    inv = oct_conjugate(a) * (1.0 / (n * n))
    residual = (oct_product(a, inv) - 1).max_abs()
    if residual > 1e-8:
        raise NonInvertibleError(f"octonion inverse residual {residual:.3e} exceeds 1.0e-08")
    return inv


def oct_context(zeta: Multivector) -> IsoContext:
    """Iso context for a paravector unit; for paravectors the octonion
    inverse coincides with the Clifford inverse, so the context invariant
    holds as-is."""
    _require_paravector(zeta)
    return IsoContext(zeta, oct_inverse(zeta))


def oct_isotope_right(zeta: Multivector, a: Multivector, b: Multivector) -> Multivector:
    """``A ⋄_ζ B = A ∘ (ζ⁻¹ ∘ B)``; ζ is its right unit."""
    return oct_product(a, oct_product(oct_context(zeta).zeta_inv, b))


def oct_isotope_left(zeta: Multivector, a: Multivector, b: Multivector) -> Multivector:
    """``A _ζ⋄ B = (A ∘ ζ⁻¹) ∘ B``; ζ is its left unit."""
    return oct_product(oct_product(a, oct_context(zeta).zeta_inv), b)
