"""Sparse multivector arithmetic for real/complex Clifford algebras Cl(p,q).

Elements are stored as sparse mappings from a basis-blade bitmask to a
complex coefficient.  Bit ``i`` of a mask means the basis vector ``e_i``
is a factor of the blade, factors ordered by ascending index.  The first
``p`` basis vectors square to +1, the remaining ``q`` to -1 (the bitmap
blades of Dorst, Fontijne & Mann, *Geometric Algebra for Computer
Science*, 2007, ch. 19).

The product of blades ``a`` and ``b`` is ``sign(a, b)`` times blade
``a ^ b``.  The sign is a bilinear form over GF(2):
``sign(a, b) = (-1) ** popcount(a & F[b])`` with
``F[b] = P(b) ^ (b & neg_mask)``, where bit ``j`` of ``P(b)`` is set iff
``b`` has an odd number of bits below ``j`` (the transpositions that sort
the concatenated factors) and ``neg_mask`` marks the ``q`` generators
squaring to -1 (the metric factor of each repeated index).  ``F`` holds
2^n ints, 4096 for Cl(12,0); it is built on the first product in a
signature and cached per ``(p, q)``, with a read-only int64 copy for
numpy gathers.  One private kernel reads it for the geometric product,
the wedge and both contractions, which differ only in the blade pairs
they keep.

The kernel has two paths, chosen by the number of term pairs
``len(a) * len(b)``.  Below ``_NUMPY_MIN_PAIRS`` (364) a Python loop
visits the pairs; from there on numpy does the same arithmetic on
arrays.  The array path pays for some thirty numpy calls whatever the
operand size, so the loop wins on small operands.  On a 2-core x86-64
the two cross between 320 and 384 pairs in Cl(0,7) (about 180 us a
product either way) and between 576 and 768 in Cl(12,0), whose products
collide on fewer blades; at 128 x 128 terms the array path is 3 to 6
times faster.
Both paths give the same bits: the array path writes Python's complex
product out in real and imaginary components, adds the terms of each
blade in the loop's a-major pair order with ``np.bincount`` (a
sequential sum onto 0.0), and emits the blades in order of first
occurrence.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import AlgebraError

MAX_DIMENSION = 12
PRUNE_EPS = 1e-14
# Operand pairs with at least this many term pairs take the array path of
# _blade_products; see the module docstring for the measured crossover.
_NUMPY_MIN_PAIRS = 364


class SignatureMismatchError(AlgebraError):
    """Raised when operands live in different algebras."""


class NonInvertibleError(AlgebraError):
    """Raised when an element has no (numerically resolvable) inverse."""


@functools.cache
def _sign_table(p: int, q: int) -> tuple[int, ...]:
    """``F[b]`` for every blade ``b`` of Cl(p,q); see the module docstring.

    ``F`` is linear over GF(2), so ``F[b] = F[b without its lowest bit] ^
    F[lowest bit]``, and ``F[1 << j]`` is the generators above ``j`` plus
    ``j`` itself when ``e_j`` squares to -1.
    """
    full = (1 << (p + q)) - 1
    neg = full & ~((1 << p) - 1)
    table = [0] * (full + 1)
    for b in range(1, full + 1):
        low = b & -b
        table[b] = table[b & (b - 1)] ^ (full & ~((low << 1) - 1)) ^ (low & neg)
    return tuple(table)


@functools.cache
def _sign_array(p: int, q: int) -> np.ndarray:
    """:func:`_sign_table` as a read-only int64 array, for numpy gathers."""
    table = np.array(_sign_table(p, q), dtype=np.int64)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Signature:
    """Quadratic-space signature: ``p`` pluses then ``q`` minuses."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be non-negative")
        if self.p + self.q > MAX_DIMENSION:
            raise ValueError(f"dimension {self.p + self.q} exceeds cap {MAX_DIMENSION}")

    @property
    def dim(self) -> int:
        return self.p + self.q

    @property
    def blade_count(self) -> int:
        return 1 << self.dim

    def metric(self, i: int) -> int:
        """Square of basis vector ``e_i`` (+1 or -1)."""
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range for Cl({self.p},{self.q})")
        return 1 if i < self.p else -1

    @property
    def sign_table(self) -> tuple[int, ...]:
        """``F`` with ``sign(a, b) = (-1) ** popcount(a & F[b])``, built on first use."""
        return _sign_table(self.p, self.q)

    @property
    def sign_array(self) -> np.ndarray:
        """:attr:`sign_table` as a read-only int64 array, built once per signature."""
        return _sign_array(self.p, self.q)

    # -- element constructors ------------------------------------------------

    def scalar(self, value: complex) -> "Multivector":
        return Multivector(self, {0: complex(value)})

    def e(self, *indices: int) -> "Multivector":
        """Basis blade ``e_{i1} e_{i2} ...`` (indices need not be sorted)."""
        out = self.scalar(1.0)
        for i in indices:
            out = out * Multivector(self, {1 << i: 1.0})
        return out


def _index_mask(mask) -> int:
    """A blade mask as ``int``; numpy integers are accepted, ``bool`` and
    non-integral values (``1.0``) are not."""
    if isinstance(mask, bool):
        raise ValueError(f"blade mask {mask!r} is a bool, not an integer")
    try:
        return operator.index(mask)
    except TypeError:
        raise ValueError(f"blade mask {mask!r} is not an integer") from None


def _pruned(terms: Mapping[int, complex]) -> MappingProxyType:
    """The terms with ``|c| > PRUNE_EPS``; a non-finite ``c`` raises ``ValueError``.

    ``abs(c)`` is inf or NaN exactly when a component of ``c`` is, and it
    raises ``OverflowError`` for a finite ``c`` too large to measure.
    """
    kept: dict[int, complex] = {}
    for mask, c in terms.items():
        a = abs(c)
        if not a <= PRUNE_EPS:
            if not a < math.inf:
                raise ValueError("multivector coefficients must be finite")
            kept[mask] = c
    return MappingProxyType(kept)


class Multivector:
    """Immutable sparse multivector over a fixed :class:`Signature`.

    The constructor is the validation boundary: it takes integer blade
    masks of the algebra and coefficients ``complex()`` accepts.  Results
    of arithmetic on elements already built that way are assembled by
    :meth:`_from_terms`, which keeps only the prune and the finite check.
    """

    __slots__ = ("signature", "_terms")

    def __init__(self, signature: Signature, terms: Mapping[int, complex]):
        limit = signature.blade_count
        checked: dict[int, complex] = {}
        for mask, coeff in terms.items():
            if type(mask) is not int:
                mask = _index_mask(mask)
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} invalid for Cl({signature.p},{signature.q})")
            checked[mask] = complex(coeff)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "_terms", _pruned(checked))

    @classmethod
    def _from_terms(cls, signature: Signature, terms: dict[int, complex]) -> "Multivector":
        """Element built from terms whose masks are ``int`` blades of
        ``signature`` and whose coefficients are ``complex``, as every
        result of arithmetic on validated operands is; only the prune and
        the finite check of :func:`_pruned` are applied."""
        out = object.__new__(cls)
        object.__setattr__(out, "signature", signature)
        object.__setattr__(out, "_terms", _pruned(terms))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- views ----------------------------------------------------------------

    @property
    def terms(self) -> Mapping[int, complex]:
        return self._terms

    def __iter__(self) -> Iterator[tuple[int, complex]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coeff(self, mask: int) -> complex:
        return self._terms.get(mask, 0j)

    @property
    def scalar_part(self) -> complex:
        return self._terms.get(0, 0j)

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self._terms}

    def max_abs(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return math.sqrt(sum(abs(c) ** 2 for c in self._terms.values()))

    # -- linear structure -------------------------------------------------------

    def _check_signature(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError(
                f"Cl({self.signature.p},{self.signature.q}) vs "
                f"Cl({other.signature.p},{other.signature.q})"
            )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.signature.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_signature(other)
        out = dict(self._terms)
        for mask, coeff in other._terms.items():
            out[mask] = out.get(mask, 0j) + coeff
        return Multivector._from_terms(self.signature, out)

    __radd__ = __add__

    def __neg__(self):
        return Multivector._from_terms(self.signature, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.signature.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_signature(other)
        out = dict(self._terms)
        for mask, coeff in other._terms.items():
            out[mask] = out.get(mask, 0j) + -coeff
        return Multivector._from_terms(self.signature, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            s = complex(other)
            return Multivector._from_terms(self.signature,
                                           {m: c * s for m, c in self._terms.items()})
        if not isinstance(other, Multivector):
            return NotImplemented
        return geometric_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / other)
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, Multivector):
            return wedge(self, other)
        return NotImplemented

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self.signature.scalar(other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.signature == other.signature and dict(self._terms) == dict(other._terms)

    def __hash__(self):
        return hash((self.signature, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for mask in sorted(self._terms, key=lambda m: (m.bit_count(), m)):
            coeff = self._terms[mask]
            if mask == 0:
                parts.append(f"{coeff:.6g}")
            else:
                idx = [str(i) for i in range(self.signature.dim) if mask >> i & 1]
                sep = "," if self.signature.dim > 10 else ""
                parts.append(f"{coeff:.6g}*e{sep.join(idx)}")
        return " + ".join(parts)


# -- products ---------------------------------------------------------------------


def _blade_products(a: Multivector, b: Multivector, keep=None) -> Multivector:
    """Sum of ``sign * ca * cb`` on blade ``ma ^ mb`` over the term pairs.

    ``keep(ma, mb)``, when given, selects the blade pairs that contribute;
    it must accept ints and int64 arrays alike.  Pairs are visited in the
    order of ``a``'s terms, then ``b``'s, so the result's terms and
    rounding do not depend on how the sign is found.  At
    ``_NUMPY_MIN_PAIRS`` pairs or more, :func:`_blade_terms_numpy` does the
    same arithmetic on arrays.
    """
    a._check_signature(b)
    sig = a.signature
    a_terms, b_terms = a._terms, b._terms
    if len(a_terms) * len(b_terms) >= _NUMPY_MIN_PAIRS:
        return Multivector._from_terms(sig, _blade_terms_numpy(a_terms, b_terms, sig, keep))
    table = sig.sign_table
    rows = [(mb, cb, table[mb]) for mb, cb in b_terms.items()]
    out: dict[int, complex] = {}
    for ma, ca in a_terms.items():
        signed = (1 * ca, -1 * ca)  # ``sign * ca`` for sign = +1, -1
        for mb, cb, fb in rows if keep is None else [r for r in rows if keep(ma, r[0])]:
            mask = ma ^ mb
            out[mask] = out.get(mask, 0j) + signed[(ma & fb).bit_count() & 1] * cb
    return Multivector._from_terms(sig, out)


def _blade_terms_numpy(a: Mapping[int, complex], b: Mapping[int, complex],
                       sig: Signature, keep) -> dict[int, complex]:
    """The terms of :func:`_blade_products`, bit for bit, from array arithmetic.

    Python's complex ``*`` is written out in components, ``1 * ca`` as
    ``(1*ar - 0*ai, 1*ai + 0*ar)`` and ``s * cb`` as
    ``(sr*br - si*bi, sr*bi + si*br)``, because numpy's complex multiply
    may fuse a multiply and an add and round once where Python rounds
    twice.  The pairs are flattened a-major, ``np.bincount`` adds the
    terms of a blade in that order onto 0.0 as the loop adds them onto
    ``0j``, and the blades come out in order of first occurrence.
    """
    ma = np.fromiter(a.keys(), dtype=np.int64, count=len(a))[:, None]
    mb = np.fromiter(b.keys(), dtype=np.int64, count=len(b))
    ca = np.fromiter(a.values(), dtype=complex, count=len(a))[:, None]
    cb = np.fromiter(b.values(), dtype=complex, count=len(b))
    with np.errstate(all="ignore"):  # inf and NaN reach the check in _pruned
        odd = np.bitwise_count(ma & sig.sign_array[mb]) & 1
        ar, ai = ca.real, ca.imag
        sr = np.where(odd, -1.0 * ar - 0.0 * ai, 1.0 * ar - 0.0 * ai)
        si = np.where(odd, -1.0 * ai + 0.0 * ar, 1.0 * ai + 0.0 * ar)
        re = sr * cb.real - si * cb.imag
        im = sr * cb.imag + si * cb.real
    masks = ma ^ mb
    if keep is not None:
        kept = keep(ma, mb)
        masks, re, im = masks[kept], re[kept], im[kept]
    masks, n = masks.ravel(), sig.blade_count
    first = np.full(n, masks.size)  # index of each blade's first pair
    np.minimum.at(first, masks, np.arange(masks.size))
    blades = masks[np.sort(first[first < masks.size])]
    coeffs = np.empty(blades.size, dtype=complex)
    coeffs.real = np.bincount(masks, weights=re.ravel(), minlength=n)[blades]
    coeffs.imag = np.bincount(masks, weights=im.ravel(), minlength=n)[blades]
    return dict(zip(blades.tolist(), coeffs.tolist()))


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product ``ab``; on vectors ``e_i e_j + e_j e_i = 2 g_ij``."""
    return _blade_products(a, b)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product: grade-raising, null on repeated factors."""
    return _blade_products(a, b, lambda ma, mb: (ma & mb) == 0)


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    """Left contraction ``a ⌟ b``: grade of each term pair is lowered to s-r."""
    return _blade_products(a, b, lambda ma, mb: (ma & ~mb) == 0)


def right_contraction(a: Multivector, b: Multivector) -> Multivector:
    """Right contraction ``a ⌞ b``, the mirror twin of :func:`left_contraction`."""
    return _blade_products(a, b, lambda ma, mb: (mb & ~ma) == 0)


# -- involutions --------------------------------------------------------------------


def _grade_signed(a: Multivector, sign_of_grade) -> Multivector:
    return Multivector._from_terms(
        a.signature,
        {m: sign_of_grade(m.bit_count()) * c for m, c in a.terms.items()},
    )


def reversion(a: Multivector) -> Multivector:
    """Reverse every blade: grade k picks up ``(-1)^(k(k-1)/2)``."""
    return _grade_signed(a, lambda k: -1 if (k // 2) & 1 else 1)


def grade_involution(a: Multivector) -> Multivector:
    """Main automorphism: grade k picks up ``(-1)^k``."""
    return _grade_signed(a, lambda k: -1 if k & 1 else 1)


def conjugation(a: Multivector) -> Multivector:
    """Reversion followed by the main automorphism."""
    return grade_involution(reversion(a))


def grade_project(a: Multivector, k: int) -> Multivector:
    """The grade-k part of ``a``."""
    if not 0 <= k <= a.signature.dim:
        raise ValueError(f"grade {k} out of range for Cl({a.signature.p},{a.signature.q})")
    return Multivector._from_terms(
        a.signature, {m: c for m, c in a.terms.items() if m.bit_count() == k})


def grade_select(a: Multivector, grades: Iterable[int]) -> Multivector:
    wanted = set(grades)
    return Multivector._from_terms(
        a.signature, {m: c for m, c in a.terms.items() if m.bit_count() in wanted})


# -- inversion ------------------------------------------------------------------------


def inverse(a: Multivector) -> Multivector:
    """Multiplicative inverse of ``a``.

    A versor-style fast path (``a ã`` a nonzero scalar) handles blades,
    scalars and rotor-like elements exactly; everything else goes through
    the left-regular-representation linear solve.  The result is always
    validated: if ``a a^{-1}`` misses 1 by more than 1e-8 the element is
    declared singular.
    """
    if not a:
        raise NonInvertibleError("zero has no inverse")
    rev = reversion(a)
    gram = geometric_product(a, rev)
    s = gram.scalar_part
    if abs(s) > PRUNE_EPS and (gram - s).max_abs() <= 1e-12 * abs(s):
        candidate = rev * (1.0 / s)
    else:
        candidate = _regular_solve_inverse(a)
    residual = (geometric_product(a, candidate) - 1).max_abs()
    if residual > 1e-8:
        raise NonInvertibleError(f"inverse residual {residual:.3e} exceeds 1.0e-08")
    return candidate


def _regular_solve_inverse(a: Multivector) -> Multivector:
    from .dirac import regular_representation

    sig = a.signature
    mat = regular_representation(a)
    rhs = np.zeros(sig.blade_count, dtype=complex)
    rhs[0] = 1.0
    try:
        coeffs = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonInvertibleError(f"regular representation is singular: {exc}") from exc
    return Multivector(sig, dict(enumerate(coeffs.tolist())))


# -- sampling -------------------------------------------------------------------------


def random_multivector(sig: Signature, rng, n_terms: int = 8, scale: float = 1.0,
                        grades: Iterable[int] | None = None) -> Multivector:
    """Random sparse multivector with ``n_terms`` complex Gaussian terms.

    ``rng`` is a ``numpy.random.Generator`` or ``RandomState``; restricting
    ``grades`` draws blades only from those grades.
    """
    if grades is None:
        pool = list(range(sig.blade_count))
    else:
        wanted = set(grades)
        pool = [m for m in range(sig.blade_count) if m.bit_count() in wanted]
    n = min(n_terms, len(pool))
    masks = rng.choice(len(pool), size=n, replace=False)
    # one call draws the same stream as a standard_normal(2) per term
    parts = rng.standard_normal(2 * n).tolist()
    return Multivector(sig, {pool[int(k)]: scale * complex(re, im)
                             for k, re, im in zip(masks, parts[::2], parts[1::2])})


def random_vector(sig: Signature, rng) -> Multivector:
    comps = rng.standard_normal(sig.dim)
    return Multivector(sig, {1 << i: complex(comps[i]) for i in range(sig.dim)})
