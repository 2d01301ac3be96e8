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

The geometric product has two paths, chosen by the number of term pairs
``len(a) * len(b)``.  Below ``_NUMPY_MIN_PAIRS`` (364) a Python loop
visits the pairs; from there on numpy does the same arithmetic on
arrays.  The array path pays for some thirty numpy calls whatever the
operand size, so the loop wins on small operands.  On a 2-core x86-64
the two cross between 320 and 384 pairs in Cl(0,7) (about 180 us a
product either way) and between 576 and 768 in Cl(12,0), whose products
collide on fewer blades; at 128 x 128 terms the array path is 3 to 6
times faster.  The wedge and the contractions always take the loop.
The array path is one kernel, :func:`_blade_terms_numpy`, and it takes a
batch of products.  It gives the loop's bits: it writes Python's complex
product out in real and imaginary components, adds the terms of each
(product, blade) in the loop's a-major pair order with ``np.bincount``
(a sequential sum onto 0.0), and emits each product's blades in order of
first occurrence.  Its bins are never more than its term pairs: where the
(product, blade) keys outnumber the pairs, as in a batch of sparse
products in Cl(12,0), ``np.unique`` numbers only the keys that occur.
:func:`_term_arrays` is the one flatten of sparse terms into arrays, here,
in the structure-constant oracle and in the regular representation.
The kernel's terms are pruned on arrays by :func:`_kept`, the rule of
:func:`_pruned` with the same decisions, and split into one
:class:`Multivector` per product.

Two callers give the kernel batches, and a single large product is a
batch of one.  Independent products, such as the samples of a
``verify`` check, go through :func:`_batch_products`: two lists of
operands in, their elementwise products out, bit for bit and term order
for term order, since no product's sums depend on the others in its
batch.  A single element in place of the right-hand list is the right
factor of every product, as a shared isounit is.  The iso-commutators of
:mod:`isoclifford.isotopy`, which the structure-constant oracle of
:mod:`isoclifford.lie_su` reads too, go through
:func:`_commutator_terms`, which forms each element times ζ⁻¹ once,
then both products of every pair, and subtracts them on arrays as
``Multivector.__sub__`` does.  Both hand their products to
:func:`_batch_calls`, which cuts them into kernel calls by one greedy
rule: at most ``_BATCH_PAIRS`` (8192) term pairs a call, so the arrays
of one call stay near 2 MB however long the lists are, and a product
larger than the cap a call of its own.  A batch of
:func:`_batch_products` below ``_NUMPY_MIN_PAIRS`` takes the loop.

A right factor that recurs, the exponent of an exponential series of
:mod:`isoclifford.isotopy` and ζ⁻¹ of the literal ⋄ series, is prepared
once as a :class:`RightFactor` and dropped with the series' sum.  Below
``_PLAN_MIN_PAIRS`` (64) term pairs its product is the loop.  From there
on it is summed on arrays through a plan, formed the first time the
factor meets a left operand's blades in that order and kept: the signed
factor components of every term pair and each pair's bin.  A product
through a kept plan is one ``np.array``, one multiply, one add and one
``np.bincount``, where the array kernel makes some thirty numpy calls,
so this crossover lies far below ``_NUMPY_MIN_PAIRS``.  On one CPU of a
2-core x86-64 (the least of 30 timings of 200 products), a 4 x 16-term
Cl(1,3) product, 64 pairs, took 18 us in the loop, 10 us through a kept
plan and 55 us through a plan formed for it alone, with the factor's
arrays; a 16 x 16-term one took 53, 12 and 70 us, and an 8 x 8-term
Cl(12,0) one 27, 14 and 68 us.  So from 64 pairs on a kept plan is at
least 1.7 times faster than the loop, and a plan repays its forming
after one to five products.  It gives the loop's bits, as the array
kernel does.

A series multiplies by a prepared factor only through :func:`_step`,
which takes the term as a dict and gives the kept product: one
:func:`_pruned` pass over the product's sums prunes them, scales them by
``1/k``, prunes again and adds each kept term into the running sum.  No
:class:`Multivector` is built per step, and every term and sum keeps the
bits of the series written with whole elements.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import AlgebraError

MAX_DIMENSION = 12
PRUNE_EPS = 1e-14
# Operand pairs with at least this many term pairs take the array path of
# _blade_products; see the module docstring for the measured crossover.
_NUMPY_MIN_PAIRS = 364
# Term pairs in one array-kernel call of _batch_products.  On a 2-core
# x86-64, 200 Cl(0,7) products of 64 x 8 terms (84,184 pairs) took 24.5 ms
# in calls of 2**10 pairs, 11.6 ms at 2**13, 10.9 ms at 2**14 and 15.9 ms
# in one call, against 33 ms one product at a time; the tracemalloc peak
# was 1.8 MB at 2**13 and 8.9 MB in one call.
_BATCH_PAIRS = 1 << 13
# Term pairs from which a RightFactor product is summed through a plan
# rather than the loop; see the module docstring for the measured crossover.
_PLAN_MIN_PAIRS = 64
# Term pairs a RightFactor keeps in its plans, at 50 to 95 bytes a pair
# (the most where the blade ints are not cached, as in Cl(12,0)): a
# 16-term factor's plans for 512 left operands of 8 terms.
_PLAN_CACHE_PAIRS = 1 << 16


class SignatureMismatchError(AlgebraError):
    """Raised when operands live in different algebras."""


class NonInvertibleError(AlgebraError):
    """Raised when an element has no (numerically resolvable) inverse."""


class NonFiniteError(ValueError):
    """Raised when a coefficient, or a residual, is not finite."""


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
        for name in ("p", "q"):
            object.__setattr__(self, name, _as_int(getattr(self, name), "signature count"))
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
        return 1 if self._index(i) < self.p else -1

    def _index(self, i) -> int:
        """``i`` as a basis index of this algebra; ``ValueError`` names one
        that is not an integer or is out of range."""
        i = _as_int(i, "basis index")
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range for Cl({self.p},{self.q})")
        return i

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
            out = out * Multivector(self, {1 << self._index(i): 1.0})
        return out


def _as_int(value, what: str) -> int:
    """A signature count or blade mask as ``int``; numpy integers are
    accepted, ``bool`` and non-integral values (``1.0``) are not."""
    if isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is a bool, not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _pruned(terms: Iterable[tuple[int, complex]], factor: complex | None = None,
            total: dict[int, complex] | None = None) -> tuple[dict[int, complex], float]:
    """The ``(mask, c)`` pairs of ``terms`` with ``|c| > PRUNE_EPS``, and the
    largest modulus kept (0.0 if none is); a ``c`` whose modulus is not
    finite raises :class:`NonFiniteError`.

    ``abs(c)`` is inf or NaN when a component of ``c`` is, and it raises
    ``OverflowError`` when the components are finite but the modulus
    exceeds the largest float; both raise the :class:`NonFiniteError` that
    :func:`_kept` raises for a modulus of inf.

    With a ``factor``, each term that passes is multiplied by it and put to
    the same test again, and the product is kept: one pass gives the terms
    and the bits of ``Multivector._from_terms(sig, terms) * factor``, and
    that element's ``max_abs()``.  With a ``total`` too, each kept term is
    added into it, ``total.get(mask, 0j) + c`` in term order, as
    ``Multivector.__add__`` adds.  :func:`_step` prunes this way.
    """
    kept: dict[int, complex] = {}
    top = 0.0
    for mask, c in terms:
        f = factor
        while True:
            try:
                a = abs(c)
            except OverflowError:
                a = math.inf
            if a <= PRUNE_EPS:
                break
            if not a < math.inf:
                raise NonFiniteError("multivector coefficients must be finite")
            if f is None:
                kept[mask] = c
                if total is not None:
                    total[mask] = total.get(mask, 0j) + c
                if a > top:
                    top = a
                break
            c, f = c * f, None
    return kept, top


def _step(right: RightFactor, term: Mapping[int, complex], factor: complex | None = None,
          total: dict[int, complex] | None = None
          ) -> tuple[dict[int, complex], float, dict[int, complex] | None, float]:
    """One step of a series through the prepared factor ``right``: the kept
    terms of ``term * right.element``, scaled by ``factor``, and their
    largest modulus, then the running sum ``total`` with each kept term
    added and its largest modulus (``None, 0.0`` without a ``total``).

    One :func:`_pruned` pass takes the product's sums.  The sum's moduli,
    sorted, give its largest; it is pruned again only where the least is
    at or below ``PRUNE_EPS``, their sum is not below inf (an inf, a NaN
    wherever it sits, or an overflow), or a modulus is past the float
    range.  The terms and sums are those of ``(x * b) * factor`` and ``sum
    + t`` on :class:`Multivector` values, bit for bit.  A non-finite
    coefficient raises :class:`NonFiniteError`; the caller enters
    ``np.errstate(all="ignore")``, once for a whole series.
    """
    kept, top = _pruned(right._product(term), factor, total)
    if total is None:
        return kept, top, None, 0.0
    try:  # sorted in order unless a NaN, whose sum is not below inf
        moduli = sorted(map(abs, total.values()))
    except OverflowError:  # a modulus past the float range
        moduli = []
    if moduli and moduli[0] > PRUNE_EPS and sum(moduli) < math.inf:
        return kept, top, total, moduli[-1]
    return kept, top, *_pruned(total.items())


def _kept(coeffs: np.ndarray) -> np.ndarray:
    """:func:`_pruned`'s rule on an array: the mask of the coefficients with
    ``|c| > PRUNE_EPS``; a non-finite ``c`` raises :class:`NonFiniteError`.

    Python's ``abs(complex)`` is libm's ``hypot`` of the components.
    ``np.abs`` is several times faster than ``np.hypot`` but may differ
    from it in the last bit, so a modulus within an ulp of ``PRUNE_EPS``
    would be kept on one path and dropped on the other, and one within an
    ulp of the largest float finite on one and inf on the other.
    ``np.hypot`` decides wherever ``np.abs`` lies within a relative 1e-12
    of ``PRUNE_EPS``, at or above 1e300, or is not finite.
    """
    with np.errstate(all="ignore"):
        a = np.abs(coeffs)
        near = np.abs(a - PRUNE_EPS) <= 1e-12 * PRUNE_EPS
        near |= ~(a < 1e300)
        if near.any():  # every modulus that is not finite is among these
            exact = np.hypot(coeffs.real[near], coeffs.imag[near])
            if not (exact[~(exact <= PRUNE_EPS)] < math.inf).all():
                raise NonFiniteError("multivector coefficients must be finite")
            a[near] = exact
    return ~(a <= PRUNE_EPS)


def _commutator_terms(elements: Sequence[Multivector], between: Multivector, first: np.ndarray,
                      second: np.ndarray) -> tuple[np.ndarray, ...]:
    """``x_i between x_j - x_j between x_i`` for each ``(i, j) = (first[k],
    second[k])``, ``x`` the ``elements``, as arrays ``(k, blade,
    coefficient)``, with the terms, order and bits of the two products'
    difference by :meth:`Multivector.__sub__`.  With ``between`` ζ⁻¹ this
    is the iso-commutator of :mod:`isoclifford.isotopy`, which the
    structure-constant oracle of :mod:`isoclifford.lie_su` reads too.

    Each ``x between`` is formed once, all of them in one
    :func:`_batch_products`, which gives the bits of
    :func:`geometric_product`.  :func:`_batch_calls` forms ``x_k = (x_i
    between) x_j`` as product ``2k`` and ``y_k = (x_j between) x_i`` as
    product ``2k + 1``.
    :func:`_first_occurrence_bins` numbers the ``(k, blade)`` keys in order
    of their first term, so each difference lists ``x_k``'s blades, then
    those only ``y_k`` has, as ``__sub__``'s dict does.  The ``x_k`` terms
    are set in their bins and ``-y_k`` is added onto them: ``x + (-y)`` on a
    blade in both, ``0.0 + (-y)`` on a blade only in ``y_k`` and ``x`` on a
    blade only in ``x_k``; :func:`_kept` prunes the result.
    """
    sig = between.signature
    left = _batch_products(elements, between)
    pairs = np.stack([first, len(left) + second, second, len(left) + first], axis=1).reshape(-1, 2)
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))]
    parts += [(product + start, blades, coeffs) for start, _, (product, blades, coeffs)
              in _batch_calls([x._terms for x in (*left, *elements)], pairs, sig)]
    product, blades, coeffs = map(np.concatenate, zip(*parts))
    bins, keys, slots = _first_occurrence_bins((product >> 1) << sig.dim | blades,
                                               len(first) << sig.dim)
    in_y = product & 1 == 1
    diff = np.zeros(bins.max(initial=-1) + 1, dtype=complex)
    diff[bins[~in_y]] = coeffs[~in_y]
    with np.errstate(all="ignore"):  # a sum past the float range reaches the check in _kept
        diff[bins[in_y]] += -coeffs[in_y]
    diff = diff[slots]
    kept = _kept(diff)
    return keys[kept] >> sig.dim, keys[kept] & (sig.blade_count - 1), diff[kept]


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
                mask = _as_int(mask, "blade mask")
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} invalid for Cl({signature.p},{signature.q})")
            checked[mask] = complex(coeff)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "_terms", MappingProxyType(_pruned(checked.items())[0]))

    @classmethod
    def _from_terms(cls, signature: Signature, terms: dict[int, complex]) -> "Multivector":
        """Element built from terms whose masks are ``int`` blades of
        ``signature`` and whose coefficients are ``complex``, as every
        result of arithmetic on validated operands is; only the prune and
        the finite check of :func:`_pruned` are applied."""
        out = object.__new__(cls)
        object.__setattr__(out, "signature", signature)
        object.__setattr__(out, "_terms", MappingProxyType(_pruned(terms.items())[0]))
        return out

    @classmethod
    def _from_kept(cls, signature: Signature, terms: dict[int, complex]) -> "Multivector":
        """Element built from terms that have passed the prune already, as
        the array kernel's have.  :meth:`_from_terms`, on the path of every
        loop product, keeps its own copy of these lines: calling this from
        it made a 16-term result 10% slower to build."""
        out = object.__new__(cls)
        object.__setattr__(out, "signature", signature)
        object.__setattr__(out, "_terms", MappingProxyType(terms))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):
        # the terms' read-only proxy does not pickle: rebuild through the
        # constructor, whose complex() keeps every coefficient's bits
        return Multivector, (self.signature, dict(self._terms))

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
        """Euclidean norm of the coefficient vector.

        The squares are added left to right, one rounding each: the builtin
        ``sum()`` compensates float sums from Python 3.12 on, so its bits
        would depend on the interpreter.  Where that fold overflows or
        falls below the normal range, :func:`math.hypot` of the moduli
        gives the norm instead: a norm near either end of the float range
        neither overflows nor loses its digits, and every other norm keeps
        the plain fold's bits.
        """
        total = 0.0
        try:
            for c in self._terms.values():
                total += abs(c) ** 2
        except OverflowError:
            total = math.inf
        if sys.float_info.min <= total < math.inf:
            return math.sqrt(total)
        return math.hypot(*map(abs, self._terms.values()))

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

    ``keep(ma, mb)``, when given, selects the blade pairs that contribute.
    Pairs are visited in the order of ``a``'s terms, then ``b``'s, so the
    result's terms and rounding do not depend on how the sign is found.
    An unfiltered product of ``_NUMPY_MIN_PAIRS`` pairs or more goes to
    :func:`_blade_terms_numpy`, which does the same arithmetic on arrays,
    as a batch of one product; a filtered one always takes the loop.
    """
    a._check_signature(b)
    sig = a.signature
    a_terms, b_terms = a._terms, b._terms
    if keep is None and len(a_terms) * len(b_terms) >= _NUMPY_MIN_PAIRS:
        return _split(sig, 1, *_kept_terms((a_terms, b_terms), [(0, 1)], sig))[0]
    return Multivector._from_terms(sig, _loop_sums(a_terms, b_terms, sig.sign_table, keep))


def _loop_sums(a_terms: Mapping[int, complex], b_terms: Mapping[int, complex],
               table: Sequence[int], keep=None) -> dict[int, complex]:
    """The loop of :func:`_blade_products`: the sums by blade before the
    prune, blades in order of first occurrence."""
    rows = [(mb, cb, table[mb]) for mb, cb in b_terms.items()]
    out: dict[int, complex] = {}
    for ma, ca in a_terms.items():
        signed = (1 * ca, -1 * ca)  # ``sign * ca`` for sign = +1, -1
        for mb, cb, fb in rows if keep is None else [r for r in rows if keep(ma, r[0])]:
            mask = ma ^ mb
            out[mask] = out.get(mask, 0j) + signed[(ma & fb).bit_count() & 1] * cb
    return out


# ``sign * ca`` for sign = +1, -1: each product in this complex multiply is
# exact, so numpy rounds it as Python does
_SIGNS = np.array([1, -1], dtype=complex)


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[k] + arange(lengths[k])`` for every ``k``, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _term_arrays(mappings: Sequence[Mapping[int, complex]]) -> tuple[np.ndarray, ...]:
    """The terms of ``mappings`` flattened in order, as arrays ``(sizes,
    masks, coeffs)`` with ``sizes[k]`` the number of terms of ``mappings[k]``."""
    sizes = np.fromiter(map(len, mappings), dtype=np.intp, count=len(mappings))
    masks = np.fromiter(itertools.chain.from_iterable(mappings), dtype=np.int64,
                        count=int(sizes.sum()))
    coeffs = np.fromiter(itertools.chain.from_iterable(m.values() for m in mappings),
                         dtype=complex, count=masks.size)
    return sizes, masks, coeffs


def _first_occurrence_bins(key: np.ndarray, n_keys: int) -> tuple[np.ndarray, ...]:
    """Bins to sum pairs by ``key`` (values below ``n_keys``): ``(bins, keys,
    slots)``, with ``bins[p]`` the bin of pair ``p``, ``keys`` the distinct
    keys in order of their first pair and ``slots[k]`` the bin of ``keys[k]``.

    No more bins are made than pairs: while ``n_keys`` is at most the number
    of pairs a key is its own bin, and beyond that ``np.unique`` numbers the
    keys that occur in ascending order, so a key's bin is its rank.  The
    dense case keeps its own branch because a sort is slower there.
    """
    n = key.size
    if n_keys <= n:
        first = np.full(n_keys, n)
        np.minimum.at(first, key, np.arange(n))
        seen = np.flatnonzero(first < n)
        keys = seen[np.argsort(first[seen])]
        return key, keys, keys
    keys, first, bins = np.unique(key, return_index=True, return_inverse=True)
    slots = np.argsort(first)
    return bins, keys[slots], slots


def _blade_terms_numpy(operands: Sequence[Mapping[int, complex]], pairs,
                       sig: Signature) -> tuple[np.ndarray, ...]:
    """The unpruned terms of the geometric products of a batch, bit for
    bit those of :func:`_blade_products`, from array arithmetic.

    ``pairs`` holds ``(ia, ib)`` index pairs into ``operands``, one per
    product ``operands[ia] * operands[ib]``.  The result is three arrays
    with one entry per term, ``(product, blade, coefficient)``: products in
    batch order, and each product's blades in order of first occurrence.

    :func:`_term_arrays` flattens the operands' terms, and the term pairs
    are flattened product-major, then a-major.  Python's complex ``s * cb``
    is written out in components, ``(sr*br - si*bi, sr*bi + si*br)``,
    because numpy's complex multiply may fuse a multiply and an add and
    round once where Python rounds twice.  ``np.bincount`` adds the terms
    of each ``(product, blade)`` key in pair order onto 0.0, as the loop
    adds them onto ``0j``; see :func:`_first_occurrence_bins` for the bins.
    """
    sizes, masks, coeffs = _term_arrays(operands)
    starts = np.cumsum(sizes) - sizes
    # per term pair: ta, its a term doubled (to index the signed pairs
    # below), tb, its b term, and ka, its a blade under a prefix that numbers
    # the product.  One product broadcasts a column of a terms against a row
    # of b terms, in half the numpy calls of the ragged layout of a batch.
    if len(pairs) == 1:
        (ia, ib), = pairs
        ta = 2 * np.arange(starts[ia], starts[ia] + sizes[ia])[:, None]
        tb = np.arange(starts[ib], starts[ib] + sizes[ib])
        ka = masks[ta >> 1]
    else:
        ia, ib = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        na, nb = sizes[ia], sizes[ib]
        rows = _ragged_arange(starts[ia], na)
        row_nb = np.repeat(nb, na)
        ta = np.repeat(2 * rows, row_nb)
        tb = _ragged_arange(np.repeat(starts[ib], na), row_nb)
        ka = np.repeat(np.repeat(np.arange(ia.size) << sig.dim, na) | masks[rows], row_nb)
    mb = masks[tb]
    key = ka ^ mb
    # the prefix lies above the bits of F, so this is ``ma & F[mb]``
    odd = np.bitwise_count(ka & sig.sign_array[mb]) & 1
    with np.errstate(all="ignore"):  # inf and NaN reach the check in _kept
        sa = (coeffs[:, None] * _SIGNS).reshape(-1)[ta + odd]
        cb = coeffs[tb]
        re = sa.real * cb.real
        re -= sa.imag * cb.imag
        im = sa.real * cb.imag
        im += sa.imag * cb.real
    bins, keys, slots = _first_occurrence_bins(key.reshape(-1), len(pairs) << sig.dim)
    sums = np.empty(keys.size, dtype=complex)
    sums.real = np.bincount(bins, weights=re.reshape(-1))[slots]
    sums.imag = np.bincount(bins, weights=im.reshape(-1))[slots]
    return keys >> sig.dim, keys & (sig.blade_count - 1), sums


def _kept_terms(operands: Sequence[Mapping[int, complex]], pairs,
                sig: Signature) -> tuple[np.ndarray, ...]:
    """:func:`_blade_terms_numpy`'s terms of a batch, ``(product, blade,
    coefficient)``, under :func:`_kept`'s prune."""
    product, blades, coeffs = _blade_terms_numpy(operands, pairs, sig)
    kept = _kept(coeffs)
    return product[kept], blades[kept], coeffs[kept]


def _split(sig: Signature, count: int, product: np.ndarray, blades: np.ndarray,
           coeffs: np.ndarray) -> list[Multivector]:
    """The pruned terms of a batch of ``count`` products, products in
    ascending order, as one :class:`Multivector` per product."""
    ends = np.cumsum(np.bincount(product, minlength=count)).tolist()
    blades, coeffs = blades.tolist(), coeffs.tolist()
    out, start = [], 0
    for end in ends:
        out.append(Multivector._from_kept(sig, dict(zip(blades[start:end], coeffs[start:end]))))
        start = end
    return out


def _batch_products(xs: Sequence[Multivector],
                    ys: Multivector | Sequence[Multivector]) -> list[Multivector]:
    """``[x * y for x, y in zip(xs, ys, strict=True)]``, bit for bit and
    term order for term order.  A single :class:`Multivector` in place of
    ``ys`` is the right factor of every product, as a shared isounit is;
    sequences of unequal length raise ``ValueError``.

    A batch below ``_NUMPY_MIN_PAIRS`` term pairs takes the loop, as a
    single product that small does, and a larger one goes through
    :func:`_batch_calls`, whose products do not interact: a product's bits
    do not depend on the batch it is in.  Every operand must share one
    signature, or :class:`SignatureMismatchError` is raised.
    """
    if isinstance(ys, Multivector):
        ys = [ys] * len(xs)
    pairs = list(zip(xs, ys, strict=True))
    for x in itertools.chain.from_iterable(pairs):
        if x.signature is not pairs[0][0].signature:
            pairs[0][0]._check_signature(x)
    if sum(len(a._terms) * len(b._terms) for a, b in pairs) < _NUMPY_MIN_PAIRS:
        return [_blade_products(a, b) for a, b in pairs]
    operands, at = _indexed([x for pair in pairs for x in pair])
    sig = operands[0].signature
    calls = _batch_calls([x._terms for x in operands], at.reshape(-1, 2), sig)
    return [x for start, stop, terms in calls for x in _split(sig, stop - start, *terms)]


def _batch_calls(operands: Sequence[Mapping[int, complex]], pairs: np.ndarray,
                 sig: Signature) -> Iterator[tuple[int, int, tuple[np.ndarray, ...]]]:
    """The products ``operands[ia] * operands[ib]`` for the rows ``(ia, ib)``
    of ``pairs``, one kernel call at a time: ``(start, stop, terms)`` with
    ``terms`` the :func:`_kept_terms` of rows ``start`` to ``stop``.

    One greedy rule cuts the calls: a call takes products in order until
    the next would bring its term pairs past ``_BATCH_PAIRS``, and a
    product larger than that is a call of its own.  Each call flattens only
    the operands its products read.
    """
    sizes = np.fromiter(map(len, operands), dtype=np.intp, count=len(operands))
    ends = list(itertools.accumulate((sizes[pairs[:, 0]] * sizes[pairs[:, 1]]).tolist()))
    stop = 0
    while stop < len(ends):
        start, cap = stop, (ends[stop - 1] if stop else 0) + _BATCH_PAIRS
        stop = max(bisect.bisect_right(ends, cap), start + 1)
        used = np.zeros(len(operands), dtype=bool)
        used[pairs[start:stop]] = True
        yield start, stop, _kept_terms([operands[i] for i in np.flatnonzero(used).tolist()],
                                       (np.cumsum(used) - 1)[pairs[start:stop]], sig)


def _indexed(xs: Sequence[Multivector]) -> tuple[list[Multivector], np.ndarray]:
    """The distinct elements of ``xs``, told apart by identity, in order of
    first occurrence, and the index of each ``x`` among them: an element
    that recurs in a batch is flattened, or multiplied by ζ⁻¹, once."""
    index: dict[int, tuple[int, Multivector]] = {}
    for x in xs:
        index.setdefault(id(x), (len(index), x))
    return [x for _, x in index.values()], np.array([index[id(x)][0] for x in xs], dtype=np.intp)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product ``ab``; on vectors ``e_i e_j + e_j e_i = 2 g_ij``."""
    return _blade_products(a, b)


class RightFactor:
    """An element ``b`` prepared as the right factor of many products ``x b``,
    which :func:`_step` forms; see the module docstring for the crossover.

    A product of fewer than ``_PLAN_MIN_PAIRS`` term pairs is the loop of
    :func:`_blade_products`.  From there on, at and above
    ``_NUMPY_MIN_PAIRS`` too, it is summed on arrays through a *plan*,
    formed the first time ``b`` meets a left operand with those blades in
    that order and kept: the signed components of ``cb`` for every term
    pair, and the bin of each pair's blade, numbered in order of first
    occurrence.  A product then costs one ``np.array`` of ``x``'s
    coefficients, one broadcast multiply of ``(ar, ai)`` against the
    plan's rows ``[R, I]`` and ``[-I, R]``, one add of the two and one
    ``np.bincount`` over interleaved real and imaginary bins.

    The loop forms ``(sign * ca) * cb``; a plan forms ``ca * (sign * cb)``,
    with ``sign * cb`` formed as :func:`_blade_terms_numpy` forms ``sign *
    ca`` and the complex product written out in components as it writes
    it.  With the sign moved onto ``cb`` a term can differ only in the sign
    of an exact zero, and a sum that starts at 0.0 keeps no ``-0.0``;
    ``np.bincount`` adds each blade's terms in the loop's a-major pair
    order onto 0.0, so every sum keeps the loop's bits.

    Plans are kept until they hold ``_PLAN_CACHE_PAIRS`` term pairs, at
    most about 6 MB; later plans are formed on each use and not kept.  A
    plan's arrays are read-only, so threads share them without a lock; two
    threads may both form a plan, and the one kept last is read.
    """

    __slots__ = ("element", "_factor", "_plans", "_room")

    def __init__(self, b: Multivector):
        self.element = b
        self._factor: tuple[np.ndarray, ...] | None = None
        self._plans: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, list[int]]] = {}
        self._room = _PLAN_CACHE_PAIRS

    def _plan(self, order: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The plan of left operands with blades ``order``: the ``(n, 2, m,
        2)`` stack whose rows ``[R, I]`` and ``[-I, R]`` are the signed
        factor components of each term pair, the pairs' interleaved bins
        ``(2 bin, 2 bin + 1)``, and the blades of the bins in order.

        The first plan also forms the factor's blades, their ``F[mb]`` and
        both rows of ``cb`` and of ``-1 * cb``, which later plans share."""
        sig = self.element.signature
        if self._factor is None:
            _, mb, cb = _term_arrays([self.element._terms])
            sb = (cb[:, None] * _SIGNS).T  # ``sign * cb`` for sign = +1, -1
            rows = np.array([[sb.real, sb.imag], [-sb.imag, sb.real]]).transpose(2, 0, 3, 1)
            self._factor = mb, sig.sign_array[mb], np.ascontiguousarray(rows)
        mb, fb, signed = self._factor
        ma = np.array(order, dtype=np.int64)[:, None]
        odd = np.bitwise_count(ma & fb) & 1
        stack = np.where(odd[:, None, :, None], signed[1], signed[0])
        bins, keys, slots = _first_occurrence_bins((ma ^ mb).reshape(-1), sig.blade_count)
        real_slot = np.empty(bins.max() + 1, dtype=np.intp)
        real_slot[slots] = np.arange(0, 2 * slots.size, 2)
        bins = (real_slot[bins][:, None] + np.arange(2)).reshape(-1)
        plan = stack, bins, keys.tolist()
        stack.flags.writeable = bins.flags.writeable = False
        if odd.size <= self._room:
            self._plans[order] = plan
            self._room -= odd.size
        return plan

    def _product(self, term: Mapping[int, complex]) -> Iterable[tuple[int, complex]]:
        """The terms of ``x b`` before the prune, ``(blade, sum)`` in the
        loop's order, for the left operand ``x`` with terms ``term``; its
        blade tuple is the plan's key.  Nothing checks the signature."""
        n = len(term)
        if n * len(self.element._terms) < _PLAN_MIN_PAIRS:
            return _loop_sums(term, self.element._terms, self.element.signature.sign_table).items()
        order = tuple(term)
        stack, bins, blades = self._plans.get(order) or self._plan(order)
        parts = np.array(list(term.values()), dtype=complex).view(float).reshape(n, 2, 1, 1) * stack
        terms = parts[:, 0] + parts[:, 1]
        return zip(blades, np.bincount(bins, weights=terms.reshape(-1)).view(complex).tolist())


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
    declared singular.  On the versor path ``a a^{-1}`` is the product; on
    the regular path it is ``M x`` for the matrix ``M`` just solved and the
    pruned candidate's coefficients ``x``, whose last bits may differ from
    the product's.  A candidate whose residual is not finite raises
    :class:`NonFiniteError`.
    """
    if not a:
        raise NonInvertibleError("zero has no inverse")
    rev = reversion(a)
    gram = geometric_product(a, rev)
    s = gram.scalar_part
    if abs(s) > PRUNE_EPS and (gram - s).max_abs() <= 1e-12 * abs(s):
        candidate = rev * (1.0 / s)
        residual = (geometric_product(a, candidate) - 1).max_abs()
    else:
        candidate, residual = _regular_solve_inverse(a)
    if residual > 1e-8:
        raise NonInvertibleError(f"inverse residual {residual:.3e} exceeds 1.0e-08")
    return candidate


def _regular_solve_inverse(a: Multivector) -> tuple[Multivector, float]:
    """The candidate ``x`` solving ``M x = e_0`` for the left-regular matrix
    ``M`` of ``a``, and ``max |M x - e_0|`` over its pruned terms."""
    from .dirac import regular_representation

    sig = a.signature
    mat = regular_representation(a)
    rhs = np.zeros(sig.blade_count, dtype=complex)
    rhs[0] = 1.0
    try:
        coeffs = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonInvertibleError(f"regular representation is singular: {exc}") from exc
    candidate = Multivector._from_terms(sig, dict(enumerate(coeffs.tolist())))
    x = np.zeros(sig.blade_count, dtype=complex)
    x[list(candidate._terms)] = list(candidate._terms.values())
    with np.errstate(all="ignore"):  # inf and NaN reach the check below
        residual = float(np.abs(mat @ x - rhs).max())
    if not residual < math.inf:
        raise NonFiniteError("multivector coefficients must be finite")
    return candidate, residual


# -- sampling -------------------------------------------------------------------------


def random_multivector(sig: Signature, rng, n_terms: int = 8, scale: float = 1.0,
                        grades: Iterable[int] | None = None) -> Multivector:
    """Random sparse multivector with ``n_terms`` complex Gaussian terms.

    ``rng`` is a ``numpy.random.Generator`` or ``RandomState``; restricting
    ``grades`` draws blades only from those grades.
    """
    if grades is None:
        pool = range(sig.blade_count)
    else:
        wanted = set(grades)
        pool = [m for m in range(sig.blade_count) if m.bit_count() in wanted]
    n = min(n_terms, len(pool))
    picks = rng.choice(len(pool), size=n, replace=False).tolist()
    # one call draws the same stream as a standard_normal(2) per term
    parts = rng.standard_normal(2 * n).tolist()
    return Multivector._from_terms(sig, {pool[k]: complex(scale * complex(re, im))
                                         for k, re, im in zip(picks, parts[::2], parts[1::2])})


def random_vector(sig: Signature, rng) -> Multivector:
    comps = rng.standard_normal(sig.dim)
    return Multivector(sig, {1 << i: complex(comps[i]) for i in range(sig.dim)})
