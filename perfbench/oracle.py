"""Independent reference values for the ``dense_api`` outputs.

Nothing here imports the package.  The blade product, the left-regular
representation, the exponential, the inverse and the su(6) structure
constants are recomputed with vectorised numpy from their definitions, so
a reference never comes from the code under test.

An output passes when ``||out - ref||`` (seen through the fingerprint
projections of :func:`gen.project`) is at most ``RTOL * scale``, where
``scale`` comes from the operand norms for products and regular
representations and from the reference norm for inverse, exp and
structure constants (see :func:`scale`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

import gen

RTOL = 1e-9


def blade_product(sig: tuple[int, int], ma: np.ndarray, mb: np.ndarray):
    """Result masks and signs of ``e_ma e_mb`` (arrays broadcast)."""
    p, q = sig
    ma = np.asarray(ma, dtype=np.int64)
    mb = np.asarray(mb, dtype=np.int64)
    swaps = np.zeros(np.broadcast(ma, mb).shape, dtype=np.int64)
    # every generator j of b must move past the generators of a above j
    for j in range(p + q):
        swaps += ((mb >> j) & 1) * np.bitwise_count(ma >> (j + 1))
    negative = ((1 << (p + q)) - 1) ^ ((1 << p) - 1)
    swaps += np.bitwise_count(ma & mb & negative)
    return ma ^ mb, 1 - 2 * (swaps & 1)


def product(sig, a, b) -> np.ndarray:
    """Dense coefficient vector of ``a b`` for a, b given as (masks, coeffs)."""
    (ma, ca), (mb, cb) = a, b
    masks, signs = blade_product(sig, ma[:, None], mb[None, :])
    vals = (signs * ca[:, None] * cb[None, :]).ravel()
    size = 1 << sum(sig)
    idx = masks.ravel()
    return (np.bincount(idx, weights=vals.real, minlength=size)
            + 1j * np.bincount(idx, weights=vals.imag, minlength=size))


def regular(sig, a) -> np.ndarray:
    """Matrix of left multiplication by ``a``; column j is ``a e_j``."""
    ma, ca = a
    size = 1 << sum(sig)
    cols = np.arange(size, dtype=np.int64)
    rows, signs = blade_product(sig, ma[:, None], cols[None, :])
    mat = np.zeros((size, size), dtype=complex)
    # distinct masks of a land on distinct rows of each column
    mat[rows, np.broadcast_to(cols, rows.shape)] = signs * ca[:, None]
    return mat


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a degree-24 Taylor sum."""
    norm = np.abs(m).sum(axis=0).max()
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    a = m / 2.0 ** squarings
    out = np.eye(len(m), dtype=complex)
    term = np.eye(len(m), dtype=complex)
    for k in range(1, 25):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def exp(sig, a) -> np.ndarray:
    """``exp(a)``; the scalar part commutes and is factored out exactly."""
    ma, ca = a
    s = ca[ma == 0].sum()
    rest = (ma, np.where(ma == 0, 0.0, ca))
    return np.exp(s) * _expm(regular(sig, rest))[:, 0]


def inverse(sig, a) -> np.ndarray:
    rhs = np.zeros(1 << sum(sig), dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(regular(sig, a), rhs)


def _basis_vector(i: int):
    return np.array([1 << i], dtype=np.int64), np.array([1.0 + 0j])


def _sparse(vec: np.ndarray):
    nz = np.flatnonzero(vec)
    return nz.astype(np.int64), vec[nz]


@functools.cache
def su6_structure_constants() -> np.ndarray:
    """``c[i, j, k]`` with ``[g_i, g_j] = sum_k c[i,j,k] g_k`` for the 35 E/F/H
    bivectors of Cl(12,0) (E then F in lexicographic p<q order, then H).

    Iso-lifting with an invertible isounit leaves the constants unchanged,
    so this one tensor is the reference for every isounit.
    """
    n, sig = 6, (12, 0)

    def biv(i, j):  # e_i e_j for 1-based i != j
        return product(sig, _basis_vector(i - 1), _basis_vector(j - 1))

    gens = []
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            gens.append(biv(p, q) + biv(p + n, q + n))
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            gens.append(biv(p, q + n) - biv(p + n, q))
    for r in range(1, n):
        gens.append(biv(r, r + n) - biv(r + 1, r + n + 1))
    sparse = [_sparse(g) for g in gens]
    m = len(gens)
    span = np.column_stack(gens)
    rows = np.flatnonzero(np.abs(span).sum(axis=1))
    c = np.zeros((m, m, m), dtype=complex)
    for i in range(m):
        for j in range(i + 1, m):
            comm = product(sig, sparse[i], sparse[j]) - product(sig, sparse[j], sparse[i])
            sol, *_ = np.linalg.lstsq(span[rows], comm[rows], rcond=None)
            if np.abs(span @ sol - comm).max() > 1e-12:
                raise RuntimeError(f"reference su(6) commutator ({i},{j}) leaves the span")
            c[i, j] = sol
            c[j, i] = -sol
    return c


def reference(spec: dict) -> np.ndarray:
    """The exact output of one dense_api op, as a flat complex vector."""
    op, sig = spec["op"], spec["sig"]
    if op == "product":
        return product(sig, spec["a"], spec["b"])
    if op == "regular_representation":
        return regular(sig, spec["a"]).ravel()
    if op == "inverse":
        return inverse(sig, spec["a"])
    if op == "clifford_exp":
        return exp(sig, spec["a"])
    if op == "structure_constants":
        return su6_structure_constants().ravel()
    raise ValueError(f"unknown op {op!r}")


def scale(spec: dict, ref: np.ndarray) -> float:
    """Magnitude the tolerance is relative to.

    Products use ``||a||_1 ||b||_2``, which bounds ``||ab||_2`` because left
    multiplication by a blade permutes coefficients with signs; regular
    representations use their Frobenius norm ``sqrt(2^n) ||a||_2``.  The
    inverse, the exponential and the structure constants have no such
    operand bound, so they use the reference norm.
    """
    op = spec["op"]
    if op == "product":
        return float(np.abs(spec["a"][1]).sum() * np.linalg.norm(spec["b"][1]))
    if op == "regular_representation":
        return float(math.sqrt(1 << sum(spec["sig"])) * np.linalg.norm(spec["a"][1]))
    return float(np.linalg.norm(ref))


def error(spec: dict, fingerprint: np.ndarray) -> tuple[float, float]:
    """(observed error, tolerance) of one fingerprinted output."""
    ref = reference(spec)
    err = float(np.abs(np.asarray(fingerprint) - gen.project(ref)).max())
    return err, RTOL * scale(spec, ref)
