"""Matrix representations of Clifford algebras.

Two representations live here: the left-regular representation of an
arbitrary Cl(p,q) on its own 2^n-dimensional blade space (the workhorse
behind generic inversion), and the explicit 4x4 complex representation
of Cl(1,3) built from the quaternion units i = e3e2, j = e3e1, k = e1e2
under e_i -> sigma_i.  The latter gives Gamma_0 = diag(1,1,-1,-1) and
off-diagonal Gamma_k blocks, and carries the primitive idempotent
f = (1 + e0)/2 to diag(1,1,0,0).  The 16 blade images are orthogonal
under the trace inner product, each of squared norm 4, so the inverse
map is the adjoint of the blade basis divided by 4.
"""

from __future__ import annotations

import functools

import numpy as np

from .isotopy import IsoContext, iso_product
from .multivector import (AlgebraError, Multivector, Signature, SignatureMismatchError,
                          _term_arrays, reversion)

SIG13 = Signature(1, 3)
# Acceptance bound of the rotor-group membership test.
_SPIN_TOL = 1e-9


def regular_representation(a: Multivector) -> np.ndarray:
    """Matrix of left multiplication by ``a`` in the blade basis.

    Column ``j`` holds the coefficients of ``a * e_blade(j)``, so
    ``reg(ab) = reg(a) @ reg(b)``.  Entry ``(ma ^ j, j)`` is
    ``sign(ma, j) * ca``, gathered from the signature's sign table; for a
    fixed column the rows ``ma ^ j`` of distinct terms are distinct, so
    each entry receives one term, set at its flat index as ``0.0 +`` the
    term, the bits of adding it onto the zero matrix (a ``-0.0``
    component reads ``0.0``).
    """
    sig = a.signature
    n = sig.blade_count
    cols = np.arange(n)
    _, masks, coeffs = _term_arrays([a.terms])
    masks, coeffs = masks[:, None], coeffs[:, None]
    signs = np.where(np.bitwise_count(masks & sig.sign_array) & 1, -1, 1)
    mat = np.zeros((n, n), dtype=complex)
    mat.reshape(-1)[(masks ^ cols) * n + cols] = 0.0 + signs * coeffs
    return mat


_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _offdiag(block: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, 2:] = block
    out[2:, :2] = block
    return out


class DiracRep:
    """The complexified 4x4 representation of Cl(1,3).

    ``gamma[mu]`` is the image of ``e_mu``; ``blade_images`` maps every
    blade mask to its matrix image (products of gammas, ascending index).
    """

    def __init__(self):
        # quaternion units mapped through e_i -> sigma_i:
        # i = e3e2 -> s3 s2, j = e3e1 -> s3 s1, k = e1e2 -> s1 s2
        qi = _SIGMA[2] @ _SIGMA[1]
        qj = _SIGMA[2] @ _SIGMA[0]
        qk = _SIGMA[0] @ _SIGMA[1]
        g0 = np.diag([1, 1, -1, -1]).astype(complex)
        self.gamma = (g0, _offdiag(qi), _offdiag(qj), _offdiag(qk))
        images = {0: np.eye(4, dtype=complex)}
        for mask in range(1, 16):
            m = np.eye(4, dtype=complex)
            for mu in range(4):
                if mask >> mu & 1:
                    m = m @ self.gamma[mu]
            images[mask] = m
        self.blade_images = images
        basis = np.column_stack([images[m].reshape(-1) for m in range(16)])
        self._basis_inv = basis.conj().T / 4

    def rep(self, a: Multivector) -> np.ndarray:
        """Algebra homomorphism Cl(1,3;C) -> M(4,C)."""
        if a.signature != SIG13:
            raise SignatureMismatchError("Dirac representation only covers Cl(1,3)")
        out = np.zeros((4, 4), dtype=complex)
        for mask, coeff in a.terms.items():
            out += coeff * self.blade_images[mask]
        return out

    def rep_inverse(self, m: np.ndarray) -> Multivector:
        """Multivector whose image is ``m``; the 16 blade images span M(4,C)."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (4, 4):
            raise AlgebraError("expected a 4x4 matrix")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        coeffs = self._basis_inv @ m.reshape(-1)
        return Multivector(SIG13, {mask: coeffs[mask] for mask in range(16)})


@functools.cache
def build_dirac_rep() -> DiracRep:
    """Shared Dirac representation (it is immutable, so one instance serves)."""
    return DiracRep()


def iso_spin_plus_check(ctx: IsoContext, r: Multivector) -> bool:
    """Membership of the even elements with ``R ⋄ R~ = ζ``; the rigid
    group, ``R R~ = 1``, is the case ζ = 1.  An element of another algebra
    raises :class:`~isoclifford.multivector.SignatureMismatchError`,
    whatever its grades."""
    ctx.zeta._check_signature(r)
    if any(k & 1 for k in r.grades()):
        return False
    prod = iso_product(ctx, r, reversion(r))
    return (prod - ctx.zeta).max_abs() <= _SPIN_TOL
