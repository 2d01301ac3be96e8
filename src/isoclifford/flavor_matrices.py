"""Matrix layer of the flavor physics: Gell-Mann matrices, dressed
operators, mass operators and their decompositions, iso-states and
two-sided expectations, on numpy.

The isounits, the mass data and the parameter solver are scalar and live
in :mod:`isoclifford.flavor`, which imports only the standard library;
this module builds their matrices.  ``isoclifford verify`` imports it
through :mod:`isoclifford.suites`; ``isoclifford flavor`` never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dirac import build_dirac_rep
from .flavor import (
    DIAGONAL_GENERATOR_INDEX,
    GROUP_DIM,
    GROUP_FLAVORS,
    FlavorIsoUnit,
    _check_masses,
    dressed_masses,
)
from .multivector import reversion

# -- generalized Gell-Mann matrices ------------------------------------------------


def gell_mann(n: int) -> list[np.ndarray]:
    """The n²-1 generalized Gell-Mann matrices, traceless Hermitian with
    tr(λ_a λ_b) = 2 δ_ab.

    Ordering: for each column j = 2..n, the symmetric then antisymmetric
    off-diagonal pair for every row i < j, followed by the diagonal
    element closing that block (the n = 3 ordering everyone knows,
    continued upward).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    out: list[np.ndarray] = []
    for j in range(2, n + 1):
        for i in range(1, j):
            sym = np.zeros((n, n), dtype=complex)
            sym[i - 1, j - 1] = sym[j - 1, i - 1] = 1.0
            asym = np.zeros((n, n), dtype=complex)
            asym[i - 1, j - 1] = -1j
            asym[j - 1, i - 1] = 1j
            out.append(sym)
            out.append(asym)
        k = j - 1
        diag = np.zeros(n, dtype=complex)
        diag[:k] = 1.0
        diag[k] = -k
        out.append(math.sqrt(2.0 / (k * (k + 1))) * np.diag(diag))
    return out


def structure_constants_f(n: int) -> np.ndarray:
    """Totally antisymmetric f with [λ_a, λ_b] = 2i f_abc λ_c."""
    lams = gell_mann(n)
    m = len(lams)
    f = np.zeros((m, m, m))
    for a in range(m):
        for b in range(a + 1, m):
            comm = lams[a] @ lams[b] - lams[b] @ lams[a]
            for c in range(m):
                val = (np.trace(comm @ lams[c]) / 4j).real
                if abs(val) > 1e-13:
                    f[a, b, c] = val
                    f[b, a, c] = -val
    return f


# -- isounit matrices ---------------------------------------------------------------


def isounit_matrix(zeta: FlavorIsoUnit) -> np.ndarray:
    """The isounit as a complex diagonal matrix."""
    return np.diag(np.array(zeta.diagonal, dtype=complex))


def isounit_inverse(zeta: FlavorIsoUnit) -> np.ndarray:
    return np.diag(1 / np.array(zeta.diagonal, dtype=complex))


def iso_lift_operator(zeta: FlavorIsoUnit, m: np.ndarray) -> np.ndarray:
    """Operator lift ``δ^{-1/2} ζ m`` (left multiplication by the isounit).

    Left multiplication is what scales row i of an off-diagonal generator
    by the i-th diagonal entry, matching the dressed generator displays.
    """
    m = np.asarray(m, dtype=complex)
    zm = isounit_matrix(zeta)
    if m.shape != zm.shape:
        raise ValueError("operator dimension does not match the isounit")
    return zeta.delta ** -0.5 * (zm @ m)


def iso_matrix_commutator(zeta: FlavorIsoUnit, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix isocommutator ``a ζ⁻¹ b - b ζ⁻¹ a``."""
    zinv = isounit_inverse(zeta)
    return a @ zinv @ b - b @ zinv @ a


# -- mass operators ------------------------------------------------------------------


def mass_operator(masses: Sequence[float], group: str) -> np.ndarray:
    """The rigid mass operator diag(m_u, m_d, ...)."""
    return np.diag(np.asarray(_check_masses(masses, group), dtype=complex))


def iso_mass_operator(zeta: FlavorIsoUnit, masses: Sequence[float]) -> np.ndarray:
    """Dressed mass operator ``ζ · diag(m)``; equals diag(m) at unit params."""
    return np.diag(np.array(dressed_masses(zeta, masses), dtype=complex))


def decompose_mass(masses: Sequence[float], group: str) -> np.ndarray:
    """Coefficients of diag(m) over {identity} ∪ {diagonal generators}.

    Solved as a linear system on the diagonal; the reconstruction is
    exact because the n diagonal basis elements are independent.
    """
    masses = _check_masses(masses, group)
    mat = np.column_stack([np.diag(b) for b in decomposition_basis(group)])
    return np.linalg.solve(mat, np.asarray(masses, dtype=complex))


def decomposition_basis(group: str) -> list[np.ndarray]:
    n = len(GROUP_FLAVORS[group])
    lams = gell_mann(n)
    return [np.eye(n, dtype=complex)] + [lams[idx - 1] for idx in DIAGONAL_GENERATOR_INDEX[group]]


def su3_closed_form_coefficients(masses: Sequence[float]) -> np.ndarray:
    """Independent oracle for the three-flavor decomposition."""
    mu, md, ms = _check_masses(masses, "su3")
    return np.array([
        (mu + md + ms) / 3.0,
        0.5 * (mu - md),
        math.sqrt(3.0) / 6.0 * (mu + md - 2 * ms),
    ], dtype=complex)


def su6_trace_form_coefficients(masses: Sequence[float]) -> np.ndarray:
    """Independent oracle for the six-flavor decomposition via the trace
    pairing coefficient tr(λ M)/2 (identity coefficient is the mean)."""
    masses = np.asarray(_check_masses(masses, "su6"), dtype=float)
    out = [masses.mean()]
    lams = gell_mann(6)
    for idx in DIAGONAL_GENERATOR_INDEX["su6"]:
        out.append((np.diag(lams[idx - 1]).real * masses).sum() / 2.0)
    return np.asarray(out, dtype=complex)


def su6_quoted_coefficients(masses: Sequence[float]) -> np.ndarray:
    """The six-flavor decomposition coefficients as quoted in print.

    Kept only for the deviation report: the quoted identity coefficient
    (sum/3 instead of sum/6) cannot reconstruct diag(m), and the solved
    coefficients are the authoritative ones.
    """
    mu, md, ms, mc, mb, mt = _check_masses(masses, "su6")
    total = mu + md + ms + mc + mb + mt
    return np.array([
        total / 3.0,
        107.0 / 144.0 * (mu - md),
        -55.0 * math.sqrt(3.0) / 144.0 * (mu + md - 2 * ms),
        -55.0 * math.sqrt(6.0) / 144.0 * (mu + md + ms - 3 * mc),
        -11.0 * math.sqrt(6.0) / 24.0 * (mu + md + ms + mc - 4 * mb),
        -math.sqrt(30.0) / 6.0 * (mu + md + ms + mc + mb - 5 * mt),
    ], dtype=complex)


# -- states and expectations ------------------------------------------------------------


@dataclass(frozen=True)
class IsoState:
    """Column state normalized against the isounit: ⟨ψ|ζ⁻¹|ψ⟩ = 1."""

    vector: np.ndarray
    zeta: FlavorIsoUnit

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.shape[0] != GROUP_DIM[self.zeta.group]:
            raise ValueError("state dimension does not match the group")
        object.__setattr__(self, "vector", v)

    def norm_residual(self) -> float:
        v = self.vector
        return abs(v.conj() @ isounit_inverse(self.zeta) @ v - 1.0)


def iso_states(zeta: FlavorIsoUnit) -> list[IsoState]:
    """One basis state per flavor, scaled by the square root of the
    matching diagonal isounit entry so each is iso-normalized."""
    diag = np.diag(isounit_matrix(zeta))
    states = []
    for i in range(len(diag)):
        v = np.zeros(len(diag), dtype=complex)
        v[i] = np.sqrt(diag[i])
        states.append(IsoState(v, zeta))
    return states


def iso_expectation(state: IsoState, iso_op: np.ndarray) -> complex:
    """Two-sided insertion ⟨ψ| ζ⁻¹ O^ζ ζ⁻¹ |ψ⟩ for a dressed operator O^ζ.

    With O^ζ = ζO and iso-normalized basis states this returns the bare
    eigenvalue of O, which is the convention that reproduces masses,
    hypercharge and isospin at their physical values simultaneously.
    """
    iso_op = np.asarray(iso_op, dtype=complex)
    zinv = isounit_inverse(state.zeta)
    v = state.vector
    return complex(v.conj() @ zinv @ iso_op @ zinv @ v)


def hypercharge_operator(zeta: FlavorIsoUnit) -> np.ndarray:
    """Dressed hypercharge ``(1/(2√3)) λ₈^ζ`` (three flavors only)."""
    if zeta.group != "su3":
        raise ValueError("hypercharge operator is defined for su3")
    lam8 = gell_mann(3)[7]
    return iso_lift_operator(zeta, lam8 / (2 * math.sqrt(3.0)))


def isospin_operator(zeta: FlavorIsoUnit) -> np.ndarray:
    """Dressed z-isospin ``½ λ₃^ζ`` (three flavors only)."""
    if zeta.group != "su3":
        raise ValueError("isospin operator is defined for su3")
    lam3 = gell_mann(3)[2]
    return iso_lift_operator(zeta, 0.5 * lam3)


def charge_operator(zeta: FlavorIsoUnit) -> np.ndarray:
    """Electric charge ``Q^ζ = Y^ζ + I₃^ζ``; expectations 2/3, -1/3, -1/3."""
    return hypercharge_operator(zeta) + isospin_operator(zeta)


# -- composite states ---------------------------------------------------------------------


def iso_tensor(zeta_matrix: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Isotensor product of two 4x4 spinor-space operators.

    Computes ``(ζ⁻¹ a) ⊗ (b · ((ζ⁻¹ Γ₀)~)*)`` where ~ transports matrix
    reversion through the spacetime-algebra representation and * is the
    entrywise conjugate.  At ζ = 1 this collapses to ``a ⊗ (b Γ₀)``.
    """
    d = build_dirac_rep()
    zeta_matrix = np.asarray(zeta_matrix, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if zeta_matrix.shape != (4, 4) or a.shape != (4, 4) or b.shape != (4, 4):
        raise ValueError("iso_tensor expects 4x4 matrices")
    if not all(np.isfinite(m).all() for m in (zeta_matrix, a, b)):
        raise ValueError("matrix entries must be finite")
    zinv = np.linalg.inv(zeta_matrix)
    dressed = d.rep(reversion(d.rep_inverse(zinv @ d.gamma[0]))).conj()
    return np.kron(zinv @ a, b @ dressed)
