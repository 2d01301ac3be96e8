"""Flavor-physics layer: Gell-Mann matrices, diagonal isounits, iso-states
and the exact-flavor-symmetry quark-mass parameter solver.

The diagonal isounit diag(a⁻¹, b⁻¹, ab) (three flavors) or
diag(a⁻¹, ..., t⁻¹, ab...t) (six flavors) has unit determinant by
construction.  Demanding that the iso mass matrix ``ζ·diag(m)`` be a
multiple of the identity fixes every parameter as a root of a mass
ratio, and the common iso-mass is the geometric mean of the physical
masses.  Interval propagation over the mass bounds uses the fact that
each parameter is monotone in every mass (increasing in its own,
decreasing in the rest), so rigorous extremes sit at box corners.

The module works on numpy matrices.  Only :func:`iso_tensor` uses the
Clifford-algebra modules, and it imports them when called, so importing
this module (as ``isoclifford flavor`` does) loads no other module of
the package.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

FLAVORS = ("u", "d", "s", "c", "b", "t")
GROUP_FLAVORS = {"su3": FLAVORS[:3], "su6": FLAVORS}
GROUP_DIM = {group: len(flavors) for group, flavors in GROUP_FLAVORS.items()}
# 1-based positions of the diagonal Gell-Mann matrices: k² - 1 for k = 2..n.
DIAGONAL_GENERATOR_INDEX = {group: tuple(k * k - 1 for k in range(2, n + 1))
                            for group, n in GROUP_DIM.items()}

# Mass window per flavor in MeV (min, max); the comparison column of the
# interval reports, and midpoints serve as default central values.
REFERENCE_MASS_BOUNDS_MEV = {
    "u": (1.5, 3.0),
    "d": (3.0, 7.0),
    "s": (70.0, 110.0),
    "c": (1160.0, 1340.0),
    "b": (4130.0, 4270.0),
    "t": (170900.0, 177500.0),
}

# Previously published parameter intervals quoted next to the computed
# ones in interval reports; they are reproduced only partially (see the
# match flags emitted by param_intervals).
REFERENCE_PARAM_INTERVALS = {
    "su3": {"alpha": (0.2204, 0.2638), "beta": (0.2768, 0.3057)},
    "su6": {
        "alpha": (5.945e-3, 8.212e-3),
        "beta": (1.189e-2, 1.920e-2),
        "omega": (2.774e-1, 3.018e-1),
        "kappa": (3.676, 4.598),
        "tau": (486.938, 677.379),
    },
}

PARAM_NAMES = {"su3": ("alpha", "beta"), "su6": ("alpha", "beta", "omega", "kappa", "tau")}


class MassInputError(ValueError):
    """Invalid quark mass data; raised as one of the two subclasses below."""


class MassFormatError(MassInputError):
    """Mass data of the wrong shape or type: not UTF-8, not JSON, a missing
    flavor or field, a non-numeric or boolean value."""


class MassDomainError(MassInputError):
    """Well-formed mass data outside the physical domain: non-finite,
    non-positive or out-of-order values, or masses so widely spread that
    a derived parameter under- or overflows."""


def _mass_value(value) -> float:
    """A mass read from input data; strings and booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"mass {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise MassDomainError("an integer mass exceeds the float range") from None


@dataclass(frozen=True)
class QuarkMassBounds:
    """Per-flavor mass windows in MeV with an optional central value."""

    lo: Mapping[str, float]
    hi: Mapping[str, float]
    central: Mapping[str, float]

    def __post_init__(self):
        for fl in FLAVORS:
            if fl not in self.lo or fl not in self.hi or fl not in self.central:
                raise MassFormatError(f"missing flavor {fl!r}")
            lo, hi, c = self.lo[fl], self.hi[fl], self.central[fl]
            if not all(map(math.isfinite, (lo, c, hi))):
                raise MassDomainError(
                    f"flavor {fl!r}: min, central and max must be finite, got "
                    f"({lo}, {c}, {hi})")
            if not (0 < lo <= c <= hi):
                raise MassDomainError(
                    f"flavor {fl!r}: need 0 < min <= central <= max, got "
                    f"({lo}, {c}, {hi})")

    @classmethod
    def from_mapping(cls, data: Mapping) -> "QuarkMassBounds":
        lo, hi, central = {}, {}, {}
        for fl in FLAVORS:
            if fl not in data:
                raise MassFormatError(f"missing flavor {fl!r}")
            entry = data[fl]
            try:
                lo[fl] = _mass_value(entry["min"])
                hi[fl] = _mass_value(entry["max"])
                central[fl] = _mass_value(entry.get("central", 0.5 * (lo[fl] + hi[fl])))
            except (AttributeError, TypeError, KeyError) as exc:
                raise MassFormatError(f"flavor {fl!r}: bad entry {entry!r} ({exc})") from exc
        return cls(lo, hi, central)

    @classmethod
    def from_json(cls, text: str | bytes) -> "QuarkMassBounds":
        """Bounds from a JSON object; bytes are read as UTF-8."""
        try:
            data = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except UnicodeDecodeError as exc:
            raise MassFormatError(f"mass file is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise MassFormatError(f"mass file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise MassFormatError("mass file must hold one JSON object")
        return cls.from_mapping(data)

    @classmethod
    def reference(cls) -> "QuarkMassBounds":
        return cls.from_mapping(
            {fl: {"min": lo, "max": hi} for fl, (lo, hi) in REFERENCE_MASS_BOUNDS_MEV.items()})

    def centrals(self, group: str) -> tuple[float, ...]:
        return tuple(self.central[fl] for fl in GROUP_FLAVORS[group])


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


# -- isounits -----------------------------------------------------------------------


@dataclass(frozen=True)
class FlavorIsoUnit:
    """Diagonal isounit of a flavor group, with its normalization scalar."""

    group: str
    matrix: np.ndarray
    delta: float = 1.0
    params: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.group not in GROUP_DIM:
            raise ValueError(f"unknown group {self.group!r}")
        dim = GROUP_DIM[self.group]
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"isounit matrix must be {dim}x{dim}")
        if not np.isfinite(m).all():
            raise ValueError("isounit matrix must be finite")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be finite and positive")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_params(cls, group: str, params: Sequence[float]) -> "FlavorIsoUnit":
        """diag(a⁻¹, ..., t⁻¹, ab...t), the product taken left to right."""
        params = tuple(float(p) for p in params)
        if not all(0 < p < math.inf for p in params):
            raise ValueError("isounit parameters must be finite and positive")
        diag = [1 / p for p in params] + [math.prod(params)]
        return cls(group, np.diag(np.array(diag, dtype=complex)), params=params)

    @classmethod
    def from_diagonal(cls, entries: Sequence[float], delta: float = 1.0) -> "FlavorIsoUnit":
        entries = np.asarray(entries, dtype=complex)
        group = {3: "su3", 6: "su6"}.get(len(entries))
        if group is None:
            raise ValueError("diagonal isounit must have 3 or 6 entries")
        return cls(group, np.diag(entries), delta)

    @classmethod
    def identity(cls, group: str) -> "FlavorIsoUnit":
        return cls(group, np.eye(GROUP_DIM[group], dtype=complex))

    @property
    def inverse_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    def det_residual(self) -> float:
        """How far the determinant sits from 1; zero for the parameter form."""
        return abs(np.linalg.det(self.matrix) - 1.0)


def iso_lift_operator(zeta: FlavorIsoUnit, m: np.ndarray) -> np.ndarray:
    """Operator lift ``δ^{-1/2} ζ m`` (left multiplication by the isounit).

    Left multiplication is what scales row i of an off-diagonal generator
    by the i-th diagonal entry, matching the dressed generator displays.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != zeta.matrix.shape:
        raise ValueError("operator dimension does not match the isounit")
    return zeta.delta ** -0.5 * (zeta.matrix @ m)


def iso_matrix_commutator(zeta: FlavorIsoUnit, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix isocommutator ``a ζ⁻¹ b - b ζ⁻¹ a``."""
    zinv = zeta.inverse_matrix
    return a @ zinv @ b - b @ zinv @ a


# -- mass operators ------------------------------------------------------------------


def _check_masses(masses: Sequence[float], group: str) -> tuple[float, ...]:
    masses = tuple(float(m) for m in masses)
    if len(masses) != GROUP_DIM[group]:
        raise ValueError(f"{group} expects {GROUP_DIM[group]} masses")
    if not all(0 < m < math.inf for m in masses):
        raise MassDomainError("masses must be finite and positive")
    return masses


def mass_operator(masses: Sequence[float], group: str) -> np.ndarray:
    """The rigid mass operator diag(m_u, m_d, ...)."""
    return np.diag(np.asarray(_check_masses(masses, group), dtype=complex))


def decompose_mass(masses: Sequence[float], group: str) -> np.ndarray:
    """Coefficients of diag(m) over {identity} ∪ {diagonal generators}.

    Solved as a linear system on the diagonal; the reconstruction is
    exact because the n diagonal basis elements are independent.
    """
    masses = _check_masses(masses, group)
    mat = np.column_stack([np.diag(b) for b in decomposition_basis(group)])
    return np.linalg.solve(mat, np.asarray(masses, dtype=complex))


def decomposition_basis(group: str) -> list[np.ndarray]:
    n = GROUP_DIM[group]
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


def iso_mass_operator(zeta: FlavorIsoUnit, masses: Sequence[float]) -> np.ndarray:
    """Dressed mass operator ``ζ · diag(m)``; equals diag(m) at unit params."""
    return zeta.matrix @ mass_operator(masses, zeta.group)


# -- exact-symmetry parameters -------------------------------------------------------


def param_value(group: str, which: int, masses: Sequence[float]) -> float:
    """Closed-form parameter: (m_i^{n-1} / prod of the others)^{1/n}."""
    return _param(group, which, _check_masses(masses, group))


def _param(group: str, which: int, masses: tuple[float, ...]) -> float:
    """:func:`param_value` on masses already validated."""
    n = GROUP_DIM[group]
    own = masses[which]
    others = math.prod(masses[:which] + masses[which + 1:])
    try:
        value = (own ** (n - 1) / others) ** (1.0 / n)
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not 0 < value < math.inf:
        raise MassDomainError(f"{group} parameter {PARAM_NAMES[group][which]} is not a "
                              "finite positive number for these masses")
    return value


def equal_mass_params(masses: Sequence[float], group: str) -> FlavorIsoUnit:
    """The isounit whose dressed mass matrix is a multiple of the identity.

    The common iso-mass is the geometric mean of the inputs; see
    :func:`common_iso_mass`.
    """
    masses = _check_masses(masses, group)
    params = tuple(_param(group, i, masses) for i in range(len(PARAM_NAMES[group])))
    return FlavorIsoUnit.from_params(group, params)


def common_iso_mass(masses: Sequence[float], group: str) -> float:
    """Geometric mean of the masses: the shared eigenvalue at exact symmetry."""
    masses = _check_masses(masses, group)
    return math.exp(sum(math.log(m) for m in masses) / len(masses))


# -- interval propagation --------------------------------------------------------------


def param_intervals(bounds: QuarkMassBounds, group: str) -> dict[str, dict]:
    """Parameter intervals under two conventions, next to the reference
    column, in the form the reports print.

    ``rigorous``: corner evaluation (each parameter rises in its own mass
    and falls in every other, so the extremes are at opposite corners of
    the mass box).  ``joint_endpoint``: both evaluations with all masses
    moved to their lower, then upper, endpoints together.  ``reference``
    repeats the previously published interval, and ``matches_rigorous``
    and ``matches_joint`` flag whether it agrees with either convention;
    mismatches are expected and reported, not errors.
    """
    flavors = GROUP_FLAVORS[group]
    lows = tuple(bounds.lo[fl] for fl in flavors)
    highs = tuple(bounds.hi[fl] for fl in flavors)
    out: dict[str, dict] = {}
    for which, name in enumerate(PARAM_NAMES[group]):
        at_min = highs[:which] + lows[which:which + 1] + highs[which + 1:]
        at_max = lows[:which] + highs[which:which + 1] + lows[which + 1:]
        rigorous = [_param(group, which, at_min), _param(group, which, at_max)]
        joint = sorted((_param(group, which, lows), _param(group, which, highs)))
        reference = list(REFERENCE_PARAM_INTERVALS[group][name])
        out[name] = {
            "rigorous": rigorous,
            "joint_endpoint": joint,
            "reference": reference,
            "matches_rigorous": _interval_close(reference, rigorous),
            "matches_joint": _interval_close(reference, joint),
        }
    return out


def _interval_close(a, b) -> bool:
    return all(abs(x - y) <= 2e-3 * max(abs(x), abs(y)) for x, y in zip(a, b))


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
        return abs(v.conj() @ self.zeta.inverse_matrix @ v - 1.0)


def iso_states(zeta: FlavorIsoUnit) -> list[IsoState]:
    """One basis state per flavor, scaled by the square root of the
    matching diagonal isounit entry so each is iso-normalized."""
    diag = np.diag(zeta.matrix)
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
    zinv = state.zeta.inverse_matrix
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
    from .dirac import build_dirac_rep
    from .multivector import reversion

    d = build_dirac_rep()
    zeta_matrix = np.asarray(zeta_matrix, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if zeta_matrix.shape != (4, 4) or a.shape != (4, 4) or b.shape != (4, 4):
        raise ValueError("iso_tensor expects 4x4 matrices")
    zinv = np.linalg.inv(zeta_matrix)
    dressed = d.rep(reversion(d.rep_inverse(zinv @ d.gamma[0]))).conj()
    return np.kron(zinv @ a, b @ dressed)
