"""Flavor-physics layer: quark mass data, diagonal isounits and the
exact-flavor-symmetry quark-mass parameter solver.

The diagonal isounit diag(a⁻¹, b⁻¹, ab) (three flavors) or
diag(a⁻¹, ..., t⁻¹, ab...t) (six flavors) has unit determinant by
construction.  Demanding that the iso mass matrix ``ζ·diag(m)`` be a
multiple of the identity fixes every parameter as a root of a mass
ratio, and the common iso-mass is the geometric mean of the physical
masses.  Interval propagation over the mass bounds uses the fact that
each parameter is monotone in every mass (increasing in its own,
decreasing in the rest), so rigorous extremes sit at box corners.

Everything here is scalar arithmetic on the standard library: an isounit
is its tuple of diagonal entries.  The matrices (Gell-Mann bases, dressed
operators, iso-states and expectations) live in
:mod:`isoclifford.flavor_matrices`, on numpy, so importing this module
(as ``isoclifford flavor`` does) loads no other module of the package
and no numpy.

Its two classes are ``namedtuple`` subclasses that validate in ``__new__``,
not frozen dataclasses as on the numpy side: ``dataclasses`` loads
``inspect``, which would be the command's largest import.  Their ``_make``
and ``_replace`` skip the validation; nothing calls them.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
from collections import namedtuple
from collections.abc import Mapping, Sequence


class _GroupMap(dict):
    """A dict keyed by flavor group whose missing key raises ``ValueError``;
    a lookup of a known group costs what a plain dict's does."""

    __slots__ = ()

    def __missing__(self, group):
        raise ValueError(f"unknown group {group!r}")


FLAVORS = ("u", "d", "s", "c", "b", "t")
# Every group a caller names is looked up here first, so an unknown one
# raises ValueError wherever it is passed.
GROUP_FLAVORS = _GroupMap(su3=FLAVORS[:3], su6=FLAVORS)
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

# The ``repr`` of an input value in an error message, cut to a few hundred
# characters however large the value is (dict keys come out sorted).
_input_repr = reprlib.Repr()
_input_repr.maxlevel = 2
_input_repr.maxdict = _input_repr.maxlist = 4
_input_repr.maxstring = _input_repr.maxlong = _input_repr.maxother = 40


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
    """A mass read from input data; strings and booleans are not numbers here,
    and an integer beyond the float range raises ``OverflowError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"mass {_input_repr.repr(value)} is not a number")
    return float(value)


class QuarkMassBounds(namedtuple("QuarkMassBounds", "lo hi central")):
    """Per-flavor mass windows in MeV with an optional central value."""

    __slots__ = ()

    def __new__(cls, lo: Mapping, hi: Mapping, central: Mapping):
        for fl in FLAVORS:
            if fl not in lo or fl not in hi or fl not in central:
                raise MassFormatError(f"missing flavor {fl!r}")
            lo_fl, hi_fl, c = lo[fl], hi[fl], central[fl]
            if not all(map(math.isfinite, (lo_fl, c, hi_fl))):
                raise MassDomainError(
                    f"flavor {fl!r}: min, central and max must be finite, got "
                    f"({lo_fl}, {c}, {hi_fl})")
            if not (0 < lo_fl <= c <= hi_fl):
                raise MassDomainError(
                    f"flavor {fl!r}: need 0 < min <= central <= max, got "
                    f"({lo_fl}, {c}, {hi_fl})")
        return super().__new__(cls, lo, hi, central)

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
                # halving is exact, and unlike lo + hi the halves cannot overflow
                central[fl] = _mass_value(entry.get("central", 0.5 * lo[fl] + 0.5 * hi[fl]))
            except (AttributeError, TypeError, KeyError) as exc:
                raise MassFormatError(
                    f"flavor {fl!r}: bad entry {_input_repr.repr(entry)} ({exc})") from exc
            except OverflowError:
                raise MassDomainError(
                    f"flavor {fl!r}: an integer mass exceeds the float range") from None
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
        except RecursionError as exc:
            raise MassFormatError("mass file nests too deeply to read") from exc
        if not isinstance(data, dict):
            raise MassFormatError("mass file must hold one JSON object")
        return cls.from_mapping(data)

    @classmethod
    def reference(cls) -> "QuarkMassBounds":
        return cls.from_mapping(
            {fl: {"min": lo, "max": hi} for fl, (lo, hi) in REFERENCE_MASS_BOUNDS_MEV.items()})

    def centrals(self, group: str) -> tuple[float, ...]:
        return tuple(self.central[fl] for fl in GROUP_FLAVORS[group])


# -- isounits -----------------------------------------------------------------------


def _log_sum(values) -> float:
    """Σ log v, one rounding per term, left to right.

    This is the order in which numpy's ``det`` folds the diagonal of its LU
    factors, and unlike the builtin ``sum()`` (compensated for floats from
    Python 3.12 on) it gives the same bits on every interpreter.
    """
    total = 0.0
    for v in values:
        total += math.log(v)
    return total


def _positive_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, positive and within the
    float range (an integer beyond it would overflow ``float``)."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and 0 < value <= sys.float_info.max)


class FlavorIsoUnit(namedtuple("FlavorIsoUnit", "group diagonal delta params")):
    """Diagonal isounit of a flavor group, with its normalization scalar.

    ``diagonal`` holds the entries of ζ and ``delta`` the scalar, each a
    float, finite and positive, so ζ is positive definite;
    :mod:`isoclifford.flavor_matrices` builds its matrix.
    """

    __slots__ = ()

    def __new__(cls, group: str, diagonal: Sequence[float], delta: float = 1.0, params=None):
        dim = len(GROUP_FLAVORS[group])
        if len(diagonal) != dim:
            raise ValueError(f"isounit diagonal must have {dim} entries")
        if not all(map(_positive_real, diagonal)):
            raise ValueError("isounit diagonal entries must be real, finite and positive")
        if not _positive_real(delta):
            raise ValueError("delta must be real, finite and positive")
        return super().__new__(cls, group, tuple(map(float, diagonal)), float(delta), params)

    @classmethod
    def from_params(cls, group: str, params: Sequence[float]) -> "FlavorIsoUnit":
        """diag(a⁻¹, ..., t⁻¹, ab...t), the product taken left to right."""
        if not all(map(_positive_real, params)):
            raise ValueError("isounit parameters must be real, finite and positive")
        params = tuple(map(float, params))
        return cls(group, tuple(1 / p for p in params) + (math.prod(params),), params=params)

    @classmethod
    def identity(cls, group: str) -> "FlavorIsoUnit":
        return cls(group, (1.0,) * len(GROUP_FLAVORS[group]))

    def det_residual(self) -> float:
        """How far the determinant sits from 1; zero for the parameter form.

        ``exp(Σ log ζ_i)``, bit for bit numpy's ``det`` of the diagonal
        matrix; a determinant beyond the float range is infinite.
        """
        try:
            det = math.exp(_log_sum(self.diagonal))
        except OverflowError:
            det = math.inf
        return abs(det - 1.0)


# -- mass operators ------------------------------------------------------------------


def _check_masses(masses: Sequence[float], group: str) -> tuple[float, ...]:
    dim = len(GROUP_FLAVORS[group])
    masses = tuple(float(m) for m in masses)
    if len(masses) != dim:
        raise ValueError(f"{group} expects {dim} masses")
    if not all(0 < m < math.inf for m in masses):
        raise MassDomainError("masses must be finite and positive")
    return masses


def dressed_masses(zeta: FlavorIsoUnit, masses: Sequence[float]) -> tuple[float, ...]:
    """Diagonal ``ζ_i m_i`` of the dressed mass operator ``ζ · diag(m)``."""
    return tuple(z * m for z, m in zip(zeta.diagonal, _check_masses(masses, zeta.group)))


# -- exact-symmetry parameters -------------------------------------------------------


def param_value(group: str, which: int, masses: Sequence[float]) -> float:
    """Closed-form parameter: (m_i^{n-1} / prod of the others)^{1/n}.

    ``which`` is the index of the parameter in ``PARAM_NAMES[group]``; any
    other value, a bool or an index from the end included, raises
    ``ValueError``.
    """
    masses = _check_masses(masses, group)
    count = len(PARAM_NAMES[group])
    if isinstance(which, bool) or not isinstance(which, int) or not 0 <= which < count:
        raise ValueError(f"{group} has no parameter {which!r}: want an index in range({count})")
    return _param(group, which, masses)


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
    return math.exp(_log_sum(masses) / len(masses))


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
