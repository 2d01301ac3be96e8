"""Seeded inputs for the ``dense_api`` and ``flavor_cli`` workloads.

Every function here is a pure function of its arguments: the same seed and
cycle index give the same inputs.  Operands are plain numpy arrays (blade
masks and complex coefficients); the package only ever receives the
multivectors built from them.  This module does not import the package.
"""

from __future__ import annotations

import json
import math

import numpy as np

# -- dense_api ---------------------------------------------------------------

# One cycle of the dense_api loop: (operation, timing class, input kind, count).
# Runs are made of whole cycles, so every run holds the classes in these
# proportions and a known-defect kind always has the same share of the ops.
DENSE_MIX = (
    ("product", "multivector.dense_product.cl0_7", "dense", 2),
    ("product", "multivector.product_128.cl12_0", "terms128", 1),
    ("regular_representation", "dirac.regular_representation.cl0_7", "dense", 2),
    ("inverse", "multivector.inverse.regular.cl1_3", "scalar_dominant", 4),
    ("inverse", "multivector.inverse.regular.cl0_7", "scalar_dominant", 2),
    ("inverse", "multivector.inverse.regular.cl4_4", "scalar_dominant", 2),
    ("structure_constants", "lie_su.structure_constants.su6_iso", "su6_iso", 1),
    ("clifford_exp", "isotopy.clifford_exp.cl1_3", "exp.moderate", 6),
    ("clifford_exp", "isotopy.clifford_exp.cl1_3", "exp.negative_scalar", 1),
    ("clifford_exp", "isotopy.clifford_exp.cl1_3", "exp.oscillatory", 1),
)

SIGNATURE_OF_CLASS = {
    "multivector.dense_product.cl0_7": (0, 7),
    "multivector.product_128.cl12_0": (12, 0),
    "dirac.regular_representation.cl0_7": (0, 7),
    "multivector.inverse.regular.cl1_3": (1, 3),
    "multivector.inverse.regular.cl0_7": (0, 7),
    "multivector.inverse.regular.cl4_4": (4, 4),
    "lie_su.structure_constants.su6_iso": (12, 0),
    "isotopy.clifford_exp.cl1_3": (1, 3),
}

# Norm range of the clifford_exp operands.  "exp.moderate" spreads its norms
# log-uniformly over EXP_MODERATE_NORMS in one stratum per op; the two top
# kinds sit where the plain power series is known to break.
EXP_MODERATE_NORMS = (0.5, 8.0)
EXP_NEGATIVE_SCALAR = (45.0, 55.0)  # a = -s + 0.1 u: cancellation
EXP_OSCILLATORY = (180.0, 220.0)  # a = theta e12 + 0.1 u: no convergence
INVERSE_TERMS = 16


def _complex_normal(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _element(rng, sig: tuple[int, int], n_terms: int | None = None,
             scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Random element as (sorted masks, complex coefficients)."""
    size = 1 << sum(sig)
    if n_terms is None or n_terms >= size:
        masks = np.arange(size, dtype=np.int64)
    else:
        masks = np.sort(rng.choice(size, size=n_terms, replace=False)).astype(np.int64)
    return masks, scale * _complex_normal(rng, len(masks))


def _unit_dense(rng, sig: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    masks, coeffs = _element(rng, sig)
    return masks, coeffs / np.linalg.norm(coeffs)


def _scalar_dominant(rng, sig: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``lam + v`` with ``sum|v_i| = 0.6 |lam|``: not a versor, and its
    left-regular matrix has condition number at most 4."""
    size = 1 << sum(sig)
    rest = np.sort(rng.choice(np.arange(1, size), size=INVERSE_TERMS - 1, replace=False))
    lam = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
    v = _complex_normal(rng, len(rest))
    v *= 0.6 * abs(lam) / np.abs(v).sum()
    return np.concatenate(([0], rest)).astype(np.int64), np.concatenate(([lam], v))


def _exp_operand(rng, kind: str, stratum: int, strata: int) -> tuple[np.ndarray, np.ndarray]:
    masks, u = _unit_dense(rng, (1, 3))
    if kind == "exp.moderate":
        lo, hi = (math.log(x) for x in EXP_MODERATE_NORMS)
        norm = math.exp(lo + (stratum + rng.uniform()) / strata * (hi - lo))
        return masks, norm * u
    coeffs = 0.1 * u
    if kind == "exp.negative_scalar":
        coeffs[0] -= rng.uniform(*EXP_NEGATIVE_SCALAR)
    else:  # exp.oscillatory; e1 e2 has mask 0b0110 and squares to -1
        coeffs[6] += rng.uniform(*EXP_OSCILLATORY)
    return masks, coeffs


def dense_cycle(seed: int, cycle: int) -> list[dict]:
    """The ops of one dense_api cycle, in a seeded order.

    Each op is a dict with ``op`` (the package call), ``cls`` (timing class),
    ``kind`` (input class), ``sig`` and its operands as arrays.
    """
    rng = np.random.default_rng([seed, cycle, 0xD3])
    ops: list[dict] = []
    for op, cls, kind, count in DENSE_MIX:
        sig = SIGNATURE_OF_CLASS[cls]
        for i in range(count):
            spec = {"op": op, "cls": cls, "kind": kind, "sig": sig}
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            if kind == "dense":
                spec["a"] = _element(rng, sig, scale=scale)
                if op == "product":
                    spec["b"] = _element(rng, sig, scale=1.0 / scale)
            elif kind == "terms128":
                spec["a"] = _element(rng, sig, 128, scale)
                spec["b"] = _element(rng, sig, 128, 1.0 / scale)
            elif kind == "scalar_dominant":
                spec["a"] = _scalar_dominant(rng, sig)
            elif kind == "su6_iso":
                # isounit s + t e_i e_j: invertible on the versor path, so
                # Cl(12,0) stays clear of the 4096x4096 regular solve
                i_, j_ = np.sort(rng.choice(12, size=2, replace=False))
                spec["zeta"] = (float(rng.uniform(1.5, 2.0)), float(rng.uniform(0.2, 0.6)),
                                int(i_), int(j_))
            else:
                spec["a"] = _exp_operand(rng, kind, i, count)
            ops.append(spec)
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


# -- output fingerprints -----------------------------------------------------

PROJECTIONS = 4
_WEIGHTS: dict[int, np.ndarray] = {}


def weights(length: int) -> np.ndarray:
    """Fixed unit-norm complex rows used to fingerprint an output vector.

    ``|w . (out - ref)| <= ||out - ref||_2`` for every row, so comparing
    projections never accepts more than comparing the vectors would.
    """
    w = _WEIGHTS.get(length)
    if w is None:
        w = _complex_normal(np.random.default_rng([0xF1A9, length]), PROJECTIONS * length)
        w = w.reshape(PROJECTIONS, length)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        _WEIGHTS[length] = w
    return w


def project(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    return weights(len(vec)) @ vec


# -- flavor_cli ----------------------------------------------------------------

FLAVORS = ("u", "d", "s", "c", "b", "t")
REFERENCE_BOUNDS_MEV = {
    "u": (1.5, 3.0), "d": (3.0, 7.0), "s": (70.0, 110.0),
    "c": (1160.0, 1340.0), "b": (4130.0, 4270.0), "t": (170900.0, 177500.0),
}
VALID_MODES = tuple((group, intervals, fmt)
                    for group in ("su3", "su6")
                    for intervals in (False, True)
                    for fmt in ("json", "csv", "text"))
MALFORMED_KINDS = ("mass.bad_json", "mass.missing_flavor", "mass.nonpositive",
                   "mass.infinity", "mass.boolean")


def _mass_table(rng) -> dict:
    table = {}
    for fl in FLAVORS:
        lo, hi = REFERENCE_BOUNDS_MEV[fl]
        mid = 0.5 * (lo + hi) * rng.uniform(0.9, 1.1)
        half = 0.5 * (hi - lo) * rng.uniform(0.8, 1.2)
        entry = {"min": round(mid - half, 6), "max": round(mid + half, 6)}
        if rng.uniform() < 0.5:
            entry["central"] = round(entry["min"] + rng.uniform() * (entry["max"] - entry["min"]), 6)
        table[fl] = entry
    return table


def _malformed_text(rng, kind: str) -> str:
    table = _mass_table(rng)
    fl = FLAVORS[int(rng.integers(len(FLAVORS)))]
    if kind == "mass.bad_json":
        return json.dumps(table)[:-int(rng.integers(1, 12))]
    if kind == "mass.missing_flavor":
        del table[fl]
    elif kind == "mass.nonpositive":
        table[fl]["min"] = -round(rng.uniform(0.0, table[fl]["min"]), 6)
    elif kind == "mass.infinity":
        table[fl]["max"] = math.inf  # serialized as the bare token Infinity
    else:  # mass.boolean: "min": true, which float() reads as 1.0
        table[fl]["min"] = True
        table[fl].pop("central", None)
    return json.dumps(table)


def flavor_cycle(seed: int, cycle: int) -> list[dict]:
    """One flavor_cli cycle: every valid (group, intervals, format) mode once
    plus one file of each malformed kind, in a seeded order."""
    rng = np.random.default_rng([seed, cycle, 0xF7])
    cases = []
    for group, intervals, fmt in VALID_MODES:
        table = _mass_table(rng)
        cases.append({"kind": "mass.valid", "group": group, "intervals": intervals,
                      "format": fmt, "text": json.dumps(table), "masses": table})
    for kind in MALFORMED_KINDS:
        group, intervals, fmt = VALID_MODES[int(rng.integers(len(VALID_MODES)))]
        cases.append({"kind": kind, "group": group, "intervals": intervals,
                      "format": fmt, "text": _malformed_text(rng, kind)})
    order = rng.permutation(len(cases))
    return [cases[k] for k in order]


def flavor_argv(case: dict, path: str) -> list[str]:
    argv = ["flavor", "--group", case["group"], "--masses", path, "--format", case["format"]]
    if case["intervals"]:
        argv.append("--intervals")
    return argv
