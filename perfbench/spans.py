"""Outside-in tracing of the isoclifford layers.

The package is not edited.  Each public function the benchmark follows is
wrapped from outside by rebinding module attributes, including the copies
other modules took with ``from .multivector import ...``.  Spans (name,
start, end, parent) are kept in flat arrays in memory and written out when
the run ends.  A span's self time is its duration minus the time its child
spans cover; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

ROOT = "bench.op"

PACKAGE_MODULES = ("isoclifford", "isoclifford.multivector", "isoclifford.isotopy",
                   "isoclifford.octonion", "isoclifford.lie_su", "isoclifford.dirac",
                   "isoclifford.flavor", "isoclifford.suites", "isoclifford.cli")


def _blade_pairs(a, b):
    sig = a.signature
    return len(a) * len(b), f"cl{sig.p}_{sig.q}"


def _commutators(gs, *_args, **_kwargs):
    m = len(gs.generators)
    return m * (m - 1) // 2, None


# (module, attribute, span name, work counter returning (count, tag))
FUNCTIONS = (
    ("isoclifford.multivector", "geometric_product", "multivector.geometric_product", _blade_pairs),
    ("isoclifford.multivector", "wedge", "multivector.wedge_contract", None),
    ("isoclifford.multivector", "left_contraction", "multivector.wedge_contract", None),
    ("isoclifford.multivector", "right_contraction", "multivector.wedge_contract", None),
    ("isoclifford.multivector", "inverse", "multivector.inverse", None),
    ("isoclifford.dirac", "regular_representation", "dirac.regular_representation", None),
    ("isoclifford.isotopy", "iso_product", "isotopy.iso_product", None),
    ("isoclifford.isotopy", "iso_exp_series", "isotopy.iso_exp_series", None),
    ("isoclifford.isotopy", "clifford_exp", "isotopy.clifford_exp", None),
    ("isoclifford.octonion", "oct_product", "octonion.oct_product", None),
    ("isoclifford.lie_su", "structure_constants", "lie_su.structure_constants", _commutators),
    ("isoclifford.flavor", "equal_mass_params", "flavor.equal_mass_params", None),
    ("isoclifford.flavor", "param_intervals", "flavor.param_intervals", None),
    ("isoclifford.cli", "main", "cli.main", None),
)
# (module, class, method, span name); the module-level ``rep`` and
# ``rep_inverse`` only delegate to these methods.
METHODS = (
    ("isoclifford.multivector", "Multivector", "__init__", "multivector.construct"),
    ("isoclifford.dirac", "DiracRep", "rep", "dirac.rep"),
    ("isoclifford.dirac", "DiracRep", "rep_inverse", "dirac.rep_inverse"),
)
CLASSMETHODS = (
    ("isoclifford.flavor", "QuarkMassBounds", "from_json", "flavor.from_json"),
)


class Tracer:
    """Span recorder with install/uninstall of the outside-in wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.tag = array("i")
        self.error = array("b")
        self._stack = [-1]
        self._undo: list[tuple] = []

    def _intern(self, table: list[str], kind: str, key: str | None) -> int:
        if key is None:
            return -1
        idx = self._ids.get((kind, key))
        if idx is None:
            idx = self._ids[(kind, key)] = len(table)
            table.append(key)
        return idx

    def _open(self, nid: int, count: int, tag: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(count)
        self.tag.append(tag)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        nid = self._intern(self.names, "name", name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count, tag = work(*args, **kwargs) if work is not None else (0, None)
            idx = self._open(nid, count, self._intern(self.tags, "tag", tag))
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.error[idx] = 1
                raise
            finally:
                self._close(idx)

        return traced

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` inside a root span (one benchmark operation)."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        mods = [importlib.import_module(name) for name in PACKAGE_MODULES]
        by_name = dict(zip(PACKAGE_MODULES, mods))
        for modname, attr, span, work in FUNCTIONS:
            orig = getattr(by_name[modname], attr)
            traced = self.wrap(span, orig, work)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, traced)
        for modname, clsname, meth, span in METHODS:
            cls = getattr(by_name[modname], clsname)
            self._set(cls, meth, self.wrap(span, cls.__dict__[meth]))
        for modname, clsname, meth, span in CLASSMETHODS:
            cls = getattr(by_name[modname], clsname)
            self._set(cls, meth, classmethod(self.wrap(span, cls.__dict__[meth].__func__)))
        funcs = by_name["isoclifford.suites"]._SUITE_FUNCS
        for key, fn in list(funcs.items()):
            self._set(funcs, key, self.wrap(f"suites.{key}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a live view would pin the arrays'
        size and make the next recorded span fail)."""
        return {key: np.array(getattr(self, key))
                for key in ("name", "parent", "start", "end", "work", "tag", "error")}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), tags=np.array(self.tags),
                            **self.arrays())

    def self_times(self) -> np.ndarray:
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        child = arr["parent"] >= 0
        covered = np.bincount(arr["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer numbers per traced pass, keyed by BENCHMARK.json name."""
    arr = tracer.arrays()
    dur = arr["end"] - arr["start"]
    self_t = tracer.self_times()
    ids = {name: i for i, name in enumerate(tracer.names)}
    out: dict[str, float] = {}

    def mask(name):
        return arr["name"] == ids.get(name, -2)

    def per_pass(x):
        return float(x) / passes

    layers = [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS + CLASSMETHODS]
    for name in dict.fromkeys(layers):
        m = mask(name)
        out[f"{name}.calls"] = per_pass(m.sum())
        out[f"{name}.self_s"] = per_pass(self_t[m].sum())
    gp = mask("multivector.geometric_product")
    out["multivector.geometric_product.blade_pairs"] = per_pass(arr["work"][gp].sum())
    for tag in ("cl3_0", "cl1_3", "cl0_7", "cl12_0"):
        m = gp & (arr["tag"] == (tracer.tags.index(tag) if tag in tracer.tags else -2))
        pairs = arr["work"][m].sum()
        out[f"multivector.geometric_product.ns_per_pair.{tag}"] = (
            float(self_t[m].sum() / pairs * 1e9) if pairs else 0.0)
    out["multivector.inverse.rejected"] = per_pass(arr["error"][mask("multivector.inverse")].sum())
    out["multivector.inverse.regular_solve"] = per_pass(
        (mask("dirac.regular_representation")
         & _has_ancestor(arr["parent"], mask("multivector.inverse"))).sum())
    exp = mask("isotopy.clifford_exp")
    parents = arr["parent"]
    under_exp = gp & (parents >= 0) & exp[np.maximum(parents, 0)]
    out["isotopy.clifford_exp.terms_mean"] = (
        float(under_exp.sum() / exp.sum()) if exp.sum() else 0.0)
    out["isotopy.clifford_exp.failed"] = per_pass(arr["error"][exp].sum())
    out["lie_su.structure_constants.commutators"] = per_pass(
        arr["work"][mask("lie_su.structure_constants")].sum())
    out["flavor.from_json.rejected"] = per_pass(arr["error"][mask("flavor.from_json")].sum())
    for suite in ("clifford", "isotopy", "octonion", "su3", "su6", "dirac", "flavor"):
        out[f"suites.{suite}.wall_s"] = per_pass(dur[mask(f"suites.{suite}")].sum())
    return out


def _has_ancestor(parent: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """For every span, whether some ancestor has ``flag`` set."""
    found = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        found |= live & flag[np.maximum(anc, 0)]
        anc = np.where(live, parent[np.maximum(anc, 0)], -1)
    return found
