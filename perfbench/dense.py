"""The ``dense_api`` workload: a warm in-process library session.

Run as a child process by ``run.py``::

    python3 perfbench/dense.py --seed N --seconds S --out PATH [--setup-only]

It prints ``imported`` once the package is imported and ``warmup <s>``
followed by :mod:`speed` reference loop times after one warm-up pass over
every operation class (cycle 0), then runs whole cycles 1, 2, ... in a
closed loop until the next cycle would end after ``--seconds``.  Each op
is timed alone, with the reference loop timed between consecutive ops;
its output is fingerprinted outside the timed interval, written to
``PATH`` as one JSON line per op and checked later by the parent against
:mod:`oracle`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

import gen
import speed
from isoclifford import dirac, isotopy, lie_su, multivector
from isoclifford.isotopy import IsoContext
from isoclifford.multivector import Multivector, Signature

# Looked up at call time, so a traced run sees the rebound attributes.
_OPS = {
    "product": (multivector, "geometric_product"),
    "regular_representation": (dirac, "regular_representation"),
    "inverse": (multivector, "inverse"),
    "clifford_exp": (isotopy, "clifford_exp"),
    "structure_constants": (lie_su, "structure_constants"),
}


def package_call(op: str):
    module, attr = _OPS[op]
    return getattr(module, attr)


def _multivector(sig: Signature, operand) -> Multivector:
    masks, coeffs = operand
    return Multivector(sig, {int(m): complex(c) for m, c in zip(masks, coeffs)})


def build(spec: dict) -> tuple:
    """Arguments of one op, built from its generated arrays."""
    sig = Signature(*spec["sig"])
    if spec["op"] == "structure_constants":
        s, t, i, j = spec["zeta"]
        ctx = IsoContext.create(sig.scalar(s) + t * sig.e(i, j))
        return (lie_su.su_n_generators(6, ctx),)
    args = (_multivector(sig, spec["a"]),)
    if "b" in spec:
        args += (_multivector(sig, spec["b"]),)
    return args


def to_vector(out) -> np.ndarray:
    """Flat complex vector of an op output (blade-indexed for multivectors)."""
    if isinstance(out, Multivector):
        vec = np.zeros(out.signature.blade_count, dtype=complex)
        for mask, coeff in out.terms.items():
            vec[mask] = coeff
        return vec
    if isinstance(out, lie_su.StructureConstants):
        return out.c.reshape(-1)
    return np.asarray(out, dtype=complex).reshape(-1)


def run_op(spec: dict, args: tuple, call=None) -> dict:
    """Time one op and fingerprint its output outside the timed interval.

    ``call`` replaces the package function; tests use it to inject a wrong
    output from the benchmark side.
    """
    fn = call or package_call(spec["op"])
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # any raise is this op's outcome; the loop goes on
        latency = time.perf_counter() - t0
        return {"latency_s": latency, "status": type(exc).__name__, "fingerprint": None}
    latency = time.perf_counter() - t0
    return {"latency_s": latency, "status": "ok", "fingerprint": gen.project(to_vector(out))}


def run_cycle(seed: int, cycle: int, timed: bool = True) -> list[dict]:
    """One cycle; when ``timed``, each record carries ``speed_s``, the
    median reference loop time just before and just after its op."""
    specs = gen.dense_cycle(seed, cycle)
    built = [build(spec) for spec in specs]
    records = []
    before = speed.sample() if timed else []
    for idx, (spec, args) in enumerate(zip(specs, built)):
        rec = run_op(spec, args)
        rec.update(cycle=cycle, index=idx, cls=spec["cls"], kind=spec["kind"])
        if timed:
            after = speed.sample()
            rec["speed_s"] = statistics.median(before + after)
            before = after
        records.append(rec)
    return records


def _encode(rec: dict) -> dict:
    fp = rec["fingerprint"]
    return dict(rec, fingerprint=None if fp is None else [[z.real, z.imag] for z in fp])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print("imported", flush=True)

    t0 = time.perf_counter()
    run_cycle(args.seed, 0, timed=False)
    warmup = time.perf_counter() - t0
    print("warmup", repr(warmup), *map(repr, speed.sample()), flush=True)
    if args.setup_only:
        return 0

    # records go out as JSON lines after each cycle, so the worker's
    # memory does not grow with the number of cycles
    with open(args.out, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        cycle = 1
        while True:
            c0 = time.perf_counter()
            fh.writelines(json.dumps(_encode(r)) + "\n" for r in run_cycle(args.seed, cycle))
            now = time.perf_counter()
            if now - start + (now - c0) > args.seconds:
                break
            cycle += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
