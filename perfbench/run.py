"""The isoclifford benchmark: one command, three workloads.

    python3 perfbench/run.py --workload verify_cli|dense_api|flavor_cli|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
The load is a closed loop with one client: the next operation starts only
after the previous one has finished.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is a separate in-process run that wraps the package's
public functions from outside and reports the per-layer metrics together
with the tracing overhead.  Every operation's output is checked.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed`` counts the failures outside the
known-defect input classes of ``reference.json``, while ``success_ratio``
counts every failure.  Run artifacts go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
LAUNCH = HERE / "launch.py"
WORKLOADS = ("verify_cli", "dense_api", "flavor_cli")
# numpy links an OpenBLAS built for 64 threads; unpinned, a 2-core machine
# would measure the scheduler.  Pinned in this process and every child.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_SETUP_RUNS = 11
DENSE_SETUP_RUNS = 7
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, a child that died)."""


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# -- metrics ---------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With fewer than
    2 * TAIL_BEYOND + 1 samples that statistic would lie below the median,
    which is no tail; the median is returned then, with the count beyond
    it saying so.
    """
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < len(xs) // 2:
        return statistics.median(xs), 50.0, len(xs) // 2
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def _time_metrics(latencies: list[float], setup: list[float], ok: int) -> dict:
    tail_s, _, _ = tail(latencies)
    return {
        "throughput_ops_s": ok / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setup),
    }


def summarize(records: list[dict], known: dict, setup: list[tuple[float, float]],
              rss_mb: float) -> dict:
    """End-to-end metrics of one untraced run.

    Each record holds ``latency_s`` and ``speed_s``, the reference loop time
    measured beside it, and each set-up sample is a (seconds, speed_s) pair.
    Every time is scaled to the nominal machine speed (see :mod:`speed`)
    before the medians are taken; the unscaled metrics are kept under
    ``raw``.
    """
    ok = sum(r["ok"] for r in records)
    lat = [r["latency_s"] * speed.scale(r["speed_s"]) for r in records]
    metrics = _time_metrics(lat, [t * speed.scale(sp) for t, sp in setup], ok)
    _, pct, beyond = tail(lat)
    return {
        "metrics": {**metrics, "success_ratio": ok / len(records), "peak_rss_mb": rss_mb},
        "raw": _time_metrics([r["latency_s"] for r in records], [t for t, _ in setup], ok),
        "speed_scale_median": statistics.median(speed.scale(r["speed_s"]) for r in records),
        "failed_ratio": (len(records) - ok) / len(records),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "latency_samples": len(lat),
        "latencies_s": [r["latency_s"] for r in records],
        "speeds_s": [r["speed_s"] for r in records],
        "setup_samples": len(setup),
        **failure_counts(records, known),
    }


def failure_counts(records: list[dict], known: dict) -> dict:
    by_kind: dict[str, int] = {}
    for r in records:
        if not r["ok"]:
            by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    return {
        "attempted": len(records),
        "failed_unexpected": sum(n for kind, n in by_kind.items() if kind not in known),
        "failed_by_kind": by_kind,
    }


def class_medians(records: list[dict]) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r["cls"], []).append(r["latency_s"])
    return {f"{cls}.p50_ms": 1e3 * statistics.median(v) for cls, v in sorted(groups.items())}


# -- child processes ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_time(module: str) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter until ``module`` is
    imported, and the median reference loop time measured in it then."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(LAUNCH), "import", module],
                          stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        loops = proc.stdout.read().split()
    if proc.returncode != 0 or line.strip() != "imported" or loops[:1] != ["speed"]:
        raise BenchError(f"importing {module} failed with exit code {proc.returncode}")
    return elapsed, statistics.median(map(float, loops[1:]))


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_cycles(seconds: float, cycle_fn) -> list[dict]:
    """Closed loop over whole cycles until the next one would end late."""
    records: list[dict] = []
    start = time.perf_counter()
    cycle = 1
    while True:
        c0 = time.perf_counter()
        records += cycle_fn(cycle)
        now = time.perf_counter()
        if now - start + (now - c0) > seconds:
            return records
        cycle += 1


# -- checks ------------------------------------------------------------------------


def check_verify(code: int, stdout: str, stderr: str, digest: str) -> bool:
    return (code == 0 and "Traceback" not in stderr
            and hashlib.sha256(stdout.encode("utf-8")).hexdigest() == digest)


def _no_constant(token: str):
    raise ValueError(f"non-finite value {token} in JSON report")


def check_flavor(case: dict, code: int, stdout: str, stderr: str, exits: dict) -> bool:
    """Exit code as documented, no traceback, no non-finite value, and for
    valid input the report's ``det_zeta_equals_one`` check plus the common
    iso-mass, which must be the geometric mean of the central masses."""
    if "Traceback" in stderr:
        return False
    if case["kind"] != "mass.valid":
        return code in exits["malformed"]
    if code not in exits["mass.valid"]:
        return False
    if case["format"] != "json":
        words = stdout.lower().replace(",", " ").replace("=", " ").split()
        if any(w.strip("[]()'\"") in ("nan", "inf", "-inf", "infinity") for w in words):
            return False
        if case["format"] == "csv":
            return "\ndet_zeta_equals_one,true," in stdout
        return "PASS  det_zeta_equals_one" in stdout
    try:
        report = json.loads(stdout, parse_constant=_no_constant)
    except ValueError:
        return False
    passed = {c["name"]: c["pass"] for c in report.get("checks", [])}
    if passed.get("det_zeta_equals_one") is not True:
        return False
    import gen

    flavors = gen.FLAVORS[:3] if case["group"] == "su3" else gen.FLAVORS
    logs = [math.log(case["masses"][fl].get(
        "central", 0.5 * (case["masses"][fl]["min"] + case["masses"][fl]["max"])))
        for fl in flavors]
    expect = math.exp(sum(logs) / len(logs))
    return abs(report["params"]["iso_mass"] - expect) <= 1e-5 * expect


def check_dense(records: list[dict], seed: int) -> None:
    """Mark each dense_api record ok/failed against the oracle, in place."""
    import gen
    import numpy as np
    import oracle

    specs: dict[int, list[dict]] = {}
    for r in records:
        if r["cycle"] not in specs:
            specs[r["cycle"]] = gen.dense_cycle(seed, r["cycle"])
        spec = specs[r["cycle"]][r["index"]]
        if r["status"] != "ok":
            r["ok"] = False
            continue
        err, tol = oracle.error(spec, np.asarray(r["fingerprint"], dtype=complex))
        r["ok"] = bool(err <= tol)


# -- untraced workloads ---------------------------------------------------------------


def _write_flavor_files(seed: int, cycle: int) -> list[tuple[dict, str]]:
    import gen

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = []
    for i, case in enumerate(gen.flavor_cycle(seed, cycle)):
        path = OUT_DIR / f"masses-{i}.json"
        path.write_text(case["text"], encoding="utf-8")
        out.append((case, str(path)))
    return out


def cli_ops(workload: str, seed: int, cycle: int, ref: dict) -> list[tuple]:
    """(argv, check(code, stdout, stderr), kind, cls) of one CLI cycle."""
    if workload == "verify_cli":
        def check(code, out, err):
            return check_verify(code, out, err, ref["verify_stdout_sha256"])
        return [(ref["verify_argv"], check, "verify.all", "verify.all")]
    import gen

    return [(gen.flavor_argv(case, path),
             functools.partial(check_flavor, case, exits=ref["flavor_exit_codes"]),
             case["kind"], f"flavor.{case['group']}")
            for case, path in _write_flavor_files(seed, cycle)]


def in_subprocess(argv: list[str]) -> tuple[int, str, str, list[float]]:
    """``python -m isoclifford *argv`` in a fresh interpreter (by way of
    ``launch.py``); returns the exit code, stdout, stderr and the reference
    loop times measured in that interpreter."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    loops_file = OUT_DIR / "speed.txt"
    loops_file.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(LAUNCH), "run", str(loops_file), "isoclifford",
                           *argv], capture_output=True, env=child_env(), cwd=ROOT)
    if not loops_file.is_file():
        raise BenchError(f"the CLI process left no loop times (exit code {proc.returncode})")
    return (proc.returncode, proc.stdout.decode("utf-8", "replace"),
            proc.stderr.decode("utf-8", "replace"),
            [float(t) for t in loops_file.read_text().split()])


def run_cli_ops(ops: list[tuple], execute) -> list[dict]:
    """Run each op; the reference loop times ``execute`` returns (None
    in-process) are taken out of the latency and kept as ``speed_s``."""
    records = []
    for argv, check, kind, cls in ops:
        t0 = time.perf_counter()
        code, out, err, loops = execute(argv)
        latency = time.perf_counter() - t0
        rec = {"latency_s": latency, "ok": check(code, out, err), "kind": kind, "cls": cls}
        if loops:
            rec["latency_s"] -= sum(loops)
            rec["speed_s"] = statistics.median(loops)
        records.append(rec)
    return records


def cli_workload(workload: str, seed: int, seconds: float,
                 ref: dict) -> tuple[list[dict], list[tuple[float, float]]]:
    """Returns the records and the (seconds, loop time) set-up samples."""
    setup = [import_time("isoclifford.cli") for _ in range(CLI_SETUP_RUNS)]
    records = run_cycles(
        seconds, lambda k: run_cli_ops(cli_ops(workload, seed, k, ref), in_subprocess))
    return records, setup


def dense_api(seed: int, seconds: float) -> tuple[list[dict], list[tuple[float, float]]]:
    """Launch the dense worker DENSE_SETUP_RUNS times; each launch measures
    set-up (import plus one warm-up pass) and the last one runs the loop."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"dense-{seed}.jsonl"
    setup = []
    for i in range(DENSE_SETUP_RUNS):
        cmd = [sys.executable, str(HERE / "dense.py"), "--seed", str(seed),
               "--seconds", str(seconds), "--out", str(out)]
        if i < DENSE_SETUP_RUNS - 1:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=ROOT) as proc:
            imported = proc.stdout.readline()
            t_import = time.perf_counter() - t0
            warm = proc.stdout.readline().split()
            proc.stdout.read()
        if proc.returncode != 0 or imported.strip() != "imported" or warm[:1] != ["warmup"]:
            raise BenchError(f"dense worker failed with exit code {proc.returncode}")
        setup.append((t_import + float(warm[1]), statistics.median(map(float, warm[2:]))))
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    for r in records:
        if r["fingerprint"] is not None:
            r["fingerprint"] = [complex(re, im) for re, im in r["fingerprint"]]
    check_dense(records, seed)
    return records, setup


# -- traced workloads -------------------------------------------------------------------


def _captured_main(tracer, argv: list[str]) -> tuple[int, str, str, None]:
    """``cli.main(argv)`` in-process; an escaping exception is what a fresh
    process would show as a traceback with exit code 1.  No reference loop
    is timed (per-layer numbers are not scaled)."""
    from isoclifford import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.call(cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # the CLI contract says this never happens; record it
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), None


def _traced_pass_fn(workload: str, seed: int, ref: dict):
    """Returns prepare(k) -> inputs and run(inputs, tracer) -> records."""
    if workload != "dense_api":
        def run_cli(ops, tracer):
            return run_cli_ops(ops, functools.partial(_captured_main, tracer))
        return functools.partial(cli_ops, workload, seed, ref=ref), run_cli

    import dense
    import gen

    def prepare(k):
        specs = gen.dense_cycle(seed, k)
        return k, specs, [dense.build(spec) for spec in specs]

    def run(inputs, tracer):
        k, specs, built = inputs
        recs = []
        for idx, (spec, args) in enumerate(zip(specs, built)):
            call = (functools.partial(tracer.call, dense.package_call(spec["op"]))
                    if tracer else None)
            rec = dense.run_op(spec, args, call)
            rec.update(cycle=k, index=idx, cls=spec["cls"], kind=spec["kind"])
            recs.append(rec)
        check_dense(recs, seed)
        return recs
    return prepare, run


def traced(workload: str, seed: int, seconds: float, ref: dict) -> tuple[list[dict], dict]:
    """Alternate untraced and traced passes over the same inputs."""
    sys.path.insert(0, str(SRC))
    import spans

    prepare, run = _traced_pass_fn(workload, seed, ref)
    tracer = spans.Tracer()
    untraced_walls, traced_walls, plain, records = [], [], [], []
    start = time.perf_counter()
    k = 1
    while True:
        p0 = time.perf_counter()
        inputs = prepare(k)
        # alternate which side runs first, so warm-up favours neither
        for side in ((False, True) if k % 2 else (True, False)):
            if side:
                tracer.install()
                try:
                    recs = run(inputs, tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(sum(r["latency_s"] for r in recs))
            else:
                recs = run(inputs, None)
                plain += recs
                untraced_walls.append(sum(r["latency_s"] for r in recs))
            records += recs
        now = time.perf_counter()
        if now - start + (now - p0) > seconds:
            break
        k += 1
    layers = spans.layer_metrics(tracer, len(traced_walls))
    if workload == "dense_api":
        layers.update(class_medians(plain))
    layers["trace.wall_untraced_s"] = statistics.median(untraced_walls)
    layers["trace.wall_traced_s"] = statistics.median(traced_walls)
    layers["trace.overhead_s"] = layers["trace.wall_traced_s"] - layers["trace.wall_untraced_s"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.save(str(OUT_DIR / f"spans-{workload}-{seed}.npz"))
    return records, {"layers": layers, "passes": len(traced_walls),
                     "spans": len(tracer.start),
                     "self_time_share": float(tracer.self_times().sum() / sum(traced_walls))}


# -- provenance and output ------------------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT)
        sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "isoclifford").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREAD_PINS["OPENBLAS_NUM_THREADS"]),
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "load": "closed loop, 1 client",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = _load_json(ROOT / "BENCHMARK.json")
    ref = _load_json(HERE / "reference.json")
    known = ref["known_defects"].get(workload, {})
    # compile and cache the package's bytecode before anything is timed
    import_time("isoclifford.cli")
    if trace:
        records, info = traced(workload, seed, seconds, ref)
        summary = {**failure_counts(records, known), **info}
        wanted = spec["per_layer"]
        values = {m["name"]: info["layers"].get(m["name"], 0.0) for m in wanted}
    else:
        if workload == "dense_api":
            records, setup = dense_api(seed, seconds)
        else:
            records, setup = cli_workload(workload, seed, seconds, ref)
        summary = summarize(records, known, setup, children_peak_rss_mb())
        if workload == "dense_api":
            summary["class_p50_ms"] = class_medians(records)
        wanted = spec["end_to_end"]
        values = summary["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": summary["failed_unexpected"] == 0,
              "attempted": summary["attempted"],
              "failed": summary["failed_unexpected"],
              "metrics": metrics}
    report = {"workload": workload, "trace": trace, "seconds": seconds,
              "provenance": provenance(seed), "summary": summary, "result": result}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=2, default=float), encoding="utf-8")
    _print_report(report, known)
    return result


def _print_report(report: dict, known: dict) -> None:
    w, s = report["workload"], report["summary"]
    print(f"# {w} seed={report['provenance']['seed']} seconds={report['seconds']} "
          f"trace={report['trace']}")
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, m in report["result"]["metrics"].items():
        print(f"{w:<11} {name:<58} {m['value']:>14.6g} {m['unit']}")
    if not report["trace"]:
        print(f"{w:<11} {'failed_ratio':<58} {s['failed_ratio']:>14.6g} ratio")
        print(f"# median speed scale {s['speed_scale_median']:.4f}; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in s["raw"].items()))
        print(f"# samples: latency {s['latency_samples']}, setup {s['setup_samples']}; "
              f"tail = p{s['tail_percentile']:.1f} with {s['tail_samples_beyond']} samples beyond")
        for name, value in s.get("class_p50_ms", {}).items():
            print(f"{w:<11} {name:<58} {value:>14.6g} ms")
    else:
        print(f"# traced passes {s['passes']}, spans {s['spans']}, "
              f"self-time share of traced wall {s['self_time_share']:.4f}")
    for kind, n in sorted(s["failed_by_kind"].items()):
        tag = "known defect" if kind in known else "UNEXPECTED"
        print(f"# failed {n} of kind {kind} ({tag})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isoclifford" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'isoclifford'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so children's peak RSS stays apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
