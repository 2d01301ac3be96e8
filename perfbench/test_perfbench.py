"""Tests of the benchmark itself: seeded inputs, output checks, tracing."""

import contextlib
import io
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

import dense
import gen
import run
import spans
import speed
from isoclifford import cli, multivector

# Share of the traced wall time that the summed self times may miss: the
# wrapper's own bookkeeping outside the root span.
SELF_TIME_SHARE = 0.02


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_inputs_are_a_pure_function_of_the_seed():
    assert _same(gen.dense_cycle(7, 3), gen.dense_cycle(7, 3))
    assert not _same(gen.dense_cycle(7, 3), gen.dense_cycle(8, 3))
    assert not _same(gen.dense_cycle(7, 3), gen.dense_cycle(7, 4))
    assert gen.flavor_cycle(7, 3) == gen.flavor_cycle(7, 3)
    assert gen.flavor_cycle(7, 3) != gen.flavor_cycle(8, 3)

    mix = Counter((s["cls"], s["kind"]) for s in gen.dense_cycle(5, 1))
    assert mix == Counter({(cls, kind): n for _, cls, kind, n in gen.DENSE_MIX})
    kinds = Counter(c["kind"] for c in gen.flavor_cycle(5, 1))
    assert kinds["mass.valid"] == len(gen.VALID_MODES)
    assert all(kinds[k] == 1 for k in gen.MALFORMED_KINDS)


def test_injected_wrong_output_counts_as_failed():
    seed = 3
    specs = gen.dense_cycle(seed, 1)
    cheap = ("multivector.dense_product.cl0_7", "multivector.inverse.regular.cl1_3")
    picked = [i for i, s in enumerate(specs) if s["cls"] in cheap or s["kind"] == "exp.moderate"]
    wrong = {picked[0], picked[-1]}
    records = []
    for i in picked:
        spec = specs[i]
        call = None
        if i in wrong:
            def call(*args, _op=spec["op"]):
                return dense.package_call(_op)(*args) * (1 + 1e-6)
        rec = dense.run_op(spec, dense.build(spec), call)
        rec.update(cycle=1, index=i, cls=spec["cls"], kind=spec["kind"])
        records.append(rec)
    run.check_dense(records, seed)
    assert [i for i, r in zip(picked, records) if not r["ok"]] == sorted(wrong)
    for rec in records:
        rec["speed_s"] = speed.NOMINAL_S
    summary = run.summarize(records, known={}, setup=[(1.0, speed.NOMINAL_S)], rss_mb=1.0)
    assert summary["failed_ratio"] == len(wrong) / len(picked)
    assert summary["failed_unexpected"] == len(wrong)


def test_cli_checks_reject_wrong_outcomes():
    ref = json.loads((Path(run.HERE) / "reference.json").read_text())
    exits = ref["flavor_exit_codes"]
    assert not run.check_verify(0, "{}\n", "", ref["verify_stdout_sha256"])

    case = next(c for c in gen.flavor_cycle(4, 1)
                if c["kind"] == "mass.valid" and c["format"] == "json")
    path = Path(run.OUT_DIR)
    path.mkdir(parents=True, exist_ok=True)
    masses = path / "test-masses.json"
    masses.write_text(case["text"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(gen.flavor_argv(case, str(masses)))
    good = out.getvalue()
    assert run.check_flavor(case, code, good, "", exits)
    assert not run.check_flavor(case, code, good, "Traceback (most recent call last)", exits)
    report = json.loads(good)
    report["params"]["iso_mass"] *= 1.001
    assert not run.check_flavor(case, code, json.dumps(report), "", exits)
    report = json.loads(good)
    report["params"]["alpha"] = float("nan")
    assert not run.check_flavor(case, code, json.dumps(report), "", exits)
    bad = dict(case, kind="mass.infinity")
    assert not run.check_flavor(bad, 1, "", "", exits)
    assert run.check_flavor(bad, 3, "", "error: ...", exits)


def test_traced_self_times_sum_to_traced_wall():
    original = multivector.geometric_product
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.call(cli.main, ["verify", "--suite", "octonion", "--format", "json"])
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert code == 0
    assert multivector.geometric_product is original
    assert abs(tracer.self_times().sum() - wall) <= SELF_TIME_SHARE * wall
    layers = spans.layer_metrics(tracer, 1)
    assert layers["octonion.oct_product.calls"] > 0
    assert layers["multivector.geometric_product.blade_pairs"] > 0
    assert layers["suites.octonion.wall_s"] > 0
    assert layers["cli.main.calls"] == 1


def test_emitted_metric_names_match_benchmark_json():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    layers = set(spans.layer_metrics(spans.Tracer(), 1))
    layers |= {f"{cls}.p50_ms" for cls in gen.SIGNATURE_OF_CLASS}
    layers |= {"trace.wall_untraced_s", "trace.wall_traced_s", "trace.overhead_s"}
    assert layers == {m["name"] for m in bench["per_layer"]}
    record = {"latency_s": 1.0, "speed_s": speed.NOMINAL_S, "ok": True, "kind": "k"}
    summary = run.summarize([record], {}, [(1.0, speed.NOMINAL_S)], 1.0)
    assert set(summary["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def test_each_time_is_scaled_by_the_loop_measured_beside_it():
    nominal = speed.NOMINAL_S
    slow = 2 ** (1 / speed.EXPONENT) * nominal
    # the 4 s op ran while the loop was slow enough to halve it: it counts as 2 s
    records = [{"latency_s": t, "speed_s": sp, "ok": True, "kind": "k"}
               for t, sp in ((1.0, nominal), (4.0, slow), (3.0, nominal))]
    summary = run.summarize(records, {}, [(0.5, slow)], 1.0)
    assert summary["raw"]["latency_p50_ms"] == 3000.0
    assert math.isclose(summary["metrics"]["latency_p50_ms"], 2000.0)
    assert math.isclose(summary["metrics"]["throughput_ops_s"], 3 / 6.0)
    assert math.isclose(summary["metrics"]["setup_s"], 0.25)
    assert all(t > 0 for t in speed.sample(2))


def test_tail_has_ten_samples_beyond_it_and_never_lies_below_the_median():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail(list(range(21)))[::2] == (10, 10)
    assert run.tail(list(range(13))) == (6, 50.0, 6)


def test_cli_op_runs_as_python_dash_m(tmp_path):
    code, out, err, loops = run.in_subprocess(["verify", "--suite", "su3", "--format", "json"])
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["checks"] and len(loops) == 2 * speed.SAMPLES
    missing = str(tmp_path / "none")
    code, out, err, loops = run.in_subprocess(["flavor", "--group", "su3", "--masses", missing])
    assert code != 0 and len(loops) == 2 * speed.SAMPLES
