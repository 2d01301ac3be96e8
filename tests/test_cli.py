"""End-to-end command-line behavior: exit codes, formats, determinism."""

import functools
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from isoclifford import dirac, suites
from isoclifford.cli import main
from isoclifford.multivector import NonInvertibleError, SignatureMismatchError

RUN = [sys.executable, "-m", "isoclifford"]
REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, **kw):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def masses_file(tmp_path_factory):
    bounds = {
        "u": {"min": 1.5, "max": 3.0},
        "d": {"min": 3.0, "max": 7.0},
        "s": {"min": 70.0, "max": 110.0},
        "c": {"min": 1160.0, "max": 1340.0},
        "b": {"min": 4130.0, "max": 4270.0},
        "t": {"min": 170900.0, "max": 177500.0},
    }
    path = tmp_path_factory.mktemp("cli") / "masses.json"
    path.write_text(json.dumps(bounds))
    return str(path)


def test_verify_single_suite_in_process():
    assert main(["verify", "--suite", "octonion", "--format", "json"]) == 0


def test_verify_unknown_suite_usage_error():
    proc = run_cli("verify", "--suite", "bogus")
    assert proc.returncode == 2
    assert "unknown suite" in proc.stderr


@pytest.mark.parametrize("suite", ["clifford", "all"])
def test_internal_key_error_is_not_an_unknown_suite(monkeypatch, capsys, suite):
    def boom(rec):
        raise KeyError("internal")

    monkeypatch.setitem(suites._SUITE_FUNCS, "clifford", boom)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(KeyError, match="internal"):
        main(["verify", "--suite", suite])
    assert "unknown suite" not in capsys.readouterr().err


@pytest.fixture
def pool_maps(monkeypatch):
    """Records each ``Pool.imap_unordered`` call the parent process makes."""
    import multiprocessing.pool

    calls = []
    real = multiprocessing.pool.Pool.imap_unordered

    def spy(self, func, iterable, chunksize=1):
        calls.append(func.__name__)
        return real(self, func, iterable, chunksize)

    monkeypatch.setattr(multiprocessing.pool.Pool, "imap_unordered", spy)
    return calls


def test_pooled_and_in_process_verify_reports_are_byte_identical(monkeypatch, capsys,
                                                                 pool_maps):
    """One CPU runs the suites in process, two fan them out to the pool.
    Each path runs them once, for the first format; the other formats
    render that same result through ``cli.main``.  All three reports
    match their pinned digests."""
    outputs = {}
    run_suite = suites.run_suite
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid, cpus=cpus: cpus)
        monkeypatch.setattr(suites, "run_suite", functools.cache(run_suite))
        for fmt in ("json", "csv", "text"):
            assert main(["verify", "--suite", "all", "--format", fmt]) == 0
            outputs[len(cpus), fmt] = capsys.readouterr().out
    assert pool_maps == ["_run_one"]  # only the two-CPU path used the pool
    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
    pinned = json.loads((REPO / "tests" / "pinned_reports.json").read_text())
    digests = {"json": reference["verify_stdout_sha256"], **pinned["verify_all_stdout_sha256"]}
    for fmt in ("json", "csv", "text"):
        assert outputs[1, fmt] == outputs[2, fmt]
        assert hashlib.sha256(outputs[1, fmt].encode()).hexdigest() == digests[fmt], fmt


def test_nan_in_a_later_sample_exits_3_naming_the_check(monkeypatch, capsys):
    """A NaN in the 10th of 200 samples is not folded away as a smaller residual."""
    real = dirac.DiracRep.rep
    calls = []

    def rep(self, a):
        calls.append(a)
        image = real(self, a)
        # call 1 is gamma5; each rep.homomorphism sample then makes 4 calls
        return image * np.nan if len(calls) == 1 + 9 * 4 + 1 else image

    monkeypatch.setattr(dirac.DiracRep, "rep", rep)
    assert main(["verify", "--suite", "dirac", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ValueError: check dirac.rep.homomorphism has a non-finite "
                   "residual (nan)\n")


def test_nan_in_a_comparison_exits_3_naming_it(monkeypatch, capsys):
    """A NaN in one of the eight row pairings is not dropped by the max
    over them, and the comparison block refuses it."""
    real = suites._entry_table_comparison

    class NanAt22:
        def __init__(self, d):
            self.d = d

        def rep(self, a):
            image = self.d.rep(a).copy()
            image[2, 2] = np.nan
            return image

    monkeypatch.setattr(suites, "_entry_table_comparison",
                        lambda d, rng: real(NanAt22(d), rng))
    assert main(["verify", "--suite", "dirac", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ValueError: comparison dirac.matrix_entry_table has a "
                   "non-finite value (nan)\n")


def test_a_failing_suite_stops_the_others(monkeypatch):
    def boom(rec):
        raise NonInvertibleError("regular representation is singular")

    def stall(rec):
        time.sleep(60)

    monkeypatch.setitem(suites._SUITE_FUNCS, "clifford", boom)
    monkeypatch.setitem(suites._SUITE_FUNCS, "su6", stall)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    start = time.monotonic()
    with pytest.raises(NonInvertibleError):
        suites.run_suite("all")
    assert time.monotonic() - start < 20


def test_domain_error_in_a_worker_exits_3_on_one_line(monkeypatch, capsys, pool_maps):
    def boom(rec):
        raise NonInvertibleError("regular representation\nis singular")

    monkeypatch.setitem(suites._SUITE_FUNCS, "octonion", boom)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    assert main(["verify", "--suite", "all"]) == 3
    out, err = capsys.readouterr()
    assert pool_maps == ["_run_one"]
    assert out == ""
    assert err == "error: NonInvertibleError: regular representation is singular\n"


def test_importing_the_cli_does_not_import_multiprocessing():
    code = "import sys, isoclifford.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "False\n", proc.stderr


def test_flavor_imports_only_the_flavor_module():
    code = (
        "import contextlib, io, json, sys\n"
        "from isoclifford.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                              if m.partition('.')[0] == 'isoclifford')]))\n"
    )
    pinned = json.loads((REPO / "tests" / "pinned_reports.json").read_text())
    proc = subprocess.run([sys.executable, "-c", code, *pinned["flavor_argv"]],
                          capture_output=True, text=True, cwd=REPO)
    assert json.loads(proc.stdout) == [0, ["isoclifford", "isoclifford.cli",
                                           "isoclifford.flavor"]], proc.stderr


@pytest.mark.parametrize("tol", ["-1", "0", "inf", "1e400", "nan"])
def test_verify_tol_must_be_finite_and_positive(capsys, tol):
    assert main(["verify", "--suite", "octonion", "--tol", tol, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --tol must be a finite positive number\n"


def test_verify_octonion_table_report():
    proc = run_cli("verify", "--suite", "octonion", "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "verify"
    table_checks = [c for c in report["checks"] if c["name"].startswith("octonion.table.")]
    assert len(table_checks) == 49
    assert all(c["pass"] for c in report["checks"])


def test_verify_csv_format():
    proc = run_cli("verify", "--suite", "su3", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "name,pass,residual,tolerance"
    assert all(line.count(",") == 3 for line in lines[1:])


def test_verify_tol_override_can_fail():
    # an absurdly tight tolerance turns residual checks into failures
    proc = run_cli("verify", "--suite", "su3", "--tol", "1e-30")
    assert proc.returncode == 1


def test_flavor_su3(masses_file):
    proc = run_cli("flavor", "--group", "su3", "--masses", masses_file)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["group"] == "su3"
    assert abs(report["params"]["alpha"] - 0.22407) < 1e-4
    assert abs(report["params"]["beta"] - 0.49793) < 1e-4
    assert abs(report["params"]["iso_mass"] - 10.0415) < 1e-3
    matrix = report["params"]["iso_mass_matrix"]
    assert abs(matrix[0][0] - report["params"]["iso_mass"]) < 1e-3
    assert report["checks"][0]["name"] == "det_zeta_equals_one"
    assert report["checks"][0]["pass"]


def test_flavor_su6_intervals_roundtrip(masses_file):
    proc = run_cli("flavor", "--group", "su6", "--masses", masses_file, "--intervals")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    block = report["paper_comparisons"]["parameter_intervals"]
    assert set(block) == {"alpha", "beta", "omega", "kappa", "tau"}
    assert block["tau"]["reference"] == [486.938, 677.379]
    assert block["tau"]["matches_joint"] is False
    assert block["kappa"]["matches_joint"] is True
    # serializing the parsed report again is byte-stable
    once = json.dumps(report, indent=2, sort_keys=True)
    twice = json.dumps(json.loads(once), indent=2, sort_keys=True)
    assert once == twice
    assert once == proc.stdout.strip()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_flavor_deterministic_output_matches_pin(fmt):
    pinned = json.loads((REPO / "tests" / "pinned_reports.json").read_text())
    argv = [*pinned["flavor_argv"], "--format", fmt]
    first = run_cli(*argv, cwd=REPO)
    second = run_cli(*argv, cwd=REPO)
    assert first.stdout == second.stdout
    digest = hashlib.sha256(first.stdout.encode()).hexdigest()
    assert digest == pinned["flavor_stdout_sha256"][fmt]


def test_verify_deterministic_output():
    first = run_cli("verify", "--suite", "su3", "--format", "json")
    second = run_cli("verify", "--suite", "su3", "--format", "json")
    assert first.stdout == second.stdout


def test_flavor_missing_file():
    proc = run_cli("flavor", "--group", "su3", "--masses", "/nonexistent.json")
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


def test_flavor_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("flavor", "--group", "su3", "--masses", str(bad))
    assert proc.returncode == 2
    assert "JSON" in proc.stderr


def test_flavor_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(bytes.fromhex("fffe7b7d"))  # starts with a UTF-16 byte-order mark
    assert main(["flavor", "--group", "su3", "--masses", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: mass file is not valid UTF-8")


def test_flavor_missing_flavor_entry(tmp_path):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"u": {"min": 1, "max": 2}}))
    proc = run_cli("flavor", "--group", "su3", "--masses", str(partial))
    assert proc.returncode == 2


def test_flavor_nonpositive_mass(tmp_path):
    bad = tmp_path / "neg.json"
    entries = {fl: {"min": 1.0, "max": 2.0} for fl in ("u", "d", "s", "c", "b", "t")}
    entries["u"] = {"min": -1.0, "max": 2.0}
    bad.write_text(json.dumps(entries))
    proc = run_cli("flavor", "--group", "su3", "--masses", str(bad))
    assert proc.returncode == 3


def _mass_entries(**override):
    entries = {fl: {"min": 1.0, "max": 2.0} for fl in ("u", "d", "s", "c", "b", "t")}
    entries.update(override)
    return entries


@pytest.mark.parametrize("entry,code", [
    ({"min": 1.0, "max": float("inf")}, 3),
    ({"min": 1.0, "max": 2.0, "central": float("nan")}, 3),
    ({"min": 1.0, "max": 10 ** 400}, 3),
    ({"min": True, "max": 2.0}, 2),
    ({"min": 1.0, "max": 2.0, "central": False}, 2),
    ({"min": "1.0", "max": 2.0}, 2),
    ([1.0, 2.0], 2),
], ids=["infinity", "nan", "huge_integer", "boolean", "boolean_central", "string", "list"])
def test_flavor_input_errors_map_to_exit_codes_by_type(tmp_path, capsys, entry, code):
    path = tmp_path / "masses.json"
    path.write_text(json.dumps(_mass_entries(c=entry)))
    assert main(["flavor", "--group", "su6", "--masses", str(path), "--intervals"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: flavor 'c'") or "float range" in err


def test_flavor_infinite_bound_exits_3_without_traceback(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(_mass_entries(t={"min": 1.0, "max": float("inf")})))
    proc = run_cli("flavor", "--group", "su6", "--masses", str(path), "--intervals")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "finite" in proc.stderr


def test_flavor_boolean_mass_exits_2(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(_mass_entries(u={"min": True, "max": 3.0})))
    proc = run_cli("flavor", "--group", "su3", "--masses", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr



SPREAD = _mass_entries(u={"min": 1e-300, "max": 1e-299}, t={"min": 1e300, "max": 1.5e300})
# central values in range, interval corners outside it
SPREAD_CORNERS = _mass_entries(u={"min": 1e-200, "max": 1e-100})


@pytest.mark.parametrize("group,entries,intervals", [
    ("su3", SPREAD, False), ("su3", SPREAD, True),
    ("su6", SPREAD, False), ("su6", SPREAD, True),
    ("su3", SPREAD_CORNERS, True),
], ids=["su3", "su3_intervals", "su6", "su6_intervals", "su3_corners"])
def test_flavor_widely_spread_masses_exit_3(tmp_path, capsys, group, entries, intervals):
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(entries))
    argv = ["flavor", "--group", group, "--masses", str(path)]
    assert main(argv + ["--intervals"] if intervals else argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {group} parameter alpha is not a finite positive number")


def test_flavor_spread_corners_without_intervals_succeed(tmp_path, capsys):
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(SPREAD_CORNERS))
    assert main(["flavor", "--group", "su3", "--masses", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert "Infinity" not in out and "NaN" not in out


@pytest.mark.parametrize("exc", [
    NonInvertibleError("regular representation is singular"),
    SignatureMismatchError("Cl(3,0) vs Cl(1,3)"),
    ValueError("a coefficient is\nnot finite"),
], ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("command,target", [
    ("verify", "isoclifford.suites.run_suite"),
    ("flavor", "isoclifford.flavor.iso_mass_operator"),
])
def test_escaping_domain_errors_exit_3_on_one_line(monkeypatch, capsys, masses_file,
                                                  exc, command, target):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, boom)
    argv = (["verify", "--suite", "su3"] if command == "verify"
            else ["flavor", "--group", "su3", "--masses", masses_file])
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {type(exc).__name__}: {' '.join(str(exc).split())}\n"
