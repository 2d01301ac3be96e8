"""End-to-end command-line behavior: exit codes, formats, determinism."""

import functools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from isoclifford import cli, dirac, suites
from isoclifford.cli import main
from isoclifford.multivector import NonInvertibleError, SignatureMismatchError
from pins import FLAVOR_CASES, assert_pinned, flavor_argv, verify_argv

# every child interpreter turns warnings into errors, as CI runs the command line
PYTHON = [sys.executable, "-X", "dev", "-W", "error"]
RUN = [*PYTHON, "-m", "isoclifford"]
REPO = Path(__file__).resolve().parent.parent
MASSES = str(REPO / "data" / "quark_masses.json")


def run_cli(*args, **kw):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, **kw)


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
    render that same result through ``cli.main``.  All six reports match
    their pins."""
    outputs = {}
    run_suite = suites.run_suite
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid, cpus=cpus: cpus)
        monkeypatch.setattr(suites, "run_suite", functools.cache(run_suite))
        for fmt in ("json", "csv", "text"):
            assert main(verify_argv(fmt)) == 0
            outputs[len(cpus), fmt] = capsys.readouterr().out
    assert pool_maps == ["_run_one"]  # only the two-CPU path used the pool
    for (_, fmt), out in outputs.items():
        assert_pinned("verify", "all", fmt, out)


def test_verify_report_does_not_depend_on_numpy_simd_dispatch():
    """The staged checks do most of verify's arithmetic in numpy ufuncs.
    With every target numpy dispatches to at run time switched off, the
    json report still matches its pin.  The targets are read from the
    installed numpy, and only those this CPU has are named: numpy refuses,
    with a warning that ``-W error`` makes fatal, a name it does not
    dispatch or the CPU lacks, so a list written here would break when a
    target is renamed or on a CPU without one."""
    from numpy._core import _multiarray_umath as m

    present = [t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(present))
    probe = ("from numpy._core import _multiarray_umath as m\n"
             "print([t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)])")
    enabled = subprocess.run([*PYTHON, "-c", probe], capture_output=True, text=True, env=env)
    assert enabled.stdout == "[]\n", enabled.stderr
    proc = subprocess.run(RUN + verify_argv(), capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert_pinned("verify", "all", "json", proc.stdout)


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
    proc = subprocess.run([*PYTHON, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("user_value", [None, "2"], ids=["unset", "user_2"])
def test_verify_loads_numpy_with_one_blas_thread_unless_the_user_chose(user_value):
    # a finder ahead of the others records the variables when numpy is first imported
    code = (
        "import contextlib, io, json, os, sys\n"
        "VARS = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append([os.environ.get(v) for v in VARS])\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from isoclifford.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--suite', 'octonion'])\n"
        "print(json.dumps([code, seen]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARS}
    if user_value is not None:
        env.update(dict.fromkeys(cli._BLAS_THREAD_VARS, user_value))
    proc = subprocess.run([*PYTHON, "-c", code], capture_output=True, text=True, env=env)
    want = user_value or "1"
    assert json.loads(proc.stdout) == [0, [[want, want, want]]], proc.stderr


def test_flavor_imports_only_the_flavor_module():
    # under -S no site hook loads a module before the child records them; as
    # -S also drops site-packages, the child imports the package from where
    # this process did
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io, json\n"
        "from isoclifford.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([*PYTHON, "-S", "-c", code, *flavor_argv("su6")],
                          capture_output=True, text=True, cwd=REPO, env=env)
    code, added = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    assert [m for m in added if m.partition(".")[0] == "isoclifford"] == [
        "isoclifford", "isoclifford.cli", "isoclifford.flavor"]
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
                "numpy"} & set(added), added


@pytest.fixture(scope="module")
def numpy_blocked_runs(tmp_path_factory):
    """One child with numpy blocked runs every pinned flavor argv and two
    bad mass files through ``main``; the result of each, keyed by its
    ``(group, fmt)`` case or file name, is ``[exit code, stdout, stderr]``."""
    # an entry of None in sys.modules makes `import numpy` raise ImportError
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from isoclifford.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    runs.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    tmp = tmp_path_factory.mktemp("masses")
    bad_json = tmp / "bad.json"
    bad_json.write_text("{not json")
    infinite = tmp / "infinite.json"
    table = json.loads((REPO / "data" / "quark_masses.json").read_text())
    table["t"]["max"] = math.inf
    infinite.write_text(json.dumps(table))  # json writes the token Infinity
    cases = {case: flavor_argv(*case) for case in FLAVOR_CASES}
    cases.update({path.stem: ["flavor", "--group", "su6", "--masses", str(path), "--intervals"]
                  for path in (bad_json, infinite)})
    proc = subprocess.run([*PYTHON, "-c", code, json.dumps(list(cases.values()))],
                          capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(cases, json.loads(proc.stdout)))


@pytest.mark.parametrize("group,fmt", FLAVOR_CASES)
def test_flavor_reports_match_the_pins_with_numpy_blocked(numpy_blocked_runs, group, fmt):
    exit_code, out, err = numpy_blocked_runs[group, fmt]
    assert exit_code == 0 and err == ""
    assert_pinned("flavor", group, fmt, out)


@pytest.mark.parametrize("name,exit_code,message", [
    ("bad", 2, "error: mass file is not valid JSON"),
    ("infinite", 3, "error: flavor 't'"),
], ids=["malformed", "infinite"])
def test_flavor_mass_file_errors_with_numpy_blocked(numpy_blocked_runs, name, exit_code,
                                                    message):
    code, out, err = numpy_blocked_runs[name]
    assert [code, out] == [exit_code, ""] and err.startswith(message)


@pytest.mark.parametrize("tol", ["-1", "0", "inf", "1e400", "nan"])
def test_verify_tol_must_be_finite_and_positive(capsys, tol):
    assert main(["verify", "--suite", "octonion", "--tol", tol, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --tol must be a finite positive number\n"


def test_verify_tol_override_can_fail():
    # an absurdly tight tolerance turns residual checks into failures
    proc = run_cli("verify", "--suite", "su3", "--tol", "1e-30")
    assert proc.returncode == 1


def test_flavor_entry_point_report_matches_its_pin():
    # the numpy-blocked test holds every flavor report to its pin through
    # main; this one runs the `python -m isoclifford` entry point
    proc = run_cli(*flavor_argv("su6", "json"), cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert_pinned("flavor", "su6", "json", proc.stdout)


def test_flavor_missing_file():
    proc = run_cli("flavor", "--group", "su3", "--masses", "/nonexistent.json")
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


@pytest.mark.parametrize("raw,message", [
    (bytes.fromhex("fffe7b7d"), "is not valid UTF-8"),  # starts with a UTF-16 byte-order mark
    (b"[" * 200_000, "nests too deeply"),
    (b'{"u": ' * 200_000, "nests too deeply"),
], ids=["utf16", "nested_arrays", "nested_objects"])
def test_flavor_unreadable_mass_file_exits_2(tmp_path, capsys, raw, message):
    path = tmp_path / "masses.json"
    path.write_bytes(raw)
    assert main(["flavor", "--group", "su3", "--masses", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: mass file {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("entry", [
    [0] * 100_000,
    {"min": [0] * 100_000, "max": 2.0},
    {"min": 1.0, "max": "9" * 100_000},
], ids=["long_list", "long_min", "long_string"])
def test_flavor_bad_entry_error_is_one_short_line(tmp_path, capsys, entry):
    entries = json.loads((REPO / "data" / "quark_masses.json").read_text())
    entries["u"] = entry
    path = tmp_path / "masses.json"
    path.write_text(json.dumps(entries))
    assert main(["flavor", "--group", "su3", "--masses", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: flavor 'u': bad entry ")
    assert err.count("\n") == 1
    assert len(err.encode()) < 1024


def _mass_entries(**override):
    entries = {fl: {"min": 1.0, "max": 2.0} for fl in ("u", "d", "s", "c", "b", "t")}
    entries.update(override)
    return entries


NOT_FINITE = "error: flavor 'c': min, central and max must be finite"
BAD_ENTRY = "error: flavor 'c': bad entry "


@pytest.mark.parametrize("entry,code,message", [
    ({"min": 1.0, "max": float("inf")}, 3, NOT_FINITE),
    ({"min": 1.0, "max": 2.0, "central": float("nan")}, 3, NOT_FINITE),
    ({"min": 1.0, "max": 10 ** 400}, 3,
     "error: flavor 'c': an integer mass exceeds the float range"),
    # the default central (halfway) is finite; the parameters it feeds overflow
    ({"min": 1e308, "max": 1.7e308}, 3,
     "error: su6 parameter alpha is not a finite positive number"),
    ({"min": -1.0, "max": 2.0}, 3, "error: flavor 'c': need 0 < min <= central <= max"),
    ({"min": True, "max": 2.0}, 2, BAD_ENTRY),
    ({"min": 1.0, "max": 2.0, "central": False}, 2, BAD_ENTRY),
    ({"min": "1.0", "max": 2.0}, 2, BAD_ENTRY),
    ([1.0, 2.0], 2, BAD_ENTRY),
    (None, 2, "error: missing flavor 'c'"),
], ids=["infinity", "nan", "huge_integer", "huge_default_central", "nonpositive", "boolean",
        "boolean_central", "string", "list", "missing"])
def test_flavor_input_errors_map_to_exit_codes_by_type(tmp_path, capsys, entry, code, message):
    entries = _mass_entries(c=entry)
    if entry is None:  # no entry for c at all
        del entries["c"]
    path = tmp_path / "masses.json"
    path.write_text(json.dumps(entries))
    assert main(["flavor", "--group", "su6", "--masses", str(path), "--intervals"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1, err


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
    ("flavor", "isoclifford.flavor.equal_mass_params"),
])
def test_escaping_domain_errors_exit_3_on_one_line(monkeypatch, capsys, exc, command, target):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, boom)
    argv = (["verify", "--suite", "su3"] if command == "verify"
            else ["flavor", "--group", "su3", "--masses", MASSES])
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {type(exc).__name__}: {' '.join(str(exc).split())}\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_into_a_closed_pipe_exits_quietly(fmt):
    # the read end is closed before the child writes, as ``verify ... | head``
    # leaves it: the write fails with EPIPE
    proc = subprocess.Popen(RUN + ["verify", "--suite", "octonion", "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0  # the checks' code
    assert err == ""


_REPORTS = {
    "verify": ["verify", "--suite", "octonion"],
    "flavor": ["flavor", "--group", "su3", "--masses", MASSES],
}


@pytest.mark.parametrize("command", sorted(_REPORTS))
@pytest.mark.parametrize("stdout", ["full", "closed"])
def test_a_report_that_cannot_be_written_exits_2_on_one_line(command, stdout):
    argv = RUN + _REPORTS[command]
    if stdout == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=300)
    else:
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv],
                              stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the report: "), lines


def test_a_closed_stdout_exits_2_before_the_command_runs(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(suites, "run_suite", lambda *args: calls.append(args))
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["verify", "--suite", "all"]) == 2
    assert calls == []
    assert capsys.readouterr().err == "error: cannot write the report: stdout is closed\n"
