"""End-to-end command-line behavior: exit codes, formats, determinism."""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclifford import cli, dirac, flavor, suites
from isoclifford.cli import main
from isoclifford.multivector import NonInvertibleError, SignatureMismatchError
from pins import FLAVOR_CASES, assert_pinned, flavor_argv, verify_argv

# every child interpreter turns warnings into errors, as CI runs the command line
PYTHON = [sys.executable, "-X", "dev", "-W", "error"]
RUN = [*PYTHON, "-m", "isoclifford"]
REPO = Path(__file__).resolve().parent.parent
MASSES = str(REPO / "data" / "quark_masses.json")


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
    # the script checks the modules flavor loads, as CI runs it; as -S drops
    # site-packages, the child imports the package from where this process did
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([*PYTHON, "-S", str(REPO / "tests" / "flavor_modules.py"),
                           *flavor_argv("su6")], capture_output=True, text=True, cwd=REPO,
                          env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


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


def test_flavor_entry_point_report_matches_its_pin():
    # the numpy-blocked test holds every flavor report to its pin through
    # main; this one runs the `python -m isoclifford` entry point
    proc = subprocess.run(RUN + flavor_argv("su6", "json"), capture_output=True, text=True,
                          cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert_pinned("flavor", "su6", "json", proc.stdout)


# The command-line contract: every error path of both commands, and the
# reports beside them, run in process through ``main`` under one rule.

FILE = "<mass file>"  # the argv entry a row's mass file stands for
REFERENCE = json.loads(Path(MASSES).read_text())
NOT_FINITE = "error: flavor 'c': min, central and max must be finite"
BAD_ENTRY = "error: flavor 'c': bad entry "
TOL = "error: --tol must be a finite positive number\n"
ALPHA = "parameter alpha is not a finite positive number"


def _masses(**entries):
    """Six entries of min 1 and max 2 with ``entries`` put in; None leaves one out."""
    tree = dict.fromkeys(flavor.FLAVORS, {"min": 1.0, "max": 2.0}) | entries
    return {fl: entry for fl, entry in tree.items() if entry is not None}


SPREAD = _masses(u={"min": 1e-300, "max": 1e-299}, t={"min": 1e300, "max": 1.5e300})
# central values in range, interval corners outside it
SPREAD_CORNERS = _masses(u={"min": 1e-200, "max": 1e-100})


def _row(name, argv, code, prefix="", masses=None, patch=None):
    """One command line; ``masses`` (bytes or a JSON tree) is the file
    ``FILE`` names, and ``patch`` a ``(target, exception)`` it raises."""
    return pytest.param(argv, masses, patch, code, prefix, id=name)


def _flavor(group, *extra):
    return ["flavor", "--group", group, "--masses", FILE, *extra]


CONTRACT = [
    _row("unknown_suite", ["verify", "--suite", "bogus"], 2,
         "error: unknown suite 'bogus'; expected all or one of clifford, isotopy, octonion, "
         "su3, su6, dirac, flavor\n"),
    *(_row(f"tol_{tol}", ["verify", "--suite", "octonion", "--tol", tol, "--format", "json"],
           2, TOL) for tol in ["-1", "0", "inf", "1e400", "nan"]),
    # an absurdly tight tolerance turns residual checks into failures
    _row("tol_override_fails", ["verify", "--suite", "su3", "--tol", "1e-30"], 1),
    _row("missing_file", ["flavor", "--group", "su3", "--masses", "/nonexistent.json"], 2,
         "error: cannot read mass file: "),
    # a UTF-16 byte-order mark, and nesting past the parser's recursion
    *(_row(name, _flavor("su3"), 2, f"error: mass file {message}", masses=raw)
      for name, raw, message in [("utf16", bytes.fromhex("fffe7b7d"), "is not valid UTF-8"),
                                 ("nested_arrays", b"[" * 200_000, "nests too deeply"),
                                 ("nested_objects", b'{"u": ' * 200_000, "nests too deeply")]),
    # an entry of any size is quoted within the line's 1 KB
    *(_row(name, _flavor("su3"), 2, "error: flavor 'u': bad entry ",
           masses=REFERENCE | {"u": entry})
      for name, entry in [("long_list", [0] * 100_000),
                          ("long_min", {"min": [0] * 100_000, "max": 2.0}),
                          ("long_string", {"min": 1.0, "max": "9" * 100_000})]),
    *(_row(name, _flavor("su6", "--intervals"), code, prefix, masses=_masses(c=entry))
      for name, entry, code, prefix in [
          ("infinity", {"min": 1.0, "max": math.inf}, 3, NOT_FINITE),
          ("nan", {"min": 1.0, "max": 2.0, "central": math.nan}, 3, NOT_FINITE),
          ("huge_integer", {"min": 1.0, "max": 10 ** 400}, 3,
           "error: flavor 'c': an integer mass exceeds the float range"),
          # the default central (halfway) is finite; the parameters it feeds overflow
          ("huge_default_central", {"min": 1e308, "max": 1.7e308}, 3, f"error: su6 {ALPHA}"),
          ("nonpositive", {"min": -1.0, "max": 2.0}, 3,
           "error: flavor 'c': need 0 < min <= central <= max"),
          ("boolean", {"min": True, "max": 2.0}, 2, BAD_ENTRY),
          ("boolean_central", {"min": 1.0, "max": 2.0, "central": False}, 2, BAD_ENTRY),
          ("string", {"min": "1.0", "max": 2.0}, 2, BAD_ENTRY),
          ("list", [1.0, 2.0], 2, BAD_ENTRY),
          ("missing", None, 2, "error: missing flavor 'c'")]),
    *(_row(f"spread_{group}{'_intervals' * intervals}",
           _flavor(group, *["--intervals"] * intervals), 3, f"error: {group} {ALPHA}",
           masses=SPREAD) for group in ("su3", "su6") for intervals in (False, True)),
    _row("spread_corners_intervals", _flavor("su3", "--intervals"), 3, f"error: su3 {ALPHA}",
         masses=SPREAD_CORNERS),
    _row("spread_corners", _flavor("su3"), 0, masses=SPREAD_CORNERS),
    # a domain error a command does not map: named by its type, whitespace collapsed
    *(_row(f"escaping_{command}_{type(exc).__name__}", argv, 3, line, patch=(target, exc))
      for command, argv, target in [
          ("verify", ["verify", "--suite", "su3"], "isoclifford.suites.run_suite"),
          ("flavor", ["flavor", "--group", "su3", "--masses", MASSES],
           "isoclifford.flavor.equal_mass_params")]
      for exc, line in [
          (NonInvertibleError("regular representation is singular"),
           "error: NonInvertibleError: regular representation is singular\n"),
          (SignatureMismatchError("Cl(3,0) vs Cl(1,3)"),
           "error: SignatureMismatchError: Cl(3,0) vs Cl(1,3)\n"),
          (ValueError("a coefficient is\nnot finite"),
           "error: ValueError: a coefficient is not finite\n")]),
]


def _run(argv):
    """``main(argv)`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err, prefix="error: "):
    """The rule every command line meets.  A failure (exit 2 or 3) prints no
    report and one line under 1 KB that starts with ``prefix``, with no
    traceback; a report (exit 0 or 1) prints no stderr, NaN or infinity."""
    if code in (2, 3):
        assert out == "" and err.startswith(prefix), err
        assert err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) < 1024, err
        assert "Traceback" not in err
    else:
        assert code in (0, 1) and err == "", err
        assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("argv,masses,patch,code,prefix", CONTRACT)
def test_command_line_contract(tmp_path, monkeypatch, argv, masses, patch, code, prefix):
    if patch is not None:
        monkeypatch.setattr(patch[0], mock.Mock(side_effect=patch[1]))
    if masses is not None:
        path = tmp_path / "masses.json"
        path.write_bytes(masses if isinstance(masses, bytes) else json.dumps(masses).encode())
        argv = [str(path) if arg == FILE else arg for arg in argv]
    got = _run(argv)
    assert got[0] == code, got
    _assert_contract(*got, prefix)


_MISSING = object()  # an entry or field the fuzzed tree leaves out
_FIELD = st.sampled_from([0, -1, 5e-324, 1e-300, 1e300, sys.float_info.max, 10 ** 400, True,
                          None, "1", [], math.nan, math.inf, _MISSING])


def _overlaid(entries):
    """The reference mass tree with ``entries`` put in: a dict field by
    field, anything else as the whole entry; ``_MISSING`` leaves one out."""
    tree = REFERENCE | {fl: REFERENCE[fl] | new if isinstance(new, dict) else new
                        for fl, new in entries.items()}
    return {fl: {k: v for k, v in e.items() if v is not _MISSING} if isinstance(e, dict) else e
            for fl, e in tree.items() if e is not _MISSING}


@given(tree=st.dictionaries(
           st.sampled_from(flavor.FLAVORS),
           _FIELD | st.dictionaries(st.sampled_from(["min", "central", "max"]), _FIELD,
                                    min_size=1),
           max_size=3).map(_overlaid),
       group=st.sampled_from(["su3", "su6"]), intervals=st.booleans())
@settings(max_examples=150, deadline=None)
def test_fuzzed_mass_files_keep_the_contract(tmp_path_factory, tree, group, intervals):
    path = tmp_path_factory.getbasetemp() / "fuzzed_masses.json"
    path.write_text(json.dumps(tree))
    argv = ["flavor", "--group", group, "--masses", str(path), "--format", "json"]
    code, out, err = _run(argv + ["--intervals"] * intervals)
    assert code in (0, 2, 3)
    _assert_contract(code, out, err)
    if code == 0:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))


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
