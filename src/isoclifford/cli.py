"""Command-line front end.

Two commands::

    isoclifford verify --suite <name> [--tol <float>] [--format json|csv|text]
    isoclifford flavor --group su3|su6 --masses <path> [--intervals] [--format ...]

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 domain
error.  Commands raise, and :func:`main` alone maps an error to its exit
code by type, on one ``error:`` line: 2 for a :class:`UsageError` or a
``MassFormatError``, 3 for a ``MassDomainError`` or any other
``AlgebraError`` or ``ValueError`` (named by its type), such as a
``verify`` check or comparison holding a value that is not finite, so no
NaN or infinity reaches a report.  A report that cannot be written
(stdout closed, or a write that fails other than on a closed pipe) exits
2 on one ``error:`` line; a reader that leaves early (``verify ... |
head``) ends the command quietly with the checks' code.
Under ``verify --suite all`` the first suite to fail stops the others.
Reports are deterministic: the property suites run on a fixed seed and
every float is rendered with 6 significant digits.

Each command imports only what it runs: ``flavor`` needs
:mod:`isoclifford.flavor` alone, which runs on the standard library, and
``verify`` imports :mod:`isoclifford.suites` (and with it numpy and the
Clifford-algebra modules) once its arguments are parsed, after setting
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to
1 where the user has not set them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import AlgebraError, flavor

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class UsageError(Exception):
    """A bad option value, an unreadable file or a closed stdout: exit 2."""


def _round6(value: object) -> object:
    """Recursively round floats to 6 significant digits for stable output."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _check(name: str, residual: float, tolerance: float) -> dict:
    """One check record of a report; the check passes when
    ``residual <= tolerance``."""
    return {"name": name, "pass": bool(residual <= tolerance),
            "residual": residual, "tolerance": tolerance}


def _render(report: dict, fmt: str) -> tuple[int, str]:
    """The exit code of a report, 0 when every check passed, and its text."""
    code = EXIT_OK if all(c["pass"] for c in report["checks"]) else EXIT_CHECK_FAILURE
    report = _round6(report)
    if fmt == "json":
        lines = [json.dumps(report, indent=2, sort_keys=True)]
    elif fmt == "csv":
        lines = ["name,pass,residual,tolerance"]
        for chk in report.get("checks", []):
            lines.append(f"{chk['name']},{str(chk['pass']).lower()},"
                         f"{chk['residual']:.6g},{chk['tolerance']:.6g}")
    else:
        lines = []
        for chk in report.get("checks", []):
            status = "PASS" if chk["pass"] else "FAIL"
            lines.append(f"{status}  {chk['name']:<48} residual={chk['residual']:<12.6g} "
                         f"tol={chk['tolerance']:.6g}")
        if "params" in report:
            lines.append("params:")
            for key, val in report["params"].items():
                lines.append(f"  {key} = {val}")
        if "paper_comparisons" in report:
            lines.append("paper comparisons:")
            lines.append(json.dumps(report["paper_comparisons"], indent=2, sort_keys=True))
    return code, "".join(line + "\n" for line in lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoclifford",
        description="Clifford algebra isotopy verification and flavor parameters")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a named invariant suite")
    ver.add_argument("--suite", required=True,
                     help="all, or the name of one suite (an unknown name lists them)")
    ver.add_argument("--tol", type=float, default=None,
                     help="override every check tolerance (finite, positive)")
    ver.add_argument("--format", choices=("json", "csv", "text"), default="text")

    fla = sub.add_parser("flavor", help="compute isounit parameters from masses")
    fla.add_argument("--group", choices=("su3", "su6"), required=True)
    fla.add_argument("--masses", required=True, help="path to a JSON mass file (MeV)")
    fla.add_argument("--intervals", action="store_true",
                     help="propagate the mass bounds to parameter intervals")
    fla.add_argument("--format", choices=("json", "csv", "text"), default="json")
    return parser


def cmd_verify(args) -> tuple[int, str]:
    # One BLAS thread per process unless the user chose otherwise: the
    # suites' linear algebra is small and runs in one pool worker per CPU,
    # where OpenBLAS's default thread count (the host's cores, which can be
    # far more than the CPUs this process may use) only contends.  The
    # variables are read when numpy loads its BLAS.
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .suites import SUITE_NAMES, run_suite

    if args.tol is not None and not 0 < args.tol < math.inf:
        raise UsageError("--tol must be a finite positive number")
    if args.suite not in ("all", *SUITE_NAMES):
        raise UsageError(f"unknown suite {args.suite!r}; expected all or one of "
                         f"{', '.join(SUITE_NAMES)}")
    checks, comparisons = run_suite(args.suite)
    report = {
        "command": "verify",
        "suite": args.suite,
        "checks": [_check(name, residual, tol if args.tol is None else args.tol)
                   for name, residual, tol in checks],
    }
    if comparisons:
        report["paper_comparisons"] = comparisons
    return _render(report, args.format)


def cmd_flavor(args) -> tuple[int, str]:
    try:
        with open(args.masses, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read mass file: {exc}") from exc
    group = args.group
    bounds = flavor.QuarkMassBounds.from_json(raw)
    masses = bounds.centrals(group)
    zeta = flavor.equal_mass_params(masses, group)
    intervals = flavor.param_intervals(bounds, group) if args.intervals else None
    dressed = flavor.dressed_masses(zeta, masses)
    params = {name: val for name, val in zip(flavor.PARAM_NAMES[group], zeta.params)}
    params["iso_mass"] = flavor.common_iso_mass(masses, group)
    params["iso_mass_matrix"] = [[d if i == j else 0.0 for j in range(len(dressed))]
                                 for i, d in enumerate(dressed)]

    report = {
        "command": "flavor",
        "group": group,
        "params": params,
        "checks": [_check("det_zeta_equals_one", zeta.det_residual(), 1e-12)],
    }
    if intervals is not None:
        report["paper_comparisons"] = {"parameter_intervals": intervals}
    return _render(report, args.format)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if sys.stdout is None:  # started with stdout closed: end before the command runs
            raise UsageError("cannot write the report: stdout is closed")
        code, out = (cmd_verify if args.command == "verify" else cmd_flavor)(args)
    except (UsageError, flavor.MassInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, flavor.MassDomainError) else EXIT_USAGE
    except (AlgebraError, ValueError) as exc:
        # any other domain failure: named by its type, on one line, no traceback
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as exc:
        # point stdout at the null device, so that the interpreter's last
        # flush of what is still buffered stays quiet as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        # a reader that left early (``verify ... | head``) is no error
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
