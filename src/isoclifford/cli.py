"""Command-line front end.

Two commands::

    isoclifford verify --suite <name> [--tol <float>] [--format json|csv|text]
    isoclifford flavor --group su3|su6 --masses <path> [--intervals] [--format ...]

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 domain
error (non-positive masses and the like; also any ``AlgebraError`` or
``ValueError`` a command lets escape, reported on one ``error:`` line,
among them a ``verify`` check or comparison holding a value that is not
finite, so no NaN or infinity reaches a report).  Under
``verify --suite all`` the first suite to fail stops the others.
Reports are deterministic: the property suites run on a fixed seed and
every float is rendered with 6 significant digits.

Each command imports only what it runs: ``flavor`` needs the numpy-only
:mod:`isoclifford.flavor`, and ``verify`` imports :mod:`isoclifford.suites`
(and with it the Clifford-algebra modules) once its arguments are parsed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from . import AlgebraError, flavor

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _round6(value: Any) -> Any:
    """Recursively round floats to 6 significant digits for stable output."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, complex):
        return [_round6(value.real), _round6(value.imag)]
    if isinstance(value, np.generic):
        return _round6(value.item())
    if isinstance(value, np.ndarray):
        return _round6(value.tolist())
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def _emit(report: dict, fmt: str) -> None:
    report = _round6(report)
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif fmt == "csv":
        print("name,pass,residual,tolerance")
        for chk in report.get("checks", []):
            print(f"{chk['name']},{str(chk['pass']).lower()},"
                  f"{chk['residual']:.6g},{chk['tolerance']:.6g}")
    else:
        for chk in report.get("checks", []):
            status = "PASS" if chk["pass"] else "FAIL"
            print(f"{status}  {chk['name']:<48} residual={chk['residual']:<12.6g} "
                  f"tol={chk['tolerance']:.6g}")
        if "params" in report:
            print("params:")
            for key, val in report["params"].items():
                print(f"  {key} = {val}")
        if "paper_comparisons" in report:
            print("paper comparisons:")
            print(json.dumps(report["paper_comparisons"], indent=2, sort_keys=True))


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


def cmd_verify(args) -> int:
    from .suites import SUITE_NAMES, run_suite

    if args.tol is not None and not 0 < args.tol < math.inf:
        print("error: --tol must be a finite positive number", file=sys.stderr)
        return EXIT_USAGE
    if args.suite not in ("all", *SUITE_NAMES):
        print(f"error: unknown suite {args.suite!r}; expected all or one of "
              f"{', '.join(SUITE_NAMES)}", file=sys.stderr)
        return EXIT_USAGE
    checks, comparisons = run_suite(args.suite, args.tol)
    report = {
        "command": "verify",
        "suite": args.suite,
        "checks": [
            {"name": c.name, "pass": c.passed, "residual": c.residual,
             "tolerance": c.tolerance}
            for c in checks
        ],
    }
    if comparisons:
        report["paper_comparisons"] = comparisons
    _emit(report, args.format)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILURE


def cmd_flavor(args) -> int:
    try:
        with open(args.masses, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read mass file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    group = args.group
    try:
        bounds = flavor.QuarkMassBounds.from_json(raw)
        masses = bounds.centrals(group)
        zeta = flavor.equal_mass_params(masses, group)
        intervals = flavor.param_intervals(bounds, group) if args.intervals else None
    except flavor.MassInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, flavor.MassFormatError) else EXIT_DOMAIN

    iso_matrix = flavor.iso_mass_operator(zeta, masses)
    det_residual = zeta.det_residual()
    params = {name: val for name, val in zip(flavor.PARAM_NAMES[group], zeta.params)}
    params["iso_mass"] = flavor.common_iso_mass(masses, group)
    params["iso_mass_matrix"] = [[v.real for v in row] for row in iso_matrix]

    report = {
        "command": "flavor",
        "group": group,
        "params": params,
        "checks": [
            {"name": "det_zeta_equals_one", "pass": bool(det_residual <= 1e-12),
             "residual": float(det_residual), "tolerance": 1e-12},
        ],
    }
    if intervals is not None:
        report["paper_comparisons"] = {"parameter_intervals": flavor.interval_report(intervals)}
    _emit(report, args.format)
    return EXIT_OK if all(c["pass"] for c in report["checks"]) else EXIT_CHECK_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_flavor(args)
    except (AlgebraError, ValueError) as exc:
        # a domain failure the command did not map itself: one line, no traceback
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
