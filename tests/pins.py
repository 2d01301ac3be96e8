"""The report pins, read in one place.

A pin is a golden file: ``tests/golden/<command>-<group>.<format>`` holds,
byte for byte, the stdout of ``verify --suite all`` (group ``all``) and
of ``flavor --intervals`` on ``data/quark_masses.json`` (groups su3 and
su6), each in formats json, csv and text.  ``perfbench/reference.json``
holds the argv of ``verify --suite all --format json`` and the SHA-256
of its report, which the benchmark reads; ``verify-all.json`` hashes to
it.  A test takes its argv from here and hands the report it got to
:func:`assert_pinned`, which names the lines that moved.

A deliberate re-pin regenerates the golden files from the argv here, from
the repository root::

    for fmt in json csv text; do
      PYTHONPATH=src python -m isoclifford verify --suite all --format $fmt \\
        > tests/golden/verify-all.$fmt
      for group in su3 su6; do
        PYTHONPATH=src python -m isoclifford flavor --masses data/quark_masses.json \\
          --intervals --group $group --format $fmt > tests/golden/flavor-$group.$fmt
      done
    done

and updates ``verify_stdout_sha256`` to the SHA-256 of ``verify-all.json``.
"""

import difflib
import json
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((_REPO / "perfbench" / "reference.json").read_text())
GOLDEN = _REPO / "tests" / "golden"
# the mass path is relative to the repository root
FLAVOR_ARGV = ["flavor", "--masses", "data/quark_masses.json", "--intervals"]
FORMATS = ("json", "csv", "text")
FLAVOR_CASES = [(group, fmt) for group in ("su3", "su6") for fmt in FORMATS]
PINNED = [("verify", "all", fmt) for fmt in FORMATS] + [
    ("flavor", group, fmt) for group, fmt in FLAVOR_CASES]
# lines of a mismatch's diff shown before the count of the rest
_DIFF_LINES = 60


def golden_path(command: str, group: str, fmt: str) -> Path:
    return GOLDEN / f"{command}-{group}.{fmt}"


def verify_argv(fmt: str = "json") -> list[str]:
    """``verify --suite all --format <fmt>``: the reference argv in ``fmt``."""
    *head, flag, _ = REFERENCE["verify_argv"]
    return [*head, flag, fmt]


def flavor_argv(group: str, fmt: str | None = None) -> list[str]:
    """The pinned ``flavor`` argv for ``group``, in ``fmt`` if one is given."""
    return [*FLAVOR_ARGV, "--group", group, *(["--format", fmt] if fmt else [])]


def assert_pinned(command: str, group: str, fmt: str, report: str) -> None:
    """``report``, the stdout of ``command`` (``verify`` with group
    ``all``, or ``flavor``) for ``group`` in ``fmt``, is its golden file
    byte for byte; if not, the error carries their unified diff, cut to
    ``_DIFF_LINES`` lines and a count of the rest."""
    path = golden_path(command, group, fmt)
    want = path.read_bytes()
    if report.encode() == want:
        return
    diff = list(difflib.unified_diff(want.decode().splitlines(), report.splitlines(),
                                     str(path.relative_to(_REPO)), "report", n=2, lineterm=""))
    rest = len(diff) - _DIFF_LINES
    shown = diff[:_DIFF_LINES] + ([f"... and {rest} more diff lines"] if rest > 0 else [])
    if not diff:
        shown = ["(every line equal: line endings or the final newline differ)"]
    raise AssertionError(f"{command} {group} --format {fmt} moved from its pin:\n"
                         + "\n".join(shown))
