"""The report pins, read in one place.

``perfbench/reference.json`` holds the argv of ``verify --suite all
--format json`` and the SHA-256 of its report.  ``tests/pinned_reports.json``
holds the SHA-256 of the csv and text ``verify --suite all`` reports and
of the six ``flavor --intervals`` reports on ``data/quark_masses.json``
(groups su3 and su6, formats json, csv and text), and the flavor argv,
whose mass path is relative to the repository root.  A test takes its
argv from here and hands the report it got to :func:`assert_pinned`.
"""

import hashlib
import json
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_REFERENCE = json.loads((_REPO / "perfbench" / "reference.json").read_text())
_PINNED = json.loads((_REPO / "tests" / "pinned_reports.json").read_text())

_DIGESTS = {
    ("verify", "all", "json"): _REFERENCE["verify_stdout_sha256"],
    **{("verify", "all", fmt): digest
       for fmt, digest in _PINNED["verify_all_stdout_sha256"].items()},
    **{("flavor", group, fmt): digest
       for group, by_format in _PINNED["flavor_stdout_sha256"].items()
       for fmt, digest in by_format.items()},
}
FLAVOR_CASES = [(group, fmt) for command, group, fmt in _DIGESTS if command == "flavor"]


def verify_argv(fmt: str = "json") -> list[str]:
    """``verify --suite all --format <fmt>``: the reference argv in ``fmt``."""
    *head, flag, _ = _REFERENCE["verify_argv"]
    return [*head, flag, fmt]


def flavor_argv(group: str, fmt: str | None = None) -> list[str]:
    """The pinned ``flavor`` argv for ``group``, in ``fmt`` if one is given."""
    return [*_PINNED["flavor_argv"], "--group", group, *(["--format", fmt] if fmt else [])]


def assert_pinned(command: str, group: str, fmt: str, report: str) -> None:
    """``report``, the stdout of ``command`` (``verify`` with group
    ``all``, or ``flavor``) for ``group`` in ``fmt``, hashes to its pin."""
    want = _DIGESTS[command, group, fmt]
    got = hashlib.sha256(report.encode()).hexdigest()
    assert got == want, f"{command} {group} --format {fmt}: sha256 {got}, pinned {want}"
