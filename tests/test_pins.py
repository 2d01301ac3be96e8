"""The golden files are the pins, and a moved pin names its lines."""

import hashlib

import pytest

from pins import GOLDEN, PINNED, REFERENCE, assert_pinned, golden_path


def test_golden_directory_holds_exactly_the_pinned_reports():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        golden_path(*pin).name for pin in PINNED)


def test_verify_json_golden_file_hashes_to_the_benchmark_reference():
    data = golden_path("verify", "all", "json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == REFERENCE["verify_stdout_sha256"]


def test_a_moved_line_is_named_with_its_neighbours():
    lines = golden_path("verify", "all", "csv").read_text().splitlines(keepends=True)
    moved = next(i for i, line in enumerate(lines) if line.startswith("isotopy."))
    name, *fields = lines[moved].split(",")
    lines[moved] = ",".join([name, "false", "1e-09", *fields[2:]])
    with pytest.raises(AssertionError) as raised:
        assert_pinned("verify", "all", "csv", "".join(lines))
    message = str(raised.value)
    assert f"\n-{name},true," in message and f"\n+{name},false,1e-09," in message
    assert lines[moved - 1].rstrip("\n") in message  # two lines of context


def test_a_long_diff_is_cut_to_sixty_lines_and_a_count():
    report = golden_path("verify", "all", "text").read_text().replace("PASS  ", "pass  ")
    with pytest.raises(AssertionError) as raised:
        assert_pinned("verify", "all", "text", report)
    *shown, last = str(raised.value).splitlines()[1:]
    assert len(shown) == 60 and last.startswith("... and ") and last.endswith(" more diff lines")


def test_a_report_that_differs_only_in_its_final_newline_says_so():
    report = golden_path("flavor", "su3", "csv").read_text().rstrip("\n")
    with pytest.raises(AssertionError, match="final newline"):
        assert_pinned("flavor", "su3", "csv", report)
