"""The lint CLI over the shipped fixtures: text, JSON, exit codes."""

import json
from pathlib import Path

import pytest

from repro.tools.lint import gather_paths, main

BROKEN = Path(__file__).parent / "fixtures" / "broken"
EXAMPLES = Path(__file__).parents[2] / "examples" / "descriptors"

#: Every defect deliberately seeded in the broken fixture set.
SEEDED_ERROR_CODES = {
    "IDL001", "IDL003", "IDL004", "IDL008", "IDL009", "IDL011",
    "CMP001", "CMP002", "CMP003",
    "ASM001", "ASM005", "ASM006", "ASM007", "ASM008",
    "SCH001",
}
SEEDED_WARNING_CODES = {"CMP004", "ASM010"}


class TestBrokenFixture:
    def test_text_report_contains_every_seeded_code(self, capsys):
        exit_code = main([str(BROKEN)])
        out = capsys.readouterr().out
        for code in SEEDED_ERROR_CODES | SEEDED_WARNING_CODES:
            assert code in out, f"{code} missing from report"
        assert exit_code == 2

    def test_json_report_is_parseable_and_complete(self, capsys):
        exit_code = main([str(BROKEN), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        reported = {f["code"] for f in data["findings"]}
        assert SEEDED_ERROR_CODES <= reported
        assert SEEDED_WARNING_CODES <= reported
        assert data["max_severity"] == 2
        assert data["counts"]["errors"] >= len(SEEDED_ERROR_CODES)
        assert exit_code == 2

    def test_findings_carry_locations(self, capsys):
        main([str(BROKEN), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        by_code = {f["code"]: f for f in data["findings"]}
        assert "broken.idl" in by_code["IDL011"]["location"]
        assert "app.assembly.xml" in by_code["ASM007"]["location"]


class TestCleanFixture:
    def test_examples_have_zero_findings(self, capsys):
        exit_code = main([str(EXAMPLES)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "no findings" in out

    def test_examples_json_is_empty(self, capsys):
        exit_code = main([str(EXAMPLES), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert data["findings"] == []
        assert data["counts"]["total"] == 0


class TestCliMechanics:
    def test_gather_paths_expands_directories(self):
        files = gather_paths([str(BROKEN)])
        suffixes = {f.suffix for f in files}
        assert suffixes == {".idl", ".xml"}

    def test_single_file_lint(self, capsys):
        exit_code = main([str(BROKEN / "broken.idl")])
        out = capsys.readouterr().out
        assert exit_code == 2
        assert "IDL011" in out

    def test_attribute_accessor_clash_exits_two(self, tmp_path, capsys):
        (tmp_path / "clash.idl").write_text(
            "interface I { attribute long x; long _get_x(); };")
        exit_code = main([str(tmp_path)])
        assert exit_code == 2
        assert "IDL002" in capsys.readouterr().out

    def test_nothing_to_lint_fails(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2

    def test_warning_only_input_exits_one(self, tmp_path, capsys):
        # a lone componenttype (no softpkg, no ports) only warns
        (tmp_path / "solo.componenttype.xml").write_text(
            '<componenttype name="Solo" lifecycle="session">'
            '<qos cpu="1.0" memory="1.0" bandwidth="0.0" />'
            "</componenttype>")
        exit_code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "LNT004" in out

    def test_unknown_root_tag(self, tmp_path, capsys):
        (tmp_path / "odd.xml").write_text("<wibble/>")
        exit_code = main([str(tmp_path)])
        assert exit_code == 2
        assert "LNT002" in capsys.readouterr().out

    def test_malformed_xml(self, tmp_path, capsys):
        (tmp_path / "bad.xml").write_text("<assembly name='x'")
        exit_code = main([str(tmp_path)])
        assert exit_code == 2
        assert "SCH001" in capsys.readouterr().out
