"""The diagnostics engine and the Finding value type."""

import json

from repro.util.diagnostics import Diagnostics, Finding, Severity


class TestSeverity:
    def test_ordering_matches_exit_codes(self):
        assert int(Severity.INFO) == 0
        assert int(Severity.WARNING) == 1
        assert int(Severity.ERROR) == 2

    def test_renders_lowercase(self):
        assert str(Severity.ERROR) == "error"


class TestFinding:
    def test_as_dict_is_json_ready(self):
        finding = Finding(code="IDL001", severity=Severity.ERROR,
                          location="a.idl:3", message="undefined name 'X'")
        blob = json.dumps(finding.as_dict())
        assert json.loads(blob)["severity"] == "error"
        assert json.loads(blob)["location"] == "a.idl:3"

    def test_render_includes_code_and_location(self):
        finding = Finding(code="ASM004", severity=Severity.WARNING,
                          location="app", message="boom")
        text = finding.render()
        assert "ASM004" in text and "app" in text and "warning" in text


class TestDiagnostics:
    def test_severity_buckets(self):
        diag = Diagnostics()
        diag.info("A001", "x", "note")
        diag.warning("A002", "x", "hmm")
        diag.error("A003", "x", "bad")
        assert len(diag) == 3
        assert [f.code for f in diag.errors] == ["A003"]
        assert [f.code for f in diag.warnings] == ["A002"]
        assert diag.has_errors()
        assert diag.max_severity() == 2

    def test_empty_engine_is_clean(self):
        diag = Diagnostics()
        assert not diag.has_errors()
        assert diag.max_severity() == 0
        assert diag.render_text() == "no findings\n"

    def test_sorted_puts_errors_first(self):
        diag = Diagnostics()
        diag.info("Z001", "a", "info")
        diag.error("A001", "b", "error")
        assert diag.sorted()[0].code == "A001"

    def test_render_text_counts_line(self):
        diag = Diagnostics()
        diag.error("A001", "f", "x")
        diag.warning("B001", "f", "y")
        text = diag.render_text()
        assert "2 finding(s): 1 error(s), 1 warning(s)" in text

    def test_as_dict_counts(self):
        diag = Diagnostics()
        diag.error("A001", "f", "x")
        data = diag.as_dict()
        assert data["counts"] == {"total": 1, "errors": 1, "warnings": 0}
        assert data["max_severity"] == 2

    def test_by_code_and_codes(self):
        diag = Diagnostics()
        diag.error("A001", "f", "x")
        diag.error("A001", "g", "y")
        diag.warning("B001", "f", "z")
        assert diag.codes() == {"A001", "B001"}
        assert len(diag.by_code("A001")) == 2
