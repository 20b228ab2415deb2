"""Inline suppressions: the one way to silence a simlint finding."""


class TestInlineSuppression:
    def test_disable_silences_the_line(self, lint):
        findings = lint(
            "import random  # simlint: disable=SIM001\n")
        assert findings == []

    def test_disable_all_silences_the_line(self, lint):
        findings = lint(
            "import random  # simlint: disable=all\n")
        assert findings == []

    def test_other_code_does_not_silence(self, lint, codes):
        findings = lint(
            "import random  # simlint: disable=SIM003\n")
        assert codes(findings) == ["SIM001"]

    def test_other_lines_unaffected(self, lint, codes):
        findings = lint(
            "import random  # simlint: disable=SIM001\n"
            "import random\n")
        assert codes(findings) == ["SIM001"]

