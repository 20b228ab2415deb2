"""The tree is clean, and the CLI front end holds the gate."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.simlint import lint_paths
from repro.tools import simlint as cli
from repro.util.diagnostics import Severity

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src" / "repro"


class TestTreeSelfCheck:
    def test_src_repro_is_clean_at_default_severity(self):
        diag = lint_paths([str(SRC)], root=str(REPO_ROOT))
        gated = [f for f in diag if f.severity >= Severity.WARNING]
        assert gated == [], "\n" + diag.render_text()

    def test_nothing_in_src_is_suppressed(self):
        # No control decision reads the simulator's truth any more
        # (ROADMAP 24): not one line of the tree silences a rule.
        sites = [f"{path.relative_to(SRC).as_posix()}:{number}"
                 for path in sorted(SRC.rglob("*.py"))
                 for number, line in enumerate(
                     path.read_text().splitlines(), 1)
                 if re.search(r"\S\s+# simlint: disable=", line)]
        assert sites == []


class TestCli:
    def test_rules_catalog(self, capsys):
        assert cli.main(["--rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM001", "SIM004", "SIM011", "SIM012", "SIM020",
                     "SIM021", "SIM030", "SIM031", "SIM040"):
            assert code in out

    def test_error_exit_code_and_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        status = cli.main([str(bad), "--format", "json"])
        assert status == int(Severity.ERROR)
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["SIM001"]

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("import json\n")
        assert cli.main([str(good)]) == 0

    def test_fail_on_error_ignores_warnings(self, tmp_path, capsys):
        warny = tmp_path / "warny.py"
        warny.write_text(
            "def walk():\n"
            "    for x in {1, 2}:\n"
            "        print(x)\n")
        assert cli.main([str(warny)]) == int(Severity.WARNING)
        capsys.readouterr()
        assert cli.main([str(warny), "--fail-on", "error"]) == 0

    def test_inline_disable_is_the_only_escape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        with pytest.raises(SystemExit):
            cli.main([str(bad), "--baseline", str(tmp_path / "b.json")])
        bad.write_text("import random  # simlint: disable=SIM001\n")
        capsys.readouterr()
        assert cli.main([str(bad)]) == 0

    def test_unparsable_file_reported(self, tmp_path, capsys):
        mangled = tmp_path / "mangled.py"
        mangled.write_text("def broken(:\n")
        status = cli.main([str(mangled)])
        assert status == int(Severity.ERROR)
        assert "SIM000" in capsys.readouterr().out
