"""The tree is clean, and the CLI front end holds the gate."""

import json
import re
from collections import Counter
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

    def test_only_roadmap_24_second_slice_is_suppressed(self):
        # The registries' own liveness unions and the MRM replacement picker
        # still read the truth; each waits on its own change.
        sites = Counter()
        for path in sorted(SRC.rglob("*.py")):
            for line in path.read_text().splitlines():
                if re.search(r"\S\s+# simlint: disable=", line):
                    assert "disable=SIM040 -- ROADMAP 24" in line, line
                    sites[path.relative_to(SRC).as_posix()] += 1
        assert sites == {"registry/federation/orchestrator.py": 3,
                         "registry/groups.py": 1,
                         "registry/replication.py": 1}


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
