"""Source-level lint CLI: ``python -m repro.tools.simlint PATH...``.

Runs the :mod:`repro.analysis.simlint` rule families (determinism,
control-loop safety, paired effects, metric/span name hygiene) over
python sources and reports typed findings::

    python -m repro.tools.simlint src/repro
    python -m repro.tools.simlint src/repro --format json
    python -m repro.tools.simlint --rules

An inline ``# simlint: disable=SIM003`` comment silences a single line;
there is no other escape.

Exit status is the maximum severity at or above ``--fail-on``
(default ``warning``): 0 clean, 1 warnings, 2 errors — the same
contract as ``repro.tools.lint``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.simlint import RULE_DOCS, SimlintConfig, lint_paths
from repro.util.diagnostics import Severity

_THRESHOLDS = {"info": Severity.INFO, "warning": Severity.WARNING,
               "error": Severity.ERROR}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.simlint",
        description="Determinism / control-loop / paired-effect / "
                    "name-hygiene lint over python sources.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories of *.py sources")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--fail-on",
                        choices=tuple(_THRESHOLDS), default="warning",
                        help="lowest severity that affects the exit "
                             "code (default: warning)")
    parser.add_argument("--rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.rules:
        # RULE_DOCS fills as rule modules register; force that.
        lint_paths(())
        for code in sorted(RULE_DOCS):
            print(f"{code}  {RULE_DOCS[code]}")
        return 0
    if not args.paths:
        parser.error("no paths given (or use --rules)")

    diag = lint_paths(args.paths, config=SimlintConfig(),
                      root=Path.cwd())

    if args.format == "json":
        print(json.dumps(diag.as_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(diag.render_text())

    threshold = _THRESHOLDS[args.fail_on]
    gated = [f for f in diag if f.severity >= threshold]
    return max((int(f.severity) for f in gated), default=0)


if __name__ == "__main__":
    sys.exit(main())
