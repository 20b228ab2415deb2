"""Typed findings, and the diagnostics engine every checker writes into.

A :class:`Finding` is one diagnostic a checker produced: a stable code
(``IDL005``, ``ASM007``...), a severity, a location string pointing at
the offending source ("demo.idl:12", "/softpkg/license",
"assembly app, connection i0.peer -> i1.value"), and a human message.
A :class:`Diagnostics` instance collects findings across many checks
and sources, answers severity queries, and renders text/JSON reports.
The checkers never raise on a bad document — they emit findings and
keep going, so one lint run reports *everything* wrong with an
application at once.

This lives in :mod:`repro.util` (not :mod:`repro.analysis`) so that
low-level modules — the XML schema validator, descriptor parsing, the
IDL checker the compiler runs first — can report structured violations
without importing the analysis package that itself builds on them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


class Severity(enum.IntEnum):
    """Finding severities; the numeric value is the lint exit code."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # 'error', not 'Severity.ERROR'
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a static check."""

    code: str
    severity: Severity
    location: str
    message: str

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
        }

    def render(self) -> str:
        where = f"{self.location}: " if self.location else ""
        return f"{str(self.severity):7s} {self.code} {where}{self.message}"


def max_severity(findings) -> int:
    """Highest severity in *findings* as an int (0 when empty)."""
    return max((int(f.severity) for f in findings), default=0)


class Diagnostics:
    """Accumulates findings; shared by every checker in one run."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    # -- emission -----------------------------------------------------------
    def emit(self, code: str, severity: Severity, location: str,
             message: str) -> Finding:
        finding = Finding(code=code, severity=severity, location=location,
                          message=message)
        self.findings.append(finding)
        return finding

    def error(self, code: str, location: str, message: str) -> Finding:
        return self.emit(code, Severity.ERROR, location, message)

    def warning(self, code: str, location: str, message: str) -> Finding:
        return self.emit(code, Severity.WARNING, location, message)

    def info(self, code: str, location: str, message: str) -> Finding:
        return self.emit(code, Severity.INFO, location, message)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    # -- queries ------------------------------------------------------------
    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]

    def has_errors(self) -> bool:
        return any(f.severity == Severity.ERROR for f in self.findings)

    def max_severity(self) -> int:
        """Highest severity seen, as the lint exit code (0 when clean)."""
        return max_severity(self.findings)

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def by_code(self, code: str) -> list[Finding]:
        return [f for f in self.findings if f.code == code]

    def sorted(self) -> list[Finding]:
        """Severity-descending, then by location/code — a stable report order."""
        return sorted(self.findings,
                      key=lambda f: (-int(f.severity), f.location, f.code,
                                     f.message))

    # -- rendering ----------------------------------------------------------
    def render_text(self) -> str:
        if not self.findings:
            return "no findings\n"
        lines = [f.render() for f in self.sorted()]
        lines.append(f"{len(self.findings)} finding(s): "
                     f"{len(self.errors)} error(s), "
                     f"{len(self.warnings)} warning(s)")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.sorted()],
            "counts": {
                "total": len(self.findings),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
            },
            "max_severity": self.max_severity(),
        }

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def __repr__(self) -> str:
        return (f"<Diagnostics {len(self.findings)} findings, "
                f"{len(self.errors)} errors>")
