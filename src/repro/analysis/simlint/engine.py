"""simlint driver: parse sources, run rule passes, apply suppressions.

A :class:`SourceFile` is one parsed module plus its per-line inline
suppressions; :func:`lint_sources` runs every rule pass over a batch of
them into one :class:`~repro.analysis.findings.Diagnostics`, honouring
``# simlint: disable=CODE[,CODE...]`` comments on the offending line.
:func:`lint_paths` is the filesystem front end the CLI and the
self-check test share.

Rule passes live in sibling modules and register themselves in
:data:`RULES`; each is a callable ``(source, config, diag) -> None``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.analysis.findings import Diagnostics
from repro.util.diagnostics import Severity

#: ``# simlint: disable=SIM001,SIM030`` (or ``disable=all``).
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass
class SimlintConfig:
    """Which modules the scoped rules apply to, by path suffix.

    Paths are matched against the *posix* form of the file's path, so
    entries like ``"grid/volunteer.py"`` work for any scan root.  What
    else the rules treat as special is fixed: each rule module holds
    it as a constant.
    """

    #: modules whose hand-started perpetual loops are held to the
    #: SIM012/SIM013 control-loop rules.  Host-bound loops need no
    #: listing: the body of a ``HostLoop(...)`` is found in the code.
    control_loop_modules: tuple[str, ...] = (
        "events/batch_writer.py",
        "grid/volunteer.py",
    )
    #: modules holding chaos-style fault installers (SIM020).
    action_modules: tuple[str, ...] = ("chaos/actions.py",)

    def is_control_loop_module(self, source: "SourceFile") -> bool:
        return source.matches(self.control_loop_modules)

    def is_action_module(self, source: "SourceFile") -> bool:
        return source.matches(self.action_modules)


@dataclass
class SourceFile:
    """One module under analysis: path, text, AST, suppressions."""

    path: str                       # as reported in finding locations
    text: str
    tree: ast.Module = field(repr=False, default=None)
    #: line number -> set of suppressed codes ({"all"} suppresses any).
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        tree = ast.parse(text, filename=path)
        suppressions: dict[int, set[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                codes = {c.strip().upper() if c.strip().lower() != "all"
                         else "all"
                         for c in match.group(1).split(",") if c.strip()}
                suppressions[lineno] = codes
        return cls(path=path, text=text, tree=tree,
                   suppressions=suppressions)

    def matches(self, suffixes: Iterable[str]) -> bool:
        posix = Path(self.path).as_posix()
        return any(posix.endswith(suffix) for suffix in suffixes)

    def suppressed(self, code: str, lineno: int) -> bool:
        codes = self.suppressions.get(lineno)
        return bool(codes) and (code in codes or "all" in codes)

    def location(self, node: ast.AST) -> str:
        return f"{self.path}:{getattr(node, 'lineno', 0)}"


class _Sink:
    """Per-file diagnostics shim that applies inline suppressions."""

    def __init__(self, source: SourceFile, diag: Diagnostics) -> None:
        self.source = source
        self.diag = diag
        self.suppressed_count = 0

    def emit(self, code: str, severity: Severity, node: ast.AST,
             message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if self.source.suppressed(code, lineno):
            self.suppressed_count += 1
            return
        self.diag.emit(code, severity, self.source.location(node), message)

    def error(self, code: str, node: ast.AST, message: str) -> None:
        self.emit(code, Severity.ERROR, node, message)

    def warning(self, code: str, node: ast.AST, message: str) -> None:
        self.emit(code, Severity.WARNING, node, message)

    def info(self, code: str, node: ast.AST, message: str) -> None:
        self.emit(code, Severity.INFO, node, message)


#: registered rule passes, run in order over every source file.
RULES: list[Callable[[SourceFile, SimlintConfig, _Sink], None]] = []

#: code -> one-line description, for ``--rules`` output and the docs.
RULE_DOCS: dict[str, str] = {}


def rule(func=None, *, docs: Optional[dict[str, str]] = None):
    """Register a rule pass (optionally documenting its codes)."""
    def wrap(f):
        RULES.append(f)
        if docs:
            RULE_DOCS.update(docs)
        return f
    return wrap(func) if func is not None else wrap


def lint_sources(sources: Iterable[SourceFile],
                 config: Optional[SimlintConfig] = None,
                 diag: Optional[Diagnostics] = None) -> Diagnostics:
    """Run every rule pass over already-parsed *sources*."""
    config = config or SimlintConfig()
    diag = diag if diag is not None else Diagnostics()
    # Import the rule modules for their registration side effect
    # (deferred so SourceFile/SimlintConfig can be imported from here
    # without a cycle).
    from repro.analysis.simlint import (  # noqa: F401
        determinism, effects, hygiene, loops,
    )
    for source in sources:
        sink = _Sink(source, diag)
        for pass_ in RULES:
            pass_(source, config, sink)
    return diag


def gather_sources(paths: Iterable[str], diag: Diagnostics,
                   root: Optional[str] = None) -> list[SourceFile]:
    """Expand files/directories into parsed sources.

    Locations are reported relative to *root* (default: the common
    parent the caller passed), so baselines survive checkouts living
    at different absolute paths.
    """
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        else:
            files.add(path)
    sources = []
    root_path = Path(root) if root else None
    for path in sorted(files):
        label = path.as_posix()
        if root_path is not None:
            try:
                label = path.relative_to(root_path).as_posix()
            except ValueError:
                pass
        try:
            text = path.read_text()
        except OSError as exc:
            diag.error("SIM000", str(path), f"cannot read: {exc}")
            continue
        try:
            sources.append(SourceFile.parse(label, text))
        except SyntaxError as exc:
            diag.error("SIM000", f"{label}:{exc.lineno or 0}",
                       f"cannot parse: {exc.msg}")
    return sources


def lint_paths(paths: Iterable[str],
               config: Optional[SimlintConfig] = None,
               root: Optional[str] = None) -> Diagnostics:
    """Lint files/directories; the programmatic equivalent of the CLI."""
    diag = Diagnostics()
    sources = gather_sources(paths, diag, root=root)
    return lint_sources(sources, config=config, diag=diag)
