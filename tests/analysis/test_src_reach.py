"""Every module under ``src/repro`` is part of the running system.

A module is reached when some *other* file in ``src/``, ``benchmarks/``
or ``examples/`` imports it, or when the ``Makefile`` runs it as
``python -m repro.…``.  Importing ``repro.a.b`` also runs the package
``repro.a``, so a package is reached through any of its modules.  A
module only tests import is an oracle, not the system: it lives under
``tests/oracles/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "examples")


def src_modules() -> dict:
    """Dotted module name -> path, for every module under src/repro."""
    modules = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        modules[".".join(parts).removesuffix(".__init__")] = path
    return modules


def imported_names(tree: ast.Module) -> set:
    """Every dotted name an import in *tree* may load: the module, each
    of its parent packages, and each name of a ``from`` import (which
    may be a submodule)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            names.update(".".join(parts[:i])
                         for i in range(1, len(parts) + 1))
    return names


def makefile_modules() -> set:
    """Modules the Makefile runs with ``python -m``."""
    text = (ROOT / "Makefile").read_text()
    return set(re.findall(r"-m (repro(?:\.\w+)+)", text))


def reached_modules() -> set:
    modules = src_modules()
    own = {path: name for name, path in modules.items()}
    reached = makefile_modules()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            reached |= imported_names(tree) - {own.get(path)}
    return reached


def test_every_src_module_is_reached():
    unreached = sorted(set(src_modules()) - reached_modules())
    assert not unreached, (
        "modules under src/repro that no other file in src/, "
        "benchmarks/ or examples/ imports and the Makefile does not "
        "run -- delete them, or move a test-only oracle under "
        "tests/oracles/:\n  " + "\n  ".join(unreached))

