"""Every module and every public symbol under ``src/repro`` is part of
the running system.

*Modules.*  A module is reached when some *other* file in ``src/``,
``benchmarks/`` or ``examples/`` imports it, or when the ``Makefile``
runs it as ``python -m repro.…``.  Importing ``repro.a.b`` also runs
the package ``repro.a``, so a package is reached through any of its
modules.  A module only tests import is an oracle, not the system: it
lives under ``tests/oracles/``.

*Symbols.*  A public top-level function or class, or a public method of
a public top-level class, is reached when a *live* reference names it:

- a reference is a ``Name``, an ``Attribute``, an imported name, or a
  word of a string literal that is not a docstring (IDL text and
  ``getattr`` names, so a servant method whose IDL declares the
  operation is reached);
- a reference in ``benchmarks/`` or ``examples/``, or at module level
  in ``src/``, is live; one inside a symbol's body is live only once
  that symbol (and, for a method, its class) is reached -- a fixed
  point, so a name used only inside unreached code is unreached;
- a reference in the symbol's own body does not reach it;
- a package ``__init__``'s imports and any ``__all__`` are not
  references, so a re-export does not keep a symbol alive;
- a registering decorator (``@rule``) reaches what it decorates.

Each entry of ``ALLOWED`` names its reason: a test hook on module-global
state, or the paper section and the experiment it reproduces.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "examples")
REGISTERING = {"rule"}
WORD = re.compile(r"[A-Za-z_]\w*")

_HOOK = "test hook on module-global state: "

ALLOWED = {
    "repro.orb.codegen:reset_stats":
        _HOOK + "zeroes the codec counters stats_snapshot() reads",
    "repro.orb.compiled:cache_size":
        _HOOK + "reads the size of the bounded plan cache",
}


def src_modules() -> dict:
    """Dotted module name -> path, for every module under src/repro."""
    modules = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        modules[".".join(parts).removesuffix(".__init__")] = path
    return modules


def imported_names(node) -> set:
    """Every dotted name an import statement may load: the module, each
    of its parent packages, and each name of a ``from`` import (which
    may be a submodule)."""
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    elif node.module:
        targets = [node.module] + [f"{node.module}.{alias.name}"
                                   for alias in node.names]
    else:
        targets = []
    names = set()
    for target in targets:
        parts = target.split(".")
        names.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return names


def makefile_modules() -> set:
    """Modules the Makefile runs with ``python -m``."""
    text = (ROOT / "Makefile").read_text()
    return set(re.findall(r"-m (repro(?:\.\w+)+)", text))


class FileScan:
    """One AST walk of one file: its imports, its public symbols and
    every reference it makes, each with the chain of symbols it sits
    in (outermost first; empty at module level)."""

    def __init__(self, path: Path, module: str | None,
                 source: str | None = None):
        self.module = module
        self.imports = set()
        self.symbols = {}      # qualname -> (name, enclosing class or None)
        self.registered = set()
        self.refs = []         # (word, chain)
        self._init = path.name == "__init__.py"
        tree = ast.parse(path.read_text() if source is None else source,
                         filename=str(path))
        self._walk(tree, (), "module")

    def _track(self, node, chain, level):
        """The qualname *node* defines as a symbol, or None."""
        if self.module is None or node.name.startswith("_"):
            return None
        if level == "module":
            return node.name
        if level == "class" and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"{chain[-1]}.{node.name}"
        return None

    def _walk(self, node, chain, level):
        docstring = _docstring(node)
        for child in ast.iter_child_nodes(node):
            if child is docstring:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = self._track(child, chain, level)
                inner = chain
                if qual is not None:
                    self.symbols[qual] = (
                        child.name, chain[-1] if level == "class" else None)
                    inner = chain + (qual,)
                    if any(_callee(d) in REGISTERING
                           for d in child.decorator_list):
                        self.registered.add(qual)
                tracked_class = qual is not None and \
                    isinstance(child, ast.ClassDef)
                self._walk(child, inner, "class" if tracked_class else "body")
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                self.imports |= imported_names(child)
                if not self._init:
                    self.refs.extend((word, chain) for alias in child.names
                                     for word in alias.name.split("."))
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
                    and "__all__" in {getattr(t, "id", None)
                                      for t in _targets(child)}:
                continue
            if isinstance(child, ast.Name):
                self.refs.append((child.id, chain))
            elif isinstance(child, ast.Attribute):
                self.refs.append((child.attr, chain))
            elif isinstance(child, ast.Constant) and \
                    isinstance(child.value, str):
                self.refs.extend((word, chain)
                                 for word in WORD.findall(child.value))
            self._walk(child, chain, "body" if level != "module" else level)


def _docstring(node):
    """The docstring statement of a module, class or function body."""
    body = getattr(node, "body", None)
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                         ast.AsyncFunctionDef)) and body \
            and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        return body[0]
    return None


def _callee(decorator) -> str:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", ""))


def _targets(node):
    return node.targets if isinstance(node, ast.Assign) else [node.target]


@functools.cache
def scan_tree() -> tuple:
    """One FileScan per Python file in src/, benchmarks/ and examples/,
    shared by the module and the symbol check."""
    own = {path: name for name, path in src_modules().items()}
    return tuple(FileScan(path, own.get(path))
                 for directory in CALLER_DIRS
                 for path in sorted((ROOT / directory).rglob("*.py")))


def reached_modules(scans) -> set:
    reached = makefile_modules()
    for scan in scans:
        reached |= scan.imports - {scan.module}
    return reached


def reached_symbols(scans) -> set:
    """The least fixed point: ``"module:qualname"`` of every symbol a
    live reference names."""
    by_name = defaultdict(list)      # word -> [(scan, qualname)]
    owned = defaultdict(list)        # (scan, qualname) -> [reference]
    live = []                        # [(word, scan, chain)]
    for scan in scans:
        for qual, (name, _cls) in scan.symbols.items():
            by_name[name].append((scan, qual))
        for word, chain in scan.refs:
            if chain:
                owned[id(scan), chain[-1]].append((word, scan, chain))
            else:
                live.append((word, scan, chain))
    named = set()       # some live reference names it
    reached = set()     # named, and for a method its class reached too

    def name(scan, qual):
        if (id(scan), qual) in named:
            return
        named.add((id(scan), qual))
        cls = scan.symbols[qual][1]
        if cls is None or (id(scan), cls) in reached:
            reach(scan, qual)

    def reach(scan, qual):
        reached.add((id(scan), qual))
        live.extend(owned.pop((id(scan), qual), ()))
        for method, (_name, cls) in scan.symbols.items():
            if cls == qual and (id(scan), method) in named:
                reach(scan, method)

    for scan in scans:
        for qual in scan.registered:
            name(scan, qual)
    while live:
        word, scan, chain = live.pop()
        for target, qual in by_name.get(word, ()):
            if target is not scan or qual not in chain:
                name(target, qual)
    return {f"{scan.module}:{qual}" for scan in scans
            for qual in scan.symbols if (id(scan), qual) in reached}


def unreached_symbols(scans) -> list:
    """Every unreached symbol, a method only when its class is reached
    (an unreached class takes its methods with it)."""
    reached = reached_symbols(scans)
    out = []
    for scan in scans:
        for qual, (_name, cls) in scan.symbols.items():
            key = f"{scan.module}:{qual}"
            if key not in reached and (
                    cls is None or f"{scan.module}:{cls}" in reached):
                out.append(key)
    return sorted(out)


def test_every_src_module_is_reached():
    unreached = sorted(set(src_modules()) - reached_modules(scan_tree()))
    assert not unreached, (
        "modules under src/repro that no other file in src/, "
        "benchmarks/ or examples/ imports and the Makefile does not "
        "run -- delete them, or move a test-only oracle under "
        "tests/oracles/:\n  " + "\n  ".join(unreached))


def test_every_src_symbol_is_reached():
    unreached = [key for key in unreached_symbols(scan_tree())
                 if key not in ALLOWED]
    assert not unreached, (
        "public symbols under src/repro that nothing in src/, "
        "benchmarks/ or examples/ references -- delete them, move a "
        "test-only fixture under tests/, or allowlist one with its "
        "reason:\n  " + "\n  ".join(unreached))


def test_allowlist_entries_are_unreached_and_reasoned():
    unreached = set(unreached_symbols(scan_tree()))
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"allowed but gone or now reached: {stale}"
    for key, reason in ALLOWED.items():
        assert reason.startswith(_HOOK) or re.search(
            r"§[\d.]+.*\b[EC]\d+\b", reason), (key, reason)


def _scan(tmp_path, module: str, source: str, filename: str = "m.py"):
    path = tmp_path / filename
    return FileScan(path, module, source=source)


def test_the_rules_on_a_small_tree(tmp_path):
    """Each rule of the module docstring, on a three-file tree."""
    lib = _scan(tmp_path, "pkg.lib", (
        '"""Docstring naming docstring_only."""\n'
        "def used(): pass\n"
        "def docstring_only(): pass\n"
        "def recursive(): return recursive()\n"
        "def only_from_dead(): pass\n"
        "def dead(): return only_from_dead()\n"
        "def by_string(): pass\n"
        "IDL = 'interface I { void by_string(); };'\n"
        "@rule\n"
        "def registered(): pass\n"
        "class Kept:\n"
        "    def called(self): pass\n"
        "    def uncalled(self): pass\n"
        "class Exported:\n"
        "    def called(self): pass\n"))
    init = _scan(tmp_path, "pkg", (
        "from pkg.lib import Exported, dead\n"
        "__all__ = ['Exported', 'dead']\n"), "__init__.py")
    caller = _scan(tmp_path, None, (
        "from pkg.lib import Kept, used\n"
        "Kept().called()\n"))
    assert unreached_symbols((lib, init, caller)) == [
        "pkg.lib:Exported", "pkg.lib:Kept.uncalled", "pkg.lib:dead",
        "pkg.lib:docstring_only", "pkg.lib:only_from_dead",
        "pkg.lib:recursive"]
