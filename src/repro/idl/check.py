"""The IDL checker: semantic checks over a parsed IDL specification.

The parser accepts anything grammatical; :func:`check_specification`
resolves every name in the AST and reports, as findings instead of
exceptions, everything that would make the specification meaningless or
ambiguous at run time:

======== ==================================================================
code     meaning
======== ==================================================================
IDL001   undefined name (type/exception reference does not resolve)
IDL002   duplicate declaration in one scope (an attribute ``x`` also
         declares its accessor operations ``_get_x`` and ``_set_x``)
IDL003   identifiers colliding case-insensitively with each other or
         with a keyword (illegal in OMG IDL)
IDL004   oneway operation with a non-void result
IDL005   oneway operation with out/inout parameters
IDL006   oneway operation with a raises clause
IDL007   union discriminator type not integer/char/boolean/enum
IDL008   union case label incompatible with the discriminator type
IDL009   duplicate union case label
IDL010   union with multiple default arms
IDL011   struct/union/exception recursion without sequence indirection
IDL012   interface inheritance cycle
IDL013   interface base that is not an interface
IDL014   name used in the wrong role (exception as data type, ...)
======== ==================================================================

It is the compiler's front end: :func:`~repro.idl.codegen.compile_ast`
refuses a specification with any error finding and builds the rest from
the scopes and name resolutions recorded here.  It is also layer 1 of
the static verifier (:mod:`repro.analysis`): checking yields the
specification's interface-inheritance graph (:class:`InterfaceGraph`),
whose :meth:`~InterfaceGraph.is_subtype` oracle the descriptor and
assembly layers use to prove port compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.idl import idlast as ast
from repro.idl.lexer import KEYWORDS
from repro.util.diagnostics import Diagnostics

#: Discriminator base types a union may switch on.
_LEGAL_DISCRIMINATORS = {
    "short", "long", "long long",
    "unsigned short", "unsigned long", "unsigned long long",
    "char", "boolean",
}

#: Keywords by their lower-case spelling: an identifier spelled like one
#: but for case collides with it.  A leading ``_`` never does.
_KEYWORDS_CI = {kw.lower(): kw for kw in KEYWORDS}

#: Entry kinds that may appear where a data type is expected.
_TYPE_KINDS = {"struct", "union", "enum", "typedef", "interface"}


# ---------------------------------------------------------------------------
# Interface graph + subtype oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterfaceInfo:
    """One declared interface: identity plus direct bases (repo ids)."""

    repo_id: str
    name: str
    qualified_name: str
    bases: tuple[str, ...] = ()
    line: int = 0
    source: str = ""


class InterfaceGraph:
    """Inheritance DAG over interface repository ids.

    Built by the IDL checker (and optionally seeded from a live
    :class:`~repro.orb.dii.InterfaceRepository`); powers the
    subtype-compatibility oracle the descriptor/assembly layers use.
    All traversals are cycle-safe so a malformed graph still answers
    queries instead of recursing forever.
    """

    def __init__(self) -> None:
        self._info: dict[str, InterfaceInfo] = {}

    def add(self, info: InterfaceInfo) -> None:
        self._info[info.repo_id] = info

    def add_interface(self, repo_id: str, name: str = "",
                      bases: Iterable[str] = ()) -> None:
        self.add(InterfaceInfo(repo_id=repo_id, name=name or repo_id,
                               qualified_name=name or repo_id,
                               bases=tuple(bases)))

    def merge(self, other: "InterfaceGraph") -> None:
        self._info.update(other._info)

    @classmethod
    def from_ifr(cls, ifr) -> "InterfaceGraph":
        """Seed a graph from a live interface repository's definitions."""
        graph = cls()

        def visit(iface) -> None:
            if iface.repo_id in graph:
                return
            graph.add_interface(iface.repo_id, iface.name,
                                [b.repo_id for b in iface.bases])
            for base in iface.bases:
                visit(base)

        for repo_id in ifr.ids():
            visit(ifr.lookup(repo_id))
        return graph

    # -- queries ------------------------------------------------------------
    def __contains__(self, repo_id: str) -> bool:
        return repo_id in self._info

    def __len__(self) -> int:
        return len(self._info)

    def ids(self) -> list[str]:
        return sorted(self._info)

    def info(self, repo_id: str) -> Optional[InterfaceInfo]:
        return self._info.get(repo_id)

    def ancestors(self, repo_id: str) -> set[str]:
        """All transitive base repo ids of *repo_id* (excluding itself)."""
        seen: set[str] = set()
        stack = list(self._info[repo_id].bases) if repo_id in self else []
        while stack:
            base = stack.pop()
            if base in seen:
                continue
            seen.add(base)
            info = self._info.get(base)
            if info is not None:
                stack.extend(info.bases)
        return seen

    def is_subtype(self, sub_id: str, sup_id: str) -> bool:
        """True iff *sub_id* equals or (transitively) inherits *sup_id*."""
        return sub_id == sup_id or sup_id in self.ancestors(sub_id)

    def cycles(self) -> list[list[str]]:
        """Inheritance cycles, each as the list of repo ids involved."""
        color: dict[str, int] = {}  # 0 in progress, 1 done
        path: list[str] = []
        found: list[list[str]] = []

        def visit(rid: str) -> None:
            color[rid] = 0
            path.append(rid)
            info = self._info.get(rid)
            for base in (info.bases if info else ()):
                if base not in color:
                    visit(base)
                elif color[base] == 0:
                    found.append(path[path.index(base):] + [base])
            path.pop()
            color[rid] = 1

        for rid in sorted(self._info):
            if rid not in color:
                visit(rid)
        return found


# ---------------------------------------------------------------------------
# Scopes and symbol entries
# ---------------------------------------------------------------------------

@dataclass
class _Entry:
    kind: str        # module | interface | struct | union | enum |
                     # typedef | exception | const | enum_label | operation
                     # | attribute | accessor (an attribute's _get_/_set_)
    name: str
    payload: object  # the declaring AST node; an enum label's enum entry
    line: int
    scope: "_Scope"  # scope the entry was declared in
    inner: Optional["_Scope"] = None  # a module's or interface's body


class _Scope:
    def __init__(self, name: str, parent: Optional["_Scope"],
                 checker: "_Checker") -> None:
        self.name = name
        self.parent = parent
        self.checker = checker
        self.entries: dict[str, _Entry] = {}
        self._ci: dict[str, str] = {}  # lowercased -> declared spelling

    def path(self) -> list[str]:
        parts: list[str] = []
        scope: Optional[_Scope] = self
        while scope is not None and scope.name:
            parts.append(scope.name)
            scope = scope.parent
        return list(reversed(parts))

    def qualified(self, name: str) -> str:
        return "::".join(self.path() + [name])

    def repo_id(self, name: str) -> str:
        parts = self.path() + [name]
        if self.checker.spec.prefix:
            parts = [self.checker.spec.prefix] + parts
        return "IDL:" + "/".join(parts) + ":1.0"

    def declare(self, name: str, kind: str, payload: object,
                line: int, inner: Optional["_Scope"] = None) -> _Entry:
        diag = self.checker.diag
        where = self.checker.loc(line)
        self.checker.identifier(name, line)
        entry = _Entry(kind=kind, name=name, payload=payload, line=line,
                       scope=self, inner=inner)
        if name in self.entries:
            first = self.entries[name]
            diag.error("IDL002", where,
                       f"duplicate declaration of {self.qualified(name)!r} "
                       f"(first declared as {first.kind} on line "
                       f"{first.line})")
            return entry  # still checked, but never found by name
        low = name.lower()
        if low in self._ci and self._ci[low] != name:
            diag.error("IDL003", where,
                       f"{self.qualified(name)!r} collides "
                       f"case-insensitively with "
                       f"{self.qualified(self._ci[low])!r}")
        else:
            self._ci[low] = name
        self.entries[name] = entry
        return entry

    def find_local(self, name: str) -> Optional[_Entry]:
        return self.entries.get(name)

    def find(self, name: str) -> Optional[_Entry]:
        scope: Optional[_Scope] = self
        while scope is not None:
            entry = scope.entries.get(name)
            if entry is not None:
                return entry
            scope = scope.parent
        return None

    def lookup(self, parts: tuple[str, ...]) -> Optional[_Entry]:
        """The entry the (possibly scoped) name *parts* denotes here."""
        entry = self.find(parts[0])
        for part in parts[1:]:
            if entry is None or entry.kind != "module":
                return None
            entry = entry.inner.find_local(part)
        return entry


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

@dataclass
class CheckedSpec:
    """Result of checking one specification."""

    spec: ast.Specification
    graph: InterfaceGraph
    interfaces: dict[str, InterfaceInfo] = field(default_factory=dict)
    #: the global scope, and id(NamedType) -> the entry it resolved to:
    #: what the compiler builds from
    root: Optional[_Scope] = None
    resolved: dict[int, _Entry] = field(default_factory=dict)

    @property
    def repo_ids(self) -> set[str]:
        return set(self.interfaces)


class _Checker:
    def __init__(self, spec: ast.Specification, diag: Diagnostics,
                 source: str) -> None:
        self.spec = spec
        self.diag = diag
        self.source = source
        self.root = _Scope("", None, self)
        self.interfaces: dict[str, InterfaceInfo] = {}
        #: id(NamedType) -> the entry it named where it was written
        self.resolved: dict[int, _Entry] = {}
        #: aggregate entries (struct/union/exception) for recursion checks
        self._aggregates: list[_Entry] = []

    def identifier(self, name: str, line: int) -> None:
        """Report a declared *name* spelled like a keyword but for case."""
        keyword = _KEYWORDS_CI.get(name.lower())
        if keyword is not None and keyword != name:
            self.diag.error("IDL003", self.loc(line),
                            f"identifier {name!r} collides "
                            f"case-insensitively with keyword {keyword!r}")

    def loc(self, line: int) -> str:
        return f"{self.source}:{line}" if line else self.source

    # -- resolution -----------------------------------------------------------
    def _resolve(self, scope: _Scope, named: ast.NamedType,
                 line: int) -> Optional[_Entry]:
        """What *named* means at this point of the walk (only names
        declared so far are visible), recorded in ``resolved``."""
        entry = scope.lookup(named.parts)
        if entry is None:
            self.diag.error("IDL001", self.loc(line),
                            f"undefined name {named.text!r}")
            return None
        self.resolved[id(named)] = entry
        return entry

    def _check_type(self, scope: _Scope, texpr, line: int) -> None:
        """Emit findings for any reference in *texpr* that is not a type."""
        if isinstance(texpr, ast.PrimitiveType):
            return
        if isinstance(texpr, ast.SequenceType):
            self._check_type(scope, texpr.element, line)
            return
        if isinstance(texpr, ast.ArrayOf):
            self._check_type(scope, texpr.element, line)
            return
        if isinstance(texpr, ast.NamedType):
            entry = self._resolve(scope, texpr, line)
            if entry is not None and entry.kind not in _TYPE_KINDS:
                self.diag.error(
                    "IDL014", self.loc(line),
                    f"{texpr.text!r} is a(n) {entry.kind}, not a data type")
            return
        self.diag.error("IDL014", self.loc(line),
                        f"unsupported type expression {texpr!r}")

    def _base_of(self, texpr) -> tuple[str, Optional[_Entry]]:
        """Follow an already checked *texpr* through typedef chains to
        its base kind.

        Returns ``('primitive:long', None)`` style pairs:
        kind in {'primitive:<name>', 'enum', 'struct', 'union',
        'interface', 'sequence', 'array', 'exception', 'unknown'}.
        """
        while True:
            if isinstance(texpr, ast.PrimitiveType):
                return f"primitive:{texpr.name}", None
            if isinstance(texpr, ast.SequenceType):
                return "sequence", None
            if isinstance(texpr, ast.ArrayOf):
                return "array", None
            entry = self.resolved.get(id(texpr))
            if entry is None:
                return "unknown", None
            if entry.kind != "typedef":
                return entry.kind, entry
            texpr = entry.payload.type

    # -- walk ------------------------------------------------------------------
    def run(self) -> CheckedSpec:
        for node in self.spec.definitions:
            self._definition(self.root, node)
        self._check_recursion()
        graph = InterfaceGraph()
        for info in self.interfaces.values():
            graph.add(info)
        for cycle in graph.cycles():
            names = " -> ".join(
                (graph.info(rid).qualified_name if graph.info(rid) else rid)
                for rid in cycle)
            self.diag.error("IDL012", self.source,
                            f"interface inheritance cycle: {names}")
        return CheckedSpec(spec=self.spec, graph=graph,
                           interfaces=dict(self.interfaces),
                           root=self.root, resolved=self.resolved)

    def _definition(self, scope: _Scope, node) -> None:
        if isinstance(node, ast.ModuleDecl):
            self._module(scope, node)
        elif isinstance(node, ast.InterfaceDecl):
            self._interface(scope, node)
        elif isinstance(node, (ast.StructDecl, ast.ExceptionDecl)):
            kind = "struct" if isinstance(node, ast.StructDecl) else \
                "exception"
            entry = scope.declare(node.name, kind, node, node.line)
            self._aggregates.append(entry)
            self._members(scope, node.members)
        elif isinstance(node, ast.EnumDecl):
            entry = scope.declare(node.name, "enum", node, node.line)
            for label in node.labels:
                scope.declare(label, "enum_label", entry, node.line)
        elif isinstance(node, ast.UnionDecl):
            self._union(scope, node)
        elif isinstance(node, ast.TypedefDecl):
            self._check_type(scope, node.type, node.line)
            scope.declare(node.name, "typedef", node, node.line)
        elif isinstance(node, ast.ConstDecl):
            self._check_type(scope, node.type, node.line)
            scope.declare(node.name, "const", node, node.line)
        else:
            self.diag.error("IDL014", self.source,
                            f"unsupported declaration {node!r}")

    def _members(self, scope: _Scope, members: list[ast.Member]) -> None:
        seen: dict[str, int] = {}
        for member in members:
            self._check_type(scope, member.type, member.line)
            self.identifier(member.name, member.line)
            if member.name in seen:
                self.diag.error(
                    "IDL002", self.loc(member.line),
                    f"duplicate member {member.name!r} "
                    f"(first on line {seen[member.name]})")
            seen[member.name] = member.line

    def _module(self, scope: _Scope, node: ast.ModuleDecl) -> None:
        existing = scope.find_local(node.name)
        if existing is not None and existing.kind == "module":
            inner = existing.inner  # re-opened module
        else:
            inner = _Scope(node.name, scope, self)
            scope.declare(node.name, "module", node, node.line, inner)
        for item in node.body:
            self._definition(inner, item)

    # -- unions ----------------------------------------------------------------
    def _union(self, scope: _Scope, node: ast.UnionDecl) -> None:
        entry = scope.declare(node.name, "union", node, node.line)
        self._aggregates.append(entry)
        where = self.loc(node.line)
        self._check_type(scope, node.discriminator, node.line)
        base_kind, base_entry = self._base_of(node.discriminator)

        disc = None  # ('int'|'char'|'bool'|'enum', enum labels)
        if base_kind.startswith("primitive:"):
            prim = base_kind.split(":", 1)[1]
            if prim not in _LEGAL_DISCRIMINATORS:
                self.diag.error(
                    "IDL007", where,
                    f"union {scope.qualified(node.name)}: discriminator "
                    f"type {prim!r} is not an integer/char/boolean/enum")
            elif prim == "char":
                disc = ("char", ())
            elif prim == "boolean":
                disc = ("bool", ())
            else:
                disc = ("int", ())
        elif base_kind == "enum":
            disc = ("enum", tuple(base_entry.payload.labels))
        elif base_kind != "unknown":  # unknown already got IDL001
            self.diag.error(
                "IDL007", where,
                f"union {scope.qualified(node.name)}: discriminator must "
                f"be an integer/char/boolean/enum type, not a {base_kind}")

        defaults = 0
        seen_labels: dict[tuple, object] = {}
        for arm in node.arms:
            self._check_type(scope, arm.type, node.line)
            self.identifier(arm.name, node.line)
            for label in arm.labels:
                if label is None:
                    defaults += 1
                    continue
                key = (type(label).__name__, label)
                if key in seen_labels:
                    self.diag.error(
                        "IDL009", where,
                        f"union {scope.qualified(node.name)}: duplicate "
                        f"case label {label!r}")
                seen_labels[key] = arm
                if disc is not None:
                    self._check_label(scope, node, disc, label, where)
        if defaults > 1:
            self.diag.error(
                "IDL010", where,
                f"union {scope.qualified(node.name)}: {defaults} default "
                f"arms (at most one allowed)")

    def _check_label(self, scope: _Scope, node: ast.UnionDecl, disc,
                     label, where: str) -> None:
        kind, enum_labels = disc
        union = scope.qualified(node.name)
        if kind == "int":
            if isinstance(label, bool) or not isinstance(label, int):
                self.diag.error(
                    "IDL008", where,
                    f"union {union}: case label {label!r} is not an "
                    f"integer")
        elif kind == "bool":
            if not isinstance(label, bool):
                self.diag.error(
                    "IDL008", where,
                    f"union {union}: case label {label!r} is not TRUE or "
                    f"FALSE")
        elif kind == "char":
            if isinstance(label, bool) or not (
                    isinstance(label, str) and len(label) == 1):
                self.diag.error(
                    "IDL008", where,
                    f"union {union}: case label {label!r} is not a "
                    f"character")
        elif kind == "enum":
            if not isinstance(label, str) or label not in enum_labels:
                self.diag.error(
                    "IDL008", where,
                    f"union {union}: case label {label!r} is not a label "
                    f"of the discriminator enum")

    # -- interfaces -------------------------------------------------------------
    def _interface(self, scope: _Scope, node: ast.InterfaceDecl) -> None:
        where = self.loc(node.line)
        base_ids: list[str] = []
        for base in node.bases:
            entry = self._resolve(scope, base, node.line)
            if entry is None:
                continue
            if entry.kind != "interface":
                self.diag.error(
                    "IDL013", where,
                    f"interface {scope.qualified(node.name)}: base "
                    f"{base.text!r} is a(n) {entry.kind}, not an interface")
                continue
            base_ids.append(entry.scope.repo_id(entry.name))
        repo_id = scope.repo_id(node.name)
        info = InterfaceInfo(
            repo_id=repo_id, name=node.name,
            qualified_name=scope.qualified(node.name),
            bases=tuple(base_ids), line=node.line, source=self.source)
        inner = _Scope(node.name, scope, self)
        scope.declare(node.name, "interface", node, node.line, inner)
        self.interfaces[repo_id] = info

        for item in node.body:
            if isinstance(item, ast.OperationDecl):
                self._operation(inner, item)
            elif isinstance(item, ast.AttributeDecl):
                entry = inner.declare(item.name, "attribute", item,
                                      item.line)
                if inner.find_local(item.name) is entry:
                    # a new attribute's accessors are operations too
                    for prefix in ("_get_", "_set_"):
                        if prefix == "_get_" or not item.readonly:
                            inner.declare(prefix + item.name, "accessor",
                                          item, item.line)
                self._check_type(inner, item.type, item.line)
            else:
                self._definition(inner, item)

    def _operation(self, scope: _Scope, node: ast.OperationDecl) -> None:
        where = self.loc(node.line)
        scope.declare(node.name, "operation", node, node.line)
        qualified = scope.qualified(node.name)
        if node.result is not None:
            self._check_type(scope, node.result, node.line)
        seen_params: dict[str, int] = {}
        for param in node.params:
            self._check_type(scope, param.type, node.line)
            self.identifier(param.name, node.line)
            if param.name in seen_params:
                self.diag.error("IDL002", where,
                                f"operation {qualified}: duplicate "
                                f"parameter {param.name!r}")
            seen_params[param.name] = node.line
        for raised in node.raises:
            entry = self._resolve(scope, raised, node.line)
            if entry is not None and entry.kind != "exception":
                self.diag.error(
                    "IDL014", where,
                    f"operation {qualified}: raises {raised.text!r} which "
                    f"is a(n) {entry.kind}, not an exception")
        if node.oneway:
            if node.result is not None:
                self.diag.error(
                    "IDL004", where,
                    f"oneway operation {qualified} must return void")
            bad = [p.name for p in node.params if p.mode != "in"]
            if bad:
                self.diag.error(
                    "IDL005", where,
                    f"oneway operation {qualified} has out/inout "
                    f"parameter(s) {', '.join(bad)}")
            if node.raises:
                self.diag.error(
                    "IDL006", where,
                    f"oneway operation {qualified} may not raise "
                    f"user exceptions")

    # -- recursion --------------------------------------------------------------
    def _check_recursion(self) -> None:
        """IDL011: aggregates containing themselves without a sequence.

        Containment edges follow members, arrays and typedef chains;
        ``sequence<...>`` breaks the edge (legal indirection in IDL).
        """
        edges: dict[int, list[_Entry]] = {}
        by_id: dict[int, _Entry] = {}
        for entry in self._aggregates:
            by_id[id(entry)] = entry
            targets: list[_Entry] = []
            node = entry.payload
            for member in (node.arms if isinstance(node, ast.UnionDecl)
                           else node.members):
                self._containment(entry.scope, member.type, targets, set())
            edges[id(entry)] = targets

        color: dict[int, int] = {}
        path: list[int] = []
        reported: set[frozenset] = set()

        def visit(eid: int) -> None:
            color[eid] = 0
            path.append(eid)
            for target in edges.get(eid, ()):
                tid = id(target)
                if tid not in by_id:
                    continue
                if tid not in color:
                    visit(tid)
                elif color[tid] == 0:
                    cycle = path[path.index(tid):]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        head = by_id[cycle[0]]
                        names = " -> ".join(
                            by_id[c].scope.qualified(by_id[c].name)
                            for c in cycle)
                        self.diag.error(
                            "IDL011", self.loc(head.line),
                            f"illegal recursive type: {names} -> "
                            f"{head.scope.qualified(head.name)} (use a "
                            f"sequence for recursion)")
            path.pop()
            color[eid] = 1

        for entry in self._aggregates:
            if id(entry) not in color:
                visit(id(entry))

    def _containment(self, scope: _Scope, texpr, out: list[_Entry],
                     guard: set[int]) -> None:
        if isinstance(texpr, ast.SequenceType):
            return  # indirection: recursion through sequences is legal
        if isinstance(texpr, ast.ArrayOf):
            self._containment(scope, texpr.element, out, guard)
            return
        entry = self.resolved.get(id(texpr))
        if entry is None and isinstance(texpr, ast.NamedType):
            # A forward reference (already IDL001) still closes a cycle.
            entry = scope.lookup(texpr.parts)
        if entry is None or id(entry) in guard:
            return
        guard.add(id(entry))
        if entry.kind == "typedef":
            self._containment(entry.scope, entry.payload.type, out, guard)
        elif entry.kind in ("struct", "union", "exception"):
            out.append(entry)


def check_specification(spec: ast.Specification,
                        diag: Optional[Diagnostics] = None,
                        source: str = "<idl>") -> CheckedSpec:
    """Semantically check *spec*, appending findings to *diag*.

    Returns the :class:`CheckedSpec` carrying the interface graph even
    when findings were emitted — partial information still lets the
    higher layers cross-check what did resolve.
    """
    diag = diag if diag is not None else Diagnostics()
    checked = _Checker(spec, diag, source).run()
    checked.diag = diag  # convenience for single-spec callers
    return checked
