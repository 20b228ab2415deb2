"""IDL code generation: AST -> runtime artifacts.

:func:`compile_ast` runs the IDL checker (:mod:`repro.idl.check`) first:
any error finding refuses the whole specification with an
:class:`IdlSemanticError` carrying every finding.  A clean specification
is then built from the checker's scopes — every name reference uses the
entry the checker resolved it to — producing, per declaration:

- struct/enum/union/typedef/array -> :class:`~repro.orb.typecodes.TypeCode`
- exception -> a registered :class:`~repro.orb.exceptions.UserException`
  subclass (plus its TypeCode)
- interface -> an :class:`~repro.orb.core.InterfaceDef` registered in the
  interface repository (plus an object-reference TypeCode so interfaces
  can be used as types)
- const -> its Python value

Results are exposed as nested :class:`CompiledModule` namespaces
mirroring the IDL module structure.
"""

from __future__ import annotations

from repro.idl import idlast as ast
from repro.idl.check import CheckedSpec, check_specification
from repro.idl.parser import parse
from repro.orb.core import (
    InterfaceDef,
    OperationDef,
    ParamDef,
    make_exception_class,
)
from repro.orb.dii import GLOBAL_IFR, InterfaceRepository
from repro.orb.typecodes import (
    TypeCode,
    alias_tc,
    array_tc,
    enum_tc,
    except_tc,
    objref_tc,
    primitive,
    sequence_tc,
    struct_tc,
    tc_void,
    union_tc,
)
from repro.util.diagnostics import Diagnostics
from repro.util.errors import ValidationError


class IdlSemanticError(ValidationError):
    """The specification is not legal IDL, or needs what this ORB lacks.

    ``findings`` holds every error the IDL checker reported; it is empty
    for the compiler's own refusals (a type containing itself through
    ``sequence<>``, a name clash in the compiled namespace).
    """

    def __init__(self, message: str, findings=()) -> None:
        self.findings = list(findings)
        super().__init__(message)


class CompiledModule:
    """Attribute-access namespace of compiled IDL symbols."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._symbols: dict[str, object] = {}

    def _add(self, name: str, value: object) -> None:
        if name in self._symbols:
            raise IdlSemanticError(
                f"duplicate declaration {name!r} in {self._name or '<global>'}"
            )
        self._symbols[name] = value

    def __getattr__(self, name: str):
        try:
            return self._symbols[name]
        except KeyError:
            raise AttributeError(
                f"IDL scope {self._name or '<global>'} has no symbol {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def symbols(self) -> dict[str, object]:
        return dict(self._symbols)

    def __repr__(self) -> str:
        return f"<CompiledModule {self._name or '<global>'}: {sorted(self._symbols)}>"


class _Builder:
    """Artifacts of a checked specification, each built once.

    Entries are the checker's; a name reference is looked up in the
    checker's ``resolved`` map, never re-resolved here.
    """

    def __init__(self, checked: CheckedSpec) -> None:
        self.resolved = checked.resolved
        self.tcs: dict[int, TypeCode] = {}  # id(entry) -> TypeCode
        self.interfaces: dict[int, InterfaceDef] = {}  # id(entry) -> def
        self._building: set[int] = set()

    def type_tc(self, texpr: ast.TypeExpr) -> TypeCode:
        if isinstance(texpr, ast.PrimitiveType):
            return primitive(texpr.name)
        if isinstance(texpr, ast.SequenceType):
            return sequence_tc(self.type_tc(texpr.element), texpr.bound)
        if isinstance(texpr, ast.ArrayOf):
            tc = self.type_tc(texpr.element)
            for dim in reversed(texpr.dims):
                tc = array_tc(tc, dim)
            return tc
        return self.entry_tc(self.resolved[id(texpr)])

    def entry_tc(self, entry) -> TypeCode:
        """The TypeCode of a declared type, exception or interface."""
        tc = self.tcs.get(id(entry))
        if tc is not None:
            return tc
        if id(entry) in self._building:
            # The checker allows this (IDL recurses through sequences);
            # a TypeCode here holds its members by value, so it cannot.
            raise IdlSemanticError(
                f"{entry.scope.qualified(entry.name)} contains itself "
                f"through sequence<>: legal IDL, but this ORB's TypeCodes "
                f"have no indirection to describe it")
        self._building.add(id(entry))
        node, repo_id = entry.payload, entry.scope.repo_id(entry.name)
        if entry.kind == "struct":
            tc = struct_tc(node.name, self._members(node), repo_id=repo_id)
        elif entry.kind == "exception":
            tc = except_tc(node.name, self._members(node), repo_id=repo_id)
        elif entry.kind == "enum":
            tc = enum_tc(node.name, node.labels, repo_id=repo_id)
        elif entry.kind == "union":
            tc = self._union(node, repo_id)
        elif entry.kind == "typedef":
            tc = alias_tc(node.name, self.type_tc(node.type), repo_id=repo_id)
        else:  # interface
            tc = objref_tc(repo_id, node.name)
        self.tcs[id(entry)] = tc
        return tc

    def _members(self, node) -> list[tuple[str, TypeCode]]:
        return [(m.name, self.type_tc(m.type)) for m in node.members]

    def _union(self, node: ast.UnionDecl, repo_id: str) -> TypeCode:
        disc_tc = self.type_tc(node.discriminator)
        members: list[tuple[object, str, TypeCode]] = []
        default_index = -1
        for arm in node.arms:
            arm_tc = self.type_tc(arm.type)
            for label in arm.labels:
                if label is None:
                    default_index = len(members)
                members.append((label, arm.name, arm_tc))
        return union_tc(node.name, disc_tc, members,
                        default_index=default_index, repo_id=repo_id)

    def interface(self, entry) -> InterfaceDef:
        iface = self.interfaces.get(id(entry))
        if iface is not None:
            return iface
        node = entry.payload
        bases = [self.interface(self.resolved[id(b)]) for b in node.bases]
        iface = InterfaceDef(entry.scope.repo_id(node.name), node.name,
                             bases=bases)
        for item in node.body:
            if isinstance(item, ast.OperationDecl):
                iface.add_operation(self._operation(item))
            elif isinstance(item, ast.AttributeDecl):
                iface.add_attribute(item.name, self.type_tc(item.type),
                                    readonly=item.readonly)
        self.interfaces[id(entry)] = iface
        return iface

    def _operation(self, node: ast.OperationDecl) -> OperationDef:
        params = tuple(ParamDef(p.name, self.type_tc(p.type), p.mode)
                       for p in node.params)
        result = tc_void if node.result is None else self.type_tc(node.result)
        raises = tuple(self.entry_tc(self.resolved[id(r)])
                       for r in node.raises)
        return OperationDef(name=node.name, params=params, result=result,
                            raises=raises, oneway=node.oneway)

    def namespace(self, scope, name: str = "") -> CompiledModule:
        namespace = CompiledModule(name)
        for entry in scope.entries.values():
            if entry.kind == "module":
                namespace._add(entry.name,
                               self.namespace(entry.inner, entry.name))
            elif entry.kind == "interface":
                namespace._add(entry.name, self.interface(entry))
                # Interface-scoped declarations are also exposed as
                # <Interface>_<Name> in the enclosing namespace.
                inner = self.namespace(entry.inner, entry.name)
                for inner_name, value in inner.symbols().items():
                    namespace._add(f"{entry.name}_{inner_name}", value)
            elif entry.kind == "exception":
                namespace._add(entry.name, make_exception_class(
                    entry.name, self.entry_tc(entry)))
            elif entry.kind == "const":
                namespace._add(entry.name, entry.payload.value)
            elif entry.kind in ("struct", "union", "enum", "typedef"):
                namespace._add(entry.name, self.entry_tc(entry))
        return namespace


def compile_ast(spec: ast.Specification,
                ifr: InterfaceRepository) -> CompiledModule:
    """Check, then compile a parsed specification; registers interfaces
    in *ifr*.  Raises :class:`IdlSemanticError` with every error finding
    when the checker rejects *spec*."""
    diag = Diagnostics()
    checked = check_specification(spec, diag)
    if diag.has_errors():
        raise IdlSemanticError(
            "; ".join(f"{f.code} {f.location}: {f.message}"
                      for f in diag.errors), diag.errors)
    builder = _Builder(checked)
    namespace = builder.namespace(checked.root)
    for iface in builder.interfaces.values():
        ifr.register(iface, replace=True)
    return namespace


def compile_idl(source: str) -> CompiledModule:
    """Parse + compile IDL *source* into the process-wide interface
    repository; the one-call entry point."""
    return compile_ast(parse(source), GLOBAL_IFR)
