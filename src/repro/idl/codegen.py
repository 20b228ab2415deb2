"""IDL code generation: AST -> runtime artifacts.

Walks a parsed :class:`~repro.idl.idlast.Specification` and produces,
per declaration:

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

from typing import Optional

from repro.idl import idlast as ast
from repro.idl.parser import parse
from repro.orb.core import (
    InterfaceDef,
    OperationDef,
    ParamDef,
    make_exception_class,
)
from repro.orb.dii import GLOBAL_IFR, InterfaceRepository
from repro.orb.exceptions import UserException
from repro.orb.typecodes import (
    TCKind,
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
from repro.util.errors import ValidationError


class IdlSemanticError(ValidationError):
    """Undefined name, duplicate declaration, or invalid construct."""


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


class _Scope:
    """Lexical scope used during compilation."""

    def __init__(self, name: str, parent: Optional["_Scope"],
                 namespace: CompiledModule) -> None:
        self.name = name
        self.parent = parent
        self.namespace = namespace
        self.entries: dict[str, tuple[str, object]] = {}  # name -> (kind, value)

    def path(self) -> list[str]:
        parts: list[str] = []
        scope: Optional[_Scope] = self
        while scope is not None and scope.name:
            parts.append(scope.name)
            scope = scope.parent
        return list(reversed(parts))

    def declare(self, name: str, kind: str, value: object,
                public: object = None) -> None:
        if name in self.entries:
            raise IdlSemanticError(
                f"duplicate declaration {name!r} in scope "
                f"{'::'.join(self.path()) or '<global>'}"
            )
        self.entries[name] = (kind, value)
        self.namespace._add(name, public if public is not None else value)

    def find_local(self, name: str) -> Optional[tuple[str, object]]:
        return self.entries.get(name)

    def find(self, name: str) -> Optional[tuple[str, object]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            entry = scope.entries.get(name)
            if entry is not None:
                return entry
            scope = scope.parent
        return None


class _Compiler:
    def __init__(self, spec: ast.Specification,
                 ifr: InterfaceRepository) -> None:
        self.spec = spec
        self.ifr = ifr
        self.root = _Scope("", None, CompiledModule(""))

    # -- repo ids ------------------------------------------------------------
    def _repo_id(self, scope: _Scope, name: str) -> str:
        parts = scope.path() + [name]
        if self.spec.prefix:
            parts = [self.spec.prefix] + parts
        return "IDL:" + "/".join(parts) + ":1.0"

    # -- name resolution -------------------------------------------------------
    def _resolve(self, scope: _Scope, named: ast.NamedType) -> tuple[str, object]:
        first, *rest = named.parts
        entry = scope.find(first)
        if entry is None:
            raise IdlSemanticError(f"undefined name {named.text!r}")
        for part in rest:
            kind, value = entry
            if kind != "module":
                raise IdlSemanticError(
                    f"{named.text!r}: {part!r} looked up inside non-module"
                )
            inner = value.find_local(part)  # value is a _Scope
            if inner is None:
                raise IdlSemanticError(f"undefined name {named.text!r}")
            entry = inner
        return entry

    def _resolve_type(self, scope: _Scope, texpr: ast.TypeExpr) -> TypeCode:
        if isinstance(texpr, ast.PrimitiveType):
            return primitive(texpr.name)
        if isinstance(texpr, ast.SequenceType):
            return sequence_tc(self._resolve_type(scope, texpr.element),
                               texpr.bound)
        if isinstance(texpr, ast.ArrayOf):
            tc = self._resolve_type(scope, texpr.element)
            for dim in reversed(texpr.dims):
                tc = array_tc(tc, dim)
            return tc
        if isinstance(texpr, ast.NamedType):
            kind, value = self._resolve(scope, texpr)
            if kind == "type":
                return value  # a TypeCode
            if kind == "interface":
                _iface, tc = value
                return tc
            if kind == "exception":
                raise IdlSemanticError(
                    f"exception {texpr.text!r} used as a data type"
                )
            raise IdlSemanticError(f"{texpr.text!r} is not a type")
        raise IdlSemanticError(f"unsupported type expression {texpr!r}")

    def _resolve_exception(self, scope: _Scope, named: ast.NamedType) -> TypeCode:
        kind, value = self._resolve(scope, named)
        if kind != "exception":
            raise IdlSemanticError(f"{named.text!r} is not an exception")
        _cls, tc = value
        return tc

    # -- compilation ---------------------------------------------------------------
    def run(self) -> CompiledModule:
        for node in self.spec.definitions:
            self._definition(self.root, node)
        return self.root.namespace

    def _definition(self, scope: _Scope, node) -> None:
        if isinstance(node, ast.ModuleDecl):
            self._module(scope, node)
        elif isinstance(node, ast.InterfaceDecl):
            self._interface(scope, node)
        elif isinstance(node, ast.StructDecl):
            members = [(m.name, self._resolve_type(scope, m.type))
                       for m in node.members]
            tc = struct_tc(node.name, members,
                           repo_id=self._repo_id(scope, node.name))
            scope.declare(node.name, "type", tc)
        elif isinstance(node, ast.EnumDecl):
            tc = enum_tc(node.name, node.labels,
                         repo_id=self._repo_id(scope, node.name))
            scope.declare(node.name, "type", tc)
        elif isinstance(node, ast.UnionDecl):
            self._union(scope, node)
        elif isinstance(node, ast.TypedefDecl):
            tc = alias_tc(node.name, self._resolve_type(scope, node.type),
                          repo_id=self._repo_id(scope, node.name))
            scope.declare(node.name, "type", tc)
        elif isinstance(node, ast.ExceptionDecl):
            members = [(m.name, self._resolve_type(scope, m.type))
                       for m in node.members]
            tc = except_tc(node.name, members,
                           repo_id=self._repo_id(scope, node.name))
            cls = make_exception_class(node.name, tc)
            scope.declare(node.name, "exception", (cls, tc), public=cls)
        elif isinstance(node, ast.ConstDecl):
            scope.declare(node.name, "const", node.value)
        else:
            raise IdlSemanticError(f"unsupported declaration {node!r}")

    def _module(self, scope: _Scope, node: ast.ModuleDecl) -> None:
        existing = scope.find_local(node.name)
        if existing is not None:
            # Re-opened module: continue filling the same scope.
            kind, inner = existing
            if kind != "module":
                raise IdlSemanticError(
                    f"{node.name!r} redeclared as module"
                )
        else:
            inner_ns = CompiledModule(node.name)
            inner = _Scope(node.name, scope, inner_ns)
            scope.declare(node.name, "module", inner, public=inner_ns)
        for item in node.body:
            self._definition(inner, item)

    def _union(self, scope: _Scope, node: ast.UnionDecl) -> None:
        disc_tc = self._resolve_type(scope, node.discriminator)
        members: list[tuple[object, str, TypeCode]] = []
        default_index = -1
        for arm in node.arms:
            arm_tc = self._resolve_type(scope, arm.type)
            for label in arm.labels:
                if label is None:
                    if default_index >= 0:
                        raise IdlSemanticError(
                            f"union {node.name}: multiple default arms"
                        )
                    default_index = len(members)
                    members.append((None, arm.name, arm_tc))
                else:
                    members.append((label, arm.name, arm_tc))
        tc = union_tc(node.name, disc_tc, members,
                      default_index=default_index,
                      repo_id=self._repo_id(scope, node.name))
        scope.declare(node.name, "type", tc)

    def _interface(self, scope: _Scope, node: ast.InterfaceDecl) -> None:
        bases: list[InterfaceDef] = []
        for base_name in node.bases:
            kind, value = self._resolve(scope, base_name)
            if kind != "interface":
                raise IdlSemanticError(
                    f"interface base {base_name.text!r} is not an interface"
                )
            bases.append(value[0])
        repo_id = self._repo_id(scope, node.name)
        iface = InterfaceDef(repo_id, node.name, bases=bases)
        tc = objref_tc(repo_id, node.name)
        # Declare before walking the body so operations can reference the
        # interface itself (e.g. a clone() returning its own type).
        scope.declare(node.name, "interface", (iface, tc), public=iface)
        inner = _Scope(node.name, scope, CompiledModule(node.name))
        # Interface scope shares visibility with nested declarations.
        for item in node.body:
            if isinstance(item, ast.OperationDecl):
                iface.add_operation(self._operation(inner, item))
            elif isinstance(item, ast.AttributeDecl):
                iface.add_attribute(
                    item.name, self._resolve_type(inner, item.type),
                    readonly=item.readonly,
                )
            else:
                self._definition(inner, item)
        # Expose interface-scoped types as <Interface>_<Name> at the
        # enclosing namespace for convenience.
        for name, value in inner.namespace.symbols().items():
            scope.namespace._add(f"{node.name}_{name}", value)

    def _operation(self, scope: _Scope, node: ast.OperationDecl) -> OperationDef:
        params = tuple(
            ParamDef(p.name, self._resolve_type(scope, p.type), p.mode)
            for p in node.params
        )
        result = (tc_void if node.result is None
                  else self._resolve_type(scope, node.result))
        raises = tuple(self._resolve_exception(scope, r) for r in node.raises)
        return OperationDef(name=node.name, params=params, result=result,
                            raises=raises, oneway=node.oneway)


def compile_ast(spec: ast.Specification,
                ifr: InterfaceRepository) -> CompiledModule:
    """Compile a parsed specification; registers interfaces in *ifr*."""
    compiler = _Compiler(spec, ifr)
    namespace = compiler.run()
    _register_interfaces(compiler.root, ifr)
    return namespace


def _register_interfaces(scope: _Scope, ifr: InterfaceRepository) -> None:
    for kind, value in scope.entries.values():
        if kind == "interface":
            ifr.register(value[0], replace=True)
        elif kind == "module":
            _register_interfaces(value, ifr)


def compile_idl(source: str) -> CompiledModule:
    """Parse + compile IDL *source* into the process-wide interface
    repository; the one-call entry point."""
    return compile_ast(parse(source), GLOBAL_IFR)
