"""AST node definitions for the IDL compiler.

Type references are kept symbolic (:class:`NamedType`) until the IDL
checker (:mod:`repro.idl.check`) resolves them against lexical scopes —
so uses after a declaration within a module and cross-module scoped
names (``A::B``) both work — and codegen builds from what it resolved.

Declarations carry the 1-based source ``line`` they started on, for the
static analyzer's findings; it is excluded from equality so structural
AST comparison (the unparse/parse round-trip property) ignores layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# -- type expressions ----------------------------------------------------------

@dataclass(frozen=True)
class PrimitiveType:
    """A built-in IDL type, by its canonical spelling ('long', 'string'...)."""

    name: str


@dataclass(frozen=True)
class NamedType:
    """A (possibly scoped) reference to a user-defined type: ``A::B::C``."""

    parts: tuple[str, ...]

    @property
    def text(self) -> str:
        return "::".join(self.parts)


@dataclass(frozen=True)
class SequenceType:
    element: "TypeExpr"
    bound: int = 0  # 0 = unbounded


@dataclass(frozen=True)
class ArrayOf:
    """Applied by a declarator with dimensions: ``long grid[4][4];``"""

    element: "TypeExpr"
    dims: tuple[int, ...]


TypeExpr = Union[PrimitiveType, NamedType, SequenceType, ArrayOf]


# -- declarations ----------------------------------------------------------------

@dataclass
class Member:
    type: TypeExpr
    name: str
    line: int = field(default=0, compare=False)


@dataclass
class StructDecl:
    name: str
    members: list[Member]
    line: int = field(default=0, compare=False)


@dataclass
class ExceptionDecl:
    name: str
    members: list[Member]
    line: int = field(default=0, compare=False)


@dataclass
class EnumDecl:
    name: str
    labels: list[str]
    line: int = field(default=0, compare=False)


@dataclass
class UnionArm:
    labels: list[object]      # case label literal values; None for 'default'
    type: TypeExpr
    name: str


@dataclass
class UnionDecl:
    name: str
    discriminator: TypeExpr
    arms: list[UnionArm]
    line: int = field(default=0, compare=False)


@dataclass
class TypedefDecl:
    name: str
    type: TypeExpr
    line: int = field(default=0, compare=False)


@dataclass
class ConstDecl:
    name: str
    type: TypeExpr
    value: object
    line: int = field(default=0, compare=False)


@dataclass
class ParamDecl:
    mode: str                 # 'in' | 'out' | 'inout'
    type: TypeExpr
    name: str


@dataclass
class OperationDecl:
    name: str
    result: Optional[TypeExpr]  # None = void
    params: list[ParamDecl]
    raises: list[NamedType] = field(default_factory=list)
    oneway: bool = False
    line: int = field(default=0, compare=False)


@dataclass
class AttributeDecl:
    name: str
    type: TypeExpr
    readonly: bool = False
    line: int = field(default=0, compare=False)


@dataclass
class InterfaceDecl:
    name: str
    bases: list[NamedType]
    body: list[object]        # operations, attributes, nested type decls
    line: int = field(default=0, compare=False)


@dataclass
class ModuleDecl:
    name: str
    body: list[object]
    line: int = field(default=0, compare=False)


@dataclass
class Specification:
    """A whole IDL compilation unit."""

    definitions: list[object]
    prefix: str = ""          # from '#pragma prefix "..."'
