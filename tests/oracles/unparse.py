"""IDL pretty-printer: AST -> source text.

The inverse of the parser, kept as the oracle of its round-trip
property: ``parse(unparse(spec))`` must reproduce the AST.
"""

from __future__ import annotations

from repro.idl import idlast as ast
from repro.util.errors import ValidationError


def unparse(spec: ast.Specification) -> str:
    """Render a whole specification back to IDL source."""
    lines: list[str] = []
    if spec.prefix:
        lines.append(f'#pragma prefix "{spec.prefix}"')
    for node in spec.definitions:
        lines.extend(_definition(node, 0))
    return "\n".join(lines) + "\n"


def _indent(level: int) -> str:
    return "  " * level


def _definition(node, level: int) -> list[str]:
    pad = _indent(level)
    if isinstance(node, ast.ModuleDecl):
        lines = [f"{pad}module {node.name} {{"]
        for item in node.body:
            lines.extend(_definition(item, level + 1))
        lines.append(f"{pad}}};")
        return lines
    if isinstance(node, ast.InterfaceDecl):
        bases = (" : " + ", ".join(b.text for b in node.bases)
                 if node.bases else "")
        lines = [f"{pad}interface {node.name}{bases} {{"]
        for item in node.body:
            if isinstance(item, ast.OperationDecl):
                lines.append(_operation(item, level + 1))
            elif isinstance(item, ast.AttributeDecl):
                ro = "readonly " if item.readonly else ""
                lines.append(f"{_indent(level+1)}{ro}attribute "
                             f"{_type(item.type)} {item.name};")
            else:
                lines.extend(_definition(item, level + 1))
        lines.append(f"{pad}}};")
        return lines
    if isinstance(node, ast.StructDecl):
        lines = [f"{pad}struct {node.name} {{"]
        lines.extend(_member(m, level + 1) for m in node.members)
        lines.append(f"{pad}}};")
        return lines
    if isinstance(node, ast.ExceptionDecl):
        lines = [f"{pad}exception {node.name} {{"]
        lines.extend(_member(m, level + 1) for m in node.members)
        lines.append(f"{pad}}};")
        return lines
    if isinstance(node, ast.EnumDecl):
        labels = ", ".join(node.labels)
        return [f"{pad}enum {node.name} {{ {labels} }};"]
    if isinstance(node, ast.UnionDecl):
        lines = [f"{pad}union {node.name} switch "
                 f"({_type(node.discriminator)}) {{"]
        for arm in node.arms:
            for label in arm.labels:
                if label is None:
                    lines.append(f"{_indent(level+1)}default:")
                else:
                    lines.append(f"{_indent(level+1)}case "
                                 f"{_case_label(label)}:")
            base, suffix = _declarator_type(arm.type)
            lines.append(f"{_indent(level+2)}{base} {arm.name}{suffix};")
        lines.append(f"{pad}}};")
        return lines
    if isinstance(node, ast.TypedefDecl):
        base, suffix = _declarator_type(node.type)
        return [f"{pad}typedef {base} {node.name}{suffix};"]
    if isinstance(node, ast.ConstDecl):
        return [f"{pad}const {_type(node.type)} {node.name} = "
                f"{_literal(node.value)};"]
    raise ValidationError(f"cannot unparse {node!r}")


def _member(member: ast.Member, level: int) -> str:
    base, suffix = _declarator_type(member.type)
    return f"{_indent(level)}{base} {member.name}{suffix};"


def _operation(op: ast.OperationDecl, level: int) -> str:
    oneway = "oneway " if op.oneway else ""
    result = "void" if op.result is None else _type(op.result)
    params = ", ".join(
        f"{p.mode} {_type(p.type)} {p.name}" for p in op.params)
    raises = ""
    if op.raises:
        raises = " raises (" + ", ".join(r.text for r in op.raises) + ")"
    return (f"{_indent(level)}{oneway}{result} {op.name}"
            f"({params}){raises};")


def _declarator_type(texpr) -> tuple[str, str]:
    """Split array types into (element type, '[dims]') for declarators."""
    if isinstance(texpr, ast.ArrayOf):
        dims = "".join(f"[{d}]" for d in texpr.dims)
        return _type(texpr.element), dims
    return _type(texpr), ""


def _type(texpr) -> str:
    if isinstance(texpr, ast.PrimitiveType):
        return texpr.name
    if isinstance(texpr, ast.NamedType):
        return texpr.text
    if isinstance(texpr, ast.SequenceType):
        if texpr.bound:
            return f"sequence<{_type(texpr.element)}, {texpr.bound}>"
        return f"sequence<{_type(texpr.element)}>"
    if isinstance(texpr, ast.ArrayOf):
        # bare array type outside a declarator: wrap via typedef rules
        raise ValidationError(
            "array types only appear in declarators"
        )
    raise ValidationError(f"cannot render type {texpr!r}")


def _case_label(value) -> str:
    """Union case labels: enum labels print bare, chars quoted."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, str):
        if value.isidentifier():
            return value          # an enum label
        if len(value) == 1:
            return f"'{value}'"   # a char literal
    raise ValidationError(f"cannot render case label {value!r}")


def _literal(value) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return f'"{value}"'
    raise ValidationError(f"cannot render literal {value!r}")
