"""The reference CDR interpreter: the oracle for the generated codecs.

:func:`encode_value_interp` / :func:`decode_value_interp` walk the
TypeCode graph on every value, recursing one level per alias, member,
element, union arm and ``any`` payload, and raise
``BAD_PARAM("value nesting too deep")`` on entering a node deeper than
``_MAX_NESTING``.  The running system marshals through the generated
plans of :mod:`repro.orb.compiled` only; the bimodal laws
(``tests/property/test_bimodal_properties.py``) hold those plans to this
walk byte for byte, value for value, offset for offset and error class
for error class, at every root depth.

The fixed-size primitives are packed through :data:`_FIXED`, the
interpreter's own ``struct`` table: the ORB's streams keep only the
primitives their framing writes.
"""

from __future__ import annotations

from repro.orb.cdr import (
    _MAX_NESTING,
    Any,
    CDRDecoder,
    CDREncoder,
    _decode_objref,
    _encode_objref,
    decode_typecode,
    encode_typecode,
)
from repro.orb.exceptions import BAD_PARAM, MARSHAL
from repro.orb.typecodes import TCKind, TypeCode

#: Fixed-size numeric kinds -> (big-endian struct format, size).
_FIXED = {
    TCKind.SHORT: (">h", 2),
    TCKind.LONG: (">i", 4),
    TCKind.USHORT: (">H", 2),
    TCKind.ULONG: (">I", 4),
    TCKind.LONGLONG: (">q", 8),
    TCKind.ULONGLONG: (">Q", 8),
    TCKind.FLOAT: (">f", 4),
    TCKind.DOUBLE: (">d", 8),
    TCKind.OCTET: (">B", 1),
}


def write_fixed(enc: CDREncoder, kind: TCKind, value) -> None:
    """Align for and pack one fixed-size primitive of *kind*."""
    fmt, size = _FIXED[kind]
    enc._pack(fmt, size, value)


def read_fixed(dec: CDRDecoder, kind: TCKind):
    """Align for and unpack one fixed-size primitive of *kind*."""
    fmt, size = _FIXED[kind]
    return dec._unpack(fmt, size)


def static_depth(tc: TypeCode, _depth: int = 0) -> int:
    """The recursion depth the interpreter reaches below *tc*'s root for
    a value with no ``any`` payload (an ``any`` counts its own level)."""
    if _depth > _MAX_NESTING:
        return _MAX_NESTING + 1
    kind = tc.kind
    if kind in (TCKind.ALIAS, TCKind.SEQUENCE, TCKind.ARRAY):
        return 1 + static_depth(tc.content_type, _depth + 1)
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        return 1 + max((static_depth(mtc, _depth + 1)
                        for _n, mtc in tc.members), default=0)
    if kind is TCKind.UNION:
        parts = [tc.discriminator_type] + [m[2] for m in tc.members]
        return 1 + max(static_depth(p, _depth + 1) for p in parts)
    return 1 if kind is TCKind.ANY else 0


def encode_value_interp(enc: CDREncoder, tc: TypeCode, value,
                        _depth: int = 0) -> None:
    """Reference interpreter: CDR-encode *value* by walking *tc*."""
    if _depth > _MAX_NESTING:
        raise BAD_PARAM("value nesting too deep")
    kind = tc.kind
    if kind is TCKind.ALIAS:
        assert tc.content_type is not None
        encode_value_interp(enc, tc.content_type, value, _depth + 1)
    elif kind in (TCKind.NULL, TCKind.VOID):
        if value is not None:
            raise BAD_PARAM(f"void carries no value, got {value!r}")
    elif kind in _FIXED:
        write_fixed(enc, kind, value)
    elif kind is TCKind.BOOLEAN:
        enc.write_boolean(value)
    elif kind is TCKind.CHAR:
        if not isinstance(value, str) or len(value) != 1:
            raise BAD_PARAM(f"char must be a 1-character str, got {value!r}")
        enc._pack(">B", 1, ord(value) & 0xFF)
    elif kind is TCKind.STRING:
        enc.write_string(value)
    elif kind is TCKind.OCTETSEQ:
        enc.write_octet_sequence(value)
    elif kind is TCKind.ENUM:
        try:
            index = tc.labels.index(value) if isinstance(value, str) else int(value)
        except ValueError:
            raise BAD_PARAM(
                f"{value!r} is not a label of enum {tc.name}"
            ) from None
        if not 0 <= index < len(tc.labels):
            raise BAD_PARAM(f"enum index {index} out of range for {tc.name}")
        enc.write_ulong(index)
    elif kind is TCKind.SEQUENCE:
        items = list(value)
        if tc.length and len(items) > tc.length:
            raise BAD_PARAM(
                f"sequence bound {tc.length} exceeded ({len(items)} items)"
            )
        enc.write_ulong(len(items))
        assert tc.content_type is not None
        for item in items:
            encode_value_interp(enc, tc.content_type, item, _depth + 1)
    elif kind is TCKind.ARRAY:
        items = list(value)
        if len(items) != tc.length:
            raise BAD_PARAM(
                f"array of length {tc.length} got {len(items)} items"
            )
        assert tc.content_type is not None
        for item in items:
            encode_value_interp(enc, tc.content_type, item, _depth + 1)
    elif kind in (TCKind.STRUCT, TCKind.EXCEPT):
        _encode_struct(enc, tc, value, _depth)
    elif kind is TCKind.UNION:
        _encode_union(enc, tc, value, _depth)
    elif kind is TCKind.ANY:
        if not isinstance(value, Any):
            raise BAD_PARAM(f"expected Any, got {type(value).__name__}")
        encode_typecode(enc, value.typecode)
        encode_value_interp(enc, value.typecode, value.value, _depth + 1)
    elif kind is TCKind.OBJREF:
        _encode_objref(enc, value)
    else:  # pragma: no cover - exhaustive over TCKind
        raise BAD_PARAM(f"cannot marshal kind {kind}")


def decode_value_interp(dec: CDRDecoder, tc: TypeCode, _depth: int = 0):
    """Reference interpreter: decode a value of type *tc* from *dec*."""
    if _depth > _MAX_NESTING:
        raise BAD_PARAM("value nesting too deep")
    kind = tc.kind
    if kind is TCKind.ALIAS:
        assert tc.content_type is not None
        return decode_value_interp(dec, tc.content_type, _depth + 1)
    if kind in (TCKind.NULL, TCKind.VOID):
        return None
    if kind in _FIXED:
        return read_fixed(dec, kind)
    if kind is TCKind.BOOLEAN:
        return dec.read_boolean()
    if kind is TCKind.CHAR:
        return chr(dec._unpack(">B", 1))
    if kind is TCKind.STRING:
        return dec.read_string()
    if kind is TCKind.OCTETSEQ:
        return dec.read_octet_sequence()
    if kind is TCKind.ENUM:
        index = dec.read_ulong()
        if index >= len(tc.labels):
            raise BAD_PARAM(f"enum index {index} out of range for {tc.name}")
        return tc.labels[index]
    if kind is TCKind.SEQUENCE:
        n = dec.read_ulong()
        # Every element consumes at least one byte, so a count beyond
        # the remaining bytes is garbage; reject it before looping (or
        # allocating) anything proportional to it.
        if n > dec.remaining:
            raise MARSHAL(
                f"sequence count {n} exceeds {dec.remaining} remaining bytes"
            )
        assert tc.content_type is not None
        return [decode_value_interp(dec, tc.content_type, _depth + 1)
                for _ in range(n)]
    if kind is TCKind.ARRAY:
        assert tc.content_type is not None
        start = dec._pos
        items = []
        for _ in range(tc.length):
            items.append(decode_value_interp(dec, tc.content_type, _depth + 1))
            # An element that consumed nothing (void, an empty struct,
            # arrays of those) makes the length free, and it may come
            # off the wire inside an any: hold it to the sequence rule.
            if dec._pos == start and tc.length > dec.remaining:
                raise MARSHAL(
                    f"array length {tc.length} of zero-width elements "
                    f"exceeds {dec.remaining} remaining bytes"
                )
        return items
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        return {
            name: decode_value_interp(dec, mtc, _depth + 1)
            for name, mtc in tc.members
        }
    if kind is TCKind.UNION:
        return _decode_union(dec, tc, _depth)
    if kind is TCKind.ANY:
        inner_tc = decode_typecode(dec)
        return Any(inner_tc, decode_value_interp(dec, inner_tc, _depth + 1))
    if kind is TCKind.OBJREF:
        return _decode_objref(dec)
    raise BAD_PARAM(f"cannot unmarshal kind {kind}")  # pragma: no cover


def _encode_struct(enc: CDREncoder, tc: TypeCode, value, depth: int) -> None:
    # Accept dicts keyed by member name, or objects with attributes.
    for name, mtc in tc.members:
        if isinstance(value, dict):
            if name not in value:
                raise BAD_PARAM(f"struct {tc.name} missing member {name!r}")
            member = value[name]
        else:
            try:
                member = getattr(value, name)
            except AttributeError:
                raise BAD_PARAM(
                    f"struct {tc.name} value lacks member {name!r}"
                ) from None
        encode_value_interp(enc, mtc, member, depth + 1)
    if isinstance(value, dict):
        extra = set(value) - {n for n, _ in tc.members}
        if extra:
            raise BAD_PARAM(f"struct {tc.name} has unknown members {sorted(extra)}")


def _encode_union(enc: CDREncoder, tc: TypeCode, value, depth: int) -> None:
    # Union values are (discriminator, value) pairs.
    try:
        disc, inner = value
    except (TypeError, ValueError):
        raise BAD_PARAM(
            f"union {tc.name} value must be (discriminator, value)"
        ) from None
    assert tc.discriminator_type is not None
    encode_value_interp(enc, tc.discriminator_type, disc, depth + 1)
    arm = _union_arm(tc, disc)
    if arm is None:
        raise BAD_PARAM(f"union {tc.name}: no arm for discriminator {disc!r}")
    _label, _name, arm_tc = arm
    encode_value_interp(enc, arm_tc, inner, depth + 1)


def _decode_union(dec: CDRDecoder, tc: TypeCode, depth: int):
    assert tc.discriminator_type is not None
    disc = decode_value_interp(dec, tc.discriminator_type, depth + 1)
    arm = _union_arm(tc, disc)
    if arm is None:
        raise BAD_PARAM(f"union {tc.name}: no arm for discriminator {disc!r}")
    _label, _name, arm_tc = arm
    return (disc, decode_value_interp(dec, arm_tc, depth + 1))


def _union_arm(tc: TypeCode, disc):
    # A ``None`` label marks the default arm and never matches a
    # discriminator directly.
    for label, name, arm_tc in tc.members:
        if label is not None and label == disc:
            return (label, name, arm_tc)
    if 0 <= tc.default_index < len(tc.members):
        return tc.members[tc.default_index]
    return None

