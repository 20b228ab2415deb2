"""CDR (Common Data Representation) marshalling.

Big-endian CDR with the standard alignment rules: every primitive is
aligned to its own size relative to the start of the stream.  Values
are encoded/decoded under the direction of a :class:`TypeCode`, so the
bytes that cross the simulated wire are the actual CORBA encoding and
message-size metrics are realistic.

Supported constructed types: string, sequence, array, struct, enum,
union, alias, exception, Any (with full recursive TypeCode
marshalling), object references (as stringified IORs), and a fast-path
``sequence<octet>`` carried as Python ``bytes``.

Two execution paths share this wire format:

- :func:`encode_value` / :func:`decode_value` consult the codec-plan
  cache (:mod:`repro.orb.compiled`), which serves source-generated
  codecs (:mod:`repro.orb.codegen`) — the hot path;
- :func:`encode_value_interp` / :func:`decode_value_interp` walk the
  TypeCode graph directly — the reference interpreter, kept as the
  nesting-limit enforcer (over-deep TypeCodes, ``Any`` payloads near
  the limit) and as the ground truth the property tests compare the
  generated codecs against.
"""

from __future__ import annotations

import struct as _struct
from typing import Any, Optional

from repro.orb.exceptions import BAD_PARAM, INV_OBJREF, MARSHAL
from repro.orb.typecodes import TCKind, TypeCode

_MAX_NESTING = 64


class CDREncoder:
    """Appends CDR-encoded values to a growing buffer."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def take(self) -> bytes:
        """Return the encoded bytes and detach the internal buffer.

        Unlike :meth:`getvalue` this leaves the encoder empty and ready
        for reuse (the ORB pools encoders on its request path), so the
        bytes are materialized exactly once per message.
        """
        buf = self._buf
        self._buf = bytearray()
        return bytes(buf)

    def reset(self) -> None:
        """Clear the buffer so the encoder can be reused."""
        self._buf.clear()

    # -- alignment ---------------------------------------------------------
    def align(self, n: int) -> None:
        pad = (-len(self._buf)) % n
        if pad:
            self._buf.extend(b"\x00" * pad)

    def _pack(self, fmt: str, size: int, value) -> None:
        self.align(size)
        try:
            self._buf.extend(_struct.pack(fmt, value))
        except (_struct.error, TypeError) as exc:
            raise BAD_PARAM(f"cannot marshal {value!r} as {fmt}: {exc}") from None

    # -- primitives ----------------------------------------------------------
    def write_octet(self, v: int) -> None:
        self._pack(">B", 1, v)

    def write_boolean(self, v: bool) -> None:
        self._pack(">B", 1, 1 if v else 0)

    def write_char(self, v: str) -> None:
        if not isinstance(v, str) or len(v) != 1:
            raise BAD_PARAM(f"char must be a 1-character str, got {v!r}")
        self._pack(">B", 1, ord(v) & 0xFF)

    def write_short(self, v: int) -> None:
        self._pack(">h", 2, v)

    def write_ushort(self, v: int) -> None:
        self._pack(">H", 2, v)

    def write_long(self, v: int) -> None:
        self._pack(">i", 4, v)

    def write_ulong(self, v: int) -> None:
        self._pack(">I", 4, v)

    def write_longlong(self, v: int) -> None:
        self._pack(">q", 8, v)

    def write_ulonglong(self, v: int) -> None:
        self._pack(">Q", 8, v)

    def write_float(self, v: float) -> None:
        # struct.pack accepts ints for float formats; any other type
        # fails inside _pack with a proper BAD_PARAM.
        self._pack(">f", 4, v)

    def write_double(self, v: float) -> None:
        self._pack(">d", 8, v)

    def write_string(self, v: str) -> None:
        if not isinstance(v, str):
            raise BAD_PARAM(f"expected str, got {type(v).__name__}")
        data = v.encode("utf-8") + b"\x00"
        self.write_ulong(len(data))
        self._buf.extend(data)

    def write_bytes_raw(self, data: bytes) -> None:
        self._buf.extend(data)

    def write_octet_sequence(self, data: bytes) -> None:
        # bytearray/memoryview are appended directly — no bytes() copy.
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise BAD_PARAM(f"expected bytes, got {type(data).__name__}")
        self.write_ulong(len(data))
        self._buf.extend(data)

    def write_encapsulation(self, data: bytes) -> None:
        """Write *data* as a CDR encapsulation (ulong length + bytes)."""
        self.write_octet_sequence(data)


class CDRDecoder:
    """Reads CDR-encoded values from a buffer."""

    __slots__ = ("_buf", "_pos")

    def __init__(self, data: bytes) -> None:
        # Plain bytes, not a memoryview: giop hands every decoder a
        # bytes slice already, and CPython indexes, slices and
        # UTF-8-decodes bytes faster than a view of them (the
        # push_batch argument decode, two 64-string sequences, measured
        # 66 -> 48 us).  Anything else is snapshotted once.
        self._buf = data if type(data) is bytes else bytes(data)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._buf) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._buf)

    def align(self, n: int) -> None:
        self._pos += (-self._pos) % n

    def _unpack(self, fmt: str, size: int):
        self.align(size)
        if self._pos + size > len(self._buf):
            raise BAD_PARAM(
                f"CDR underflow: need {size} bytes at {self._pos}, "
                f"have {len(self._buf)}"
            )
        (value,) = _struct.unpack_from(fmt, self._buf, self._pos)
        self._pos += size
        return value

    def read_octet(self) -> int:
        return self._unpack(">B", 1)

    def read_boolean(self) -> bool:
        return bool(self._unpack(">B", 1))

    def read_char(self) -> str:
        return chr(self._unpack(">B", 1))

    def read_short(self) -> int:
        return self._unpack(">h", 2)

    def read_ushort(self) -> int:
        return self._unpack(">H", 2)

    def read_long(self) -> int:
        return self._unpack(">i", 4)

    def read_ulong(self) -> int:
        return self._unpack(">I", 4)

    def read_longlong(self) -> int:
        return self._unpack(">q", 8)

    def read_ulonglong(self) -> int:
        return self._unpack(">Q", 8)

    def read_float(self) -> float:
        return self._unpack(">f", 4)

    def read_double(self) -> float:
        return self._unpack(">d", 8)

    def read_string(self) -> str:
        length = self.read_ulong()
        buf = self._buf
        pos = self._pos
        stop = pos + length
        if stop > len(buf):
            raise BAD_PARAM("CDR underflow reading string")
        if length == 0 or buf[stop - 1]:
            raise BAD_PARAM("string not NUL-terminated")
        self._pos = stop
        try:
            return buf[pos:stop - 1].decode()
        except UnicodeDecodeError as exc:
            # A corrupted wire must surface as a SystemException, never
            # as a raw Python error escaping the decoder.
            raise MARSHAL(f"invalid UTF-8 in string: {exc}") from None

    def read_octet_sequence(self) -> bytes:
        length = self.read_ulong()
        if self._pos + length > len(self._buf):
            raise BAD_PARAM("CDR underflow reading octet sequence")
        raw = self._buf[self._pos:self._pos + length]
        self._pos += length
        return raw

    read_encapsulation = read_octet_sequence


class Any:
    """A self-describing value: (TypeCode, value)."""

    __slots__ = ("typecode", "value")

    def __init__(self, typecode: TypeCode, value) -> None:
        self.typecode = typecode
        self.value = value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Any)
            and self.typecode == other.typecode
            and self.value == other.value
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash((self.typecode, repr(self.value)))

    def __repr__(self) -> str:
        return f"Any({self.typecode!r}, {self.value!r})"


# -- value (un)marshalling -----------------------------------------------------

_get_plan = None  # resolved lazily; avoids a circular import with compiled


def encode_value(enc: CDREncoder, tc: TypeCode, value, _depth: int = 0) -> None:
    """CDR-encode *value* as type *tc* into *enc*.

    Top-level calls (``_depth == 0``) run through the codec-plan cache
    (generated codecs); nested calls stay on the reference interpreter.
    """
    if _depth:
        encode_value_interp(enc, tc, value, _depth)
        return
    global _get_plan
    if _get_plan is None:
        from repro.orb.compiled import get_plan as _get_plan_fn
        _get_plan = _get_plan_fn
    _get_plan(tc).encode(enc, value)


def decode_value(dec: CDRDecoder, tc: TypeCode, _depth: int = 0):
    """Decode a value of type *tc* from *dec* (generated fast path)."""
    if _depth:
        return decode_value_interp(dec, tc, _depth)
    global _get_plan
    if _get_plan is None:
        from repro.orb.compiled import get_plan as _get_plan_fn
        _get_plan = _get_plan_fn
    return _get_plan(tc).decode(dec)


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
    elif kind is TCKind.SHORT:
        enc.write_short(value)
    elif kind is TCKind.LONG:
        enc.write_long(value)
    elif kind is TCKind.USHORT:
        enc.write_ushort(value)
    elif kind is TCKind.ULONG:
        enc.write_ulong(value)
    elif kind is TCKind.LONGLONG:
        enc.write_longlong(value)
    elif kind is TCKind.ULONGLONG:
        enc.write_ulonglong(value)
    elif kind is TCKind.FLOAT:
        enc.write_float(value)
    elif kind is TCKind.DOUBLE:
        enc.write_double(value)
    elif kind is TCKind.BOOLEAN:
        enc.write_boolean(value)
    elif kind is TCKind.CHAR:
        enc.write_char(value)
    elif kind is TCKind.OCTET:
        enc.write_octet(value)
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
    if kind is TCKind.SHORT:
        return dec.read_short()
    if kind is TCKind.LONG:
        return dec.read_long()
    if kind is TCKind.USHORT:
        return dec.read_ushort()
    if kind is TCKind.ULONG:
        return dec.read_ulong()
    if kind is TCKind.LONGLONG:
        return dec.read_longlong()
    if kind is TCKind.ULONGLONG:
        return dec.read_ulonglong()
    if kind is TCKind.FLOAT:
        return dec.read_float()
    if kind is TCKind.DOUBLE:
        return dec.read_double()
    if kind is TCKind.BOOLEAN:
        return dec.read_boolean()
    if kind is TCKind.CHAR:
        return dec.read_char()
    if kind is TCKind.OCTET:
        return dec.read_octet()
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


def _encode_objref(enc: CDREncoder, value) -> None:
    # Deferred import: ior.py has no dependency back on cdr.
    from repro.orb.ior import IOR

    if value is None:  # nil reference
        enc.write_string("")
        return
    ior = getattr(value, "_ior", value)  # stubs carry ._ior
    if not isinstance(ior, IOR):
        raise BAD_PARAM(f"expected IOR or stub, got {type(value).__name__}")
    enc.write_string(ior.to_string())


def _decode_objref(dec: CDRDecoder):
    from repro.orb.ior import IOR

    text = dec.read_string()
    if not text:
        return None
    try:
        return IOR.from_string(text)
    except ValueError as exc:
        raise INV_OBJREF(str(exc)) from None


# -- TypeCode (un)marshalling --------------------------------------------------
# Simple kinds travel as a ulong kind tag; parameterized kinds add their
# parameters in a CDR encapsulation, mirroring real CDR TypeCode encoding.

_SIMPLE_KINDS = {
    TCKind.NULL, TCKind.VOID, TCKind.SHORT, TCKind.LONG, TCKind.USHORT,
    TCKind.ULONG, TCKind.FLOAT, TCKind.DOUBLE, TCKind.BOOLEAN, TCKind.CHAR,
    TCKind.OCTET, TCKind.ANY, TCKind.STRING, TCKind.LONGLONG,
    TCKind.ULONGLONG, TCKind.OCTETSEQ,
}


def encode_typecode(enc: CDREncoder, tc: TypeCode, _depth: int = 0) -> None:
    if _depth > _MAX_NESTING:
        raise BAD_PARAM("TypeCode nesting too deep")
    enc.write_ulong(tc.kind.value)
    if tc.kind in _SIMPLE_KINDS:
        return
    body = CDREncoder()
    if tc.kind is TCKind.OBJREF:
        body.write_string(tc.repo_id)
        body.write_string(tc.name)
    elif tc.kind in (TCKind.STRUCT, TCKind.EXCEPT):
        body.write_string(tc.repo_id)
        body.write_string(tc.name)
        body.write_ulong(len(tc.members))
        for name, mtc in tc.members:
            body.write_string(name)
            encode_typecode(body, mtc, _depth + 1)
    elif tc.kind is TCKind.ENUM:
        body.write_string(tc.repo_id)
        body.write_string(tc.name)
        body.write_ulong(len(tc.labels))
        for label in tc.labels:
            body.write_string(label)
    elif tc.kind in (TCKind.SEQUENCE, TCKind.ARRAY):
        assert tc.content_type is not None
        encode_typecode(body, tc.content_type, _depth + 1)
        body.write_ulong(tc.length)
    elif tc.kind is TCKind.ALIAS:
        body.write_string(tc.repo_id)
        body.write_string(tc.name)
        assert tc.content_type is not None
        encode_typecode(body, tc.content_type, _depth + 1)
    elif tc.kind is TCKind.UNION:
        body.write_string(tc.repo_id)
        body.write_string(tc.name)
        assert tc.discriminator_type is not None
        encode_typecode(body, tc.discriminator_type, _depth + 1)
        body.write_long(tc.default_index)
        body.write_ulong(len(tc.members))
        for label, name, mtc in tc.members:
            # Default arms carry label None; flag them instead of
            # marshalling a discriminator value.
            if label is None:
                body.write_boolean(True)
            else:
                body.write_boolean(False)
                encode_value_interp(body, tc.discriminator_type, label,
                                    _depth + 1)
            body.write_string(name)
            encode_typecode(body, mtc, _depth + 1)
    else:  # pragma: no cover
        raise BAD_PARAM(f"cannot marshal TypeCode kind {tc.kind}")
    enc.write_encapsulation(body.take())


def _checked_count(dec: CDRDecoder, what: str) -> int:
    """Read a ulong member/label count, bounded by the remaining bytes."""
    n = dec.read_ulong()
    if n > dec.remaining:
        raise MARSHAL(
            f"{what} count {n} exceeds {dec.remaining} remaining bytes"
        )
    return n


def decode_typecode(dec: CDRDecoder, _depth: int = 0) -> TypeCode:
    if _depth > _MAX_NESTING:
        raise BAD_PARAM("TypeCode nesting too deep")
    try:
        kind = TCKind(dec.read_ulong())
    except ValueError as exc:
        raise BAD_PARAM(f"unknown TypeCode kind: {exc}") from None
    if kind in _SIMPLE_KINDS:
        return TypeCode(kind)
    body = CDRDecoder(dec.read_encapsulation())
    if kind is TCKind.OBJREF:
        repo_id = body.read_string()
        name = body.read_string()
        return TypeCode(kind, name=name, repo_id=repo_id)
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        repo_id = body.read_string()
        name = body.read_string()
        n = _checked_count(body, "struct member")
        members = []
        for _ in range(n):
            mname = body.read_string()
            members.append((mname, decode_typecode(body, _depth + 1)))
        return TypeCode(kind, name=name, repo_id=repo_id, members=members)
    if kind is TCKind.ENUM:
        repo_id = body.read_string()
        name = body.read_string()
        n = _checked_count(body, "enum label")
        labels = [body.read_string() for _ in range(n)]
        return TypeCode(kind, name=name, repo_id=repo_id, labels=labels)
    if kind in (TCKind.SEQUENCE, TCKind.ARRAY):
        content = decode_typecode(body, _depth + 1)
        length = body.read_ulong()
        return TypeCode(kind, content_type=content, length=length)
    if kind is TCKind.ALIAS:
        repo_id = body.read_string()
        name = body.read_string()
        content = decode_typecode(body, _depth + 1)
        return TypeCode(kind, name=name, repo_id=repo_id, content_type=content)
    if kind is TCKind.UNION:
        repo_id = body.read_string()
        name = body.read_string()
        disc = decode_typecode(body, _depth + 1)
        default_index = body.read_long()
        n = _checked_count(body, "union arm")
        members = []
        for _ in range(n):
            is_default = body.read_boolean()
            label = None if is_default else decode_value_interp(body, disc)
            mname = body.read_string()
            members.append((label, mname, decode_typecode(body, _depth + 1)))
        return TypeCode(kind, name=name, repo_id=repo_id, members=members,
                        discriminator_type=disc, default_index=default_index)
    raise BAD_PARAM(f"cannot unmarshal TypeCode kind {kind}")  # pragma: no cover


# -- convenience ---------------------------------------------------------------

def encode_one(tc: TypeCode, value) -> bytes:
    """Encode a single value to bytes."""
    enc = CDREncoder()
    encode_value(enc, tc, value)
    return enc.getvalue()


def decode_one(tc: TypeCode, data: bytes):
    """Decode a single value from bytes."""
    return decode_value(CDRDecoder(data), tc)
