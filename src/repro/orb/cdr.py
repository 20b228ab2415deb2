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

Values travel through one tier: :func:`encode_value` /
:func:`decode_value` hand *tc* to its codec plan
(:func:`repro.orb.compiled.get_plan`), whose encode/decode pair is
generated source (:mod:`repro.orb.codegen`).  This module keeps the
stream classes, the primitives the ORB's own framing writes, object
references and TypeCode marshalling.  The reference interpreter that
the generated codecs are checked against lives in
``tests/oracles/cdr_interp.py``.
"""

from __future__ import annotations

import struct as _struct

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
    def write_boolean(self, v: bool) -> None:
        self._pack(">B", 1, 1 if v else 0)

    def write_long(self, v: int) -> None:
        self._pack(">i", 4, v)

    def write_ulong(self, v: int) -> None:
        self._pack(">I", 4, v)

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
        # UTF-8-decodes bytes faster than a view of them (measured
        # 66 -> 48 us on push_batch arguments in an earlier shape, two
        # 64-string sequences).  Anything else is snapshotted once.
        self._buf = data if type(data) is bytes else bytes(data)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._buf) - self._pos

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

    def read_boolean(self) -> bool:
        return bool(self._unpack(">B", 1))

    def read_long(self) -> int:
        return self._unpack(">i", 4)

    def read_ulong(self) -> int:
        return self._unpack(">I", 4)

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

def encode_value(enc: CDREncoder, tc: TypeCode, value) -> None:
    """CDR-encode *value* as type *tc* into *enc* through its codec plan."""
    _compiled.get_plan(tc).encode(enc, value)


def decode_value(dec: CDRDecoder, tc: TypeCode):
    """Decode a value of type *tc* from *dec* through its codec plan."""
    return _compiled.get_plan(tc).decode(dec)


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
                encode_value(body, tc.discriminator_type, label)
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
            label = None if is_default else decode_value(body, disc)
            mname = body.read_string()
            members.append((label, mname, decode_typecode(body, _depth + 1)))
        return TypeCode(kind, name=name, repo_id=repo_id, members=members,
                        discriminator_type=disc, default_index=default_index)
    raise BAD_PARAM(f"cannot unmarshal TypeCode kind {kind}")  # pragma: no cover


# Imported last: the plans build on the stream classes above, while this
# module only reaches into them from inside encode_value/decode_value.
from repro.orb import compiled as _compiled  # noqa: E402
