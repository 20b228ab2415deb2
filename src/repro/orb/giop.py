"""GIOP-style message framing for the ORB.

Requests and replies are fully CDR-encoded; the encoded byte string is
what travels across the simulated network, so wire sizes are real and
the decoder is exercised on every message.

Message grammar (all CDR, big-endian):

    message   := octet msg_type, body
    request   := ulong request_id, boolean response_expected,
                 string host, string adapter, string object_key,
                 string operation, octetseq args, service_context
    reply     := ulong request_id, ulong status, octetseq body
    service_context := ulong count,
                       { ulong context_id, octetseq context_data }*

The service context (the shape of real GIOP's ``IOP::ServiceContext``)
is a small, ordered set of slots interceptors use to propagate
out-of-band state along a call chain.  A slot's data is opaque here:
the id names its reader (:data:`repro.obs.trace.TRACE_CONTEXT_ID` is
the 8-byte trace slot) and unknown ids are carried and ignored.  An
empty context is the 4-byte zero count.

Reply status is one of NO_EXCEPTION / USER_EXCEPTION / SYSTEM_EXCEPTION;
user exception bodies carry ``string repo_id`` then the members, system
exception bodies carry ``string repo_id, string reason, ulong minor,
ulong completed``.
"""

from __future__ import annotations

import struct as _struct

from repro.orb.cdr import CDRDecoder
from repro.orb.exceptions import BAD_PARAM, MARSHAL

MSG_REQUEST = 0
MSG_REPLY = 1
MSG_MULTI = 2

#: Hard cap on service-context slots accepted from the wire.  Legitimate
#: senders carry a handful (the trace slot); a corrupted count must not
#: drive thousands of decode attempts or allocations.
MAX_SERVICE_CONTEXT_SLOTS = 32

#: Hard cap on logical frames accepted inside one MSG_MULTI transmission.
#: Senders flush well below this (the ORB's pipeline thresholds); a
#: corrupted count must not drive thousands of frame allocations.
MAX_MULTI_FRAMES = 512

NO_EXCEPTION = 0
USER_EXCEPTION = 1
SYSTEM_EXCEPTION = 2

_VALID_STATUS = (NO_EXCEPTION, USER_EXCEPTION, SYSTEM_EXCEPTION)

# Fixed header prefixes, packed in one shot instead of re-running the
# generic CDR encoder per message.  Layouts are byte-identical to the
# original octet/ulong/boolean writes (octet, 3 pad for ulong
# alignment, then the header fields).
_REQ_HEAD = _struct.Struct(">B3xI?")   # msg_type, request_id, response_expected
_REPLY_HEAD = _struct.Struct(">B3xII")  # msg_type, request_id, status
_MULTI_HEAD = _struct.Struct(">B3xI")   # msg_type, frame count
_ULONG = _struct.Struct(">I")
_SLOT_HEAD = _struct.Struct(">II")      # context_id, context_data length


class RequestMessage:
    """A GIOP Request: invoke *operation* on (host, adapter, object_key).

    A plain ``__slots__`` class rather than a frozen dataclass: one is
    built per inbound request, and a frozen dataclass pays an
    ``object.__setattr__`` per field in ``__init__`` (~5x the cost of
    plain attribute stores for these eight fields).
    """

    __slots__ = ("request_id", "response_expected", "host", "adapter",
                 "object_key", "operation", "args", "service_context")

    def __init__(self, request_id: int, response_expected: bool, host: str,
                 adapter: str, object_key: str, operation: str,
                 args: bytes,
                 service_context: tuple[tuple[int, bytes], ...] = ()) -> None:
        self.request_id = request_id
        self.response_expected = response_expected
        self.host = host
        self.adapter = adapter
        self.object_key = object_key
        self.operation = operation
        #: CDR encapsulation of in/inout parameters.
        self.args = args
        #: interceptor-propagated (context_id, context_data) slots.
        self.service_context = service_context

    def _key(self):
        return (self.request_id, self.response_expected, self.host,
                self.adapter, self.object_key, self.operation, self.args,
                self.service_context)

    def __eq__(self, other) -> bool:
        if type(other) is not RequestMessage:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"RequestMessage(request_id={self.request_id!r}, "
                f"operation={self.operation!r}, host={self.host!r}, "
                f"adapter={self.adapter!r}, "
                f"object_key={self.object_key!r})")

    def encode(self) -> bytes:
        prefix = encode_request_prefix(
            self.host, self.adapter, self.object_key, self.operation)
        return encode_request(self.request_id, self.response_expected,
                              prefix, self.args, self.service_context)


class ReplyMessage:
    """A GIOP Reply matching a request by id.

    Same ``__slots__`` treatment as :class:`RequestMessage`: one is
    built per reply received, so construction cost is hot-path cost.
    """

    __slots__ = ("request_id", "status", "body")

    def __init__(self, request_id: int, status: int, body: bytes) -> None:
        if status not in _VALID_STATUS:
            raise BAD_PARAM(f"invalid reply status {status}")
        self.request_id = request_id
        self.status = status
        self.body = body

    def __eq__(self, other) -> bool:
        if type(other) is not ReplyMessage:
            return NotImplemented
        return (self.request_id == other.request_id
                and self.status == other.status
                and self.body == other.body)

    def __hash__(self) -> int:
        return hash((self.request_id, self.status, self.body))

    def __repr__(self) -> str:
        return (f"ReplyMessage(request_id={self.request_id!r}, "
                f"status={self.status!r}, body=<{len(self.body)} bytes>)")

    def encode(self) -> bytes:
        return encode_reply(self.request_id, self.status, self.body)


class MultiMessage:
    """A pipelined GIOP transmission: many logical messages, one frame.

    Small requests sharing a link within a flush window are coalesced
    into one MSG_MULTI so the simulated network charges one header and
    one per-message delivery for the whole burst.  ``frames`` holds the
    *encoded* sub-messages in send order; the receiving ORB decodes and
    dispatches each one through its normal per-message path, so a
    corrupted frame can be rejected without losing its neighbours.
    """

    __slots__ = ("frames",)

    def __init__(self, frames: tuple) -> None:
        self.frames = tuple(frames)

    def __eq__(self, other) -> bool:
        if type(other) is not MultiMessage:
            return NotImplemented
        return self.frames == other.frames

    def __hash__(self) -> int:
        return hash(self.frames)

    def __repr__(self) -> str:
        return f"MultiMessage({len(self.frames)} frames)"

    def encode(self) -> bytes:
        return encode_multi(self.frames)


def encode_multi(frames) -> bytes:
    """Frame *frames* (encoded GIOP messages) as one MSG_MULTI.

    Wire form: ``octet MSG_MULTI, 3 pad, ulong count`` then per frame
    ``ulong length, bytes, pad to 4``.  Each element may be ``bytes``,
    ``bytearray`` or ``memoryview``.
    """
    if not frames:
        raise BAD_PARAM("cannot encode an empty MSG_MULTI")
    if len(frames) > MAX_MULTI_FRAMES:
        raise BAD_PARAM(f"{len(frames)} frames exceed the MSG_MULTI cap "
                        f"{MAX_MULTI_FRAMES}")
    buf = bytearray(_MULTI_HEAD.pack(MSG_MULTI, len(frames)))
    for frame in frames:
        buf += _ULONG.pack(len(frame))
        buf += frame
        pad = (-len(buf)) & 3
        if pad:
            buf += b"\x00" * pad
    return bytes(buf)


def encode_request_prefix(host: str, adapter: str, object_key: str,
                          operation: str) -> bytes:
    """Pre-encode the four routing strings of a request body.

    The segment assumes it follows the 9-byte fixed request header, so
    it begins with the 3 pad bytes that 4-align the first length word.
    Repeat invocations of the same operation on the same target reuse
    the cached segment and skip four string encodes per call.
    """
    buf = bytearray()
    for s in (host, adapter, object_key, operation):
        data = s.encode("utf-8")
        pad = (-(_REQ_HEAD.size + len(buf))) & 3
        if pad:
            buf += b"\x00" * pad
        buf += _ULONG.pack(len(data) + 1)
        buf += data
        buf.append(0)
    return bytes(buf)


def encode_request(request_id: int, response_expected: bool, prefix: bytes,
                   args, service_context=()) -> bytes:
    """One-pass request encode from a pre-built routing *prefix*.

    *args* may be ``bytes``, ``bytearray`` or ``memoryview`` — callers
    holding a pooled encoder buffer can pass it without snapshotting.
    *service_context* is any sequence of ``(context_id, context_data)``.
    """
    try:
        buf = bytearray(_REQ_HEAD.pack(
            MSG_REQUEST, request_id, response_expected))
    except (_struct.error, TypeError) as exc:
        raise BAD_PARAM(f"cannot marshal request header: {exc}") from None
    buf += prefix
    # _append_octetseq inlined: this append runs once per request sent.
    pad = (-len(buf)) & 3
    if pad:
        buf += b"\x00" * pad
    buf += _ULONG.pack(len(args))
    buf += args
    pad = (-len(buf)) & 3
    if pad:
        buf += b"\x00" * pad
    buf += _ULONG.pack(len(service_context))
    for context_id, context_data in service_context:
        pad = (-len(buf)) & 3
        if pad:
            buf += b"\x00" * pad
        buf += _SLOT_HEAD.pack(context_id, len(context_data))
        buf += context_data
    return bytes(buf)


def request_size(prefix_len: int, args_len: int, service_context=()) -> int:
    """``len(encode_request(...))`` for a routing prefix of *prefix_len*
    bytes and *args_len* bytes of arguments, without building the frame
    (a collocated request is never framed, but is metered and traced at
    the size it would have had)."""
    size = _REQ_HEAD.size + prefix_len
    size += ((-size) & 3) + 4 + args_len
    size += ((-size) & 3) + 4
    for _context_id, context_data in service_context:
        size += ((-size) & 3) + _SLOT_HEAD.size + len(context_data)
    return size


#: Frame bytes of a reply before its body: the 12-byte header and the
#: body's length word; ``len(encode_reply(...)) - len(body)``.
REPLY_HEADER_BYTES = _REPLY_HEAD.size + _ULONG.size


def encode_reply(request_id: int, status: int, body) -> bytes:
    """One-pass reply encode.

    *body* may be ``bytes``, ``bytearray`` or ``memoryview``; the reply
    header is a fixed 12-byte, 4-aligned prefix so the body follows
    with no pad.
    """
    if status not in _VALID_STATUS:
        raise BAD_PARAM(f"invalid reply status {status}")
    try:
        buf = bytearray(_REPLY_HEAD.pack(MSG_REPLY, request_id, status))
    except (_struct.error, TypeError) as exc:
        raise BAD_PARAM(f"cannot marshal reply header: {exc}") from None
    buf += _ULONG.pack(len(body))
    buf += body
    return bytes(buf)


#: Python exceptions a hostile byte stream can provoke inside the
#: decoder; all of them must surface as MARSHAL, never raw.
_DECODE_ERRORS = (
    _struct.error, UnicodeDecodeError, OverflowError, ValueError,
    IndexError, TypeError,
)


#: Parsed request routing segments (host, adapter, object_key,
#: operation), keyed by their exact wire bytes.  Repeat invocations of
#: the same operation carry an identical segment, and the segment is
#: self-delimiting — parsing is a prefix-deterministic function of the
#: bytes from offset 9, so equal bytes imply the same four strings and
#: the same end offset.  A hit skips four string decodes; any mutation
#: inside the segment misses and takes the validating slow path.
_SEG_CACHE: dict[bytes, tuple[str, str, str, str]] = {}
_SEG_LENS: list[int] = []
#: Cleared wholesale when full.  The cache pays: off, a two-host null
#: call costs +26 % (19.95 -> 25.11 us, DESIGN "Cache ablation").
_SEG_CACHE_MAX = 512


def decode_message(data: bytes) -> "RequestMessage | ReplyMessage":
    """Decode either message kind from its wire form.

    Defensive: length and count fields are validated against the bytes
    actually present *before* anything is allocated or iterated, and
    every decode-time Python error is converted to :class:`MARSHAL`.
    The only exceptions this function ever raises are
    :class:`~repro.orb.exceptions.SystemException` subclasses.
    """
    try:
        return _decode_message_body(data)
    except _DECODE_ERRORS as exc:
        raise MARSHAL(f"malformed GIOP message: {exc!r}") from None


def _decode_message_body(data) -> "RequestMessage | ReplyMessage":
    # Work on a plain bytes object: slices hash (for the segment cache)
    # and unpack_from is fastest on it.  Short frames fail inside
    # unpack_from with struct.error, which decode_message maps to
    # MARSHAL; explicit bounds checks guard every slice, because a
    # Python slice past the end truncates silently instead of raising.
    if type(data) is not bytes:
        data = bytes(data)
    if not data:
        raise BAD_PARAM("empty GIOP message")
    msg_type = data[0]
    if msg_type == MSG_REQUEST:
        _, request_id, response_expected = _REQ_HEAD.unpack_from(data, 0)
        head = _REQ_HEAD.size
        for seg_len in _SEG_LENS:
            entry = _SEG_CACHE.get(data[head:head + seg_len])
            if entry is not None:
                host, adapter, object_key, operation = entry
                pos = head + seg_len
                break
        else:
            dec = CDRDecoder(data)
            dec._pos = head
            host = dec.read_string()
            adapter = dec.read_string()
            object_key = dec.read_string()
            operation = dec.read_string()
            pos = dec._pos
            seg_len = pos - head
            if len(_SEG_CACHE) >= _SEG_CACHE_MAX:
                _SEG_CACHE.clear()
                del _SEG_LENS[:]
            _SEG_CACHE[data[head:head + seg_len]] = (
                host, adapter, object_key, operation)
            if seg_len not in _SEG_LENS:
                _SEG_LENS.append(seg_len)
        pos += (-pos) & 3
        (alen,) = _ULONG.unpack_from(data, pos)
        pos += 4
        if alen > len(data) - pos:
            raise BAD_PARAM(f"CDR underflow: need {alen} bytes at {pos}, "
                            f"have {len(data) - pos}")
        args = data[pos:pos + alen]
        pos += alen
        pos += (-pos) & 3
        (n_slots,) = _ULONG.unpack_from(data, pos)
        pos += 4
        service_context = ()
        if n_slots:
            if n_slots > MAX_SERVICE_CONTEXT_SLOTS:
                raise MARSHAL(f"service context count {n_slots} exceeds cap "
                              f"{MAX_SERVICE_CONTEXT_SLOTS}")
            # Each slot is at least its id and length words; bound the
            # loop by the bytes that are actually there.
            remaining = len(data) - pos
            if n_slots * 8 > remaining:
                raise MARSHAL(f"service context count {n_slots} exceeds "
                              f"{remaining} remaining bytes")
            for _ in range(n_slots):
                pos += (-pos) & 3
                context_id, dlen = _SLOT_HEAD.unpack_from(data, pos)
                pos += 8
                if dlen > len(data) - pos:
                    raise BAD_PARAM(f"CDR underflow: need {dlen} bytes at "
                                    f"{pos}, have {len(data) - pos}")
                # Grown in place: the usual count is one (the trace
                # slot), which then costs no list and no tuple() copy.
                service_context += ((context_id, data[pos:pos + dlen]),)
                pos += dlen
        return RequestMessage(
            request_id, response_expected, host, adapter, object_key,
            operation, args, service_context,
        )
    if msg_type == MSG_REPLY:
        _, request_id, status = _REPLY_HEAD.unpack_from(data, 0)
        pos = _REPLY_HEAD.size
        (blen,) = _ULONG.unpack_from(data, pos)
        pos += 4
        if blen > len(data) - pos:
            raise BAD_PARAM(f"CDR underflow: need {blen} bytes at {pos}, "
                            f"have {len(data) - pos}")
        return ReplyMessage(request_id, status, data[pos:pos + blen])
    if msg_type == MSG_MULTI:
        _, count = _MULTI_HEAD.unpack_from(data, 0)
        pos = _MULTI_HEAD.size
        if count == 0:
            raise MARSHAL("MSG_MULTI with zero frames")
        if count > MAX_MULTI_FRAMES:
            raise MARSHAL(f"MSG_MULTI frame count {count} exceeds cap "
                          f"{MAX_MULTI_FRAMES}")
        # Each frame needs at least its 4-byte length word; bound the
        # loop by the bytes actually present before allocating anything.
        if count * 4 > len(data) - pos:
            raise MARSHAL(f"MSG_MULTI frame count {count} exceeds "
                          f"{len(data) - pos} remaining bytes")
        frames = []
        for _ in range(count):
            (flen,) = _ULONG.unpack_from(data, pos)
            pos += 4
            if flen > len(data) - pos:
                raise BAD_PARAM(f"CDR underflow: need {flen} bytes at "
                                f"{pos}, have {len(data) - pos}")
            frames.append(data[pos:pos + flen])
            pos += flen
            pos += (-pos) & 3
        return MultiMessage(tuple(frames))
    raise BAD_PARAM(f"unknown GIOP message type {msg_type}")
