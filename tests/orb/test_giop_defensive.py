"""Defensive-decode regressions: a corrupted wire must never crash.

Two of these are pre-PR-failing regressions: invalid UTF-8 used to
escape ``decode_message`` as a raw ``UnicodeDecodeError`` and crash the
node's message handler, and a corrupted service-context count used to
be iterated without any bound.
"""

import struct

import pytest

from repro.orb import giop
from repro.orb.cdr import CDRDecoder, decode_one, decode_typecode
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import BAD_PARAM, MARSHAL, SystemException
from repro.orb.typecodes import sequence_tc, tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star


TRACE_SLOT = (0x5452, b"\x00\x00\x00\x01\x00\x00\x00\x02")


def valid_request(service_context=(TRACE_SLOT,)) -> bytes:
    return giop.RequestMessage(
        request_id=1, response_expected=True, host="h0",
        adapter="root", object_key="k", operation="ping",
        args=b"\x00\x00\x00\x01", service_context=service_context,
    ).encode()


class TestDecodeMessageDefense:
    def test_invalid_utf8_raises_marshal_not_unicode_error(self):
        # Regression: the operation string carries invalid UTF-8 (the
        # routing strings are the only text left in a request frame).
        wire = bytearray(valid_request())
        pos = wire.find(b"ping")
        wire[pos:pos + 4] = b"\xff\xfe\xfd\xfc"
        with pytest.raises(MARSHAL):
            giop.decode_message(bytes(wire))

    def test_oversized_service_context_count(self):
        # Regression: stomp the slot count with 0xFFFFFFFF; the decoder
        # must reject it up front instead of looping billions of times.
        wire = bytearray(valid_request(service_context=()))
        # The count is the last ulong of the frame.
        assert wire[-4:] == b"\x00\x00\x00\x00"
        wire[-4:] = b"\xff\xff\xff\xff"
        with pytest.raises(MARSHAL, match="service context"):
            giop.decode_message(bytes(wire))

    def test_slot_count_cap(self):
        many = tuple((i, b"v") for i in range(
            giop.MAX_SERVICE_CONTEXT_SLOTS + 1))
        wire = valid_request(service_context=many)
        with pytest.raises(MARSHAL, match="cap"):
            giop.decode_message(wire)
        at_cap = many[:giop.MAX_SERVICE_CONTEXT_SLOTS]
        decoded = giop.decode_message(valid_request(service_context=at_cap))
        assert decoded.service_context == at_cap

    def test_slot_count_bounded_by_remaining_bytes(self):
        # Two slots claimed, one slot's worth of bytes (16) behind the
        # count: refused before the loop, not by running off the end.
        wire = bytearray(valid_request())
        wire[-20:-16] = b"\x00\x00\x00\x03"
        with pytest.raises(MARSHAL, match="remaining bytes"):
            giop.decode_message(bytes(wire))

    def test_slot_data_length_past_the_frame(self):
        # The trace slot is the frame's last 16 bytes: id, length, data.
        wire = bytearray(valid_request())
        assert wire[-12:-8] == b"\x00\x00\x00\x08"
        for claimed in (9, 2 ** 16, 2 ** 32 - 1):
            wire[-12:-8] = claimed.to_bytes(4, "big")
            with pytest.raises(BAD_PARAM, match="underflow"):
                giop.decode_message(bytes(wire))

    def test_unknown_and_odd_sized_slots_are_carried(self):
        # The framing layer does not interpret slots: an id nobody
        # knows, an empty slot and a 7-byte one (padded before the next
        # slot's id) all round-trip.
        slots = ((0xDEAD, b"\x01\x02\x03\x04\x05\x06\x07"), (7, b""),
                 TRACE_SLOT)
        decoded = giop.decode_message(valid_request(service_context=slots))
        assert decoded.service_context == slots

    def test_empty_and_tiny_frames(self):
        for wire in (b"", b"\x00", b"\x01\x02", b"\xff" * 3):
            with pytest.raises(SystemException):
                giop.decode_message(wire)

    def test_every_truncation_point_is_clean(self):
        wire = valid_request()
        for cut in range(len(wire)):
            try:
                giop.decode_message(wire[:cut])
            except SystemException:
                pass  # the only acceptable failure mode

    def test_struct_error_converted(self, monkeypatch):
        # Any struct.error born inside decoding surfaces as MARSHAL.
        monkeypatch.setattr(
            giop, "_decode_message_body",
            lambda dec: (_ for _ in ()).throw(struct.error("boom")))
        with pytest.raises(MARSHAL):
            giop.decode_message(b"\x00\x00\x00\x00")


class TestCdrCountDefense:
    def test_interp_sequence_count_bounded(self):
        # count says 2^32-1 elements but only 4 bytes follow
        data = b"\xff\xff\xff\xff" + b"\x00\x00\x00\x01"
        with pytest.raises(SystemException):
            decode_one(sequence_tc(tc_long), data)

    def test_typecode_member_count_bounded(self):
        # STRUCT typecode whose member count is garbage
        from repro.orb.cdr import CDREncoder, encode_typecode
        from repro.orb.typecodes import struct_tc
        enc = CDREncoder()
        encode_typecode(enc, struct_tc("S", [("a", tc_long)],
                                       repo_id="IDL:S:1.0"))
        wire = bytearray(enc.getvalue())
        # member count lives right after the two strings in the body;
        # stomp every aligned ulong and require a clean failure mode
        for pos in range(0, len(wire) - 4, 4):
            stomped = bytearray(wire)
            stomped[pos:pos + 4] = b"\xff\xff\xff\xff"
            try:
                decode_typecode(CDRDecoder(bytes(stomped)))
            except SystemException:
                pass


IFACE = InterfaceDef("IDL:test/Echo:1.0", "Echo", operations=[
    op("echo", [("s", tc_string)], tc_string),
])


class EchoServant(Servant):
    _interface = IFACE

    def echo(self, s):
        return s


def make_rig():
    env = Environment()
    net = Network(env, star(2), rngs=RngRegistry(7))
    server = ORB(env, net, "h0")
    client = ORB(env, net, "h1")
    ior = server.adapter("root").activate(EchoServant())
    return env, net, server, client, ior


class TestMessageHandlerSurvival:
    """Regression: the ORB's message handler (now ``Listener.on_message``)
    used to catch only SystemException."""

    def test_corrupt_payload_counted_and_dropped(self):
        env, net, server, client, ior = make_rig()
        wire = bytearray(valid_request())
        pos = wire.find(b"ping")
        wire[pos:pos + 4] = b"\xff\xfe\xfd\xfc"  # invalid UTF-8
        net.send("h1", "h0", "giop", bytes(wire), len(wire))
        env.run(until=env.timeout(1.0))  # must not crash the handler
        assert net.metrics.get("orb.bad_messages") == 1

    def test_non_system_exception_from_decode_is_contained(self, monkeypatch):
        env, net, server, client, ior = make_rig()
        monkeypatch.setattr(
            "repro.orb.listener.giop._decode_message_body",
            lambda data: (_ for _ in ()).throw(RuntimeError("boom")))
        net.send("h1", "h0", "giop", b"anything", 8)
        env.run(until=env.timeout(1.0))
        assert net.metrics.get("orb.bad_messages") == 1

    def test_node_keeps_serving_after_garbage(self):
        env, net, server, client, ior = make_rig()
        odef = IFACE.operations["echo"]
        for garbage in (b"", b"\x00" * 16, bytes(range(100)), b"\xff" * 33):
            net.send("h1", "h0", "giop", garbage, len(garbage))
        env.run(until=env.timeout(1.0))
        result = client.call(ior, odef, ("still alive",), timeout=5.0)
        assert result == "still alive"
        assert net.metrics.get("orb.bad_messages") == 4
