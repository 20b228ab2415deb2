"""GIOP request pipelining: coalescing, unpacking, admission, crashes."""

import pytest

from repro.orb import giop
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import BAD_PARAM, MARSHAL
from repro.orb.typecodes import tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import HEADER_BYTES, Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

IFACE = InterfaceDef("IDL:test/Sink:1.0", "Sink", operations=[
    op("note", [("x", tc_long)], oneway=True),
    op("slow_note", [("x", tc_long)], oneway=True, cpu_cost=40.0),
    op("ask", [("s", tc_string)], tc_string),
])
NOTE = IFACE.operations["note"]
SLOW_NOTE = IFACE.operations["slow_note"]
ASK = IFACE.operations["ask"]


class SinkServant(Servant):
    _interface = IFACE

    def __init__(self):
        self.notes = []

    def note(self, x):
        self.notes.append(x)

    def slow_note(self, x):
        self.notes.append(x)

    def ask(self, s):
        return s.upper()


def make_rig(server_kwargs=None, **client_kwargs):
    env = Environment()
    net = Network(env, star(2), rngs=RngRegistry(5))
    server = ORB(env, net, "h0", **(server_kwargs or {}))
    client = ORB(env, net, "h1", **client_kwargs)
    servant = SinkServant()
    ior = server.adapter("root").activate(servant)
    return env, net, server, client, servant, ior


class TestMultiFraming:
    def test_encode_multi_rejects_empty_and_oversize(self):
        with pytest.raises(BAD_PARAM):
            giop.encode_multi([])
        with pytest.raises(BAD_PARAM):
            giop.encode_multi([b"x"] * (giop.MAX_MULTI_FRAMES + 1))

    def test_roundtrip_preserves_frame_bytes(self):
        frames = [b"abc", b"defg", b"x" * 13]
        decoded = giop._decode_message_body(giop.encode_multi(frames))
        assert type(decoded) is giop.MultiMessage
        assert list(decoded.frames) == frames

    def test_truncated_multi_is_a_decode_error(self):
        # Underflow surfaces as BAD_PARAM (bounds check) or MARSHAL
        # (struct error) — either way a SystemException, never a raw
        # Python error escaping the defensive decoder.
        wire = giop.encode_multi([b"abcd", b"efgh"])
        for cut in (4, 9, len(wire) - 1):
            with pytest.raises((MARSHAL, BAD_PARAM)):
                giop.decode_message(wire[:cut])

    def test_absurd_count_rejected_before_allocation(self):
        import struct
        wire = struct.pack(">B3xI", giop.MSG_MULTI, 2 ** 31)
        with pytest.raises(MARSHAL):
            giop._decode_message_body(wire)


class TestCoalescing:
    def test_window_coalesces_oneways_into_one_message(self):
        env, net, _server, client, servant, ior = make_rig(
            pipeline_window=0.01)
        before = net.metrics.get("net.messages")
        for i in range(5):
            client.send_oneway(ior, NOTE, (i,))
        env.run(until=1.0)
        assert servant.notes == [0, 1, 2, 3, 4]          # order kept
        assert net.metrics.get("net.messages") == before + 1
        assert net.metrics.get("net.logical") == 5
        assert net.metrics.get("orb.pipeline.flushes") == 1
        assert net.metrics.get("orb.pipeline.frames") == 5

    def test_header_amortization_saves_bytes(self):
        sent = {}
        for window in (None, 0.01):
            env, net, _server, client, servant, ior = make_rig(
                pipeline_window=window)
            for i in range(10):
                client.send_oneway(ior, NOTE, (i,))
            env.run(until=1.0)
            assert servant.notes == list(range(10))
            sent[window] = net.metrics.get("net.bytes")
        # 10 messages carry 10 headers; 1 coalesced message carries 1.
        # Framing adds 8 bytes + ~8/frame, far less than 9 headers.
        assert sent[0.01] <= sent[None] - 7 * HEADER_BYTES

    def test_frame_threshold_flushes_without_waiting(self):
        env, net, _server, client, servant, ior = make_rig(
            pipeline_window=60.0)
        client.channels.max_frames = 3
        for i in range(3):
            client.send_oneway(ior, NOTE, (i,))
        env.run(until=1.0)      # far below the 60 s window
        assert servant.notes == [0, 1, 2]

    def test_byte_threshold_flushes_without_waiting(self):
        env, net, _server, client, servant, ior = make_rig(
            pipeline_window=60.0)
        client.channels.max_bytes = 100
        client.send_oneway(ior, NOTE, (1,))
        client.send_oneway(ior, NOTE, (2,))   # pushes past 100 bytes
        env.run(until=1.0)
        assert servant.notes == [1, 2]

    def test_single_frame_window_sends_plain_message(self):
        env, net, _server, client, servant, ior = make_rig(
            pipeline_window=0.01)
        client.send_oneway(ior, NOTE, (7,))
        env.run(until=1.0)
        assert servant.notes == [7]
        assert net.metrics.get("orb.pipeline.flushes") == 0

    def test_flush_pipelines_forces_early_send(self):
        env, net, _server, client, servant, ior = make_rig(
            pipeline_window=60.0)
        client.send_oneway(ior, NOTE, (1,))
        client.send_oneway(ior, NOTE, (2,))
        client.flush_pipelines()
        env.run(until=1.0)
        assert servant.notes == [1, 2]

    def test_twoway_traffic_not_pipelined(self):
        env, net, _server, client, _servant, ior = make_rig(
            pipeline_window=60.0)
        reply = client.invoke(ior, ASK, ("hi",), timeout=5.0)
        env.run(until=1.0)
        assert reply.ok and reply.value == "HI"


class TestUnpackSemantics:
    def test_each_frame_goes_through_admission(self):
        # dispatch_limit 1 + slow servant: the first logical request in
        # the multi occupies the table; the rest are shed one by one —
        # coalescing must not smuggle requests past admission.
        env, net, _server, client, servant, ior = make_rig(
            server_kwargs={"dispatch_limit": 1}, pipeline_window=0.01)
        for i in range(5):
            client.send_oneway(ior, SLOW_NOTE, (i,))
        env.run(until=10.0)
        assert servant.notes == [0]
        assert net.metrics.get("orb.shed") == 4
        assert net.metrics.get("orb.shed.oneway") == 4

    def test_oneway_shed_counter_without_pipelining(self):
        # Regression (pre-PR failing): shed oneways were only visible
        # in the aggregate orb.shed, indistinguishable from two-ways.
        env, net, _server, client, servant, ior = make_rig(
            server_kwargs={"dispatch_limit": 1})
        for i in range(4):
            client.send_oneway(ior, SLOW_NOTE, (i,))
        env.run(until=10.0)
        assert servant.notes == [0]
        assert net.metrics.get("orb.shed.oneway") == 3
        assert net.metrics.get("orb.shed") == 3

    def test_nested_multi_rejected_frame_not_fatal(self):
        env, net, server, _client, servant, ior = make_rig()
        inner = giop.encode_multi([b"\x00bogus"])
        good = giop.encode_request(
            1, False, giop.encode_request_prefix(
                "h0", ior.adapter, ior.object_key, "note"),
            b"\x00\x00\x00\x2a")
        wire = giop.encode_multi([inner, good, b"\xff garbage"])
        net.send("h1", "h0", "giop", wire, len(wire), frames=3)
        env.run(until=1.0)
        # The nested multi and the garbage frame are counted bad; the
        # good frame in between still dispatches.
        assert net.metrics.get("orb.bad_messages") == 2
        assert servant.notes == [42]


class TestFanout:
    def test_fanout_reaches_every_target(self):
        env, net, server, client, _servant, _ior = make_rig()
        servants = [SinkServant(), SinkServant()]
        iors = [server.adapter(f"a{k}").activate(s)
                for k, s in enumerate(servants)]
        client.send_oneway_fanout(iors, NOTE, (5,))
        env.run(until=1.0)
        assert [s.notes for s in servants] == [[5], [5]]

    def test_fanout_rejects_twoway(self):
        _env, _net, _server, client, _servant, ior = make_rig()
        with pytest.raises(BAD_PARAM):
            client.send_oneway_fanout([ior], ASK, ("hi",))

    def test_fanout_frames_coalesce_under_pipelining(self):
        # Both targets live on the same host: the per-target frames of
        # one fanout land in the same pipeline channel and ship as a
        # single multi-request transmission.
        env, net, server, client, _servant, _ior = make_rig(
            pipeline_window=0.01)
        servants = [SinkServant(), SinkServant()]
        iors = [server.adapter(f"a{k}").activate(s)
                for k, s in enumerate(servants)]
        before = net.metrics.get("net.messages")
        client.send_oneway_fanout(iors, NOTE, (8,))
        env.run(until=1.0)
        assert [s.notes for s in servants] == [[8], [8]]
        assert net.metrics.get("net.messages") == before + 1
        assert net.metrics.get("orb.pipeline.frames") == 2


class TestCrashSemantics:
    def test_crash_discards_buffered_frames(self):
        env, net, _server, client, servant, ior = make_rig(
            pipeline_window=60.0)
        client.send_oneway(ior, NOTE, (1,))
        client.send_oneway(ior, NOTE, (2,))
        host = net.topology.host("h1")
        host.crash()
        host.restart()
        env.run(until=120.0)
        assert servant.notes == []    # pre-crash frames must not flush
        client.send_oneway(ior, NOTE, (3,))
        client.flush_pipelines()
        env.run(until=130.0)
        assert servant.notes == [3]   # channel still usable after restart
