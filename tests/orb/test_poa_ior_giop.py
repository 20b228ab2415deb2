"""Unit tests for object adapters, IORs and GIOP framing."""

import pytest

from repro.orb import giop
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import BAD_PARAM, OBJECT_NOT_EXIST
from repro.orb.ior import IOR
from repro.orb.typecodes import tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import star
from repro.util.errors import ConfigurationError

PING = InterfaceDef("IDL:test/Ping:1.0", "Ping", operations=[
    op("ping", [], tc_long),
])


class PingServant(Servant):
    _interface = PING

    def ping(self):
        return 1


@pytest.fixture
def orb():
    env = Environment()
    net = Network(env, star(1))
    return ORB(env, net, "hub")


class TestIOR:
    def test_roundtrip(self):
        ior = IOR("IDL:a/B:1.0", "host1", "root", "obj-3")
        assert IOR.from_string(ior.to_string()) == ior

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            IOR.from_string("not an ior")
        with pytest.raises(ValueError):
            IOR.from_string("IOR:missing-parts")

    def test_reserved_characters_rejected(self):
        with pytest.raises(ValueError):
            IOR("IDL:a/B:1.0", "host/1", "root", "k")
        with pytest.raises(ValueError):
            IOR("IDL:a@B", "h", "root", "k")

    @pytest.mark.parametrize("field", ["repo_id", "host_id", "adapter",
                                       "object_key"])
    @pytest.mark.parametrize("char", ["/", "@", "\n"])
    def test_each_reserved_character_rejected_in_each_field(self, field,
                                                            char):
        parts = {"repo_id": "IDL:a/B:1.0", "host_id": "h",
                 "adapter": "root", "object_key": "k"}
        parts[field] = f"x{char}y"
        if field == "repo_id" and char == "/":
            assert IOR(**parts).repo_id == "x/y"   # ids are slash-scoped
        else:
            with pytest.raises(ValueError):
                IOR(**parts)

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            IOR("", "h", "a", "k")
        with pytest.raises(ValueError):
            IOR("IDL:a/B:1.0", "h", "", "k")

    def test_hashable_value_object(self):
        a = IOR("IDL:a/B:1.0", "h", "r", "k")
        b = IOR("IDL:a/B:1.0", "h", "r", "k")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestPOA:
    def test_activate_produces_valid_ior(self, orb):
        poa = orb.adapter("root")
        ior = poa.activate(PingServant())
        assert ior.host_id == "hub"
        assert ior.adapter == "root"
        assert ior.repo_id == PING.repo_id
        assert poa.is_active(ior.object_key)

    def test_explicit_key(self, orb):
        poa = orb.adapter("root")
        ior = poa.activate(PingServant(), key="well-known")
        assert ior.object_key == "well-known"

    def test_duplicate_key_rejected(self, orb):
        poa = orb.adapter("root")
        poa.activate(PingServant(), key="k")
        with pytest.raises(ConfigurationError):
            poa.activate(PingServant(), key="k")

    def test_deactivate_removes(self, orb):
        poa = orb.adapter("root")
        servant = PingServant()
        ior = poa.activate(servant)
        assert poa.deactivate(ior.object_key) is servant
        with pytest.raises(OBJECT_NOT_EXIST):
            poa.servant_for(ior.object_key)
        with pytest.raises(OBJECT_NOT_EXIST):
            poa.deactivate(ior.object_key)

    def test_servant_activator_lazy_incarnation(self, orb):
        poa = orb.adapter("root")
        incarnated = []

        def activator(key):
            if key.startswith("lazy"):
                incarnated.append(key)
                return PingServant()
            return None

        poa.servant_activator = activator
        servant = poa.servant_for("lazy-1")
        assert incarnated == ["lazy-1"]
        # second lookup reuses the incarnated servant
        assert poa.servant_for("lazy-1") is servant
        with pytest.raises(OBJECT_NOT_EXIST):
            poa.servant_for("other")

    def test_ior_for_active_object(self, orb):
        poa = orb.adapter("root")
        ior = poa.activate(PingServant(), key="x")
        assert poa.ior_for("x") == ior
        with pytest.raises(OBJECT_NOT_EXIST):
            poa.ior_for("ghost")

    def test_adapters_are_cached_by_name(self, orb):
        assert orb.adapter("a") is orb.adapter("a")
        assert orb.adapter("a") is not orb.adapter("b")

    def test_serve_returns_working_stub(self, orb):
        stub = orb.adapter("root").serve(PingServant())
        assert orb.sync(stub.ping()) == 1


class TestGIOP:
    def test_request_roundtrip(self):
        req = giop.RequestMessage(7, True, "h", "root", "obj-1", "ping",
                                  b"\x01\x02")
        got = giop.decode_message(req.encode())
        assert got == req

    def test_request_roundtrip_with_service_context(self):
        trace_slot = (0x5452, (1).to_bytes(4, "big") + (42).to_bytes(4, "big"))
        req = giop.RequestMessage(
            9, True, "h", "root", "obj-1", "ping", b"\x01\x02",
            service_context=(trace_slot, (99, b"opaque")))
        wire = req.encode()
        got = giop.decode_message(wire)
        assert got == req
        assert dict(got.service_context)[0x5452] == trace_slot[1]
        # count, then (id, length, 8 data bytes) = 16 B for the trace
        # slot, then (id, length, 6 data bytes) with no trailing pad.
        bare = giop.RequestMessage(9, True, "h", "root", "obj-1", "ping",
                                   b"\x01\x02").encode()
        assert len(wire) - len(bare) == 16 + 14

    def test_service_context_defaults_empty(self):
        req = giop.RequestMessage(7, True, "h", "root", "obj-1", "ping",
                                  b"")
        assert req.service_context == ()
        assert giop.decode_message(req.encode()).service_context == ()

    def test_reply_roundtrip(self):
        rep = giop.ReplyMessage(7, giop.USER_EXCEPTION, b"payload")
        got = giop.decode_message(rep.encode())
        assert got == rep

    def test_invalid_status_rejected(self):
        with pytest.raises(BAD_PARAM):
            giop.ReplyMessage(1, 99, b"")

    def test_unknown_message_type_rejected(self):
        with pytest.raises(BAD_PARAM):
            giop.decode_message(b"\xff\x00\x00\x00")

    def test_wire_size_reflects_payload(self):
        small = giop.RequestMessage(1, True, "h", "a", "k", "op", b"").encode()
        big = giop.RequestMessage(1, True, "h", "a", "k", "op",
                                  b"x" * 1000).encode()
        assert len(big) - len(small) >= 1000
