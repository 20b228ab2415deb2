"""Tests for the container context and the per-node event broker."""

import pytest

from repro.container.context import infer_typecode
from repro.node.events import EventBroker
from repro.orb.cdr import Any
from repro.orb.exceptions import OBJECT_NOT_EXIST
from repro.orb.services.events import EVENT_CHANNEL_IFACE
from repro.orb.typecodes import (
    tc_boolean,
    tc_double,
    tc_long,
    tc_octetseq,
    tc_string,
)
from repro.testing import TICK_KIND, counter_package, star_rig
from repro.util.errors import ConfigurationError


class TestInferTypecode:
    @pytest.mark.parametrize("value,tc", [
        (True, tc_boolean),
        (7, tc_long),
        (1.5, tc_double),
        ("s", tc_string),
        (b"x", tc_octetseq),
        (bytearray(b"y"), tc_octetseq),
    ])
    def test_inference(self, value, tc):
        assert infer_typecode(value) == tc

    def test_bool_not_confused_with_int(self):
        assert infer_typecode(True) == tc_boolean
        assert infer_typecode(1) == tc_long

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            infer_typecode(object())
        with pytest.raises(ConfigurationError):
            infer_typecode([1, 2])


class TestContext:
    @pytest.fixture
    def rig(self):
        r = star_rig(2)
        r.node("hub").install_package(counter_package())
        return r

    def test_identity_fields(self, rig):
        inst = rig.node("hub").container.create_instance("Counter")
        ctx = inst.executor.context
        assert ctx.instance_id == inst.instance_id
        assert ctx.host_id == "hub"
        assert ctx.now() == rig.env.now

    def test_charge_cpu_takes_scaled_time_and_accounts(self, rig):
        hub = rig.node("hub")
        inst = hub.container.create_instance("Counter")
        ctx = inst.executor.context
        charged_before = hub.resources.cpu_seconds_charged

        def proc():
            yield ctx.charge_cpu(40.0)  # 40 units on a 1000-unit server
            return rig.env.now
        t = rig.run(until=rig.env.process(proc()))
        assert t == pytest.approx(40.0 / hub.host.profile.cpu_power)
        assert hub.resources.cpu_seconds_charged > charged_before

    def test_emit_with_explicit_any(self, rig):
        hub = rig.node("hub")
        inst = hub.container.create_instance("Counter")
        payload = Any(tc_string, "wrapped")
        inst.executor.context.emit("ticks", payload)
        assert inst.ports.event_source("ticks").emitted == 1

    def test_emit_on_wrong_port_kind_rejected(self, rig):
        from repro.components.ports import PortError
        inst = rig.node("hub").container.create_instance("Counter")
        with pytest.raises(PortError):
            inst.executor.context.emit("value", 1)  # a facet, not a source


class TestEventBroker:
    @pytest.fixture
    def rig(self):
        return star_rig(2)

    def test_channels_created_lazily_and_cached(self, rig):
        broker = rig.node("hub").events
        assert sorted(broker._channels) == []
        chan = broker.channel("k1")
        assert broker.channel("k1") is chan
        assert sorted(broker._channels) == ["k1"]

    def test_channel_ior_addressable_remotely(self, rig):
        broker = rig.node("hub").events
        ior = broker.channel_ior("news")
        h0 = rig.node("h0")
        stub = h0.orb.stub(ior, EVENT_CHANNEL_IFACE)
        assert h0.orb.sync(stub.consumer_count()) == "0"

    def test_wellknown_ior_for_missing_channel_fails_cleanly(self, rig):
        ior = EventBroker.channel_ior_on("hub", "never-created")
        h0 = rig.node("h0")
        stub = h0.orb.stub(ior, EVENT_CHANNEL_IFACE)
        with pytest.raises(OBJECT_NOT_EXIST):
            h0.orb.sync(stub.consumer_count())

    def test_instance_creation_opens_channels_for_emits(self, rig):
        hub = rig.node("hub")
        hub.install_package(counter_package())
        hub.container.create_instance("Counter")
        assert TICK_KIND in hub.events._channels
