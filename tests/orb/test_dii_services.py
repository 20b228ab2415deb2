"""Unit tests for dynamic invocation, the interface repository and
event channels."""

import pytest

from repro.orb import codegen
from repro.orb.cdr import Any
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.dii import InterfaceRepository
from repro.orb.exceptions import BAD_OPERATION, BAD_PARAM
from repro.orb.services.events import (
    CallbackPushConsumer,
    EVENT_CHANNEL_IFACE,
    EventChannelServant,
)
from repro.orb.typecodes import tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import star
from repro.util.errors import ConfigurationError

CALC = InterfaceDef("IDL:diitest/Calc:1.0", "Calc", operations=[
    op("add", [("a", tc_long), ("b", tc_long)], tc_long),
])


class CalcServant(Servant):
    _interface = CALC

    def add(self, a, b):
        return a + b


@pytest.fixture
def rig():
    env = Environment()
    net = Network(env, star(2))
    server = ORB(env, net, "hub")
    client = ORB(env, net, "h0")
    ior = server.adapter("root").activate(CalcServant())
    return env, server, client, ior


class TestInterfaceRepository:
    def test_register_and_lookup(self):
        ifr = InterfaceRepository()
        ifr.register(CALC)
        assert ifr.lookup(CALC.repo_id) is CALC
        assert CALC.repo_id in ifr

    def test_duplicate_identity_is_idempotent(self):
        ifr = InterfaceRepository()
        ifr.register(CALC)
        ifr.register(CALC)  # same object: fine

    def test_conflicting_registration_rejected(self):
        ifr = InterfaceRepository()
        ifr.register(CALC)
        clone = InterfaceDef(CALC.repo_id, "Other")
        with pytest.raises(ConfigurationError):
            ifr.register(clone)
        ifr.register(clone, replace=True)
        assert ifr.lookup(CALC.repo_id) is clone

    def test_require_unknown_raises(self):
        ifr = InterfaceRepository()
        with pytest.raises(BAD_PARAM):
            ifr.require("IDL:nope:1.0")


class TestDII:
    """Dynamic invocation: an operation signature known only at run
    time, handed to ``ORB.invoke`` -- no generated stub, no request
    object."""

    def test_manual_request(self, rig):
        env, server, client, ior = rig
        add = op("add", [("a", tc_long), ("b", tc_long)], tc_long)
        assert client.sync(client.invoke(ior, add, (20, 22))) == 42

    def test_request_from_ifr(self, rig):
        env, server, client, ior = rig
        ifr = InterfaceRepository()
        ifr.register(CALC)
        add = ifr.require(ior.repo_id).find_operation("add")
        assert client.sync(client.invoke(ior, add, (1, 2))) == 3

    def test_request_from_ifr_checks_operation(self, rig):
        env, server, client, ior = rig
        ifr = InterfaceRepository()
        ifr.register(CALC)
        assert ifr.require(ior.repo_id).find_operation("mul") is None
        # a hand-built signature the target does not declare is
        # refused by the server
        mul = op("mul", [("a", tc_long), ("b", tc_long)], tc_long)
        with pytest.raises(BAD_OPERATION):
            client.sync(client.invoke(ior, mul, (1, 2)))

    def test_request_from_ifr_checks_arity(self, rig):
        env, server, client, ior = rig
        ifr = InterfaceRepository()
        ifr.register(CALC)
        add = ifr.require(ior.repo_id).find_operation("add")
        sent = client.metrics.get("orb.requests")
        with pytest.raises(BAD_PARAM):
            client.invoke(ior, add, (1,))
        assert client.metrics.get("orb.requests") == sent


class TestEventChannel:
    def test_fanout_to_multiple_consumers(self, rig):
        env, server, client, _ior = rig
        chan = EventChannelServant(server, "tick")
        chan_ior = server.adapter("services").activate(chan)
        got_a, got_b = [], []
        ior_a = client.adapter("root").activate(
            CallbackPushConsumer(lambda a: got_a.append(a.value)))
        ior_b = client.adapter("root").activate(
            CallbackPushConsumer(lambda a: got_b.append(a.value)))
        stub = client.stub(chan_ior, EVENT_CHANNEL_IFACE)
        client.sync(stub.connect_push_consumer(ior_a))
        client.sync(stub.connect_push_consumer(ior_b))
        client.sync(stub.push(Any(tc_string, "e1")))
        env.run(until=env.now + 1)
        assert got_a == ["e1"]
        assert got_b == ["e1"]

    def test_duplicate_connect_ignored(self, rig):
        env, server, client, _ior = rig
        chan = EventChannelServant(server, "k")
        chan_ior = server.adapter("services").activate(chan)
        got = []
        cons = client.adapter("root").activate(
            CallbackPushConsumer(lambda a: got.append(a.value)))
        stub = client.stub(chan_ior, EVENT_CHANNEL_IFACE)
        client.sync(stub.connect_push_consumer(cons))
        client.sync(stub.connect_push_consumer(cons))
        client.sync(stub.push(Any(tc_string, "x")))
        env.run(until=env.now + 1)
        assert got == ["x"]

    def test_disconnect_stops_delivery(self, rig):
        env, server, client, _ior = rig
        chan = EventChannelServant(server, "k")
        chan_ior = server.adapter("services").activate(chan)
        got = []
        cons = client.adapter("root").activate(
            CallbackPushConsumer(lambda a: got.append(a.value)))
        stub = client.stub(chan_ior, EVENT_CHANNEL_IFACE)
        client.sync(stub.connect_push_consumer(cons))
        client.sync(stub.disconnect_push_consumer(cons))
        client.sync(stub.push(Any(tc_string, "x")))
        env.run(until=env.now + 1)
        assert got == []

    def test_nil_consumer_rejected(self, rig):
        env, server, client, _ior = rig
        chan = EventChannelServant(server, "k")
        chan_ior = server.adapter("services").activate(chan)
        stub = client.stub(chan_ior, EVENT_CHANNEL_IFACE)
        with pytest.raises(BAD_PARAM):
            client.sync(stub.connect_push_consumer(None))


class TestEventChannelFanOut:
    """``push`` is one ``send_oneway_fanout``: the event is marshalled
    once however many consumers there are, not once per consumer."""

    def fan(self, n_consumers):
        env = Environment()
        net = Network(env, star(2))
        orbs = {host: ORB(env, net, host) for host in ("hub", "h0", "h1")}
        chan = EventChannelServant(orbs["hub"], "k")
        arrivals = []
        for i in range(n_consumers):
            # alternate the consumers over the two leaves
            orb = orbs[f"h{i % 2}"]
            chan.connect_push_consumer(orb.adapter("root").activate(
                CallbackPushConsumer(
                    lambda a, i=i: arrivals.append((i, a.value)))))
        return env, net, chan, arrivals

    def encodes_per_push(self, n_consumers):
        env, _net, chan, _arrivals = self.fan(n_consumers)
        chan.push(Any(tc_string, "warm"))      # plans generated, caches hot
        env.run(until=env.now + 1)
        before = codegen.stats_snapshot()["encode_calls"]
        chan.push(Any(tc_string, "e"))
        return codegen.stats_snapshot()["encode_calls"] - before

    def test_the_any_is_encoded_once_for_any_number_of_consumers(self):
        one = self.encodes_per_push(1)
        assert one > 0
        assert self.encodes_per_push(6) == one

    def test_every_consumer_is_reached_in_connection_order(self):
        env, net, chan, arrivals = self.fan(6)
        chan.push(Any(tc_string, "e"))
        env.run(until=env.now + 1)
        assert chan.delivered == 6
        assert net.metrics.get("orb.oneways") == 6
        # same-host consumers keep their order (equal links: so do all)
        assert arrivals == [(i, "e") for i in range(6)]

    def test_a_dead_consumer_host_does_not_stop_the_others(self):
        env, net, chan, arrivals = self.fan(4)
        net.topology.set_host_state("h0", alive=False)
        chan.push(Any(tc_string, "e"))
        env.run(until=env.now + 1)
        assert chan.delivered == 4
        assert arrivals == [(1, "e"), (3, "e")]

    def test_no_consumer_no_marshal(self):
        _env, net, chan, _arrivals = self.fan(0)
        chan.push(Any(tc_long, "not a long"))   # would be BAD_PARAM
        assert chan.delivered == 0
        assert net.metrics.get("orb.requests") == 0
