"""Edge-case tests for the ORB runtime: attributes, generator servants,
metering, dispatch accounting, stub narrowing."""

import pytest

from repro.orb.core import (
    InterfaceDef,
    ORB,
    Servant,
    make_exception_class,
    op,
)
from repro.orb.exceptions import BAD_PARAM, UNKNOWN
from repro.orb.typecodes import except_tc, tc_double, tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import star

SLOW_TC = except_tc("TooSlow", [("limit", tc_long)],
                    repo_id="IDL:test/TooSlow:1.0")
TooSlow = make_exception_class("TooSlow", SLOW_TC)

WORKERISH = InterfaceDef("IDL:test/Workerish:1.0", "Workerish")
WORKERISH.add_attribute("speed", tc_double)
WORKERISH.add_attribute("label", tc_string, readonly=True)
WORKERISH.add_operation(op("work", [("units", tc_long)], tc_long,
                           raises=[SLOW_TC]))


class WorkerishServant(Servant):
    _interface = WORKERISH

    def __init__(self):
        self.speed = 1.0
        self.worked = 0

    def _get_speed(self):
        return self.speed

    def _set_speed(self, value):
        self.speed = value

    def _get_label(self):
        return "workerish"

    def work(self, units):
        # generator servant: sleeps in simulated time, may raise a
        # declared user exception from inside the generator
        if units > 100:
            raise TooSlow(100)
        yield self._ctx_timeout(units * 0.001)
        self.worked += units
        return self.worked

    def _ctx_timeout(self, delay):
        return self._env.timeout(delay)


@pytest.fixture
def rig():
    env = Environment()
    net = Network(env, star(1))
    server = ORB(env, net, "hub")
    client = ORB(env, net, "h0")
    servant = WorkerishServant()
    servant._env = env
    ior = server.adapter("root").activate(servant)
    stub = client.stub(ior, WORKERISH)
    return env, net, server, client, servant, stub


class TestAttributes:
    def test_get_set_attribute(self, rig):
        env, net, server, client, servant, stub = rig
        assert client.sync(stub._get_speed()) == 1.0
        client.sync(stub._set_speed(2.5))
        assert servant.speed == 2.5
        assert client.sync(stub._get_speed()) == 2.5

    def test_readonly_attribute_has_no_setter(self, rig):
        env, net, server, client, servant, stub = rig
        assert client.sync(stub._get_label()) == "workerish"
        with pytest.raises(AttributeError):
            stub._set_label("x")


class TestGeneratorServants:
    def test_generator_takes_simulated_time(self, rig):
        env, net, server, client, servant, stub = rig
        t0 = env.now
        assert client.sync(stub.work(50)) == 50
        assert env.now - t0 >= 0.050

    def test_user_exception_before_first_yield(self, rig):
        env, net, server, client, servant, stub = rig
        with pytest.raises(TooSlow) as info:
            client.sync(stub.work(1000))
        assert info.value.limit == 100

    def test_generator_crash_maps_to_unknown(self, rig):
        env, net, server, client, servant, stub = rig

        def broken(units):
            yield env.timeout(0.001)
            raise RuntimeError("boom inside generator")
        servant.work = broken
        with pytest.raises(UNKNOWN):
            client.sync(stub.work(1))


class TestMetering:
    def test_meter_counts_messages_and_bytes(self, rig):
        env, net, server, client, servant, stub = rig
        client.sync(stub._get_speed(_meter="myproto"))
        client.sync(stub._get_speed(_meter="myproto"))
        assert net.metrics.get("myproto.msgs") == 2
        assert net.metrics.get("myproto.bytes") > 0

    def test_unmetered_calls_do_not_pollute(self, rig):
        env, net, server, client, servant, stub = rig
        client.sync(stub._get_speed())
        assert net.metrics.get("myproto2.msgs") == 0


class TestDispatchAccounting:
    def test_dispatch_listeners_charged(self, rig):
        env, net, server, client, servant, stub = rig
        charges = []
        server.dispatch_listeners.append(charges.append)
        client.sync(stub._get_speed())
        assert len(charges) == 1
        assert charges[0] > 0

    def test_marshal_validation_happens_before_send(self, rig):
        env, net, server, client, servant, stub = rig
        msgs_before = net.metrics.get("net.messages")
        with pytest.raises(BAD_PARAM):
            stub._set_speed("not a double")
        assert net.metrics.get("net.messages") == msgs_before


class TestStubIdentity:
    def test_stub_exposes_ior_and_interface(self, rig):
        env, net, server, client, servant, stub = rig
        assert stub.ior.repo_id == WORKERISH.repo_id
        assert "Workerish" in repr(stub)

    def test_two_stubs_same_target_share_servant_state(self, rig):
        env, net, server, client, servant, stub = rig
        other = client.stub(stub.ior, WORKERISH)
        client.sync(stub._set_speed(9.0))
        assert client.sync(other._get_speed()) == 9.0
