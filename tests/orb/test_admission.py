"""Admission control: bounded dispatch tables and load shedding."""

import pytest

from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import MINOR_SHED, TRANSIENT
from repro.orb.listener import _DispatchSlots
from repro.orb.typecodes import tc_long
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star
from repro.util.errors import ConfigurationError

# Leaf hosts have cpu_power 400, so cpu_cost=40 burns 0.1 s per call.
IFACE = InterfaceDef("IDL:test/Slow:1.0", "Slow", operations=[
    op("work", [("x", tc_long)], tc_long, cpu_cost=40.0),
    op("fire", [("x", tc_long)], oneway=True, cpu_cost=40.0),
])
WORK = IFACE.operations["work"]
FIRE = IFACE.operations["fire"]


class SlowServant(Servant):
    _interface = IFACE

    def __init__(self):
        self.calls = []

    def work(self, x):
        self.calls.append(x)
        return x * 2

    def fire(self, x):
        self.calls.append(x)


def make_rig(**orb_kwargs):
    env = Environment()
    net = Network(env, star(2), rngs=RngRegistry(3))
    server = ORB(env, net, "h0", **orb_kwargs)
    client = ORB(env, net, "h1")
    servant = SlowServant()
    ior = server.adapter("root").activate(servant)
    return env, net, server, client, servant, ior


def burst(client, ior, n, timeout=20.0):
    return [client.invoke(ior, WORK, (i,), timeout=timeout)
            for i in range(n)]


class TestDispatchSlots:
    def test_capacity_validated(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            _DispatchSlots(env, 0)
        with pytest.raises(ConfigurationError):
            _DispatchSlots(env, -3)

    def test_fifo_acquire_release(self):
        env = Environment()
        slots = _DispatchSlots(env, 1)
        order = []

        def holder(tag, hold):
            granted = yield slots.acquire((tag, "ctx"))
            yield env.timeout(hold)
            order.append((granted, env.now))
            slots.release()

        for tag in ("a", "b", "c"):
            env.process(holder(tag, 0.1))
        env.run(until=env.timeout(0.05))
        assert slots.queued == 2        # "b" and "c" behind "a"
        env.run(until=env.timeout(1.0))
        # Each grant carries the value its acquire was given, in FIFO
        # order: "b" and "c" queued behind "a" and got their own back.
        assert [granted for granted, _ in order] == [
            ("a", "ctx"), ("b", "ctx"), ("c", "ctx")]
        assert [when for _, when in order] == pytest.approx([0.1, 0.2, 0.3])
        assert slots.queued == 0

    def test_a_reply_that_fails_to_encode_frees_its_slot_once(self):
        # The slot is freed before the reply is encoded; the error reply
        # that follows must not free it again.
        env, net, server, client, servant, ior = make_rig(
            dispatch_workers=1)
        servant.work = lambda x: "not a long"
        events = burst(client, ior, 3)
        env.run(until=env.timeout(5.0))
        assert [type(ev.value).__name__ for ev in events] == ["BAD_PARAM"] * 3
        slots = server.listener._slots
        assert (slots._free, slots.queued) == (1, 0)

    def test_generator_servant_holds_its_slot_until_it_ends(self):
        env, net, server, client, servant, ior = make_rig(
            dispatch_workers=1)

        def work(x):                    # 0.1 s CPU, then a 0.5 s wait
            yield env.timeout(0.5)
            return x

        servant.work = work
        done = []
        for ev in burst(client, ior, 2):
            ev.callbacks.append(lambda _ev: done.append(env.now))
        env.run(until=env.timeout(5.0))
        assert done[1] - done[0] == pytest.approx(0.6)


class TestLoadShedding:
    def test_overflow_sheds_transient_with_minor(self):
        env, net, server, client, servant, ior = make_rig(
            dispatch_workers=1, dispatch_limit=2)
        events = burst(client, ior, 6)
        env.run(until=env.timeout(5.0))
        served = [ev for ev in events if ev.ok]
        shed = [ev for ev in events if not ev.ok]
        assert len(served) == 2
        assert len(shed) == 4
        for ev in shed:
            assert isinstance(ev.value, TRANSIENT)
            assert ev.value.minor == MINOR_SHED
        assert net.metrics.get("orb.shed") == 4
        assert len(servant.calls) == 2

    def test_no_limit_means_no_shedding(self):
        env, net, server, client, servant, ior = make_rig(
            dispatch_workers=1)
        events = burst(client, ior, 6)
        env.run(until=env.timeout(5.0))
        assert all(ev.ok for ev in events)
        assert net.metrics.get("orb.shed") == 0

    def test_workers_serialize_cpu(self):
        # One worker, three 0.1 s jobs: the last reply lands after
        # ~0.3 s of servant CPU, not 0.1 s of parallel make-believe.
        done = {}
        for workers in (1, 3):
            env, net, server, client, servant, ior = make_rig(
                dispatch_workers=workers)
            events = burst(client, ior, 3)
            for i, ev in enumerate(events):
                ev.callbacks.append(
                    lambda _ev, i=i, env=env: done.setdefault(
                        (workers, i), env.now))
            env.run(until=env.timeout(5.0))
        serial_last = max(v for (w, _), v in done.items() if w == 1)
        parallel_last = max(v for (w, _), v in done.items() if w == 3)
        assert serial_last == pytest.approx(parallel_last + 0.2, abs=1e-3)

    def test_oneway_shed_is_silent(self):
        env, net, server, client, servant, ior = make_rig(
            dispatch_workers=1, dispatch_limit=1)
        client.invoke(ior, WORK, (0,), timeout=20.0)
        env.run(until=env.timeout(0.01))  # first request now inflight
        for i in range(3):
            client.send_oneway(ior, FIRE, (i,))
        replies_before = net.metrics.get("net.messages")
        env.run(until=env.timeout(5.0))
        assert net.metrics.get("orb.shed") == 3
        # Shedding a oneway produces no reply traffic: the only message
        # after the burst is the reply to the original two-way call.
        assert net.metrics.get("net.messages") == replies_before + 1

    def test_table_drains_and_accepts_again(self):
        env, net, server, client, servant, ior = make_rig(
            dispatch_workers=1, dispatch_limit=1)
        first = burst(client, ior, 3)
        env.run(until=env.timeout(5.0))
        assert sum(ev.ok for ev in first) == 1
        late = client.invoke(ior, WORK, (99,), timeout=20.0)
        env.run(until=env.timeout(5.0))
        assert late.ok and late.value == 198

    def test_inflight_gauge_via_watchers(self):
        env, net, server, client, servant, ior = make_rig(
            dispatch_workers=1, dispatch_limit=3)
        depths = []
        server.dispatch_watchers.append(depths.append)
        events = burst(client, ior, 8)
        env.run(until=env.timeout(5.0))
        assert max(depths) == 3          # never above the limit
        assert depths[-1] == 0           # fully drained
        assert server.listener.inflight == 0
        assert sum(ev.ok for ev in events) == 3
