"""EventBus: topic routing, publisher decoupling, batched subscriptions."""

import pytest

from repro.events.bus import EventBus
from repro.sim.kernel import Environment
from repro.sim.stats import MetricRegistry
from repro.util.errors import ConfigurationError


def make_bus():
    env = Environment()
    metrics = MetricRegistry()
    return env, metrics, EventBus(env, metrics)


def collect(bus, pattern, pick=lambda ev: ev):
    """Subscribe a one-event window; returns the list it fills."""
    got = []
    bus.batch_subscribe(pattern, lambda evs: got.extend(map(pick, evs)),
                        max_batch=1)
    return got


class TestRouting:
    def test_exact_topic_match(self):
        _env, metrics, bus = make_bus()
        got_a = collect(bus, "alpha", lambda ev: ev.payload)
        got_b = collect(bus, "beta", lambda ev: ev.payload)
        bus.publish("alpha", 1)
        bus.publish("beta", 2)
        bus.publish("gamma", 3)
        assert got_a == [1]
        assert got_b == [2]
        assert metrics.get("bus.no_subscriber") == 1
        assert metrics.get("bus.published") == 3
        assert metrics.get("bus.delivered") == 2

    def test_wildcard_prefix_and_catch_all(self):
        _env, _metrics, bus = make_bus()
        fed = collect(bus, "federation.*", lambda ev: ev.topic)
        everything = collect(bus, "*", lambda ev: ev.topic)
        bus.publish("federation.gossip")
        bus.publish("federation.sync")
        bus.publish("registry.views")
        assert fed == ["federation.gossip", "federation.sync"]
        assert len(everything) == 3

    def test_bad_patterns_rejected(self):
        _env, _metrics, bus = make_bus()
        with pytest.raises(ConfigurationError):
            bus.batch_subscribe("", lambda evs: None)
        with pytest.raises(ConfigurationError):
            bus.batch_subscribe("foo*", lambda evs: None)   # not 'foo.*'

    def test_events_carry_time_and_ordered_seq(self):
        env, _metrics, bus = make_bus()
        seen = collect(bus, "t")

        def feed():
            bus.publish("t", "x")
            yield env.timeout(2.5)
            bus.publish("t", "y")

        env.run(until=env.process(feed()))
        assert [ev.payload for ev in seen] == ["x", "y"]
        assert seen[0].time == 0.0 and seen[1].time == 2.5
        assert seen[0].seq < seen[1].seq


class TestDecoupling:
    def test_publish_returns_before_handlers_run(self):
        env, _metrics, bus = make_bus()
        ran = []
        bus.batch_subscribe("t", lambda evs: ran.extend(
            e.payload for e in evs), max_batch=8, max_age=0.05)
        bus.publish("t", 1)
        assert ran == []            # buffered: nothing ran inline
        env.run(until=0.1)
        assert ran == [1]

    def test_slow_subscriber_does_not_block_fast_one(self):
        env, _metrics, bus = make_bus()
        fast, slow = [], []

        def slow_handler(evs):
            yield env.timeout(10.0)
            slow.extend(e.payload for e in evs)

        bus.batch_subscribe("t", slow_handler, max_batch=1)
        bus.batch_subscribe("t", lambda evs: fast.extend(
            e.payload for e in evs), max_batch=1)
        for i in range(3):
            bus.publish("t", i)
        env.run(until=1.0)
        assert fast == [0, 1, 2]    # fast sub done long before slow
        assert slow == []
        env.run(until=11.0)
        assert slow == [0, 1, 2]


class TestBatchedSubscriptions:
    def test_batches_by_size_and_age(self):
        env, _metrics, bus = make_bus()
        batches = []
        bus.batch_subscribe(
            "t", lambda evs: batches.append([e.payload for e in evs]),
            max_batch=3, max_age=0.5)
        for i in range(4):
            bus.publish("t", i)
        assert batches == [[0, 1, 2]]            # size flush, inline
        env.run(until=1.0)
        assert batches == [[0, 1, 2], [3]]       # age flush for the tail

    def test_bus_flush_forces_all_batched_subs(self):
        env, _metrics, bus = make_bus()
        batches = []
        bus.batch_subscribe("a", batches.append, max_batch=100,
                            max_age=60.0)
        bus.batch_subscribe("b.*", batches.append, max_batch=100,
                            max_age=60.0)
        bus.publish("a", 1)
        bus.publish("b.x", 2)
        bus.flush()
        assert len(batches) == 2

    def test_unsubscribe_stops_delivery(self):
        env, _metrics, bus = make_bus()
        got = []
        sub = bus.batch_subscribe(
            "t", lambda evs: got.extend(e.payload for e in evs),
            max_batch=2, max_age=0.05)
        bus.publish("t", 1)
        env.run(until=0.1)
        bus.publish("t", 2)         # buffered in the window...
        sub.cancel()                # ...and dropped with it
        bus.publish("t", 3)
        env.run(until=0.5)
        assert got == [1]
        assert bus.subscriptions() == []
