"""EventBus: topic routing, publisher decoupling, batched subscriptions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.events.bus import EventBus
from repro.sim.kernel import Environment
from repro.sim.stats import MetricRegistry
from repro.util.errors import ConfigurationError


def make_bus():
    env = Environment()
    metrics = MetricRegistry()
    return env, metrics, EventBus(env, metrics)


def collect(bus, topic, pick=lambda ev: ev):
    """Subscribe a one-event window; returns the list it fills."""
    got = []
    bus.batch_subscribe(topic, lambda evs: got.extend(map(pick, evs)),
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
        assert metrics.get("bus.published") == 3
        assert metrics.get("bus.delivered") == 2

    def test_bad_patterns_rejected(self):
        _env, _metrics, bus = make_bus()
        with pytest.raises(ConfigurationError):
            bus.batch_subscribe("", lambda evs: None)

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
        bus.batch_subscribe("b", batches.append, max_batch=100,
                            max_age=60.0)
        bus.publish("a", 1)
        bus.publish("b", 2)
        bus.flush()
        assert len(batches) == 2


#: Topics that are prefixes of one another, so a bus that matched by
#: prefix (or substring) would mix them into one window.
TOPICS = ("a", "ab", "a.b", "b")

_subscriptions = st.lists(
    st.tuples(st.sampled_from(TOPICS), st.integers(1, 6),
              st.sampled_from((0.01, 0.05, 0.2))),
    min_size=1, max_size=5)
_steps = st.lists(st.one_of(
    st.tuples(st.just("publish"), st.sampled_from(TOPICS)),
    st.tuples(st.just("advance"), st.sampled_from((0.005, 0.03, 0.5))),
    st.tuples(st.just("flush"), st.none())), max_size=60)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_subscriptions, _steps)
def test_every_flushed_batch_is_one_topic_in_order(subs, steps):
    """The invariant ``push_batch(topic, data)`` rests on: a window's
    batch holds its own subscription's topic only, in publication
    order, and nothing published to that topic is lost.  Prefix
    matching in ``publish`` fails it."""
    env, _metrics, bus = make_bus()
    windows = []
    for topic, max_batch, max_age in subs:
        batches = []
        bus.batch_subscribe(topic, batches.append, max_batch=max_batch,
                            max_age=max_age)
        windows.append((topic, batches))
    published = []
    for kind, arg in steps:
        if kind == "publish":
            published.append(bus.publish(arg, len(published)))
        elif kind == "advance":
            env.run(until=env.now + arg)
        else:
            bus.flush()
    bus.flush()
    for topic, batches in windows:
        assert all(batches), "an empty batch was flushed"
        for batch in batches:
            assert {event.topic for event in batch} == {topic}
        got = [event for batch in batches for event in batch]
        assert got == [event for event in published if event.topic == topic]
