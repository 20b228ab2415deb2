"""Remote bus delivery: marshal-once fan-out to event sinks."""

from repro.events.bus import EventBus
from repro.events.remote import (
    EVENT_SINK_IFACE,
    EventSinkServant,
    FanoutForwarder,
    sink_batch_args,
)
from repro.orb.core import ORB
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

PUSH_BATCH = EVENT_SINK_IFACE.operations["push_batch"]


class TestFanoutForwarder:
    def make_sinks(self, n):
        env = Environment()
        net = Network(env, star(n + 1), rngs=RngRegistry(3))
        publisher = ORB(env, net, f"h{n}")
        servants, iors = [], []
        for k in range(n):
            orb = ORB(env, net, f"h{k}")
            servant = EventSinkServant()
            iors.append(orb.adapter("sink").activate(servant))
            servants.append(servant)
        return env, net, publisher, servants, iors

    def test_one_subscription_feeds_every_sink(self):
        env, net, publisher, servants, iors = self.make_sinks(3)
        bus = EventBus(env, net.metrics)
        forwarder = FanoutForwarder(publisher, iors, PUSH_BATCH,
                                    to_args=sink_batch_args)
        bus.batch_subscribe("t", forwarder.deliver,
                            max_batch=4, max_age=0.05)
        for i in range(8):
            bus.publish("t", str(i))
        env.run(until=1.0)
        for servant in servants:
            assert [d for _t, d in servant.received] == [
                str(i) for i in range(8)]
        # One marshal per flush, one frame per sink: 2 flushes x 3.
        assert net.metrics.get("bus.remote.batches") == 6
        assert net.metrics.get("bus.remote.events") == 24
        assert net.metrics.get("net.messages") == 6

    def test_batch_names_its_topic_once(self):
        # Equal-length payloads keep every string's CDR alignment equal,
        # so each extra event adds exactly one encoded payload: a
        # ulong length, the characters and the NUL.  A per-event topic
        # column would add the topic's encoding on top of that.
        env, _net, publisher, servants, iors = self.make_sinks(1)
        bus = EventBus(env, publisher.metrics)
        payloads = [f"p{i:06d}" for i in range(64)]
        sizes = []

        def deliver(events):
            sizes.append(publisher.send_oneway_fanout(
                iors, PUSH_BATCH, sink_batch_args(events)))

        bus.batch_subscribe("spine.fanout", deliver, max_batch=64,
                            max_age=60.0)
        bus.publish("spine.fanout", payloads[0])
        bus.flush()
        for payload in payloads:
            bus.publish("spine.fanout", payload)
        env.run(until=1.0)
        payload_size = 4 + len(payloads[0]) + 1
        assert payload_size % 4 == 0
        assert sizes[1] - sizes[0] == 63 * payload_size
        assert servants[0].received == [
            ("spine.fanout", p) for p in payloads[:1] + payloads]

    def test_marshal_error_counted_not_fatal(self):
        env, net, publisher, servants, iors = self.make_sinks(2)
        bus = EventBus(env, net.metrics)
        forwarder = FanoutForwarder(publisher, iors, PUSH_BATCH,
                                    to_args=lambda evs: ([1], ["x"]))
        sub = bus.batch_subscribe("t", forwarder.deliver,
                                  max_batch=1, max_age=0.05)
        bus.publish("t", "bad")            # topic [1] is not a string
        env.run(until=1.0)
        assert net.metrics.get("bus.remote.errors") == 1
        assert all(s.received == [] for s in servants)
        # The subscription survives the poisoned batch.
        forwarder.to_args = sink_batch_args
        bus.publish("t", "good")
        env.run(until=2.0)
        assert all([d for _t, d in s.received] == ["good"]
                   for s in servants)
        assert sub.pending == 0
