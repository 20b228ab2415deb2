"""Unit tests for store-and-forward message delivery."""

import pytest

from repro.sim.kernel import Environment
from repro.sim.network import HEADER_BYTES, Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import (
    LAN,
    MODEM,
    LinkClass,
    Topology,
    line,
    star,
)
from repro.util.errors import ConfigurationError


def make_net(topo, seed=0):
    env = Environment()
    return env, Network(env, topo, rngs=RngRegistry(seed))


class TestDelivery:
    def test_one_hop_latency_and_serialization(self):
        env, net = make_net(line(2))
        arrivals = []
        net.interface("h1").bind("p", lambda m: arrivals.append(env.now))
        net.interface("h0").send("h1", "p", "x", size=1000)
        env.run()
        expected = (1000 + HEADER_BYTES) / LAN.bandwidth + LAN.latency
        assert arrivals == [pytest.approx(expected)]

    def test_multi_hop_adds_per_link_cost(self):
        env, net = make_net(line(3))
        arrivals = []
        net.interface("h2").bind("p", lambda m: arrivals.append(env.now))
        net.interface("h0").send("h2", "p", "x", size=1000)
        env.run()
        per_link = (1000 + HEADER_BYTES) / LAN.bandwidth + LAN.latency
        assert arrivals == [pytest.approx(2 * per_link)]

    def test_local_delivery_is_free_and_instant(self):
        env, net = make_net(line(2))
        got = []
        net.interface("h0").bind("p", lambda m: got.append(env.now))
        net.interface("h0").send("h0", "p", "x", size=10_000)
        env.run()
        assert got == [0.0]
        assert net.metrics.get("net.bytes") == 0.0
        assert net.metrics.get("net.local") == 1.0

    def test_fifo_link_queueing(self):
        """Two large messages on one link serialize back-to-back."""
        env, net = make_net(line(2))
        arrivals = []
        net.interface("h1").bind("p", lambda m: arrivals.append(env.now))
        size = 125_000  # 10 ms at LAN bandwidth
        net.interface("h0").send("h1", "p", "a", size=size)
        net.interface("h0").send("h1", "p", "b", size=size)
        env.run()
        tx = (size + HEADER_BYTES) / LAN.bandwidth
        assert arrivals[0] == pytest.approx(tx + LAN.latency)
        assert arrivals[1] == pytest.approx(2 * tx + LAN.latency)

    def test_payload_and_metadata_preserved(self):
        env, net = make_net(line(2))
        got = []
        net.interface("h1").bind("p", lambda m: got.append(m))
        net.interface("h0").send("h1", "p", {"k": [1, 2]}, size=64)
        env.run()
        (msg,) = got
        assert msg.payload == {"k": [1, 2]}
        assert msg.src == "h0"
        assert msg.dst == "h1"
        assert msg.port == "p"

    def test_negative_size_rejected(self):
        env, net = make_net(line(2))
        with pytest.raises(ConfigurationError):
            net.interface("h0").send("h1", "p", "x", size=-1)


class TestPortBinding:
    def test_rebinding_port_rejected(self):
        env, net = make_net(line(2))
        net.interface("h0").bind("p", lambda m: None)
        with pytest.raises(ConfigurationError):
            net.interface("h0").bind("p", lambda m: None)

    def test_unbind_then_rebind(self):
        env, net = make_net(line(2))
        iface = net.interface("h0")
        iface.bind("p", lambda m: None)
        iface.unbind("p")
        iface.bind("p", lambda m: None)  # no raise

    def test_unbound_port_counts_unrouted(self):
        env, net = make_net(line(2))
        net.interface("h1")  # exists but no handler
        net.interface("h0").send("h1", "nowhere", "x", size=10)
        env.run()
        assert net.metrics.get("net.unrouted") == 1.0

    def test_interface_for_unknown_host_rejected(self):
        env, net = make_net(line(2))
        with pytest.raises(ConfigurationError):
            net.interface("ghost")


class TestFailures:
    def test_unreachable_drops(self):
        topo = line(3)
        env = Environment()
        net = Network(env, topo)
        got = []
        net.interface("h2").bind("p", lambda m: got.append(m))
        topo.set_link_state("h1", "h2", up=False)
        net.interface("h0").send("h2", "p", "x", size=10)
        env.run()
        assert got == []
        assert net.metrics.get("net.dropped.unreachable") == 1.0

    def test_dead_destination_drops_at_delivery(self):
        topo = line(2)
        env = Environment()
        net = Network(env, topo)
        got = []
        net.interface("h1").bind("p", lambda m: got.append(m))
        net.interface("h0").send("h1", "p", "x", size=10)
        # Host dies while the message is in flight.
        topo.host("h1").alive = False
        env.run()
        assert got == []
        assert net.metrics.get("net.dropped.dst_dead") == 1.0

    def test_dead_source_cannot_send(self):
        topo = line(2)
        env = Environment()
        net = Network(env, topo)
        topo.set_host_state("h0", alive=False)
        net.interface("h0").send("h1", "p", "x", size=10)
        env.run()
        assert net.metrics.get("net.dropped.src_dead") == 1.0

    def test_lossy_link_drops_deterministically(self):
        lossy = LinkClass("lossy", latency=0.001, bandwidth=1e6, loss=0.5)
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        topo.add_link("a", "b", lossy)

        def run(seed):
            env = Environment()
            net = Network(env, topo, rngs=RngRegistry(seed))
            got = []
            net.interface("b").bind("p", lambda m: got.append(m.payload))
            for i in range(100):
                net.interface("a").send("b", "p", i, size=10)
            env.run()
            return got

        got1 = run(3)
        got2 = run(3)
        assert got1 == got2            # deterministic
        assert 20 < len(got1) < 80     # ~50% loss

    def test_loss_still_charges_bytes(self):
        lossy = LinkClass("lossy", latency=0.001, bandwidth=1e6, loss=1.0)
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        topo.add_link("a", "b", lossy)
        env = Environment()
        net = Network(env, topo)
        net.interface("a").send("b", "p", "x", size=100)
        env.run()
        assert net.metrics.get("net.dropped.loss") == 1.0
        link_bytes = net.metrics.labelled("net.link_bytes")
        assert sum(link_bytes.values()) == 100 + HEADER_BYTES


class TestAccounting:
    def test_bytes_counted_per_link(self):
        env, net = make_net(line(3))
        net.interface("h2").bind("p", lambda m: None)
        net.interface("h0").send("h2", "p", "x", size=500)
        env.run()
        per_link = net.metrics.labelled("net.link_bytes")
        assert len(per_link) == 2
        assert all(v == 500 + HEADER_BYTES for v in per_link.values())
        assert net.metrics.get("net.bytes") == 500 + HEADER_BYTES

    def test_backbone_bytes_tracked_separately(self):
        from repro.sim.topology import clustered
        env = Environment()
        topo = clustered(2, 2)
        net = Network(env, topo)
        net.interface("c1h1").bind("p", lambda m: None)
        net.interface("c0h1").send("c1h1", "p", "x", size=100)
        env.run()
        # one WAN link crossed
        assert net.metrics.get("net.bytes.backbone") == 100 + HEADER_BYTES
