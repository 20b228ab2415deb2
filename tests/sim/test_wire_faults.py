"""Tests for message-level wire-fault injection (WireFaultModel)."""

import pytest

from repro.sim.faults import WireFaultModel, WireFaultProfile
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.stats import MetricRegistry
from repro.sim.topology import star


def make_net(seed=0, wire_faults=None):
    env = Environment()
    net = Network(env, star(3), rngs=RngRegistry(seed),
                  metrics=MetricRegistry(), wire_faults=wire_faults)
    return env, net


def deliver(env, net, payload=b"hello wire", src="h0", dst="h1"):
    """Send one message and collect everything the dst port receives."""
    got = []
    net.interface(dst).bind("sink", got.append)
    net.send(src, dst, "sink", payload, len(payload))
    env.run(until=env.timeout(1.0))
    return got


class TestProfileValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            WireFaultProfile(corrupt=1.5)
        with pytest.raises(ValueError):
            WireFaultProfile(truncate=-0.1)

    def test_max_flips_positive(self):
        with pytest.raises(ValueError):
            WireFaultProfile(corrupt=0.5, max_flips=0)

    def test_active(self):
        assert not WireFaultProfile().active
        assert WireFaultProfile(duplicate=0.1).active


class TestWireFaultModel:
    def test_clean_link_payload_untouched(self):
        env, net = make_net()
        net.wire_faults = WireFaultModel(net.rngs, net.metrics)
        got = deliver(env, net)
        assert len(got) == 1
        assert got[0].payload == b"hello wire"

    def test_corruption_mutates_payload(self):
        env, net = make_net()
        model = WireFaultModel(
            net.rngs, net.metrics,
            default=WireFaultProfile(corrupt=1.0))
        net.wire_faults = model
        got = deliver(env, net)
        assert len(got) == 1
        assert got[0].payload != b"hello wire"
        assert len(got[0].payload) == len(b"hello wire")
        assert net.metrics.get("net.corrupted.bitflip") >= 1

    def test_truncation_shortens_payload(self):
        env, net = make_net()
        net.wire_faults = WireFaultModel(
            net.rngs, net.metrics,
            default=WireFaultProfile(truncate=1.0))
        got = deliver(env, net)
        assert len(got) == 1
        assert len(got[0].payload) < len(b"hello wire")
        assert net.metrics.get("net.corrupted.truncate") >= 1

    def test_duplication_delivers_twice(self):
        env, net = make_net()
        net.wire_faults = WireFaultModel(
            net.rngs, net.metrics,
            default=WireFaultProfile(duplicate=1.0))
        got = deliver(env, net)
        assert len(got) == 2
        assert got[0].payload == got[1].payload == b"hello wire"
        assert net.metrics.get("net.corrupted.duplicate") >= 1

    def test_reorder_delays_delivery(self):
        arrivals = {}
        for reorder in (0.0, 1.0):
            env, net = make_net()
            net.wire_faults = WireFaultModel(
                net.rngs, net.metrics,
                default=WireFaultProfile(reorder=reorder,
                                         reorder_delay=0.2))
            got = []
            net.interface("h1").bind("t", lambda m: got.append(env.now))
            net.send("h0", "h1", "t", b"x", 1)
            env.run(until=env.timeout(1.0))
            arrivals[reorder] = got[0]
        assert arrivals[1.0] == pytest.approx(arrivals[0.0] + 0.4)
        # 0.2 s per crossed link (h0-hub, hub-h1)

    def test_opaque_payload_never_corrupted(self):
        env, net = make_net()
        net.wire_faults = WireFaultModel(
            net.rngs, net.metrics,
            default=WireFaultProfile(corrupt=1.0, truncate=1.0))
        payload = {"not": "bytes"}
        got = deliver(env, net, payload=payload)
        assert len(got) == 1
        assert got[0].payload is payload

    def test_seeded_determinism(self):
        outcomes = []
        for _ in range(2):
            env, net = make_net(seed=42)
            net.wire_faults = WireFaultModel(
                net.rngs, net.metrics,
                default=WireFaultProfile(corrupt=0.5, truncate=0.3,
                                         duplicate=0.2))
            run = []
            net.interface("h1").bind("d", lambda m: run.append(m.payload))
            for i in range(40):
                net.send("h0", "h1", "d", bytes([i]) * 8, 8)
            env.run(until=env.timeout(5.0))
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
