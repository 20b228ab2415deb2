"""Future-epoch clamping at the shard trust boundary (chaos PR).

Epochs are soft-state TTL clocks.  Pre-fix, one clock-skewed reporter
(``FederationReporter.clock_skew``, as the chaos ``clock_skew`` fault
injects) could stamp records and beacons with ``now + skew``; a far-
future epoch is never swept and beats every honest refresh, so a dead
host stayed "live" in every owner's membership table forever.  Owners
now trust only their own clock: any accepted epoch is capped at
``now + epoch_tolerance`` (``federation.epoch_clamped``).
"""

from dataclasses import replace

from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation.records import HostBeacon
from repro.sim.faults import FaultInjector
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package

REPO_ID = COUNTER_IFACE.repo_id


def federated_rig(seed=230, hosts=6, **cfg_kw):
    cfg_kw.setdefault("owners", 2)
    cfg_kw.setdefault("replication", 2)
    cfg_kw.setdefault("update_interval", 2.0)
    cfg_kw.setdefault("gossip_interval", 1.0)
    rig = SimRig(clustered(1, hosts), seed=seed)
    rig.node("c0h1").install_package(counter_package())
    fed = FederatedRegistry(rig.nodes, FederationConfig(**cfg_kw))
    fed.deploy()
    rig.run(until=fed.settle_time())
    return rig, fed


class TestEpochClamp:
    def test_future_publish_epoch_is_clamped(self):
        rig, fed = federated_rig()
        agent = next(iter(fed.agents.values()))
        now = rig.env.now
        agent.accept_publish("c0h3", now + 1000.0, [])
        assert rig.metrics.get("federation.epoch_clamped") >= 1
        assert (agent.membership._members["c0h3"]
                <= now + fed.config.epoch_tolerance)

    def test_clamped_member_still_times_out(self):
        """The poisoned host must die out of the membership view once
        its (clamped) epoch ages past member_timeout — pre-fix it was
        immortal."""
        rig, fed = federated_rig(seed=231)
        agent = next(iter(fed.agents.values()))
        victim = "c0h5"
        agent.accept_publish(victim, rig.env.now + 1000.0, [])
        injector = FaultInjector(rig.env, rig.topology)
        injector.crash_host(victim)
        rig.run(until=rig.env.now + fed.config.member_timeout
                + 2.0 * fed.config.epoch_tolerance + 1.0)
        assert victim not in agent.membership.live(
            rig.env.now, fed.config.member_timeout)

    def test_future_record_epoch_is_clamped_and_sweepable(self):
        rig, fed = federated_rig(seed=232)
        owner = fed.ring.owners(REPO_ID, 1)[0]
        agent = fed.agents[owner]
        good = agent.store.lookup(REPO_ID)[0]
        poisoned = replace(good, epoch=rig.env.now + 1000.0)
        agent.accept_publish(good.host, rig.env.now, [poisoned.to_value()])
        stored = agent.store.lookup(REPO_ID)[0]
        assert stored.epoch <= rig.env.now + fed.config.epoch_tolerance

    def test_future_gossip_beacon_is_clamped(self):
        rig, fed = federated_rig(seed=233)
        agent = next(iter(fed.agents.values()))
        owner = next(h for h in fed.agents if h != agent.host_id)
        beacon = HostBeacon(owner, rig.env.now + 500.0, alive=True)
        before = rig.metrics.get("federation.epoch_clamped")
        agent.accept_gossip([], [beacon.to_value()])
        assert rig.metrics.get("federation.epoch_clamped") > before

    def test_skewed_reporter_cannot_keep_dead_host_live(self):
        """End to end: a +60s clock-skewed reporter publishes, then its
        host dies.  Membership must still converge to drop it."""
        rig, fed = federated_rig(seed=234)
        victim = next(h for h in rig.topology.host_ids()
                      if h not in fed.agents and h != "c0h1")
        fed.reporters[victim].clock_skew = 60.0
        rig.run(until=rig.env.now + 3.0 * fed.config.update_interval)
        assert rig.metrics.get("federation.epoch_clamped") >= 1
        injector = FaultInjector(rig.env, rig.topology)
        injector.crash_host(victim)
        rig.run(until=rig.env.now + fed.settle_time()
                + fed.config.epoch_tolerance)
        assert victim not in fed.live_hosts()
