"""Future-epoch clamping at the shard trust boundary (chaos PR).

A record's epoch orders merges; a beacon's is also the owner plane's
soft-state clock.  One clock-skewed reporter
(``FederationReporter.clock_skew``, as the chaos ``clock_skew`` fault
injects) stamps a changed record with ``now + skew``; a far-future
epoch beats every honest report that follows it, and a far-future
beacon kept a dead owner "live" in every owner's membership table.
Owners trust only their own clock: any accepted record or beacon epoch
is capped at ``now + epoch_tolerance`` (``federation.epoch_clamped``),
and a member's liveness and its records' lifetime are the arrival time
of its frames, which no report epoch touches.
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
        owner = fed.ring.owners(REPO_ID, 1)[0]
        agent = fed.agents[owner]
        now = rig.env.now
        record = replace(agent.store.lookup(REPO_ID)[0], epoch=now + 1000.0)
        before = rig.metrics.get("federation.epoch_clamped")
        agent.accept_publish(record.host, [record.to_value()])
        assert rig.metrics.get("federation.epoch_clamped") > before
        assert (agent.store.lookup(REPO_ID)[0].epoch
                <= now + fed.config.epoch_tolerance)

    def test_clamped_member_still_times_out(self):
        """A host whose reporter stamps far-future epochs must die out
        of the membership view once it has been silent for
        member_timeout: its publishes are clamped, and its liveness is
        when its frames arrived — pre-fix it was immortal."""
        rig, fed = federated_rig(seed=231)
        victim = next(h for h in rig.topology.host_ids()
                      if h not in fed.agents and h != "c0h1")
        fed.reporters[victim].clock_skew = 1000.0
        rig.run(until=rig.env.now + 2.0 * fed.config.update_interval)
        assert victim in fed.live_hosts()
        injector = FaultInjector(rig.env, rig.topology)
        injector.crash_host(victim)
        rig.run(until=rig.env.now + fed.config.member_timeout
                + 2.0 * fed.config.epoch_tolerance + 1.0)
        assert victim not in fed.live_hosts()

    def test_future_record_epoch_is_clamped_and_sweepable(self):
        rig, fed = federated_rig(seed=232)
        owner = fed.ring.owners(REPO_ID, 1)[0]
        agent = fed.agents[owner]
        good = agent.store.lookup(REPO_ID)[0]
        poisoned = replace(good, epoch=rig.env.now + 1000.0)
        agent.accept_publish(poisoned.host, [poisoned.to_value()])
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
        """End to end: a reporter whose clock runs +1000 s ahead
        publishes (its records are clamped), then its host dies.  A
        member's liveness is when its frames arrived, not what they
        claim, so it leaves ``live_hosts()`` one ``member_timeout``
        (and one hop) after the crash."""
        rig, fed = federated_rig(seed=234)
        victim = "c0h1"                 # the provider, not an owner
        assert victim not in fed.agents
        fed.reporters[victim].clock_skew = 1000.0
        # A record is stamped when its content changes: give it one.
        rig.node(victim).container.create_instance("Counter")
        rig.run(until=rig.env.now + 3.0 * fed.config.update_interval)
        assert rig.metrics.get("federation.epoch_clamped") >= 1
        assert victim in fed.live_hosts()
        rig.topology.set_host_state(victim, alive=False)
        rig.run(until=rig.env.now + fed.config.member_timeout + 0.1)
        assert victim not in fed.live_hosts()
