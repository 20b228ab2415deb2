"""Federated resolution must degrade, never die (chaos PR).

Regressions found by the chaos harness:

- With the *whole replication set* of a key dead, lookups used to
  raise TRANSIENT even though the provider was alive and reachable:
  the resolver never looked past the dead owners.  It now widens to
  the surviving ring owners and, when no owner of the key answers,
  floods the population directly.
- A corrupted gossip frame (single bit flip in a host-id string — it
  survives CDR decoding unchanged in length) used to inject a phantom
  host into the membership table; the next gossip round then crashed
  the owner's loop trying to route to it.  Owners now validate every
  incoming host id against the topology.
"""

from dataclasses import replace

import pytest

from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation.records import HostBeacon
from repro.sim.faults import FaultInjector
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package

REPO_ID = COUNTER_IFACE.repo_id


def federated_rig(seed=220, hosts=8, provider="c0h1", **cfg_kw):
    cfg_kw.setdefault("owners", 3)
    cfg_kw.setdefault("replication", 2)
    cfg_kw.setdefault("update_interval", 2.0)
    cfg_kw.setdefault("gossip_interval", 1.0)
    cfg_kw.setdefault("query_timeout", 0.5)
    rig = SimRig(clustered(1, hosts), seed=seed)
    rig.node(provider).install_package(counter_package())
    fed = FederatedRegistry(rig.nodes, FederationConfig(**cfg_kw))
    fed.deploy()
    return rig, fed


class TestDeadOwnerFallback:
    def test_lookup_survives_whole_replication_set_dead(self):
        """Both owners of the key die mid-operation: resolution still
        succeeds through the flood tier (pre-fix: TRANSIENT)."""
        rig, fed = federated_rig()
        rig.run(until=fed.settle_time())
        injector = FaultInjector(rig.env, rig.topology)
        owners = fed.ring.owners(REPO_ID, fed.config.replication)
        assert "c0h1" not in owners, "provider must outlive the owners"
        querier = next(h for h in rig.topology.host_ids()
                       if h not in owners and h != "c0h1")
        for owner in owners:
            injector.crash_host(owner)
        ior = rig.run(until=fed.resolvers[querier].resolve(REPO_ID))
        assert ior.host_id == "c0h1"
        assert rig.metrics.get("federation.lookup.failover") >= 2
        assert rig.metrics.get("federation.lookup.flood_fallback") >= 1

    def test_extra_owner_empty_answer_does_not_mask_flood(self):
        """A surviving non-replication-set owner knows nothing about
        the key; its empty answer must not count as authoritative."""
        rig, fed = federated_rig(seed=221)
        rig.run(until=fed.settle_time())
        injector = FaultInjector(rig.env, rig.topology)
        owners = fed.ring.owners(REPO_ID, fed.config.replication)
        extras = [h for h in fed.agents if h not in owners]
        assert extras, "need a surviving extra ring owner"
        for owner in owners:
            injector.crash_host(owner)
        querier = next(h for h in rig.topology.host_ids()
                       if h not in owners and h != "c0h1")
        ior = rig.run(until=fed.resolvers[querier].resolve(REPO_ID))
        assert ior.host_id == "c0h1"
        # The widened ring owners were consulted before flooding.
        assert rig.metrics.get("federation.lookup.ring_fallback") >= 1

    def test_primary_empty_answer_is_authoritative(self):
        """When a replication-set owner answers (even empty), the
        resolver must NOT widen or flood: the owner's word stands."""
        rig, fed = federated_rig(seed=222)
        rig.run(until=fed.settle_time())
        from repro.orb.exceptions import SystemException
        resolver = fed.resolvers["c0h7"]
        missing = "IDL:demo/Nothing:1.0"
        with pytest.raises(SystemException):
            rig.run(until=resolver.resolve(missing))
        assert rig.metrics.get("federation.lookup.flood_fallback",
                               0.0) == 0.0


class TestUnknownHostRejection:
    def test_corrupt_publish_origin_is_rejected(self):
        rig, fed = federated_rig(seed=223)
        rig.run(until=fed.settle_time())
        agent = next(iter(fed.agents.values()))
        before = fed.live_hosts()
        agent.accept_publish("c0l1", rig.env.now, [])  # bit-flipped id
        assert "c0l1" not in agent.membership.live(
            rig.env.now, fed.config.member_timeout)
        assert fed.live_hosts() == before
        assert rig.metrics.get("federation.rejected.unknown_host") >= 1

    def test_corrupt_gossip_beacon_is_rejected(self):
        """Pre-fix: the phantom owner entered live_owners and the next
        gossip round died routing to it."""
        rig, fed = federated_rig(seed=224)
        rig.run(until=fed.settle_time())
        agent = next(iter(fed.agents.values()))
        phantom = HostBeacon("c9h9", rig.env.now, alive=True, owner=True)
        agent.accept_gossip([], [phantom.to_value()], [], [])
        assert "c9h9" not in agent.membership.live_owners(
            rig.env.now, fed.config.member_timeout)
        # The gossip loop survives the (rejected) phantom.
        rig.run(until=rig.env.now + 4.0 * fed.config.gossip_interval)
        assert agent._proc is not None and agent._proc.is_alive

    def test_member_beacon_on_the_owner_plane_is_rejected(self):
        """``beacons`` is the owner plane only (members travel as
        columns), so an ``owner=False`` entry is a flipped bool on the
        wire: dropped and counted — it neither demotes the owner nor
        enters the member plane — and its neighbour is still merged."""
        rig, fed = federated_rig(seed=228)
        rig.run(until=fed.settle_time())
        owner = fed.ring.owners(REPO_ID, 1)[0]
        agent = fed.agents[owner]
        peer, other = [h for h in fed.agents if h != owner][:2]
        now = rig.env.now
        members_before = dict(agent.membership._members)
        touched_before = dict(agent.membership._member_touched)
        peer_before = agent.membership.get(peer)
        flipped = HostBeacon(peer, now + 0.25, alive=True, owner=False)
        good = HostBeacon(other, now + 0.25, alive=True, owner=True)
        agent.accept_gossip([], [flipped.to_value(), good.to_value()],
                            [], [])
        assert rig.metrics.get("federation.rejected.member_beacon") == 1
        assert agent.membership.get(peer) == peer_before
        assert agent.membership._members == members_before
        assert agent.membership._member_touched == touched_before
        assert agent.membership.get(other) == good

    def test_corrupt_record_host_is_rejected(self):
        rig, fed = federated_rig(seed=225)
        rig.run(until=fed.settle_time())
        owner = fed.ring.owners(REPO_ID, 1)[0]
        agent = fed.agents[owner]
        good = agent.store.lookup(REPO_ID)
        assert good and good[0].host == "c0h1"
        corrupt = replace(good[0], host="c0j1", epoch=rig.env.now)
        agent.accept_gossip([corrupt.to_value()], [], [], [])
        assert {r.host for r in agent.store.lookup(REPO_ID)} == {"c0h1"}

    def test_corrupt_gossip_member_host_is_rejected(self):
        """Member plane (column form): a phantom id in ``member_hosts``
        is dropped and counted; its neighbours in the same frame are
        still learned."""
        rig, fed = federated_rig(seed=226)
        rig.run(until=fed.settle_time())
        agent = next(iter(fed.agents.values()))
        now = rig.env.now
        before = rig.metrics.get("federation.rejected.unknown_host", 0.0)
        agent.accept_gossip([], [], ["c0h2", "c0j4", "c0h5"],
                            [now + 0.25, now + 0.25, now + 0.25])
        assert rig.metrics.get(
            "federation.rejected.unknown_host") == before + 1
        members = agent.membership._members
        assert "c0j4" not in members
        assert members["c0h2"] == members["c0h5"] == now + 0.25
        rig.run(until=rig.env.now + 4.0 * fed.config.gossip_interval)
        assert agent._proc is not None and agent._proc.is_alive


class TestRaggedMemberColumns:
    def test_ragged_member_plane_is_dropped_whole(self):
        """``member_hosts`` and ``member_epochs`` are independent
        sequences on the wire, so a corrupted length prefix can leave
        them unequal.  Pre-fix shape of the bug: pairing what is there
        half-applies the frame with hosts matched to the wrong epochs
        (or raises inside the owner's dispatch).  The member plane of
        such a frame is dropped and counted; its owner beacons and
        records still merge, and the next well-formed frame is taken."""
        rig, fed = federated_rig(seed=227)
        rig.run(until=fed.settle_time())
        owner = fed.ring.owners(REPO_ID, 1)[0]
        agent = fed.agents[owner]
        peer = next(h for h in fed.agents if h != owner)
        now = rig.env.now
        members_before = dict(agent.membership._members)
        touched_before = dict(agent.membership._member_touched)
        record = replace(agent.store.lookup(REPO_ID)[0], epoch=now + 0.25)
        beacon = HostBeacon(peer, now + 0.25, alive=True, owner=True)
        for hosts, epochs in ((["c0h2", "c0h3", "c0h4"], [now + 0.25]),
                              (["c0h2"], [now + 0.25, now + 0.25])):
            agent.accept_gossip([record.to_value()], [beacon.to_value()],
                                hosts, epochs)
        assert rig.metrics.get("federation.rejected.ragged_members") == 2
        assert agent.membership._members == members_before
        assert agent.membership._member_touched == touched_before
        # The rest of the ragged frame was merged ...
        assert agent.membership.get(peer).epoch == now + 0.25
        assert agent.store.lookup(REPO_ID)[0].epoch == now + 0.25
        # ... and the next well-formed frame is accepted.
        agent.accept_gossip([], [], ["c0h2", "c0h3"],
                            [now + 0.25, now + 0.25])
        assert agent.membership._members["c0h2"] == now + 0.25
        assert agent.membership._members["c0h3"] == now + 0.25
        assert rig.metrics.get("federation.rejected.ragged_members") == 2
