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
    def test_corrupt_gossip_beacon_is_rejected(self):
        """Pre-fix: the phantom owner entered live_owners and the next
        gossip round died routing to it."""
        rig, fed = federated_rig(seed=224)
        rig.run(until=fed.settle_time())
        agent = next(iter(fed.agents.values()))
        phantom = HostBeacon("c9h9", rig.env.now, alive=True)
        agent.accept_gossip([], [phantom.to_value()])
        assert "c9h9" not in agent.membership.live_owners(
            rig.env.now, fed.config.member_timeout)
        # The gossip loop survives the (rejected) phantom.
        rig.run(until=rig.env.now + 4.0 * fed.config.gossip_interval)
        assert agent.loop.alive

    def test_corrupt_record_host_is_rejected(self):
        rig, fed = federated_rig(seed=225)
        rig.run(until=fed.settle_time())
        owner = fed.ring.owners(REPO_ID, 1)[0]
        agent = fed.agents[owner]
        good = agent.store.lookup(REPO_ID)
        assert good and good[0].host == "c0h1"
        corrupt = replace(good[0], host="c0j1", epoch=rig.env.now)
        agent.accept_gossip([corrupt.to_value()], [])
        assert {r.host for r in agent.store.lookup(REPO_ID)} == {"c0h1"}
