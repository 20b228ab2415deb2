"""Member liveness is what each owner's node heard, not an epidemic.

A host's liveness is the arrival of its frames at the ring owners of
``host:<id>`` (``ORB.heard``), fed by its own publishes and never
relayed.  Three consequences pinned here:

- a gossip frame is O(owners) on a delta round and O(owners + the
  peer's share of records) on a full sync, and no larger on a larger
  population;
- liveness has the fault model of any other record: it survives the
  loss of ``replication - 1`` of its key's owners, and the loss of all
  of them takes the host out of ``live_hosts()`` at once, until one
  returns;
- no owner hears the whole population, yet their union does.
"""

import pytest

from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.sim.topology import clustered
from repro.testing import SimRig, counter_package

from tests.oracles.federation import add_owner

#: sixteen owners whose ids exist on both populations below
OWNERS = [f"c{c}h{j}" for c in range(4) for j in (1, 5, 9, 13)]


def population(n_clusters):
    """*n_clusters* x 16 hosts under the same 16 owners, one provider."""
    rig = SimRig(clustered(n_clusters, 16, backbone="chords"), seed=200)
    rig.node("c0h2").install_package(counter_package())
    fed = FederatedRegistry(rig.nodes, FederationConfig(
        owners=len(OWNERS), replication=2))
    fed.deploy(owner_hosts=OWNERS)
    rig.run(until=fed.settle_time() + 4.0 * fed.config.gossip_interval)
    return rig, fed


@pytest.fixture(scope="module")
def hosts_256():
    return population(16)


def mean_gossip_frame(rig) -> float:
    return (rig.metrics.get("federation.gossip.bytes")
            / rig.metrics.get("federation.gossip.msgs"))


class TestFrameSize:
    def test_mean_gossip_frame_does_not_grow_with_population(
            self, hosts_256):
        small, _ = population(4)
        large, _ = hosts_256
        assert (small.metrics.get("federation.gossip.msgs")
                == large.metrics.get("federation.gossip.msgs") > 0)
        # Equal owners, equal records.  A delta frame carries only the
        # beacons dated within one gossip round, so longer transit on
        # the larger population can only make its frames smaller.
        assert mean_gossip_frame(large) <= mean_gossip_frame(small) * 1.02


class TestPerOwnerBound:
    def test_no_owner_holds_the_population_but_the_union_does(
            self, hosts_256):
        rig, fed = hosts_256
        population_size = len(rig.topology.host_ids())
        assert population_size == 256
        for agent in fed.agents.values():
            heard = agent.node.orb.heard
            assert 0 < len(heard) <= population_size // 2
        assert fed.live_hosts() == set(rig.topology.host_ids())


class TestFaultModel:
    """3 owners, replication 2: H reports to exactly two of them."""

    def rig(self):
        rig = SimRig(clustered(1, 8), seed=201)
        fed = FederatedRegistry(rig.nodes, FederationConfig(
            owners=3, replication=2, update_interval=2.0,
            gossip_interval=1.0))
        fed.deploy()
        rig.run(until=fed.settle_time())
        host = next(h for h in rig.topology.host_ids()
                    if h not in fed.agents)
        keepers = fed.ring.owners(f"host:{host}", fed.config.replication)
        return rig, fed, host, keepers

    def test_one_owner_down_never_hides_the_host(self):
        rig, fed, host, keepers = self.rig()
        rig.topology.set_host_state(keepers[0], alive=False)
        deadline = rig.env.now + 2.0 * fed.config.member_timeout
        while rig.env.now < deadline:
            rig.run(until=rig.env.now + 0.5)
            assert host in fed.live_hosts()

    def test_all_owners_down_hides_it_until_one_returns(self):
        rig, fed, host, keepers = self.rig()
        assert len(fed.agents) > len(keepers), "a third owner survives"
        for owner in keepers:
            rig.topology.set_host_state(owner, alive=False)
        # At once: the surviving owner was never told about the host,
        # and nothing relays it there.
        assert host not in fed.live_hosts()
        rig.run(until=rig.env.now + fed.config.member_timeout)
        assert host not in fed.live_hosts()
        rig.topology.set_host_state(keepers[1], alive=True)
        rig.run(until=rig.env.now + fed.config.update_interval + 0.1)
        assert host in fed.live_hosts()

    def test_rebalancing_the_key_away_brings_it_back(self):
        """The other way back: take the dead owners off the ring and the
        host's next publish lands on its key's new owners."""
        rig, fed, host, keepers = self.rig()
        add_owner(fed, next(h for h in rig.topology.host_ids()
                            if h not in fed.agents and h != host))
        keepers = fed.ring.owners(f"host:{host}", fed.config.replication)
        rig.run(until=rig.env.now + fed.settle_time())
        for owner in keepers:
            rig.topology.set_host_state(owner, alive=False)
        assert host not in fed.live_hosts()
        for owner in keepers:
            fed.remove_owner(owner)
        rig.run(until=rig.env.now + fed.config.update_interval + 0.1)
        assert host in fed.live_hosts()


class TestDrain:
    def test_a_drained_live_owner_never_leaves_live_hosts(self):
        """``remove_owner`` on a live owner takes it off the ring, not
        out of the population: the owners that heard it keep hearing
        it as a plain member.  (A dead-mark that also dropped its
        member entry hid it for up to one ``update_interval``.)"""
        rig = SimRig(clustered(2, 8), seed=3)
        fed = FederatedRegistry(rig.nodes, FederationConfig(owners=4))
        fed.deploy()
        rig.run(until=fed.settle_time())
        everyone = set(rig.topology.host_ids())
        assert "c0h4" in fed.agents and fed.live_hosts() == everyone
        fed.remove_owner("c0h4")
        deadline = rig.env.now + 2.0 * fed.config.update_interval
        while True:
            assert fed.live_hosts() == everyone, rig.env.now
            if rig.env.now >= deadline:
                break
            rig.run(until=rig.env.now + 0.1)
