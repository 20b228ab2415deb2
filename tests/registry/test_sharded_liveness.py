"""The member plane is sharded soft state, not an epidemic.

A host's liveness lives at the ring owners of ``host:<id>``, fed by its
own publishes and never relayed.  Three consequences pinned here:

- a gossip frame is O(owners + changed records), whatever the
  population;
- liveness has the fault model of any other record: it survives the
  loss of ``replication - 1`` of its key's owners, and the loss of all
  of them takes the host out of ``live_hosts()`` at once, until one
  returns;
- no owner holds the whole population, yet their union does.
"""

import pytest

from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.sim.topology import clustered
from repro.testing import SimRig, counter_package

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
        # Equal owners, equal records: the frames differ only in which
        # delta rounds the one record's refreshes fell into.
        assert mean_gossip_frame(large) == pytest.approx(
            mean_gossip_frame(small), rel=0.02)


class TestPerOwnerBound:
    def test_no_owner_holds_the_population_but_the_union_does(
            self, hosts_256):
        rig, fed = hosts_256
        population_size = len(rig.topology.host_ids())
        assert population_size == 256
        for agent in fed.agents.values():
            assert 0 < len(agent.membership._members) <= population_size // 2
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
        fed.add_owner(next(h for h in rig.topology.host_ids()
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
