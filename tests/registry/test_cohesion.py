"""Tests for the Network Cohesion protocol."""

import pytest

from repro.registry.cohesion import (
    COHESION_IFACE,
    CohesionAgent,
    cohesion_ior,
    deploy_cohesion,
)
from repro.sim.topology import clustered, star
from repro.testing import SimRig, star_rig


def converge(rig, agents, seconds=15.0):
    rig.run(until=rig.env.now + seconds)
    return agents


class TestJoin:
    def test_view_converges_to_full_membership(self):
        rig = star_rig(4, seed=31)
        agents = deploy_cohesion(rig.nodes, ping_interval=2.0)
        converge(rig, agents)
        everyone = sorted(rig.topology.host_ids())
        for host, agent in agents.items():
            assert agent.known_hosts(include_self=True) == everyone

    def test_late_joiner_is_learned_by_all(self):
        rig = star_rig(4, seed=32)
        hosts = rig.topology.host_ids()
        early = {h: rig.nodes[h] for h in hosts if h != "h3"}
        agents = deploy_cohesion(early, ping_interval=2.0)
        converge(rig, agents)
        # h3 arrives later, seeded the same way
        agents["h3"] = CohesionAgent(rig.nodes["h3"], seeds=["hub"],
                                     ping_interval=2.0)
        converge(rig, agents, 20.0)
        for agent in agents.values():
            assert "h3" in agent.known_hosts(include_self=True)
        assert sorted(agents["h3"].known_hosts()) == sorted(
            h for h in hosts if h != "h3")

    def test_graceful_leave_removes_peer(self):
        rig = star_rig(3, seed=33)
        agents = deploy_cohesion(rig.nodes, ping_interval=2.0)
        converge(rig, agents)
        # h1 announces its leave to every peer it knows, then stops
        h1 = agents["h1"]
        for host in h1.known_hosts():
            h1.node.orb.invoke(cohesion_ior(host),
                               COHESION_IFACE.operations["leave"], ("h1",))
        h1.loop.stop()
        rig.run(until=rig.env.now + 3.0)
        for host, agent in agents.items():
            if host == "h1":
                continue
            assert "h1" not in agent.known_hosts()


class TestLiveness:
    def test_crashed_peer_suspected_after_missed_pings(self):
        rig = star_rig(3, seed=34)
        agents = deploy_cohesion(rig.nodes, ping_interval=2.0,
                                 suspect_after=2)
        converge(rig, agents)
        rig.topology.set_host_state("h1", alive=False)
        # enough time for everyone's rotation to miss h1 twice
        rig.run(until=rig.env.now + 40.0)
        for host, agent in agents.items():
            if host == "h1":
                continue
            assert not agent.is_peer_alive("h1")
            assert "h1" not in agent.known_hosts()

    def test_reconnection_is_graceful(self):
        """§2.4.3: 'must support either node disconnections and
        re-connections gracefully'."""
        rig = star_rig(3, seed=35)
        agents = deploy_cohesion(rig.nodes, ping_interval=2.0,
                                 suspect_after=2)
        converge(rig, agents)
        rig.topology.set_host_state("h1", alive=False)
        rig.run(until=rig.env.now + 40.0)
        assert not agents["hub"].is_peer_alive("h1")
        # back up: the restarted agent re-joins through its seeds
        rig.topology.set_host_state("h1", alive=True)
        rig.run(until=rig.env.now + 30.0)
        assert agents["hub"].is_peer_alive("h1")
        assert sorted(agents["h1"].known_hosts()) == ["h0", "h2", "hub"]

    def test_crash_wipes_local_view(self):
        rig = star_rig(3, seed=36)
        agents = deploy_cohesion(rig.nodes, ping_interval=2.0)
        converge(rig, agents)
        assert agents["h0"].peers
        rig.topology.set_host_state("h0", alive=False)
        assert agents["h0"].peers == {}

    def test_partition_splits_views_then_heals(self):
        from repro.sim.faults import FaultInjector
        rig = SimRig(clustered(2, 3), seed=37)
        agents = deploy_cohesion(rig.nodes, ping_interval=2.0,
                                 suspect_after=2,
                                 seeds=["c0h0", "c1h0"])
        converge(rig, agents, 20.0)
        injector = FaultInjector(rig.env, rig.topology)
        cuts = injector.partition(
            [h for h in rig.topology.host_ids() if h.startswith("c0")],
            [h for h in rig.topology.host_ids() if h.startswith("c1")])
        rig.run(until=rig.env.now + 40.0)
        # each side sees only itself
        assert all(p.startswith("c0")
                   for p in agents["c0h1"].known_hosts())
        assert all(p.startswith("c1")
                   for p in agents["c1h1"].known_hosts())
        injector.heal_partition(cuts)
        rig.run(until=rig.env.now + 40.0)
        # pings resume and the views re-merge
        assert any(p.startswith("c1")
                   for p in agents["c0h1"].known_hosts())


class TestProtocolCost:
    def test_ping_traffic_is_bounded(self):
        rig = star_rig(8, seed=38)
        deploy_cohesion(rig.nodes, ping_interval=2.0, fanout=3)
        rig.run(until=60.0)
        msgs = rig.metrics.get("cohesion.msgs")
        # 9 nodes x fanout 3 x 30 rounds = 810 pings upper bound (+joins)
        assert 0 < msgs <= 9 * 3 * 30 + 9 * 2

    def test_deterministic(self):
        def run(seed):
            rig = star_rig(4, seed=seed)
            agents = deploy_cohesion(rig.nodes, ping_interval=2.0)
            rig.run(until=30.0)
            return {h: a.known_hosts() for h, a in agents.items()}, \
                rig.metrics.get("cohesion.msgs")
        assert run(7) == run(7)
