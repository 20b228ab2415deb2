"""Coverage for registry retargeting and liveness views (PR 8).

Two post-deployment paths that had no direct tests: retargeting a
group onto a replacement MRM while the members run *predictive*
reporters (whose whole point is staying silent — the retarget must
force a fresh report or the new MRM starts blind), and the
``live_hosts()`` soft-state liveness view when a serving MRM's own
host is dead.
"""

from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    groups_by_cluster,
    groups_by_size,
)
from repro.registry.mrm import MrmAgent
from repro.sim.topology import clustered
from repro.testing import SimRig


class TestRetargetPredictive:
    def deploy(self, seed, **cfg_kw):
        rig = SimRig(clustered(1, 4), seed=seed)
        cfg = RegistryConfig(update_interval=2.0, mode="predictive",
                             prediction_tolerance=1e9, **cfg_kw)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        return rig, dr

    def test_retarget_forces_fresh_predictive_reports(self):
        """With an enormous tolerance the reporters go silent after the
        first report; retargeting must still repopulate a fresh MRM
        within one update interval (the forced-resend path)."""
        rig, dr = self.deploy(seed=100)
        group = dr.groups["c0"]
        rig.run(until=dr.settle_time())
        # Promote a replacement on a non-serving host, by hand.
        new_host = next(h for h in group.member_hosts
                        if h not in group.mrm_hosts)
        new_agent = MrmAgent(rig.node(new_host), group.group_id,
                             config=dr.mrm_config)
        group.agents = [new_agent]
        group.mrm_hosts = [new_host]
        dr.retarget_group(group)
        assert new_agent.members == {}
        # Less than the keepalive window (2.5 intervals): any report
        # arriving now was forced by the retarget, not by keepalive.
        rig.run(until=rig.env.now + 2 * dr.config.update_interval)
        assert sorted(new_agent.members) == sorted(group.member_hosts)
        for host in group.member_hosts:
            assert dr.reporters[host].mrm_iors == [new_agent.ior]
            assert dr.resolvers[host].mrm_iors == [new_agent.ior]

    def test_supervised_promotion_with_predictive_reporters(self):
        """End-to-end: kill the serving MRM host; the supervisor
        promotes a replacement and the predictive members resync."""
        rig, dr = self.deploy(seed=101, supervise=True,
                              supervise_interval=2.0)
        group = dr.groups["c0"]
        rig.run(until=dr.settle_time())
        victim = group.mrm_hosts[0]
        rig.topology.set_host_state(victim, alive=False)
        rig.run(until=rig.env.now + 20.0)
        assert dr.supervisors[0].promotions
        replacement = group.agents[-1]
        assert replacement.node.host_id != victim
        live_members = [h for h in group.member_hosts if h != victim]
        for host in live_members:
            assert host in replacement.members


class TestRetargetStrong:
    def test_supervised_promotion_with_strong_reporters(self):
        """Strong-mode members follow a promoted MRM too: their acked
        updates and heartbeats go to the replacement, which then holds
        every live member (before, the promoted MRM stayed empty)."""
        rig = SimRig(clustered(1, 5), seed=103)
        dr = DistributedRegistry(rig.nodes, RegistryConfig(
            update_interval=2.0, mode="strong", supervise=True,
            supervise_interval=2.0))
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        rig.run(until=dr.settle_time())
        group = dr.groups["c0"]
        victim = group.mrm_hosts[0]
        rig.topology.set_host_state(victim, alive=False)
        rig.run(until=rig.env.now + 20.0)
        assert dr.supervisors[0].promotions
        replacement = group.agents[-1]
        live = set(rig.topology.host_ids()) - {victim}
        for host in live:
            assert dr.reporters[host].mrm_iors == [replacement.ior]
        assert set(replacement.members) == live
        assert dr.live_hosts() == live


class TestLiveHostsWithDeadMrm:
    def test_dead_serving_mrm_drops_from_live_view(self):
        rig = SimRig(clustered(1, 6), seed=102)
        cfg = RegistryConfig(update_interval=2.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_size(rig.topology.host_ids(), 3))
        rig.run(until=dr.settle_time())
        assert dr.live_hosts() == set(rig.topology.host_ids())
        victim = dr.groups["g1"].mrm_hosts[0]
        rig.topology.set_host_state(victim, alive=False)
        # Immediately after the crash — before any sweep — the dead
        # MRM host must already be gone from the live view: a crashed
        # agent's tables are wiped and its "serving host is alive by
        # construction" shortcut no longer applies.
        live = dr.live_hosts()
        assert victim not in live
        # The other group's soft state is untouched.
        for host in dr.groups["g0"].member_hosts:
            assert host in live
