"""Regression tests for MRM replica placement (PR 8).

Pre-PR, ``_pick_mrm_hosts`` always took ``hosts[:replicas]``, so the
root-level MRMs and the first group's MRMs stacked onto the very same
hosts: killing the first host of the first group took out two hierarchy
levels at once.  Placement now offsets each level's picks so they land
on disjoint hosts whenever the pool allows it.
"""

from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    groups_by_cluster,
    groups_by_size,
)
from repro.sim.topology import clustered
from repro.testing import SimRig


def deploy(seed=90, replicas=1, cluster_size=3):
    rig = SimRig(clustered(2, cluster_size), seed=seed)
    cfg = RegistryConfig(update_interval=2.0, replicas=replicas)
    dr = DistributedRegistry(rig.nodes, cfg)
    dr.deploy(groups_by_cluster(rig.topology.host_ids()))
    return rig, dr


class TestPlacementSpread:
    def test_root_mrms_disjoint_from_first_group(self):
        _rig, dr = deploy()
        assert set(dr.root.mrm_hosts).isdisjoint(dr.groups["c0"].mrm_hosts)

    def test_root_mrms_disjoint_with_replicas(self):
        _rig, dr = deploy(seed=91, replicas=2, cluster_size=5)
        assert len(dr.root.mrm_hosts) == 2
        assert set(dr.root.mrm_hosts).isdisjoint(dr.groups["c0"].mrm_hosts)

    def test_root_level_survives_first_host_death(self):
        """Killing the first group's serving MRM host must not also
        decapitate the root level."""
        # One full-mesh LAN sliced into two groups: no gateway host, so
        # the only single point of failure is the placement itself.
        rig = SimRig(clustered(1, 6), seed=92)
        cfg = RegistryConfig(update_interval=2.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_size(rig.topology.host_ids(), 3))
        rig.run(until=dr.settle_time())
        assert "g1" in dr.root.agents[0].children  # hierarchy is warm
        victim = dr.groups["g0"].mrm_hosts[0]
        rig.topology.set_host_state(victim, alive=False)
        killed_at = rig.env.now
        rig.run(until=rig.env.now + 3 * cfg.update_interval)
        live_roots = [a for a in dr.root.agents if a.node.host.alive]
        assert live_roots, "root MRM level died with the group MRM host"
        # The surviving root keeps receiving the other group's
        # aggregates — the hierarchy is still functioning above g1.
        child = live_roots[0].children["g1"]
        assert child.last_seen > killed_at

    def test_tree_levels_stack_at_distinct_offsets(self):
        rig = SimRig(clustered(4, 3), seed=93)
        dr = DistributedRegistry(rig.nodes, RegistryConfig())
        hosts = groups_by_cluster(rig.topology.host_ids())
        dr.deploy({
            "west": {"c0": hosts["c0"], "c1": hosts["c1"]},
            "east": {"c2": hosts["c2"], "c3": hosts["c3"]},
        })
        root = set(dr.root.mrm_hosts)
        west = set(dr.groups["west"].mrm_hosts)
        leaf = set(dr.groups["c0"].mrm_hosts)
        # root (offset 2), the intermediate level (offset 1) and the
        # leaf group (offset 0) all sit in c0's host pool yet on
        # pairwise-distinct hosts.
        assert root.isdisjoint(west)
        assert root.isdisjoint(leaf)
        assert west.isdisjoint(leaf)

    def test_pick_wraps_on_small_pools(self):
        dr = DistributedRegistry({}, RegistryConfig(replicas=2))
        hosts = ["a", "b", "c"]
        assert dr._pick_mrm_hosts(hosts) == ["a", "b"]
        # Offset past the end wraps instead of running out of hosts.
        assert dr._pick_mrm_hosts(hosts, offset=2) == ["c", "a"]
        # A pool no bigger than the replica count is used as-is.
        assert dr._pick_mrm_hosts(["a", "b"], offset=4) == ["a", "b"]
